//! The N-file result database over simulated flash.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use bytes::{Buf, BufMut, BytesMut};
use mobsim::flash::{FlashError, FlashStore};
use mobsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::record::{DecodeError, ResultRecord};

/// Bytes of one header index entry: a 64-bit hash and a 32-bit offset.
const HEADER_ENTRY_BYTES: u64 = 12;
/// Bytes of the header preamble: capacity and live count.
const HEADER_PREAMBLE_BYTES: u64 = 8;

/// Database configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbConfig {
    /// Number of database files results are hashed across.
    pub n_files: usize,
    /// CPU cost of parsing one header entry during retrieval.
    pub header_parse_per_entry: SimDuration,
    /// Minimum header capacity (entries) of a freshly built file.
    pub initial_header_capacity: usize,
}

impl Default for DbConfig {
    /// The paper's choice: 32 files (§5.2.2, Figure 12).
    fn default() -> Self {
        DbConfig {
            n_files: 32,
            header_parse_per_entry: SimDuration::from_micros(10),
            initial_header_capacity: 8,
        }
    }
}

impl DbConfig {
    /// A config with a different file count (for the Figure 12 sweep).
    pub fn with_files(n_files: usize) -> Self {
        DbConfig {
            n_files,
            ..DbConfig::default()
        }
    }

    fn validate(&self) {
        assert!(self.n_files > 0, "the database needs at least one file");
    }
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// No record with this hash is stored.
    NotFound {
        /// The requested record hash.
        result_hash: u64,
    },
    /// The underlying flash store failed.
    Flash(FlashError),
    /// Stored bytes failed to decode.
    Corrupt(DecodeError),
    /// A file's on-flash header disagrees with the database's in-memory
    /// mirror — the header region was damaged or written by something
    /// else.
    CorruptHeader {
        /// Index of the damaged file.
        file: usize,
        /// What check failed.
        detail: String,
    },
    /// A record's stored bytes ended before its encoded fields did.
    TruncatedRecord {
        /// The record whose bytes were short.
        result_hash: u64,
    },
}

impl DbError {
    /// Whether this error indicates damaged on-flash state (corrupt
    /// bytes, broken headers, lost files) as opposed to a merely absent
    /// record. Damage is the class of failures a cloudlet can repair by
    /// re-fetching the affected file's records over the radio.
    pub fn is_corruption(&self) -> bool {
        !matches!(self, DbError::NotFound { .. })
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NotFound { result_hash } => {
                write!(f, "no record stored for hash {result_hash:#018x}")
            }
            DbError::Flash(e) => write!(f, "flash error: {e}"),
            DbError::Corrupt(e) => write!(f, "corrupt record: {e}"),
            DbError::CorruptHeader { file, detail } => {
                write!(f, "corrupt header in database file {file}: {detail}")
            }
            DbError::TruncatedRecord { result_hash } => {
                write!(f, "truncated record for hash {result_hash:#018x}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<DbError> for cloudlet_core::service::CloudletError {
    /// Storage errors surface to the service layer as
    /// [`CloudletError::Storage`](cloudlet_core::service::CloudletError::Storage)
    /// text; this is the orphan-rule-legal home for the conversion.
    fn from(e: DbError) -> Self {
        cloudlet_core::service::CloudletError::Storage {
            detail: e.to_string(),
        }
    }
}

impl From<FlashError> for DbError {
    fn from(e: FlashError) -> Self {
        DbError::Flash(e)
    }
}

impl From<DecodeError> for DbError {
    fn from(e: DecodeError) -> Self {
        DbError::Corrupt(e)
    }
}

/// Space accounting for the database (feeds Figures 8 and 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DbStats {
    /// Number of database files.
    pub files: usize,
    /// Live records stored.
    pub records: usize,
    /// Logical bytes across all files (headers + data).
    pub logical_bytes: u64,
    /// Block-rounded bytes the files occupy on flash.
    pub allocated_bytes: u64,
    /// Bytes lost to block rounding.
    pub fragmentation_bytes: u64,
    /// Dead record bytes awaiting compaction.
    pub dead_bytes: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FileState {
    /// Live entries: hash → (offset, encoded length).
    index: BTreeMap<u64, (u32, u32)>,
    /// Header slots available before a rebuild is needed.
    capacity: usize,
    /// Bytes of dead records in the data region.
    dead_bytes: u64,
}

impl FileState {
    fn header_bytes(&self) -> u64 {
        HEADER_PREAMBLE_BYTES + self.capacity as u64 * HEADER_ENTRY_BYTES
    }
}

/// The flash-resident result database (Figure 13).
///
/// The struct holds an in-memory mirror of each file's header; the
/// authoritative bytes live in the [`FlashStore`] and every operation
/// charges the flash timing model for what it touches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultDb {
    config: DbConfig,
    files: Vec<FileState>,
}

impl ResultDb {
    /// Builds a database from an initial record set, writing every file.
    /// Records may be owned, borrowed, or shared (`Arc<ResultRecord>`) —
    /// anything that borrows as a record serializes without cloning it.
    ///
    /// Records are deduplicated by hash (each result is stored once).
    pub fn build<R: Borrow<ResultRecord>>(
        records: impl IntoIterator<Item = R>,
        config: DbConfig,
        flash: &mut FlashStore,
    ) -> Self {
        config.validate();
        let mut buckets: Vec<Vec<R>> = (0..config.n_files).map(|_| Vec::new()).collect();
        let mut seen = std::collections::HashSet::new();
        for r in records {
            let hash = r.borrow().result_hash;
            if seen.insert(hash) {
                buckets[(hash % config.n_files as u64) as usize].push(r);
            }
        }
        let mut files = Vec::with_capacity(config.n_files);
        for (i, bucket) in buckets.into_iter().enumerate() {
            let (bytes, state) = Self::serialize_file(&bucket, &config);
            flash.write_file(Self::file_name(i), bytes);
            files.push(state);
        }
        ResultDb { config, files }
    }

    /// The database configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    fn file_name(i: usize) -> String {
        format!("psdb-{i:03}")
    }

    /// The file index that stores (or would store) `result_hash` — the
    /// `hash % n_files` placement rule of Figure 13. Exposed so serving
    /// layers can partition files across workers consistently with it.
    pub fn file_index(&self, result_hash: u64) -> usize {
        self.file_for(result_hash)
    }

    /// The on-flash name of database file `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= n_files`.
    pub fn file_name_of(&self, index: usize) -> String {
        assert!(
            index < self.config.n_files,
            "file index {index} out of range ({} files)",
            self.config.n_files
        );
        Self::file_name(index)
    }

    fn file_for(&self, result_hash: u64) -> usize {
        (result_hash % self.config.n_files as u64) as usize
    }

    /// Hashes of every record the mirror places in file `index`, sorted.
    /// This is the re-fetch manifest when that file is damaged: the
    /// authoritative copies live on the server, keyed by these hashes.
    ///
    /// # Panics
    ///
    /// Panics when `index >= n_files`.
    pub fn file_hashes(&self, index: usize) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.files[index].index.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Rebuilds file `index` from fresh, authoritative record bodies
    /// (e.g. re-fetched over the radio after corruption), replacing
    /// whatever bytes were on flash. Records that do not belong to this
    /// file under the `hash % n_files` rule are ignored. Returns the
    /// simulated flash time spent.
    ///
    /// Unlike [`compact`](Self::compact), this never reads the old file,
    /// so it works even when the old bytes are unreadable; the rewrite
    /// also lands on freshly allocated blocks, which is what lets a
    /// wear-leveling allocator migrate the file off worn media.
    pub fn restore_file<R: Borrow<ResultRecord>>(
        &mut self,
        index: usize,
        records: impl IntoIterator<Item = R>,
        flash: &mut FlashStore,
    ) -> SimDuration {
        let name = self.file_name_of(index);
        let mut bucket: Vec<R> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for r in records {
            let hash = r.borrow().result_hash;
            if self.file_for(hash) == index && seen.insert(hash) {
                bucket.push(r);
            }
        }
        let (bytes, state) = Self::serialize_file(&bucket, &self.config);
        let time = flash.write_file(name, bytes);
        self.files[index] = state;
        time
    }

    /// Rewrites file `index` in place from its own live records — a
    /// single-file compaction used to rotate a file off worn blocks.
    ///
    /// # Errors
    ///
    /// Propagates flash and decode failures; a file whose records no
    /// longer decode cannot be rotated and needs
    /// [`restore_file`](Self::restore_file) instead.
    pub fn rewrite_file(
        &mut self,
        index: usize,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        self.rebuild_file_with(index, None, flash)
    }

    fn serialize_file<R: Borrow<ResultRecord>>(
        records: &[R],
        config: &DbConfig,
    ) -> (Vec<u8>, FileState) {
        let data_bytes = records.iter().map(|r| r.borrow().encoded_len()).sum();
        let mut image = FileImage::new(records.len(), data_bytes, config);
        for r in records {
            image.push(r.borrow());
        }
        image.finish()
    }

    /// Whether a record with this hash is stored.
    pub fn contains(&self, result_hash: u64) -> bool {
        self.files[self.file_for(result_hash)]
            .index
            .contains_key(&result_hash)
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.files.iter().map(|f| f.index.len()).sum()
    }

    /// Retrieves a record, charging the full §5.2.2 path: file open,
    /// header page reads, per-entry parse time, and record page reads.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] when no record has this hash;
    /// [`DbError::CorruptHeader`] when the on-flash header preamble
    /// disagrees with the in-memory mirror; [`DbError::TruncatedRecord`]
    /// when the record's bytes end early; flash or decode errors
    /// otherwise.
    pub fn get(
        &self,
        result_hash: u64,
        flash: &FlashStore,
    ) -> Result<(ResultRecord, SimDuration), DbError> {
        let file_idx = self.file_for(result_hash);
        let state = &self.files[file_idx];
        let name = Self::file_name(file_idx);

        let mut time = flash.open_cost();

        // Read and parse the header region.
        let header = flash.read(&name, 0, state.header_bytes())?;
        time += header.time;
        time += self.config.header_parse_per_entry * state.index.len() as u64;
        Self::check_preamble(file_idx, &header.data, state)?;

        let &(offset, len) = state
            .index
            .get(&result_hash)
            .ok_or(DbError::NotFound { result_hash })?;

        let record_read = flash.read(&name, u64::from(offset), u64::from(len))?;
        time += record_read.time;
        let record = match ResultRecord::decode(&mut record_read.data.as_slice()) {
            Ok(record) => record,
            Err(DecodeError::Truncated) => return Err(DbError::TruncatedRecord { result_hash }),
            Err(e) => return Err(DbError::Corrupt(e)),
        };
        Ok((record, time))
    }

    /// Checks a freshly read header preamble against the in-memory
    /// mirror `state`.
    fn check_preamble(file_idx: usize, data: &[u8], state: &FileState) -> Result<(), DbError> {
        let mut buf = data;
        if buf.remaining() < HEADER_PREAMBLE_BYTES as usize {
            return Err(DbError::CorruptHeader {
                file: file_idx,
                detail: format!("preamble truncated at {} bytes", buf.remaining()),
            });
        }
        let capacity = buf.get_u32_le() as usize;
        let count = buf.get_u32_le() as usize;
        if capacity != state.capacity || count != state.index.len() {
            return Err(DbError::CorruptHeader {
                file: file_idx,
                detail: format!(
                    "preamble says capacity {capacity} / count {count}, \
                     mirror has capacity {} / count {}",
                    state.capacity,
                    state.index.len()
                ),
            });
        }
        Ok(())
    }

    /// Retrieves several records (e.g. the two results of a hash-table
    /// entry), summing their retrieval times.
    ///
    /// # Errors
    ///
    /// Fails on the first missing or corrupt record.
    pub fn get_many(
        &self,
        hashes: impl IntoIterator<Item = u64>,
        flash: &FlashStore,
    ) -> Result<(Vec<ResultRecord>, SimDuration), DbError> {
        let mut out = Vec::new();
        let mut total = SimDuration::ZERO;
        for h in hashes {
            let (r, t) = self.get(h, flash)?;
            out.push(r);
            total += t;
        }
        Ok((out, total))
    }

    /// Inserts a record: appends it to its file and augments the header in
    /// place (Figure 13's add path). A record whose hash is already stored
    /// is left untouched. Accepts owned, borrowed, or shared records; the
    /// record is only cloned on the rare header-overflow rebuild. Returns
    /// the simulated time spent.
    ///
    /// # Errors
    ///
    /// Propagates flash failures.
    pub fn insert(
        &mut self,
        record: impl Borrow<ResultRecord>,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let record = record.borrow();
        let file_idx = self.file_for(record.result_hash);
        let name = Self::file_name(file_idx);
        if self.files[file_idx].index.contains_key(&record.result_hash) {
            return Ok(SimDuration::ZERO);
        }

        if self.files[file_idx].index.len() == self.files[file_idx].capacity {
            return self.rebuild_file_with(file_idx, Some(record), flash);
        }

        let encoded = record.encode();
        let (offset, append_time) = flash.append(&name, &encoded);
        let mut time = append_time;

        // Augment the header: bump the live count and fill the next slot.
        let state = &mut self.files[file_idx];
        let slot = state.index.len() as u64;
        let mut slot_bytes = BytesMut::with_capacity(HEADER_ENTRY_BYTES as usize);
        slot_bytes.put_u64_le(record.result_hash);
        slot_bytes.put_u32_le(offset as u32);
        time += flash.overwrite(
            &name,
            HEADER_PREAMBLE_BYTES + slot * HEADER_ENTRY_BYTES,
            &slot_bytes,
        )?;
        let mut count_bytes = BytesMut::with_capacity(4);
        count_bytes.put_u32_le(state.index.len() as u32 + 1);
        time += flash.overwrite(&name, 4, &count_bytes)?;

        state
            .index
            .insert(record.result_hash, (offset as u32, encoded.len() as u32));
        Ok(time)
    }

    /// Removes a record's index entry; its bytes become dead until the
    /// next [`compact`](Self::compact). Returns whether it existed.
    ///
    /// # Errors
    ///
    /// Propagates flash failures from the header rewrite.
    pub fn remove(&mut self, result_hash: u64, flash: &mut FlashStore) -> Result<bool, DbError> {
        let file_idx = self.file_for(result_hash);
        let Some((_, len)) = self.files[file_idx].index.remove(&result_hash) else {
            return Ok(false);
        };
        self.files[file_idx].dead_bytes += u64::from(len);
        self.rewrite_header(file_idx, flash)?;
        Ok(true)
    }

    /// Rewrites every file that carries dead bytes, reclaiming space.
    /// Returns the bytes freed and the simulated time spent.
    ///
    /// # Errors
    ///
    /// Propagates flash failures.
    pub fn compact(&mut self, flash: &mut FlashStore) -> Result<(u64, SimDuration), DbError> {
        let mut freed = 0;
        let mut time = SimDuration::ZERO;
        for i in 0..self.files.len() {
            if self.files[i].dead_bytes == 0 {
                continue;
            }
            freed += self.files[i].dead_bytes;
            time += self.rebuild_file_with(i, None, flash)?;
        }
        Ok((freed, time))
    }

    /// Space accounting across all database files.
    pub fn stats(&self, flash: &FlashStore) -> DbStats {
        let mut logical = 0u64;
        let mut allocated = 0u64;
        for i in 0..self.files.len() {
            let size = flash.file_size(&Self::file_name(i)).unwrap_or(0);
            logical += size;
            allocated += flash.model().allocated_bytes(size);
        }
        DbStats {
            files: self.files.len(),
            records: self.record_count(),
            logical_bytes: logical,
            allocated_bytes: allocated,
            fragmentation_bytes: allocated - logical,
            dead_bytes: self.files.iter().map(|f| f.dead_bytes).sum(),
        }
    }

    /// Re-reads every header from flash and checks it against the
    /// in-memory mirror. Used by tests and after patch application.
    ///
    /// # Errors
    ///
    /// [`DbError::CorruptHeader`] when a header preamble or index entry
    /// disagrees with the mirror; flash errors when a file cannot be
    /// read.
    pub fn verify(&self, flash: &FlashStore) -> Result<(), DbError> {
        for (i, state) in self.files.iter().enumerate() {
            let name = Self::file_name(i);
            let header = flash.read(&name, 0, state.header_bytes())?;
            Self::check_preamble(i, &header.data, state)?;
            let mut buf = &header.data[HEADER_PREAMBLE_BYTES as usize..];
            for slot in 0..state.index.len() {
                if buf.remaining() < HEADER_ENTRY_BYTES as usize {
                    return Err(DbError::CorruptHeader {
                        file: i,
                        detail: format!("index entry {slot} truncated"),
                    });
                }
                let hash = buf.get_u64_le();
                let offset = buf.get_u32_le();
                match state.index.get(&hash) {
                    Some(&(o, _)) if o == offset => {}
                    _ => {
                        return Err(DbError::CorruptHeader {
                            file: i,
                            detail: format!(
                                "index entry {slot} ({hash:#018x} @ {offset}) \
                                 is not in the mirror"
                            ),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    fn rewrite_header(
        &mut self,
        file_idx: usize,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let state = &self.files[file_idx];
        let mut out = BytesMut::with_capacity(state.header_bytes() as usize);
        out.put_u32_le(state.capacity as u32);
        out.put_u32_le(state.index.len() as u32);
        for (&hash, &(offset, _)) in &state.index {
            out.put_u64_le(hash);
            out.put_u32_le(offset);
        }
        out.resize(state.header_bytes() as usize, 0);
        Ok(flash.overwrite(&Self::file_name(file_idx), 0, &out)?)
    }

    /// Rewrites file `file_idx` from its live records (in offset order)
    /// plus `extra`. Each live record is read back and fully checked —
    /// length prefixes, UTF-8 and CRC-32, as a decode would — and its
    /// verified bytes are copied forward unchanged, which is exactly what
    /// re-encoding the decoded record would write.
    fn rebuild_file_with(
        &mut self,
        file_idx: usize,
        extra: Option<&ResultRecord>,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let name = Self::file_name(file_idx);
        let state = &self.files[file_idx];
        let mut live: Vec<(u32, u32)> = state.index.values().copied().collect();
        live.sort_unstable();
        let records = live.len() + usize::from(extra.is_some());
        let data_bytes = live.iter().map(|&(_, len)| len as usize).sum::<usize>()
            + extra.map_or(0, ResultRecord::encoded_len);
        let mut image = FileImage::new(records, data_bytes, &self.config);
        let mut time = flash.open_cost();
        for (offset, len) in live {
            let start = image.bytes.len();
            time += flash.read_into(&name, u64::from(offset), u64::from(len), &mut image.bytes)?;
            let (hash, encoded_len) = ResultRecord::check(&image.bytes[start..])?;
            image.bytes.truncate(start + encoded_len);
            image.entries.push((hash, start as u32, encoded_len as u32));
        }
        if let Some(r) = extra {
            image.push(r);
        }
        let (bytes, state) = image.finish();
        time += flash.write_file(name, bytes);
        self.files[file_idx] = state;
        Ok(time)
    }
}

/// One database file being laid out in memory: a zeroed header region
/// sized for the file's capacity, then records appended in order.
/// [`finish`](Self::finish) fills in the header.
struct FileImage {
    capacity: usize,
    bytes: Vec<u8>,
    /// `(hash, offset, encoded length)` of each record, in file order.
    entries: Vec<(u64, u32, u32)>,
}

impl FileImage {
    /// An empty image for `records` records of `data_bytes` in total;
    /// the header gets room for twice that many records (rounded up to a
    /// power of two, at least the configured minimum) so later inserts
    /// can augment it in place. The buffer is sized exactly, so the file
    /// the store keeps carries no spare capacity.
    fn new(records: usize, data_bytes: usize, config: &DbConfig) -> Self {
        let capacity = records
            .saturating_mul(2)
            .next_power_of_two()
            .max(config.initial_header_capacity);
        let header_bytes = (HEADER_PREAMBLE_BYTES + capacity as u64 * HEADER_ENTRY_BYTES) as usize;
        let mut bytes = Vec::with_capacity(header_bytes + data_bytes);
        bytes.resize(header_bytes, 0);
        FileImage {
            capacity,
            bytes,
            entries: Vec::with_capacity(records),
        }
    }

    /// Appends a freshly encoded record.
    fn push(&mut self, record: &ResultRecord) {
        let offset = self.bytes.len();
        record.encode_into(&mut self.bytes);
        self.entries.push((
            record.result_hash,
            offset as u32,
            (self.bytes.len() - offset) as u32,
        ));
    }

    /// Writes the header and returns the file bytes with their mirror.
    fn finish(self) -> (Vec<u8>, FileState) {
        let FileImage {
            capacity,
            mut bytes,
            entries,
        } = self;
        let mut header = Vec::with_capacity(
            (HEADER_PREAMBLE_BYTES + entries.len() as u64 * HEADER_ENTRY_BYTES) as usize,
        );
        header.put_u32_le(capacity as u32);
        header.put_u32_le(entries.len() as u32);
        for &(hash, offset, _) in &entries {
            header.put_u64_le(hash);
            header.put_u32_le(offset);
        }
        bytes[..header.len()].copy_from_slice(&header);
        let state = FileState {
            index: entries
                .iter()
                .map(|&(hash, offset, len)| (hash, (offset, len)))
                .collect(),
            capacity,
            dead_bytes: 0,
        };
        (bytes, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobsim::flash::FlashModel;

    fn record(hash: u64) -> ResultRecord {
        ResultRecord::new(
            hash,
            format!("Title {hash}"),
            format!("site{hash}.com"),
            "x".repeat(400),
        )
    }

    fn build(n_records: u64, n_files: usize) -> (ResultDb, FlashStore) {
        let mut flash = FlashStore::new(FlashModel::default());
        let db = ResultDb::build(
            (0..n_records).map(record),
            DbConfig::with_files(n_files),
            &mut flash,
        );
        (db, flash)
    }

    #[test]
    fn build_and_get_round_trip() {
        let (db, flash) = build(100, 32);
        assert_eq!(db.record_count(), 100);
        for h in [0u64, 17, 99] {
            let (r, t) = db.get(h, &flash).unwrap();
            assert_eq!(r, record(h));
            assert!(t > SimDuration::ZERO);
        }
        assert!(matches!(
            db.get(1_000, &flash),
            Err(DbError::NotFound { result_hash: 1_000 })
        ));
        db.verify(&flash).unwrap();
    }

    #[test]
    fn duplicate_hashes_are_stored_once() {
        let mut flash = FlashStore::new(FlashModel::default());
        let db = ResultDb::build(
            vec![record(1), record(1), record(2)],
            DbConfig::default(),
            &mut flash,
        );
        assert_eq!(db.record_count(), 2);
    }

    #[test]
    fn two_result_fetch_is_about_ten_milliseconds() {
        // Table 4: "Fetch Search Results" ~10 ms with the paper's 32-file
        // database at its evaluation size (~2,500 records).
        let (db, flash) = build(2_500, 32);
        let (records, time) = db.get_many([3, 1_204], &flash).unwrap();
        assert_eq!(records.len(), 2);
        let ms = time.as_millis_f64();
        assert!(
            (5.0..16.0).contains(&ms),
            "two-result fetch took {ms:.1} ms"
        );
    }

    #[test]
    fn figure12_tradeoff_few_files_slow_many_files_fragmented() {
        let fetch_ms = |n_files: usize| {
            let (db, flash) = build(2_500, n_files);
            let (_, t) = db.get_many([3, 1_204], &flash).unwrap();
            t.as_millis_f64()
        };
        let frag = |n_files: usize| {
            build(2_500, n_files)
                .0
                .stats(&build(2_500, n_files).1)
                .fragmentation_bytes
        };

        // Retrieval gets cheaper from 1 file to 32 files...
        assert!(
            fetch_ms(1) > 2.0 * fetch_ms(32),
            "1-file header scan should dominate"
        );
        // ...but fragmentation keeps growing with the file count.
        assert!(frag(256) > frag(32));
        assert!(frag(32) >= frag(4));
    }

    #[test]
    fn insert_appends_and_augments_header() {
        let (mut db, mut flash) = build(10, 4);
        let t = db.insert(record(500), &mut flash).unwrap();
        assert!(t > SimDuration::ZERO);
        assert!(db.contains(500));
        let (r, _) = db.get(500, &flash).unwrap();
        assert_eq!(r, record(500));
        db.verify(&flash).unwrap();
        // Re-inserting the same record is free and harmless.
        assert_eq!(
            db.insert(record(500), &mut flash).unwrap(),
            SimDuration::ZERO
        );
        assert_eq!(db.record_count(), 11);
    }

    #[test]
    fn header_overflow_triggers_rebuild() {
        let mut flash = FlashStore::new(FlashModel::default());
        let mut db = ResultDb::build(
            (0..8).map(|i| record(i * 2)), // all even hashes, 2 files
            DbConfig {
                n_files: 2,
                initial_header_capacity: 4,
                ..DbConfig::default()
            },
            &mut flash,
        );
        // Fill file 0 beyond any initial capacity.
        for i in 0..40u64 {
            db.insert(record(i * 2), &mut flash).unwrap();
        }
        assert_eq!(
            db.record_count(),
            40,
            "8 initial hashes overlap the 40 inserted"
        );
        db.verify(&flash).unwrap();
        for i in 0..40u64 {
            assert!(db.contains(i * 2));
        }
    }

    #[test]
    fn remove_then_compact_reclaims_space() {
        let (mut db, mut flash) = build(50, 8);
        let before = db.stats(&flash);
        for h in 0..25u64 {
            assert!(db.remove(h, &mut flash).unwrap());
        }
        assert!(!db.remove(0, &mut flash).unwrap(), "double remove is false");
        assert!(db.get(0, &flash).is_err());
        let mid = db.stats(&flash);
        assert_eq!(mid.records, 25);
        assert!(mid.dead_bytes > 0);

        let (freed, _) = db.compact(&mut flash).unwrap();
        assert_eq!(freed, mid.dead_bytes);
        let after = db.stats(&flash);
        assert_eq!(after.dead_bytes, 0);
        assert!(after.logical_bytes < before.logical_bytes);
        db.verify(&flash).unwrap();
        // Survivors still readable.
        let (r, _) = db.get(30, &flash).unwrap();
        assert_eq!(r, record(30));
    }

    #[test]
    fn stats_account_fragmentation() {
        let (db, flash) = build(100, 32);
        let s = db.stats(&flash);
        assert_eq!(s.files, 32);
        assert_eq!(s.records, 100);
        assert_eq!(s.allocated_bytes - s.logical_bytes, s.fragmentation_bytes);
        assert!(s.allocated_bytes % flash.model().block_bytes == 0);
    }

    #[test]
    fn evaluation_size_database_fits_the_papers_footprint() {
        // §6.1: ~2,500 results occupy ~1 MB of flash.
        let (db, flash) = build(2_500, 32);
        let s = db.stats(&flash);
        let mb = s.allocated_bytes as f64 / 1e6;
        assert!((1.0..2.0).contains(&mb), "database occupied {mb:.2} MB");
    }

    #[test]
    fn compaction_refuses_to_copy_a_corrupt_live_record_forward() {
        use crate::patch::{apply_patch, DbPatch};
        use mobsim::flash::WearModel;

        let mut flash = FlashStore::new(FlashModel {
            wear: WearModel::enabled_with_seed(17),
            ..FlashModel::default()
        });
        let mut db = ResultDb::build((0..40).map(record), DbConfig::with_files(4), &mut flash);
        // Wear out the block holding live record 8 (file 0) until a
        // stuck bit lands inside it and changes what it reads back as.
        let victim = 8;
        let (offset, _) = db.files[0].index[&victim];
        let block_bytes = flash.model().block_bytes;
        let block =
            flash.file_block_ids("psdb-000").unwrap()[(u64::from(offset) / block_bytes) as usize];
        let mut aged = 0;
        while db.get(victim, &flash).is_ok() {
            flash.age_block(block, 1);
            aged += 1;
            assert!(aged < 10_000, "no stuck bit ever hit the record");
        }
        assert!(matches!(db.get(victim, &flash), Err(DbError::Corrupt(_))));

        // Dead bytes in file 0 make compaction rewrite it; it must stop
        // at the corrupt record and leave the file and mirror as they were.
        assert!(db.remove(4, &mut flash).unwrap());
        let (db_before, flash_before) = (db.clone(), flash.clone());
        assert!(matches!(db.compact(&mut flash), Err(DbError::Corrupt(_))));
        assert_eq!(db, db_before);
        assert_eq!(flash, flash_before, "nothing was written");

        // The nightly patch path reports the same typed error.
        let patch = DbPatch {
            adds: Vec::new(),
            removes: vec![12],
        };
        assert!(matches!(
            apply_patch(&mut db, &patch, &mut flash),
            Err(DbError::Corrupt(_))
        ));
        assert!(db.contains(victim), "the corrupt record was not dropped");
    }
}
