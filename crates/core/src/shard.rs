//! Sharded DRAM index for concurrent serving (§8 scaling discussion).
//!
//! A [`ShardedTable`] partitions one [`QueryHashTable`] into `S`
//! independent shards by `query_hash % S`, each behind its own
//! rank-checked lock ([`OrderedRwLock`] at rank
//! [`crate::lockrank::SHARD`]). Every salted overflow entry of a query
//! keys on the same `query_hash`, so a whole chain lands in one shard
//! and a per-shard lookup returns exactly what the unsharded table
//! would. Readers on different shards never contend, which is what
//! lets a serving fleet (see the `pocketsearch` crate's `fleet`
//! module) fan queries out across worker threads.
//!
//! Shard locks are innermost in the workspace lock order: nothing may
//! be acquired while a shard guard is held, and the whole-table
//! aggregations below therefore take their per-shard guards one at a
//! time (a guard per iteration, never two at once).
//!
//! Since the lock-free hot-path rebuild, each shard also carries an
//! [`AtomicTable`] read **mirror**: [`ShardedTable::lookup`] probes the
//! mirror with zero lock acquisitions, while writers go through
//! [`ShardedTable::write`], whose [`ShardWriteGuard`] republishes the
//! owning shard's mirror when dropped. The locked table stays
//! authoritative; [`ShardedTable::lookup_locked`] keeps the original
//! guarded path as the baseline the wall-clock benches and equivalence
//! proptests compare against.

use analysis::sync::{OrderedReadGuard, OrderedRwLock, OrderedWriteGuard};

use crate::hashtable::atomic::AtomicTable;
use crate::hashtable::{EntryRecord, QueryHashTable, ScoredResult};
use crate::lockrank;

/// A [`QueryHashTable`] split into independently locked shards.
///
/// # Example
///
/// ```
/// use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
/// use cloudlet_core::shard::ShardedTable;
///
/// let mut table = QueryHashTable::new();
/// for q in 0..32 {
///     table.upsert(q, q + 100, 0.5, ConflictPolicy::Max);
/// }
/// let sharded = ShardedTable::from_table(&table, 4);
/// assert_eq!(sharded.pair_count(), table.pair_count());
/// assert_eq!(sharded.lookup(7), table.lookup(7));
/// ```
#[derive(Debug)]
pub struct ShardedTable {
    shards: Vec<OrderedRwLock<QueryHashTable>>,
    mirrors: Vec<AtomicTable>,
}

fn shard_lock(table: QueryHashTable) -> OrderedRwLock<QueryHashTable> {
    OrderedRwLock::new(lockrank::SHARD, "shard", table)
}

/// Write access to one shard: a rank-checked write guard that
/// republishes the shard's lock-free read mirror when dropped, so
/// mutations made through it become visible to [`ShardedTable::lookup`]
/// at guard drop (statement end for the common
/// `sharded.write(s).upsert(..)` temporary).
pub struct ShardWriteGuard<'a> {
    guard: OrderedWriteGuard<'a, QueryHashTable>,
    mirror: &'a AtomicTable,
}

impl std::fmt::Debug for ShardWriteGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriteGuard")
            .field("mirror", self.mirror)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for ShardWriteGuard<'_> {
    type Target = QueryHashTable;

    fn deref(&self) -> &QueryHashTable {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryHashTable {
        &mut self.guard
    }
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        // Republish while the write lock is still held: writers are
        // serialized, so mirror publications can never interleave.
        self.mirror.republish_from(&self.guard);
    }
}

impl ShardedTable {
    fn from_shard_tables(tables: Vec<QueryHashTable>) -> Self {
        let mirrors = tables.iter().map(AtomicTable::from_table).collect();
        ShardedTable {
            shards: tables.into_iter().map(shard_lock).collect(),
            mirrors,
        }
    }

    /// `n_shards` empty shards.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards > 0, "a sharded table needs at least one shard");
        ShardedTable::from_shard_tables((0..n_shards).map(|_| QueryHashTable::new()).collect())
    }

    /// Partitions `table` into `n_shards` shards by `query_hash % n_shards`.
    ///
    /// The partition is exact: each query's full salted entry chain moves
    /// into one shard unchanged, so per-query lookups, scores, and
    /// accessed bits are identical to the source table's.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn from_table(table: &QueryHashTable, n_shards: usize) -> Self {
        assert!(n_shards > 0, "a sharded table needs at least one shard");
        let mut buckets: Vec<Vec<EntryRecord>> = (0..n_shards).map(|_| Vec::new()).collect();
        for record in table.to_records() {
            let shard = (record.query_hash % n_shards as u64) as usize;
            buckets[shard].push(record);
        }
        ShardedTable::from_shard_tables(
            buckets
                .into_iter()
                .map(|records| QueryHashTable::from_records(&records))
                .collect(),
        )
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `query_hash`.
    pub fn shard_of(&self, query_hash: u64) -> usize {
        (query_hash % self.shards.len() as u64) as usize
    }

    /// Read access to one shard's table. A poisoned lock (a reader
    /// panicked while holding it) is recovered rather than propagated:
    /// readers never leave the table mid-mutation, so the state is
    /// intact. Debug builds additionally enforce the workspace lock
    /// order (shard locks are innermost; see [`crate::lockrank`]).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn read(&self, shard: usize) -> OrderedReadGuard<'_, QueryHashTable> {
        self.shards[shard].read()
    }

    /// Write access to one shard's table, recovering a poisoned lock
    /// the same way [`ShardedTable::read`] does. Dropping the returned
    /// guard republishes the shard's lock-free read mirror.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn write(&self, shard: usize) -> ShardWriteGuard<'_> {
        ShardWriteGuard {
            guard: self.shards[shard].write(),
            mirror: &self.mirrors[shard],
        }
    }

    /// Looks `query_hash` up in its owning shard's lock-free mirror —
    /// zero lock acquisitions; results match the unsharded table's
    /// ordering exactly.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.mirrors[self.shard_of(query_hash)].lookup(query_hash)
    }

    /// The original guarded lookup path, kept as the locked baseline
    /// for the wall-clock benches and the equivalence proptests.
    pub fn lookup_locked(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.read(self.shard_of(query_hash)).lookup(query_hash)
    }

    /// Total cached (query, result) pairs across shards.
    pub fn pair_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().pair_count()).sum()
    }

    /// Total hash-table entries across shards.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().entry_count()).sum()
    }

    /// Total DRAM footprint across shards (the sharding itself adds no
    /// per-pair overhead: entries just live in smaller maps).
    pub fn footprint_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().footprint_bytes()).sum()
    }

    /// Per-shard pair counts, for balance diagnostics.
    pub fn pair_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().pair_count()).collect()
    }

    /// Merges all shards back into one flat table.
    pub fn to_table(&self) -> QueryHashTable {
        let mut records = Vec::new();
        for shard in &self.shards {
            records.extend(shard.read().to_records());
        }
        QueryHashTable::from_records(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::ConflictPolicy;

    fn seeded_table(queries: u64, per_query: u64) -> QueryHashTable {
        let mut table = QueryHashTable::new();
        for q in 0..queries {
            for r in 0..per_query {
                table.upsert(
                    q,
                    1_000 + q * 10 + r,
                    0.1 + r as f32 * 0.2,
                    ConflictPolicy::Max,
                );
            }
            if q % 3 == 0 {
                table
                    .mark_accessed(q, 1_000 + q * 10)
                    .expect("pair was just inserted");
            }
        }
        table
    }

    #[test]
    fn partition_preserves_every_lookup() {
        let table = seeded_table(40, 3);
        for shards in [1, 2, 4, 7, 16] {
            let sharded = ShardedTable::from_table(&table, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.pair_count(), table.pair_count());
            assert_eq!(sharded.entry_count(), table.entry_count());
            for q in 0..45 {
                assert_eq!(
                    sharded.lookup(q),
                    table.lookup(q),
                    "query {q}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_of_respects_modulo_layout() {
        let sharded = ShardedTable::new(8);
        for q in 0..64u64 {
            assert_eq!(sharded.shard_of(q), (q % 8) as usize);
        }
    }

    #[test]
    fn round_trip_through_shards_is_lossless() {
        let table = seeded_table(25, 3);
        let sharded = ShardedTable::from_table(&table, 6);
        let merged = sharded.to_table();
        assert_eq!(merged.pair_count(), table.pair_count());
        for q in 0..25 {
            assert_eq!(merged.lookup(q), table.lookup(q));
        }
    }

    #[test]
    fn writes_go_to_the_owning_shard() {
        let sharded = ShardedTable::new(4);
        let q = 10u64;
        sharded
            .write(sharded.shard_of(q))
            .upsert(q, 99, 0.8, ConflictPolicy::Max);
        assert_eq!(sharded.pair_counts(), vec![0, 0, 1, 0]);
        let results = sharded.lookup(q).expect("pair was inserted");
        assert_eq!(results[0].result_hash, 99);
    }

    #[test]
    fn write_guard_republishes_the_mirror_on_drop() {
        let table = seeded_table(20, 2);
        let sharded = ShardedTable::from_table(&table, 4);
        for q in 0..25 {
            assert_eq!(sharded.lookup(q), sharded.lookup_locked(q), "query {q}");
        }
        let q = 5u64;
        {
            let mut guard = sharded.write(sharded.shard_of(q));
            guard.upsert(q, 7_777, 0.99, ConflictPolicy::Max);
        }
        let results = sharded.lookup(q).expect("query cached");
        assert_eq!(results[0].result_hash, 7_777);
        assert_eq!(sharded.lookup(q), sharded.lookup_locked(q));
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let table = seeded_table(12, 2);
        let sharded = ShardedTable::from_table(&table, 1);
        assert_eq!(sharded.to_table(), table);
    }

    #[test]
    fn shard_locks_sit_at_the_shard_rank() {
        let sharded = ShardedTable::new(2);
        // Guards are taken one at a time everywhere in this module;
        // holding two shard guards at once would trip the rank check
        // in debug builds (equal ranks may not nest).
        let g0 = sharded.read(0);
        drop(g0);
        let g1 = sharded.read(1);
        drop(g1);
    }
}
