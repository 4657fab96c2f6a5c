//! Search-result records and their wire encoding.
//!
//! For every search result the database stores "its title, which serves as
//! the hyperlink to the landing page, a short description of the landing
//! page and the human readable form of the hyperlink" (§5.2.2) — about
//! 500 bytes per result on average.

use bytes::{Buf, BufMut, Bytes};
use serde::{Deserialize, Serialize};

/// The reflected IEEE 802.3 CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the state with eight lookups.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (IEEE 802.3 reflected polynomial, the zlib/PNG one),
/// table-driven with slicing-by-8.
///
/// Every [`ResultRecord`] carries this checksum over its encoded bytes so
/// that media corruption — e.g. a stuck NAND cell flipping one bit of a
/// snippet — is always *detected*: a corrupted record decodes to a typed
/// error, never to a silently different record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum, eight at a time where it can.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &byte in tail {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// One-shot checksum of a byte slice.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }
}

/// One stored search result.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResultRecord {
    /// Stable hash of the result URL; the record's database key.
    pub result_hash: u64,
    /// Title text (the tappable hyperlink).
    pub title: String,
    /// Human-readable form of the hyperlink.
    pub display_url: String,
    /// Short description of the landing page.
    pub snippet: String,
}

/// Errors from decoding a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the record did.
    Truncated,
    /// A field was not valid UTF-8.
    InvalidUtf8,
    /// The stored CRC-32 does not match the decoded bytes: the record was
    /// damaged in a way that still parsed (e.g. a flipped bit inside a
    /// text field).
    ChecksumMismatch {
        /// Checksum stored with the record.
        stored: u32,
        /// Checksum recomputed from the decoded bytes.
        computed: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record bytes were truncated"),
            DecodeError::InvalidUtf8 => write!(f, "record field was not valid utf-8"),
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "record checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

impl ResultRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if any field exceeds `u16::MAX` bytes — fields are
    /// length-prefixed with 16 bits.
    pub fn new(
        result_hash: u64,
        title: impl Into<String>,
        display_url: impl Into<String>,
        snippet: impl Into<String>,
    ) -> Self {
        let record = ResultRecord {
            result_hash,
            title: title.into(),
            display_url: display_url.into(),
            snippet: snippet.into(),
        };
        for (name, field) in [
            ("title", &record.title),
            ("display_url", &record.display_url),
            ("snippet", &record.snippet),
        ] {
            assert!(
                field.len() <= usize::from(u16::MAX),
                "{name} exceeds the 16-bit length prefix"
            );
        }
        record
    }

    /// Encoded size in bytes: an 8-byte hash, three length-prefixed
    /// fields, and a trailing CRC-32.
    pub fn encoded_len(&self) -> usize {
        8 + 2 + self.title.len() + 2 + self.display_url.len() + 2 + self.snippet.len() + 4
    }

    /// Encodes the record. The trailing CRC-32 covers every preceding
    /// byte, so any single corrupted bit is detectable at decode time.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the record's encoding (see [`encode`](Self::encode)) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.put_u64_le(self.result_hash);
        for field in [&self.title, &self.display_url, &self.snippet] {
            out.put_u16_le(field.len() as u16);
            out.put_slice(field.as_bytes());
        }
        let crc = Crc32::of(&out[start..]);
        out.put_u32_le(crc);
    }

    /// Decodes one record from the front of `buf`, verifying its CRC-32.
    /// The record must lie in the buffer's current chunk, as it always
    /// does for `&[u8]`, `Bytes` and `BytesMut`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when `buf` is too short,
    /// [`DecodeError::InvalidUtf8`] for corrupt text fields, and
    /// [`DecodeError::ChecksumMismatch`] when the bytes parsed but do not
    /// match the stored checksum.
    pub fn decode(buf: &mut impl Buf) -> Result<ResultRecord, DecodeError> {
        let parsed = Parsed::from_front(buf.chunk())?;
        let record = ResultRecord {
            result_hash: parsed.result_hash,
            title: parsed.title.to_owned(),
            display_url: parsed.display_url.to_owned(),
            snippet: parsed.snippet.to_owned(),
        };
        buf.advance(parsed.encoded_len);
        Ok(record)
    }

    /// Runs every check [`decode`](Self::decode) runs (length prefixes,
    /// UTF-8, CRC-32) on the record at the front of `bytes` without
    /// building it. Returns the record's hash and encoded length: the
    /// prefix `bytes[..len]` is exactly what [`encode`](Self::encode)
    /// would produce for the decoded record, so it can be copied as is.
    ///
    /// # Errors
    ///
    /// The same errors as [`decode`](Self::decode), in the same order.
    pub fn check(bytes: &[u8]) -> Result<(u64, usize), DecodeError> {
        let parsed = Parsed::from_front(bytes)?;
        Ok((parsed.result_hash, parsed.encoded_len))
    }
}

/// A verified record whose text fields borrow its encoded bytes.
struct Parsed<'a> {
    result_hash: u64,
    title: &'a str,
    display_url: &'a str,
    snippet: &'a str,
    encoded_len: usize,
}

impl<'a> Parsed<'a> {
    /// Parses and verifies the record at the front of `bytes`. Checks run
    /// in wire order: each field's length and UTF-8, then the CRC-32.
    fn from_front(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        fn field<'a>(rest: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
            let (len, tail) = rest
                .split_first_chunk::<2>()
                .ok_or(DecodeError::Truncated)?;
            let len = usize::from(u16::from_le_bytes(*len));
            if tail.len() < len {
                return Err(DecodeError::Truncated);
            }
            let (text, tail) = tail.split_at(len);
            *rest = tail;
            std::str::from_utf8(text).map_err(|_| DecodeError::InvalidUtf8)
        }
        let (hash, mut rest) = bytes
            .split_first_chunk::<8>()
            .ok_or(DecodeError::Truncated)?;
        let title = field(&mut rest)?;
        let display_url = field(&mut rest)?;
        let snippet = field(&mut rest)?;
        let (body, _) = bytes.split_at(bytes.len() - rest.len());
        let (stored, _) = rest
            .split_first_chunk::<4>()
            .ok_or(DecodeError::Truncated)?;
        let stored = u32::from_le_bytes(*stored);
        let computed = Crc32::of(body);
        if stored != computed {
            return Err(DecodeError::ChecksumMismatch { stored, computed });
        }
        Ok(Parsed {
            result_hash: u64::from_le_bytes(*hash),
            title,
            display_url,
            snippet,
            encoded_len: body.len() + 4,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> ResultRecord {
        ResultRecord::new(
            0xdead_beef,
            "Michael Jackson — IMDb",
            "imdb.com/name/nm0001391",
            "Biography of the King of Pop.",
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample();
        let encoded = r.encode();
        assert_eq!(encoded.len(), r.encoded_len());
        let decoded = ResultRecord::decode(&mut encoded.clone()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn truncation_is_detected_at_every_boundary() {
        let full = sample().encode();
        for cut in [0, 4, 8, 9, 12, full.len() - 1] {
            let mut slice = full.slice(..cut);
            assert_eq!(
                ResultRecord::decode(&mut slice),
                Err(DecodeError::Truncated),
                "cut at {cut} should truncate"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = BytesMut::new();
        bytes.put_u64_le(1);
        bytes.put_u16_le(2);
        bytes.put_slice(&[0xff, 0xfe]); // invalid UTF-8 title
        bytes.put_u16_le(0);
        bytes.put_u16_le(0);
        assert_eq!(
            ResultRecord::decode(&mut bytes.freeze()),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn empty_fields_are_legal() {
        let r = ResultRecord::new(5, "", "", "");
        let decoded = ResultRecord::decode(&mut r.encode()).unwrap();
        assert_eq!(decoded, r);
        // 8-byte hash + 3 empty length-prefixed fields + 4-byte CRC.
        assert_eq!(r.encoded_len(), 18);
    }

    #[test]
    fn crc32_matches_the_ieee_test_vector() {
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::of(b""), 0);
        // Streaming in pieces equals one-shot.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn any_single_flipped_bit_is_detected() {
        let encoded = sample().encode().to_vec();
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut damaged = encoded.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    ResultRecord::decode(&mut damaged.as_slice()).is_err(),
                    "flip of byte {byte} bit {bit} must not decode silently"
                );
            }
        }
    }

    #[test]
    fn check_agrees_with_decode_on_damaged_and_padded_bytes() {
        let encoded = sample().encode().to_vec();
        let agree = |bytes: &[u8]| match (
            ResultRecord::check(bytes),
            ResultRecord::decode(&mut &*bytes),
        ) {
            (Ok((hash, len)), Ok(record)) => {
                assert_eq!((hash, len), (record.result_hash, record.encoded_len()));
                assert_eq!(&bytes[..len], record.encode().as_ref(), "prefix re-encodes");
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("check {a:?} disagrees with decode {b:?}"),
        };
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut damaged = encoded.clone();
                damaged[byte] ^= 1 << bit;
                agree(&damaged);
            }
            agree(&encoded[..byte]);
        }
        let mut padded = encoded.clone();
        padded.extend_from_slice(b"next record");
        agree(&padded);
    }

    /// The textbook bit-serial CRC-32: eight shift/xor steps per byte.
    fn bit_serial_crc32(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &byte in bytes {
            state ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = state & 1;
                state >>= 1;
                if lsb != 0 {
                    state ^= 0xEDB8_8320;
                }
            }
        }
        !state
    }

    proptest::proptest! {
        /// The table-driven streaming checksum equals the bit-serial
        /// reference for any bytes, however the stream is split (splits
        /// land inside and across the eight-byte words).
        #[test]
        fn streaming_crc32_matches_the_bit_serial_reference(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
            cut_a in proptest::arbitrary::any::<usize>(),
            cut_b in proptest::arbitrary::any::<usize>(),
        ) {
            let (a, b) = {
                let (a, b) = (cut_a % (bytes.len() + 1), cut_b % (bytes.len() + 1));
                (a.min(b), a.max(b))
            };
            let mut crc = Crc32::new();
            crc.update(&bytes[..a]);
            crc.update(&bytes[a..b]);
            crc.update(&bytes[b..]);
            let reference = bit_serial_crc32(&bytes);
            proptest::prop_assert_eq!(crc.finish(), reference);
            proptest::prop_assert_eq!(Crc32::of(&bytes), reference);
        }
    }

    #[test]
    fn decode_consumes_exactly_one_record() {
        let a = sample();
        let b = ResultRecord::new(2, "t", "u", "s");
        let mut buf = BytesMut::new();
        buf.put_slice(&a.encode());
        buf.put_slice(&b.encode());
        let mut bytes = buf.freeze();
        assert_eq!(ResultRecord::decode(&mut bytes).unwrap(), a);
        assert_eq!(ResultRecord::decode(&mut bytes).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }
}
