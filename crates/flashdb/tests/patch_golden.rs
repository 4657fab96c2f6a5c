//! Golden test for the simulated contract of the §5.4 patch path.
//!
//! A 2,500-record, 32-file database takes a fixed seeded sequence of
//! nightly patches (~120 removals and ~120 additions each, plus an
//! idempotent replay, a header-overflow rebuild and a single-file
//! rewrite). After every step the patch report (including simulated
//! flash time), the space accounting, the wear telemetry and a digest of
//! every file's bytes must equal the constants below. Host-side
//! optimisations of encoding, checksumming or compaction must leave all
//! of them unchanged.

use flashdb::patch::{apply_patch, DbPatch};
use flashdb::{DbConfig, ResultDb, ResultRecord};
use mobsim::flash::{FlashModel, FlashStore};

/// One step's observable outcome: `(added, removed, flash_time µs)`,
/// `(records, logical, allocated, fragmentation, dead)` bytes,
/// `(tracked blocks, total erases, max cycles, min cycles, worn blocks,
/// stuck bits)` and the FNV-1a digest over every database file's name,
/// length and bytes.
type Step = (
    (usize, usize, u64),
    (usize, u64, u64, u64, u64),
    (usize, u64, u64, u64, usize, usize),
    u64,
);

/// Captured from the straightforward decode/re-encode implementation
/// with the bit-serial CRC.
const GOLDEN: [Step; 10] = [
    (
        (0, 0, 0),
        (2500, 1295107, 1363968, 68861, 0),
        (333, 333, 1, 1, 0, 0),
        6931940152383295423,
    ),
    (
        (125, 115, 1644044),
        (2510, 1300708, 1363968, 63260, 0),
        (345, 1043, 22, 1, 0, 0),
        7541926333325350687,
    ),
    (
        (124, 116, 1512968),
        (2518, 1306504, 1372160, 65656, 0),
        (346, 1721, 28, 1, 0, 0),
        10385695082974872761,
    ),
    (
        (123, 117, 1548060),
        (2524, 1309653, 1372160, 62507, 0),
        (349, 2409, 45, 1, 0, 0),
        9959571289943794596,
    ),
    (
        (0, 0, 0),
        (2524, 1309653, 1372160, 62507, 0),
        (349, 2409, 45, 1, 0, 0),
        9959571289943794596,
    ),
    (
        (122, 118, 1614052),
        (2528, 1312387, 1384448, 72061, 0),
        (350, 3114, 56, 1, 0, 0),
        10085185600283637113,
    ),
    (
        (121, 119, 1650944),
        (2530, 1313990, 1380352, 66362, 0),
        (350, 3823, 71, 1, 0, 0),
        11365495999695367018,
    ),
    (
        (120, 120, 1649144),
        (2530, 1316591, 1376256, 59665, 0),
        (350, 4532, 77, 2, 0, 0),
        2424383286002333718,
    ),
    (
        (200, 120, 1803352),
        (2610, 1361479, 1437696, 76217, 0),
        (362, 5414, 442, 1, 1, 0),
        7247291688465302570,
    ),
    (
        (0, 0, 42592),
        (2610, 1361479, 1437696, 76217, 0),
        (362, 5424, 442, 1, 1, 0),
        7247291688465302570,
    ),
];

const FILES: usize = 32;

/// SplitMix64: a self-contained, version-stable stream for the test.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// A record whose field lengths vary with its hash (non-ASCII title
/// included), so files hold records of many sizes.
fn record(hash: u64) -> ResultRecord {
    let shape = SplitMix(hash).next();
    let title_pad = (shape % 60) as usize;
    let url_pad = ((shape >> 8) % 30) as usize;
    let snippet_len = 150 + ((shape >> 16) % 450) as usize;
    ResultRecord::new(
        hash,
        format!("Résultat {hash:x} {}", "t".repeat(title_pad)),
        format!("site{}.example.com/{}", hash % 997, "p".repeat(url_pad)),
        "snippet ".repeat(snippet_len / 8),
    )
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn observe(db: &ResultDb, flash: &FlashStore, report: (usize, usize, u64)) -> Step {
    let stats = db.stats(flash);
    let wear = flash.wear_summary();
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for i in 0..FILES {
        let name = db.file_name_of(i);
        let size = flash.file_size(&name).unwrap_or(0);
        // A missing or unreadable file digests as empty, which no golden
        // value matches.
        let bytes = flash
            .read(&name, 0, size)
            .map(|r| r.data)
            .unwrap_or_default();
        fnv1a(&mut digest, name.as_bytes());
        fnv1a(&mut digest, &size.to_le_bytes());
        fnv1a(&mut digest, &bytes);
    }
    (
        report,
        (
            stats.records,
            stats.logical_bytes,
            stats.allocated_bytes,
            stats.fragmentation_bytes,
            stats.dead_bytes,
        ),
        (
            wear.tracked_blocks,
            wear.total_erases,
            wear.max_erase_cycles,
            wear.min_erase_cycles,
            wear.worn_blocks,
            wear.stuck_bits,
        ),
        digest,
    )
}

/// A patch removing `removes` live records (drawn from `live`) and adding
/// `adds` fresh hashes that all satisfy `keep`.
fn patch(
    rng: &mut SplitMix,
    live: &mut Vec<u64>,
    removes: usize,
    adds: usize,
    keep: impl Fn(u64) -> bool,
) -> DbPatch {
    let mut removed = Vec::with_capacity(removes);
    for _ in 0..removes {
        let at = (rng.next() % live.len() as u64) as usize;
        removed.push(live.swap_remove(at));
    }
    let mut added = Vec::with_capacity(adds);
    while added.len() < adds {
        let hash = rng.next();
        if keep(hash) {
            added.push(hash);
        }
    }
    live.extend(&added);
    DbPatch {
        adds: added.into_iter().map(record).collect(),
        removes: removed,
    }
}

#[test]
fn nightly_patch_sequence_matches_the_golden_contract() {
    let mut rng = SplitMix(2011);
    let mut live: Vec<u64> = (0..2_500).map(|_| rng.next()).collect();
    let mut flash = FlashStore::new(FlashModel::default());
    let mut db = ResultDb::build(
        live.iter().map(|&h| record(h)),
        DbConfig::with_files(FILES),
        &mut flash,
    );
    let mut steps = vec![observe(&db, &flash, (0, 0, 0))];

    let apply = |db: &mut ResultDb, flash: &mut FlashStore, p: &DbPatch| {
        let r = apply_patch(db, p, flash).expect("patch applies");
        observe(db, flash, (r.added, r.removed, r.flash_time.as_micros()))
    };
    for night in 0..6 {
        let p = patch(&mut rng, &mut live, 115 + night, 125 - night, |_| true);
        steps.push(apply(&mut db, &mut flash, &p));
        if night == 2 {
            // The protocol is idempotent: replaying a night changes
            // nothing and costs no flash time.
            steps.push(apply(&mut db, &mut flash, &p));
        }
    }
    // Enough additions to one file to overflow its header and force the
    // rebuild-with-extra path, alongside ordinary removals.
    let p = patch(&mut rng, &mut live, 120, 200, |h| h % FILES as u64 == 7);
    steps.push(apply(&mut db, &mut flash, &p));

    let t = db.rewrite_file(3, &mut flash).expect("file 3 rewrites");
    steps.push(observe(&db, &flash, (0, 0, t.as_micros())));
    db.verify(&flash).expect("headers agree with the mirror");

    assert_eq!(steps, GOLDEN, "simulated patch outcomes changed");
}
