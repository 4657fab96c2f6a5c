//! Wall-clock benches for the flash result database: retrieval across
//! the Figure 12 file-count sweep, insertion (the personalization path),
//! full builds and nightly patches (the §5.4 update path), the record
//! codecs and their CRC-32.

use flashdb::patch::{apply_patch, DbPatch};
use flashdb::record::Crc32;
use flashdb::{DbConfig, ResultDb, ResultRecord};
use mobsim::flash::{FlashModel, FlashStore};
use pocket_bench::wallclock::Bench;
use std::hint::black_box;

fn record(hash: u64) -> ResultRecord {
    ResultRecord::new(
        hash,
        format!("Title of result {hash}"),
        format!("site{hash}.example.com"),
        "s".repeat(400),
    )
}

fn built(n_records: u64, n_files: usize) -> (ResultDb, FlashStore) {
    let mut flash = FlashStore::new(FlashModel::default());
    let db = ResultDb::build(
        (0..n_records).map(record),
        DbConfig::with_files(n_files),
        &mut flash,
    );
    (db, flash)
}

fn main() {
    let bench = Bench::from_args();
    for n_files in [1usize, 8, 32, 256] {
        let (db, flash) = built(2_500, n_files);
        let mut h = 0u64;
        bench.run(&format!("flashdb/get_two_results/{n_files}_files"), || {
            h = (h + 7) % 2_500;
            black_box(db.get_many([h, (h + 1_200) % 2_500], &flash).unwrap())
        });
    }

    let (db, flash) = built(2_500, 32);
    let mut next = 10_000u64;
    bench.run_with_setup(
        "flashdb/insert_after_miss",
        || (db.clone(), flash.clone()),
        |(mut db, mut flash)| {
            next += 1;
            db.insert(record(next), &mut flash).unwrap()
        },
    );

    bench.run_with_setup(
        "flashdb/build_2500_records",
        || (0..2_500u64).map(record).collect::<Vec<_>>(),
        |records| {
            let mut flash = FlashStore::new(FlashModel::default());
            ResultDb::build(records, DbConfig::default(), &mut flash)
        },
    );

    // One night of §5.4 churn on the paper-sized database: 120 records
    // leave, 120 arrive, and every file with dead bytes is compacted.
    let patch = DbPatch {
        adds: (10_000..10_120).map(record).collect(),
        removes: (0..2_500).step_by(21).take(120).collect(),
    };
    bench.run_with_setup(
        "flashdb/apply_patch_nightly",
        || (db.clone(), flash.clone()),
        |(mut db, mut flash)| {
            let report = apply_patch(&mut db, &patch, &mut flash).unwrap();
            (report, db, flash)
        },
    );

    let r = record(42);
    let encoded = r.encode();
    bench.run("flashdb/record_encode", || black_box(&r).encode());
    bench.run("flashdb/record_decode", || {
        ResultRecord::decode(&mut black_box(encoded.clone())).unwrap()
    });
    let bytes = vec![0xA5u8; 500];
    bench.run("flashdb/crc32_500B", || Crc32::of(black_box(&bytes)));
}
