//! Failure injection: corrupt or missing on-flash state must surface as
//! typed errors (or graceful degradation), never as panics or silently
//! wrong results.

use pocket_cloudlets::flashdb::{DbConfig, DbError, ResultDb, ResultRecord};
use pocket_cloudlets::mobsim::flash::{FlashError, FlashModel, FlashStore};
use pocket_cloudlets::prelude::*;

fn record(hash: u64) -> ResultRecord {
    ResultRecord::new(
        hash,
        format!("T{hash}"),
        format!("u{hash}.com"),
        "s".repeat(200),
    )
}

fn small_db() -> (ResultDb, FlashStore) {
    let mut flash = FlashStore::new(FlashModel::default());
    let db = ResultDb::build((0..20).map(record), DbConfig::with_files(4), &mut flash);
    (db, flash)
}

#[test]
fn corrupted_record_bytes_are_detected() {
    let (db, mut flash) = small_db();
    // Smash the data region of one file with garbage.
    let name = flash
        .file_names()
        .next()
        .expect("database wrote files")
        .to_owned();
    let size = flash.file_size(&name).expect("file exists");
    // Overwrite the record area (past the header) with invalid UTF-8.
    let garbage = vec![0xFFu8; 64];
    flash
        .overwrite(&name, size - 64, &garbage)
        .expect("overwrite within bounds");

    // Some record in that file now fails to decode with a typed error;
    // untouched files keep working.
    let mut corrupt_seen = false;
    let mut ok_seen = false;
    for h in 0..20u64 {
        match db.get(h, &flash) {
            Ok(_) => ok_seen = true,
            Err(
                DbError::Corrupt(_)
                | DbError::Flash(_)
                | DbError::TruncatedRecord { .. }
                | DbError::CorruptHeader { .. },
            ) => corrupt_seen = true,
            Err(DbError::NotFound { .. }) => panic!("records were all inserted"),
        }
    }
    assert!(corrupt_seen, "corruption must be detected");
    assert!(
        ok_seen,
        "corruption must stay contained to the damaged file"
    );
}

#[test]
fn deleted_database_file_degrades_to_errors_not_panics() {
    let (db, mut flash) = small_db();
    let victim = flash.file_names().next().unwrap().to_owned();
    assert!(flash.remove(&victim));
    let mut missing = 0;
    for h in 0..20u64 {
        if matches!(
            db.get(h, &flash),
            Err(DbError::Flash(FlashError::FileNotFound(_)))
        ) {
            missing += 1;
        }
    }
    assert!(missing > 0);
    assert!(
        db.verify(&flash).is_err(),
        "verify must notice the lost file"
    );
}

#[test]
fn engine_degrades_a_broken_hit_into_a_radio_miss() {
    // An index entry whose database record is gone: the engine must fall
    // back to the radio path instead of failing the query.
    let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 50);
    let log = generator.generate_month();
    let triplets = TripletTable::from_log(&log);
    let contents = CacheContents::generate(
        &triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share: 0.55 },
    );
    let catalog = Catalog::new(generator.universe());
    let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());

    // Vaporize the whole database behind the engine's back.
    let names: Vec<String> = engine
        .device()
        .flash()
        .file_names()
        .map(str::to_owned)
        .collect();
    for name in names {
        engine.device_mut().flash_mut().remove(&name);
    }

    let served = engine.serve(contents.pairs()[0].query_hash);
    assert!(!served.hit, "a hit without its record degrades to a miss");
    assert!(
        served.report.transfer.is_some(),
        "the radio served the user"
    );
    assert!(served.report.total_time.as_secs_f64() > 1.0);
}

#[test]
fn header_corruption_fails_verification() {
    let (db, mut flash) = small_db();
    let name = flash.file_names().next().unwrap().to_owned();
    // Flip the live-count field in the header preamble.
    flash.overwrite(&name, 4, &u32::MAX.to_le_bytes()).unwrap();
    assert!(matches!(
        db.verify(&flash),
        Err(DbError::CorruptHeader { .. })
    ));
}

#[test]
fn header_preamble_corruption_is_a_typed_get_error() {
    let (db, mut flash) = small_db();
    // Hash 0 lives in file 0 under the `hash % n_files` placement rule.
    let name = db.file_name_of(0);
    flash.overwrite(&name, 4, &u32::MAX.to_le_bytes()).unwrap();

    match db.get(0, &flash) {
        Err(DbError::CorruptHeader { file, detail }) => {
            assert_eq!(file, 0);
            assert!(
                detail.contains("count"),
                "detail names the bad field: {detail}"
            );
        }
        other => panic!("expected CorruptHeader, got {other:?}"),
    }
    // Files whose headers were not touched keep serving.
    assert!(db.get(1, &flash).is_ok());
    // And verify reports the same damage.
    assert!(matches!(
        db.verify(&flash),
        Err(DbError::CorruptHeader { file: 0, .. })
    ));
}

#[test]
fn smashed_length_prefix_is_a_truncated_record_error() {
    let (db, mut flash) = small_db();
    // The first record of file 0 is hash 0, stored right after the
    // header: 8 bytes of result hash, then the title's 16-bit length
    // prefix. Derive its offset from the file size and the known record
    // encoding so the test does not hard-code the header capacity.
    let name = db.file_name_of(0);
    let size = flash.file_size(&name).expect("file exists");
    let data_bytes: u64 = (0..20u64)
        .filter(|h| h % 4 == 0)
        .map(|h| record(h).encoded_len() as u64)
        .sum();
    let first_record_offset = size - data_bytes;

    // A 0xFFFF length prefix claims a 64 KB title in a ~1 KB file.
    flash
        .overwrite(&name, first_record_offset + 8, &[0xFF, 0xFF])
        .expect("overwrite within bounds");

    assert_eq!(
        db.get(0, &flash),
        Err(DbError::TruncatedRecord { result_hash: 0 }),
        "a record whose bytes end early must name itself in the error"
    );
    // Later records in the same file are indexed by offset, not by
    // scanning, so they still decode.
    assert!(db.get(4, &flash).is_ok());
}

#[test]
fn reads_past_eof_are_rejected_not_padded() {
    let mut flash = FlashStore::new(FlashModel::default());
    flash.write_file("f", vec![1, 2, 3]);
    assert!(matches!(
        flash.read("f", 2, 2),
        Err(FlashError::ReadPastEnd { size: 3, .. })
    ));
    assert!(matches!(
        flash.overwrite("f", 2, &[9, 9]),
        Err(FlashError::ReadPastEnd { .. })
    ));
}

mod wear_properties {
    use super::*;
    use pocket_cloudlets::mobsim::flash::{AllocPolicy, WearModel, WearSummary};
    use proptest::prelude::*;

    /// A flash store whose blocks start corrupting reads after only two
    /// erases, with stuck-bit draws keyed by `seed`.
    fn worn_flash(seed: u64) -> FlashStore {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                safe_erase_cycles: 2,
                bit_failure_every: 1,
                seed,
            },
            ..FlashModel::default()
        };
        FlashStore::new(model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The never-silently-wrong property: however many stuck-at-0/1
        /// bits a worn block develops, a database read either returns the
        /// exact record that was stored or a typed `DbError` — the
        /// record checksum and the header preamble check leave no third
        /// outcome.
        #[test]
        fn stuck_at_reads_are_identical_records_or_typed_errors(
            seed in any::<u64>(),
            extra_age in 1u64..48,
        ) {
            let mut flash = worn_flash(seed);
            let db = ResultDb::build((0..20).map(record), DbConfig::with_files(4), &mut flash);

            // Age every block the database landed on past its safe life;
            // each cycle past the threshold injects one deterministic
            // stuck bit somewhere in the block.
            let blocks: Vec<u64> = flash.block_wear().map(|(id, _, _)| id).collect();
            for b in blocks {
                flash.age_block(b, 2 + extra_age);
            }
            prop_assert!(flash.wear_summary().worn_blocks > 0);

            for h in 0..20u64 {
                match db.get(h, &flash) {
                    Ok((r, _)) => prop_assert_eq!(r, record(h), "seed {}", seed),
                    Err(DbError::NotFound { .. }) => {
                        prop_assert!(false, "record {h} was inserted; NotFound is wrong")
                    }
                    // Any typed corruption error is a legal outcome.
                    Err(_) => {}
                }
            }
        }

        /// Wear-leveling bound: rewriting one block-sized file N× the
        /// pool size under `LeastWorn` keeps the max/min erase spread at
        /// 2 or less (each rewrite erases the least-worn free block, so
        /// counts advance round-robin), and the whole erase history is
        /// deterministic for a fixed seed.
        #[test]
        fn least_worn_bounds_the_erase_spread_deterministically(
            seed in any::<u64>(),
            spares in 2u32..12,
            rounds in 4u64..12,
        ) {
            let run = |seed: u64| -> WearSummary {
                let mut flash = worn_flash(seed);
                flash.set_alloc_policy(AllocPolicy::LeastWorn { spares });
                let block = flash.model().block_bytes as usize;
                // Pool = the file's block + `spares` free ones; rewrite
                // `rounds`× the pool size so every block cycles often.
                for _ in 0..(u64::from(spares) + 1) * rounds {
                    flash.write_file("hot", vec![0xA5; block]);
                }
                flash.wear_summary()
            };
            let summary = run(seed);
            prop_assert_eq!(summary.clone(), run(seed), "same seed, same history");
            prop_assert!(
                summary.erase_spread() <= 2,
                "least-worn keeps the pool level: {:?}",
                summary
            );
            prop_assert_eq!(summary.total_erases, (u64::from(spares) + 1) * rounds);
        }

        /// The naive lowest-id baseline concentrates the same workload
        /// onto one block: its spread grows with the round count while
        /// least-worn's stays flat.
        #[test]
        fn lowest_id_concentrates_wear_where_least_worn_spreads_it(
            rounds in 4u64..12,
        ) {
            let mut naive = FlashStore::new(FlashModel::default());
            let block = naive.model().block_bytes as usize;
            // Two files so the pool holds more than one block; "cold" is
            // written once, "hot" rewritten every round.
            naive.write_file("cold", vec![1; block]);
            for _ in 0..rounds * 4 {
                naive.write_file("hot", vec![0xA5; block]);
            }
            let spread = naive.wear_summary().erase_spread();
            prop_assert!(
                spread >= rounds * 4 - 1,
                "lowest-id reuses the same block: spread {spread}, rounds {rounds}"
            );
        }
    }
}

#[test]
fn update_protocol_survives_hostile_uploads() {
    use pocket_cloudlets::core::hashtable::{EntryRecord, EntrySlots};
    use pocket_cloudlets::core::update::{UpdateServer, UploadPayload, PROTOCOL_VERSION};

    // An upload with nonsense salts, duplicate pairs, and extreme scores
    // must still produce a coherent bundle.
    let upload = UploadPayload {
        version: PROTOCOL_VERSION,
        records: vec![
            EntryRecord {
                query_hash: 1,
                salt: 999, // out-of-chain salt
                slots: EntrySlots::packed([Some((10, f32::MAX, true)), Some((10, -0.0, false))]),
            },
            EntryRecord {
                query_hash: 1,
                salt: 0,
                slots: EntrySlots::packed([Some((10, 0.5, true)), None]),
            },
        ],
    };
    let server = UpdateServer::new(vec![(1, 10, 0.9)], RankingPolicy::default());
    let bundle = server
        .build_update(&upload)
        .expect("hostile upload handled");
    let table = pocket_cloudlets::core::hashtable::QueryHashTable::from_records(&bundle.records);
    let results = table.lookup(1).expect("pair survives");
    assert_eq!(results.len(), 1, "duplicates collapse to one pair");
    assert!(results[0].score >= 0.9, "max-score rule applied");
}
