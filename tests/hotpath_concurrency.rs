//! Lock-free hot path under interleaving: snapshot reads must never
//! observe a torn table while a writer republishes the mirror.
//!
//! The reader count follows the benchmark sweep's middle point (8);
//! iteration counts are modest because the suite also runs on small
//! hosts — this is an interleaving smoke test, not a throughput
//! measurement.

use pocket_cloudlets::core::hashtable::atomic::AtomicTable;
use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable};

/// Two tables over the same queries with disjoint result sets, so any
/// blend of the two is detectable.
fn world_a_and_b(queries: u64) -> (QueryHashTable, QueryHashTable) {
    let mut a = QueryHashTable::new();
    let mut b = QueryHashTable::new();
    for q in 0..queries {
        a.upsert(q, 10_000 + q, 0.9, ConflictPolicy::Max);
        a.upsert(q, 20_000 + q, 0.1, ConflictPolicy::Max);
        b.upsert(q, 30_000 + q, 0.5, ConflictPolicy::Max);
    }
    (a, b)
}

/// 8 reader threads race a writer republishing alternating snapshots:
/// every lookup must equal exactly table A's or table B's answer —
/// same results, same order, never a mix or a partial table — and once
/// the storm ends every lookup answers from the last publish (A).
#[test]
fn readers_see_only_whole_snapshots_during_republishes() {
    const QUERIES: u64 = 64;
    const READERS: usize = 8;
    const READS_PER_THREAD: u64 = 2_000;
    const REPUBLISHES: usize = 200;

    let (a, b) = world_a_and_b(QUERIES);
    let mirror = AtomicTable::from_table(&a);
    std::thread::scope(|scope| {
        for t in 0..READERS {
            let mirror = &mirror;
            let a = &a;
            let b = &b;
            scope.spawn(move || {
                for i in 0..READS_PER_THREAD {
                    let q = (i * 7 + t as u64) % QUERIES;
                    let seen = mirror.lookup(q);
                    let from_a = a.lookup(q);
                    let from_b = b.lookup(q);
                    assert!(
                        seen == from_a || seen == from_b,
                        "query {q}: torn or stale-beyond-either snapshot: {seen:?}"
                    );
                }
            });
        }
        scope.spawn(|| {
            for i in 0..REPUBLISHES {
                mirror.republish_from(if i % 2 == 0 { &b } else { &a });
            }
        });
    });
    // An even count makes the last republish (odd index) table A's.
    const _: () = assert!(REPUBLISHES.is_multiple_of(2));
    for q in 0..QUERIES {
        assert_eq!(mirror.lookup(q), a.lookup(q), "query {q} after the storm");
    }
}
