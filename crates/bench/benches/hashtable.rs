//! Wall-clock benches for the §5.2.1 query hash table: the lookup is on
//! the critical path of every query (Table 4 charges it 10 µs), and the
//! footprint sweep is the computation behind Figure 11.

use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
use pocket_bench::wallclock::Bench;
use std::hint::black_box;

fn populated_table(pairs: u64) -> QueryHashTable {
    let mut t = QueryHashTable::new();
    for q in 0..pairs / 2 {
        t.upsert(q, q + 1_000_000, 0.6, ConflictPolicy::Max);
        t.upsert(q, q + 2_000_000, 0.4, ConflictPolicy::Max);
    }
    t
}

fn main() {
    let bench = Bench::from_args();
    let table = populated_table(8_000);
    let mut q = 0u64;
    bench.run("hashtable/lookup_hit", || {
        q = (q + 1) % 4_000;
        black_box(table.lookup(black_box(q)))
    });
    bench.run("hashtable/lookup_miss", || {
        black_box(table.lookup(black_box(u64::MAX)))
    });

    bench.run_with_setup("hashtable/upsert_4k_pairs", QueryHashTable::new, |mut t| {
        for q in 0..2_000u64 {
            t.upsert(q, q + 1_000_000, 0.6, ConflictPolicy::Max);
            t.upsert(q, q + 2_000_000, 0.4, ConflictPolicy::Max);
        }
        t
    });

    bench.run_with_setup(
        "hashtable/personalization_click",
        || table.clone(),
        |mut t| {
            t.update_scores(
                17,
                |rh, s, _| if rh == 1_000_017 { s + 1.0 } else { s * 0.95 },
            );
            t
        },
    );

    let counts: Vec<usize> = (0..4_000)
        .map(|i| 1 + (i % 2) + usize::from(i % 10 == 0))
        .collect();
    bench.run("hashtable/figure11_footprint_sweep", || {
        (1..=8usize)
            .map(|k| QueryHashTable::footprint_for(black_box(&counts), k))
            .sum::<usize>()
    });
}
