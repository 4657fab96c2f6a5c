//! The serve hot path, locked vs lock-free, on the wall clock.
//!
//! Single-thread timings of `ShardedTable::lookup_locked` (the
//! `OrderedRwLock` read-guard baseline) vs `ShardedTable::lookup` (the
//! `AtomicTable` snapshot mirror): the per-call cost with no contention
//! at all. The shape under contention is `ablations --study hotpath`'s
//! thread sweep, committed as `BENCH_hotpath.json`.

use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
use cloudlet_core::shard::ShardedTable;
use pocket_bench::wallclock::Bench;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let mut t = QueryHashTable::new();
    for q in 0..4_000u64 {
        t.upsert(q, q + 1_000_000, 0.6, ConflictPolicy::Max);
        t.upsert(q, q + 2_000_000, 0.4, ConflictPolicy::Max);
    }
    let sharded = ShardedTable::from_table(&t, 8);

    let mut q = 0u64;
    bench.run("hotpath/locked_lookup_hit", || {
        q = (q + 1) % 4_000;
        black_box(sharded.lookup_locked(black_box(q)))
    });
    bench.run("hotpath/lockfree_lookup_hit", || {
        q = (q + 1) % 4_000;
        black_box(sharded.lookup(black_box(q)))
    });
    bench.run("hotpath/lockfree_lookup_miss", || {
        black_box(sharded.lookup(black_box(u64::MAX)))
    });
}
