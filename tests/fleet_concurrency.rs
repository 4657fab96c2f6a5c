//! Concurrency smoke tests for the sharded serving layer: many threads
//! hammering `Frontend::serve_one` on a search front-end in its
//! `pr3_baseline` configuration must never lose a counter update, and
//! sharding must buy real simulated throughput without moving the hit
//! ratio.

use std::thread;

use pocket_bench::{fleet_workload, test_scale_study_inputs};
use pocket_cloudlets::core::frontend::{Frontend, FrontendConfig, ServeRequest};
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::PocketSearch;
use pocket_cloudlets::pocketsearch::fleet::search_frontend;

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 500;

fn baseline(engine: &PocketSearch, shards: usize) -> Frontend {
    search_frontend(engine, shards, FrontendConfig::pr3_baseline()).1
}

/// Drains `requests` through `serve_one`, one thread per chunk.
fn hammer(frontend: &Frontend, requests: &[ServeRequest], chunk: usize) {
    thread::scope(|scope| {
        for lane in requests.chunks(chunk) {
            scope.spawn(move || {
                for &request in lane {
                    assert!(frontend.serve_one(request).is_ok(), "search serves");
                }
            });
        }
    });
}

#[test]
fn eight_threads_lose_no_counter_updates() {
    let inputs = test_scale_study_inputs(51);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let events = fleet_workload(&inputs, 32, THREADS * EVENTS_PER_THREAD, 52);
    let frontend = baseline(&engine, 8);

    // Each thread drains a disjoint slice of the stream through the
    // shared front-end; every serve_one picks its shard from the hash,
    // so all threads contend on all shards.
    hammer(&frontend, &events, EVENTS_PER_THREAD);

    let totals = frontend.telemetry().lane_totals();
    let served: u64 = totals.iter().map(|s| s.events).sum();
    assert_eq!(served, (THREADS * EVENTS_PER_THREAD) as u64);
    for (shard, report) in totals.iter().enumerate() {
        assert_eq!(
            report.hits + report.misses,
            report.events,
            "shard {shard} counters disagree"
        );
        let expected = events.iter().filter(|e| e.key % 8 == shard as u64).count() as u64;
        assert_eq!(report.events, expected, "shard {shard} event total");
    }
}

#[test]
fn serve_one_and_serve_batch_agree_under_contention() {
    let inputs = test_scale_study_inputs(53);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let events = fleet_workload(&inputs, 32, 1_000, 54);

    // Ground truth from a batched run on a fresh front-end.
    let batch_report = baseline(&engine, 4)
        .serve_batch(&events)
        .expect("fleet batch")
        .report;

    // The same stream hammered thread-per-chunk through serve_one.
    let frontend = baseline(&engine, 4);
    hammer(&frontend, &events, events.len() / THREADS + 1);

    let totals = frontend.telemetry().lane_totals();
    let hits: u64 = totals.iter().map(|s| s.hits).sum();
    let misses: u64 = totals.iter().map(|s| s.misses).sum();
    let busy: Vec<_> = totals.iter().map(|s| s.busy).collect();
    assert_eq!(hits, batch_report.hits());
    assert_eq!(misses, batch_report.misses());
    assert_eq!(
        busy,
        batch_report
            .lanes
            .iter()
            .map(|l| l.busy)
            .collect::<Vec<_>>(),
        "per-shard busy time must not depend on the thread layout"
    );
}

/// The acceptance claim of the serving layer: on a Zipf workload,
/// sixteen shards deliver at least twice the simulated throughput of a
/// single shard while the aggregate hit ratio stays exactly the same.
#[test]
fn sixteen_shards_at_least_double_throughput() {
    let inputs = test_scale_study_inputs(55);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let events = fleet_workload(&inputs, 64, 2_000, 56);

    let one = baseline(&engine, 1)
        .serve_batch(&events)
        .expect("fleet batch")
        .report;
    let sixteen = baseline(&engine, 16)
        .serve_batch(&events)
        .expect("fleet batch")
        .report;

    assert_eq!(one.hits(), sixteen.hits(), "hit ratio must be invariant");
    assert_eq!(one.misses(), sixteen.misses());
    assert!(
        one.hits() > 0 && one.misses() > 0,
        "workload exercises both paths"
    );

    let speedup = sixteen.throughput_qps() / one.throughput_qps();
    assert!(
        speedup >= 2.0,
        "16 shards delivered only {speedup:.2}x the simulated throughput of 1"
    );
}
