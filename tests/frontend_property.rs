//! Property tests for the pipelined serve front-end: coalescing and the
//! shared-lock hit path must be invisible in outcomes — for any event
//! mix, any shard count, and any queue depth, every user gets exactly
//! the hit/miss a sequential `PocketSearch::serve` loop would give
//! them — while backpressure sheds deterministically and the PR 3
//! baseline configuration reproduces a per-lane serial drain's
//! simulated makespan.

use std::sync::OnceLock;

use proptest::prelude::*;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{FrontendConfig, HitPathMode, OverflowPolicy, ServeRequest};
use pocket_cloudlets::core::service::{self, CloudletError, CloudletService, ServeKind};
use pocket_cloudlets::mobsim::time::{SimDuration, SimInstant};
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::{search_frontend, SearchShard};
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

/// The engine is expensive to build, so every property case shares one.
/// Serving never mutates the index, and the sequential comparator runs
/// on a clone, so sharing is sound.
fn shared_engine() -> &'static (PocketSearch, Vec<u64>) {
    static ENGINE: OnceLock<(PocketSearch, Vec<u64>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 31);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let corpus = UniverseCorpus::new(generator.universe());
        let contents = CacheContents::generate(
            &triplets,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    })
}

/// Turns the raw generated stream into search requests: selectors with
/// `cached = true` pick a query that is in the community cache, the
/// rest use the raw hash (a miss with overwhelming probability). Low
/// selector entropy (`% 8` on cached picks) makes duplicate keys — the
/// coalescing fodder — common by construction.
fn materialize(raw: &[(u64, u64, bool)], cached: &[u64]) -> Vec<ServeRequest> {
    raw.iter()
        .map(|&(user, selector, from_cache)| {
            let key = if from_cache {
                cached[(selector % 8 % cached.len() as u64) as usize]
            } else {
                (selector % 8) | 1 << 63
            };
            ServeRequest::new(user, 0, key, SimInstant::ZERO)
        })
        .collect()
}

proptest! {
    /// Coalescing equivalence: with coalescing, the shared-read hit
    /// path, and work stealing all on, every event's `(user, key, hit)`
    /// outcome equals what a sequential serve loop gives that user —
    /// N duplicate queries all get the leader's outcome — and the
    /// report charges exactly one underlying serve per distinct key.
    #[test]
    fn coalesced_batch_outcomes_match_sequential_serve(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=12,
        depth in 1usize..=8,
    ) {
        let (engine, cached) = shared_engine();
        let events = materialize(&raw, cached);

        let mut sequential = engine.clone();
        let expected: Vec<(u64, u64, bool)> = events
            .iter()
            .map(|e| (e.user, e.key, sequential.serve(e.key).hit))
            .collect();

        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(true)
            .hit_path(HitPathMode::SharedRead)
            .overflow(OverflowPolicy::Park)
            .work_stealing(true)
            .build();
        let (_, frontend) = search_frontend(engine, shards, config);
        let batch = frontend.serve_batch(&events).expect("frontend batch");

        let observed: Vec<(u64, u64, bool)> = events
            .iter()
            .zip(&batch.served)
            .map(|(e, s)| {
                let outcome = s.outcome.as_ref().expect("Park sheds nothing");
                (e.user, e.key, outcome.kind == ServeKind::Hit)
            })
            .collect();
        prop_assert_eq!(&observed, &expected, "per-user outcomes diverged");

        let distinct: std::collections::HashSet<u64> =
            events.iter().map(|e| e.key).collect();
        prop_assert_eq!(batch.report.rejected(), 0);
        prop_assert_eq!(
            batch.report.unique_serves(),
            distinct.len() as u64,
            "one underlying serve per distinct key"
        );
        prop_assert_eq!(batch.report.events(), events.len() as u64);
    }

    /// The hit *ratio* is invariant across every front-end
    /// configuration that sheds nothing: baseline, coalescing,
    /// shared-read, and work stealing all report the same hits.
    #[test]
    fn hit_ratio_is_invariant_across_configs(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=8,
    ) {
        let (engine, cached) = shared_engine();
        let requests = materialize(&raw, cached);

        let optimized = FrontendConfig::builder()
            .work_stealing(true)
            .queue_depth(4)
            .build();
        let mut hits = Vec::new();
        for config in [FrontendConfig::pr3_baseline(), optimized] {
            let (_, frontend) = search_frontend(engine, shards, config);
            let batch = frontend.serve_batch(&requests).expect("frontend batch");
            hits.push((batch.report.hits(), batch.report.events()));
        }
        prop_assert_eq!(hits[0], hits[1], "hit counts diverged across configs");
    }

    /// Backpressure determinism: with `Reject` and all-simultaneous
    /// arrivals, exactly the first `depth` exclusive-path events per
    /// lane are admitted, the same ones on every run, and a straggler
    /// arriving after the queue drained is admitted again.
    #[test]
    fn queue_full_rejects_deterministically_and_recovers(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 8..48),
        depth in 1usize..=4,
    ) {
        let (engine, cached) = shared_engine();
        let mut requests = materialize(&raw, cached);
        // A straggler long after every queue has drained (simulated
        // hours later) must always be admitted.
        let late_at = SimInstant::from_micros(u64::MAX / 2);
        requests.push(ServeRequest::new(0, 0, 1 << 62, late_at));

        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(false)
            .hit_path(HitPathMode::Exclusive)
            .overflow(OverflowPolicy::Reject)
            .work_stealing(false)
            .build();
        let shed = |requests: &[ServeRequest]| -> Vec<bool> {
            let (_, frontend) = search_frontend(engine, 1, config);
            let batch = frontend.serve_batch(requests).expect("frontend batch");
            batch
                .served
                .iter()
                .map(|s| matches!(s.outcome, Err(CloudletError::QueueFull { .. })))
                .collect()
        };

        let first = shed(&requests);
        // Exactly `depth` admitted from the simultaneous burst.
        let burst_admitted = first[..requests.len() - 1].iter().filter(|&&r| !r).count();
        prop_assert_eq!(burst_admitted, depth.min(requests.len() - 1));
        prop_assert!(!first[requests.len() - 1], "drained queue must recover");
        prop_assert_eq!(&first, &shed(&requests), "shedding must be deterministic");
    }
}

/// The `pr3_baseline` configuration reproduces a per-lane serial drain
/// exactly: same hits, same misses, and the same simulated makespan,
/// for several shard counts. The reference is an independent oracle:
/// serve each request on lane `key % S` through
/// [`CloudletService::serve`], sum each lane's simulated service time,
/// and take the busiest lane.
#[test]
fn baseline_frontend_reproduces_router_makespan() {
    let (engine, cached) = shared_engine();
    let requests: Vec<ServeRequest> = (0..64)
        .map(|i| {
            let key = if i % 3 == 0 {
                (i * 31) | 1 << 63
            } else {
                cached[(i * 13) as usize % cached.len()]
            };
            ServeRequest::new(i % 7, 0, key, SimInstant::ZERO)
        })
        .collect();

    for shards in [1usize, 4, 9] {
        let (_, mut lanes) = SearchShard::fleet_of(engine, shards);
        let mut busy = vec![SimDuration::ZERO; shards];
        let (mut hits, mut misses) = (0u64, 0u64);
        for request in &requests {
            let lane = (request.key % shards as u64) as usize;
            let outcome = lanes[lane]
                .serve(&service::ServeRequest::new(request.key, request.at))
                .expect("search serve");
            busy[lane] += outcome.service;
            match outcome.kind {
                ServeKind::Hit => hits += 1,
                ServeKind::Miss => misses += 1,
                other => panic!("search never answers {other:?}"),
            }
        }
        let makespan = busy.iter().copied().max().expect("at least one lane");

        let (_, frontend) = search_frontend(engine, shards, FrontendConfig::pr3_baseline());
        let batch = frontend.serve_batch(&requests).expect("frontend batch");

        assert_eq!(batch.report.hits(), hits);
        assert_eq!(batch.report.misses(), misses);
        assert_eq!(
            batch.report.makespan, makespan,
            "baseline front-end must reproduce the serial drain's makespan at {shards} shards"
        );
    }
}

/// The headline perf claim at test scale: on a duplicate-heavy burst
/// the full front-end (coalescing + shared-read hits) beats the PR 3
/// baseline in simulated throughput, with the hit count unchanged.
#[test]
fn optimized_frontend_beats_baseline_qps() {
    let (engine, cached) = shared_engine();
    // Duplicate-heavy by construction: 8 distinct keys over 96 events,
    // with a miss-heavy tail (misses are what coalescing collapses).
    let requests: Vec<ServeRequest> = (0..96u64)
        .map(|i| {
            let key = if i % 3 == 0 {
                cached[(i % 4) as usize % cached.len()]
            } else {
                (i % 4) | 1 << 63
            };
            ServeRequest::new(i % 11, 0, key, SimInstant::ZERO)
        })
        .collect();

    let (_, baseline) = search_frontend(engine, 4, FrontendConfig::pr3_baseline());
    let base = baseline.serve_batch(&requests).expect("baseline batch");

    let (_, optimized) = search_frontend(engine, 4, FrontendConfig::default());
    let opt = optimized.serve_batch(&requests).expect("optimized batch");

    assert_eq!(opt.report.hits(), base.report.hits(), "hits invariant");
    assert_eq!(opt.report.events(), base.report.events());
    assert!(
        opt.report.throughput_qps() > base.report.throughput_qps(),
        "optimized {:.1} qps must beat baseline {:.1} qps",
        opt.report.throughput_qps(),
        base.report.throughput_qps()
    );
    assert!(opt.report.coalesced() > 0, "duplicates must coalesce");
}
