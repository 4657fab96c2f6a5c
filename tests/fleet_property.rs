//! Property tests for the sharded serving layer: for any event mix and
//! any shard count, a search front-end in its `pr3_baseline`
//! configuration ([`search_frontend`]) must reproduce exactly the
//! hit/miss outcomes of a sequential `PocketSearch::serve` loop, route
//! every request to its modulo-owning shard, and leave the index
//! untouched.

use std::sync::OnceLock;

use proptest::prelude::*;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{FrontendConfig, ServeRequest};
use pocket_cloudlets::mobsim::time::SimInstant;
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::search_frontend;
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
/// `cached = true` pick a query that is in the community cache,
/// the rest use the raw hash (a miss with overwhelming probability).
fn materialize(raw: &[(u64, u64, bool)], cached: &[u64]) -> Vec<ServeRequest> {
    raw.iter()
        .map(|&(user, selector, from_cache)| {
            let key = if from_cache {
                cached[(selector % cached.len() as u64) as usize]
            } else {
                selector | 1 << 63
            };
            ServeRequest::new(user, 0, key, SimInstant::ZERO)
        })
        .collect()
}

proptest! {
    /// The batch's hit/miss multiset over `(query_hash, hit)` equals the
    /// one a sequential `serve` loop produces, for any shard count.
    #[test]
    fn sharded_batch_matches_sequential_serve(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=12,
    ) {
        let (engine, cached) = shared_engine();
        let events = materialize(&raw, cached);

        let mut sequential = engine.clone();
        let mut expected: Vec<(u64, bool)> = events
            .iter()
            .map(|e| (e.key, sequential.serve(e.key).hit))
            .collect();

        let (_, frontend) = search_frontend(engine, shards, FrontendConfig::pr3_baseline());
        let report = frontend.serve_batch(&events).expect("fleet batch").report;
        let mut observed: Vec<(u64, bool)> = events
            .iter()
            .map(|e| (e.key, frontend.serve_one(*e).expect("serve").hit()))
            .collect();

        expected.sort_unstable();
        observed.sort_unstable();
        prop_assert_eq!(&observed, &expected, "hit/miss multiset diverged");

        let expected_hits = expected.iter().filter(|(_, hit)| *hit).count() as u64;
        prop_assert_eq!(report.events(), events.len() as u64);
        prop_assert_eq!(report.hits(), expected_hits);
        prop_assert_eq!(report.misses(), events.len() as u64 - expected_hits);
    }

    /// Every event lands on shard `query_hash % shards` and nowhere
    /// else: the per-shard event counts of a batch equal the modulo
    /// partition's lane sizes.
    #[test]
    fn events_route_to_their_modulo_shard(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=12,
    ) {
        let (engine, cached) = shared_engine();
        let events = materialize(&raw, cached);

        let mut lanes = vec![0u64; shards];
        for event in &events {
            lanes[(event.key % shards as u64) as usize] += 1;
        }

        let (_, frontend) = search_frontend(engine, shards, FrontendConfig::pr3_baseline());
        let batch = frontend.serve_batch(&events).expect("fleet batch");
        let routed: Vec<u64> = batch.report.lanes.iter().map(|l| l.events).collect();
        prop_assert_eq!(&routed, &lanes);
        for (event, served) in events.iter().zip(&batch.served) {
            prop_assert_eq!(served.lane, (event.key % shards as u64) as usize);
        }
    }

    /// Serving is read-only: after any batch the sharded index holds
    /// exactly the pairs the engine's table held, shard by shard.
    #[test]
    fn serving_leaves_pair_counts_untouched(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=12,
    ) {
        let (engine, cached) = shared_engine();
        let events = materialize(&raw, cached);

        let (table, frontend) = search_frontend(engine, shards, FrontendConfig::pr3_baseline());
        let before = table.pair_counts();
        frontend.serve_batch(&events).expect("fleet batch");
        prop_assert_eq!(table.pair_counts(), before);
        prop_assert_eq!(table.pair_count(), engine.cache().table().pair_count());
    }
}
