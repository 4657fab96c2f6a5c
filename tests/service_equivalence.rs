//! Service-layer equivalence: for every cloudlet, serving a workload
//! through the unified [`CloudletService`] trait must produce exactly
//! the statistics its legacy serve loop produces on the same seeded
//! workload — the refactor's "no observable behavior change" contract,
//! checked property-style (256 cases per cloudlet).
//!
//! The file ends with the heterogeneous acceptance test: one
//! [`Frontend`] mixing search, web, and maps lanes in three service
//! groups, whose aggregate hit count equals the sum of the three legacy
//! loops run sequentially.

use std::sync::OnceLock;

use proptest::prelude::*;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{self, Frontend, FrontendConfig};
use pocket_cloudlets::core::service::{CloudletService, ServeOutcome, ServeRequest, ServeStats};
use pocket_cloudlets::mobsim::time::{SimDuration, SimInstant};
use pocket_cloudlets::pocketmaps::grid::TileGrid;
use pocket_cloudlets::pocketmaps::{PocketMaps, TileId};
use pocket_cloudlets::pocketsearch::advert::{AdCloudlet, AdOutcome, AdRecord};
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::SearchShard;
use pocket_cloudlets::pocketweb::world::{PageId, WebWorld};
use pocket_cloudlets::pocketweb::{PocketWeb, RefreshPolicy, WebService, WorldConfig};
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

/// One shared search engine (expensive to build); serving runs on
/// clones, so sharing is sound.
fn shared_engine() -> &'static (PocketSearch, Vec<u64>) {
    static ENGINE: OnceLock<(PocketSearch, Vec<u64>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 41);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let contents = CacheContents::generate(
            &triplets,
            &UniverseCorpus::new(generator.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    })
}

/// One shared simulated web; cloudlets serving it are built per case.
fn shared_world() -> &'static WebWorld {
    static WORLD: OnceLock<WebWorld> = OnceLock::new();
    WORLD.get_or_init(|| WebWorld::generate(WorldConfig::test_scale(), 43))
}

proptest! {
    /// Search: the trait path wraps the sequential engine, so its
    /// accumulated [`ServeStats`] must equal the stats reconstructed
    /// from a legacy `PocketSearch::serve` loop over the same keys in
    /// the same order (radio warm-up state and all).
    #[test]
    fn search_trait_stats_match_legacy_serve_loop(
        raw in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..24),
    ) {
        let (engine, cached) = shared_engine();
        let keys: Vec<u64> = raw
            .iter()
            .map(|&(selector, from_cache)| {
                if from_cache {
                    cached[(selector % cached.len() as u64) as usize]
                } else {
                    selector | 1 << 63
                }
            })
            .collect();

        let mut legacy = engine.clone();
        let miss_bytes = {
            let c = legacy.device().config();
            c.request_bytes + c.response_bytes
        };
        let mut expected = ServeStats::default();
        for &key in &keys {
            let served = legacy.serve(key);
            let outcome = if served.hit {
                ServeOutcome::hit()
            } else {
                ServeOutcome::miss(miss_bytes)
            }
            .with_service(served.report.total_time);
            expected.record(&outcome);
        }

        let mut unified = engine.clone();
        for &key in &keys {
            CloudletService::serve(&mut unified, &ServeRequest::new(key, SimInstant::ZERO))
                .expect("search serve is infallible on valid state");
        }
        prop_assert_eq!(unified.service_stats(), expected);
        prop_assert_eq!(expected.serves, keys.len() as u64);
    }

    /// Web: serving page keys through [`WebService`] must leave the
    /// cloudlet with exactly the counters a legacy `visit` loop leaves,
    /// including stale refetches driven by simulated time.
    #[test]
    fn web_trait_stats_match_legacy_visit_loop(
        raw in proptest::collection::vec((any::<u64>(), 0u64..10_000), 1..24),
    ) {
        let world = shared_world();
        let n_pages = world.pages().len() as u64;
        let visits: Vec<(PageId, SimInstant)> = raw
            .iter()
            .map(|&(selector, minutes)| {
                (
                    PageId((selector % n_pages) as u32),
                    SimInstant::ZERO + SimDuration::from_secs(minutes * 60),
                )
            })
            .collect();

        let mut legacy = PocketWeb::new(world, RefreshPolicy::OvernightOnly);
        for &(page, at) in &visits {
            legacy.visit(world, page, at);
        }

        let mut unified = WebService::new(
            world.clone(),
            PocketWeb::new(world, RefreshPolicy::OvernightOnly),
        );
        for &(page, at) in &visits {
            unified
                .serve(&ServeRequest::new(WebService::key_of(page), at))
                .expect("in-range page keys serve");
        }

        prop_assert_eq!(
            unified.service_stats(),
            WebService::project_stats(&legacy.stats())
        );
        prop_assert_eq!(unified.service_stats().serves, visits.len() as u64);
    }

    /// Maps: serving packed tile keys must render exactly the viewports
    /// a legacy `render_viewport` loop renders, with identical
    /// hit/miss/radio accounting.
    #[test]
    fn maps_trait_stats_match_legacy_render_loop(
        raw in proptest::collection::vec((-40i32..40, -40i32..40), 1..24),
    ) {
        let grid = TileGrid::paper_default();
        let tiles: Vec<TileId> = raw.iter().map(|&(x, y)| TileId { x, y }).collect();

        let mut legacy = PocketMaps::new(grid, 10_000_000);
        for &tile in &tiles {
            legacy.render_viewport(grid.tile_center(tile));
        }

        let mut unified = PocketMaps::new(grid, 10_000_000);
        for &tile in &tiles {
            CloudletService::serve(&mut unified, &ServeRequest::new(tile.to_key(), SimInstant::ZERO))
                .expect("every u64 is a tile");
        }

        prop_assert_eq!(
            unified.service_stats(),
            PocketMaps::project_stats(&legacy.stats())
        );
        prop_assert_eq!(unified.service_stats().serves, tiles.len() as u64);
    }

    /// Ads: the trait serve is a standalone consultation (search hit
    /// assumed), so it must match a legacy `serve(q, true)` loop over
    /// the same queries, creative for creative.
    #[test]
    fn ads_trait_stats_match_legacy_serve_loop(
        installs in proptest::collection::vec((0u64..64, any::<u64>()), 1..16),
        queries in proptest::collection::vec(0u64..96, 1..24),
    ) {
        let mut legacy = AdCloudlet::new();
        for &(query, ad_hash) in &installs {
            legacy.install(
                query,
                AdRecord {
                    ad_hash,
                    banner_bytes: 5_000,
                    caption: format!("creative {ad_hash}"),
                },
            );
        }
        let mut unified = legacy.clone();

        let mut legacy_hits = 0u64;
        for &query in &queries {
            if matches!(legacy.serve(query, true), AdOutcome::Hit(_)) {
                legacy_hits += 1;
            }
        }
        for &query in &queries {
            CloudletService::serve(&mut unified, &ServeRequest::new(query, SimInstant::ZERO))
                .expect("ad serve is infallible");
        }

        let (hits, misses, skipped) = legacy.counters();
        let stats = unified.service_stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.hits, legacy_hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.skipped, skipped);
        prop_assert_eq!(stats.serves, queries.len() as u64);
    }
}

proptest! {
    /// The unified-surface migration contract: driving a cloudlet
    /// through the deprecated `serve_user` / `try_serve_hit_user`
    /// shims must be bit-identical — outcome for outcome, and in the
    /// final accumulated [`ServeStats`] — to building a
    /// [`ServeRequest`] and calling the two-method surface directly.
    /// 256 cases, each interleaving users, cached keys, guaranteed
    /// misses, and fast-path probes.
    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_are_bit_identical_to_the_unified_surface(
        raw in proptest::collection::vec(
            (0u64..8, any::<u64>(), any::<bool>(), any::<bool>()),
            1..24,
        ),
    ) {
        let (engine, cached) = shared_engine();
        let world = shared_world();

        // Two independent clones of each cloudlet: one driven through
        // the old shim surface, one through the unified surface.
        let mut search_old = engine.clone();
        let mut search_new = engine.clone();
        let mut web_old = WebService::new(
            world.clone(),
            PocketWeb::new(world, RefreshPolicy::OvernightOnly),
        );
        let mut web_new = web_old.clone();
        let n_pages = world.pages().len() as u64;

        for (step, &(user, selector, from_cache, probe)) in raw.iter().enumerate() {
            let now = SimInstant::ZERO + SimDuration::from_secs(step as u64 * 90);
            let key = if from_cache {
                cached[(selector % cached.len() as u64) as usize]
            } else {
                selector | 1 << 63
            };
            let request = ServeRequest::for_user(user, key, now);

            if probe {
                // The read-only fast path must agree before either
                // exclusive serve mutates anything.
                prop_assert_eq!(
                    search_old.try_serve_hit_user(user, key, now),
                    search_new.try_serve_hit(&request)
                );
            }
            prop_assert_eq!(
                search_old.serve_user(user, key, now),
                CloudletService::serve(&mut search_new, &request)
            );

            let page_key = selector % n_pages;
            let page_request = ServeRequest::for_user(user, page_key, now);
            if probe {
                prop_assert_eq!(
                    web_old.try_serve_hit_user(user, page_key, now),
                    web_new.try_serve_hit(&page_request)
                );
            }
            prop_assert_eq!(
                web_old.serve_user(user, page_key, now),
                web_new.serve(&page_request)
            );
        }

        prop_assert_eq!(search_old.service_stats(), search_new.service_stats());
        prop_assert_eq!(web_old.service_stats(), web_new.service_stats());
    }
}

/// The heterogeneous acceptance test: one [`Frontend`] in its
/// `pr3_baseline` configuration with six search shards, one web lane, and one
/// maps lane in three service groups, whose aggregate hit count equals
/// the sum of the three legacy serve loops run sequentially on the same
/// workload.
#[test]
fn heterogeneous_router_matches_sum_of_legacy_loops() {
    const SEARCH: u32 = 0;
    const WEB: u32 = 1;
    const MAPS: u32 = 2;

    let (engine, cached) = shared_engine();
    let world = shared_world();
    let grid = TileGrid::paper_default();

    // The mixed workload: interleaved search queries (hot cached head
    // plus guaranteed tail misses), web page visits, and map viewports.
    let mut events = Vec::new();
    for i in 0..240u64 {
        match i % 3 {
            0 => {
                let key = if i % 9 == 0 {
                    u64::MAX - i // not in any cache: a radio miss
                } else {
                    cached[(i as usize * 7) % cached.len()]
                };
                events.push(frontend::ServeRequest::new(
                    i,
                    SEARCH,
                    key,
                    SimInstant::ZERO,
                ));
            }
            1 => {
                let page = PageId((i % world.pages().len() as u64) as u32);
                let at = SimInstant::ZERO + SimDuration::from_secs(i * 30);
                events.push(frontend::ServeRequest::new(
                    i,
                    WEB,
                    WebService::key_of(page),
                    at,
                ));
            }
            _ => {
                let tile = TileId {
                    x: (i % 11) as i32 - 5,
                    y: (i % 7) as i32 - 3,
                };
                events.push(frontend::ServeRequest::new(
                    i,
                    MAPS,
                    tile.to_key(),
                    SimInstant::ZERO,
                ));
            }
        }
    }

    // Legacy loop 1: the sequential search engine.
    let mut legacy_search = engine.clone();
    let search_hits = events
        .iter()
        .filter(|e| e.service == SEARCH)
        .filter(|e| legacy_search.serve(e.key).hit)
        .count() as u64;

    // Legacy loop 2: the web cloudlet's visit path.
    let mut legacy_web = PocketWeb::new(world, RefreshPolicy::OvernightOnly);
    for e in events.iter().filter(|e| e.service == WEB) {
        legacy_web.visit(world, PageId(e.key as u32), e.at);
    }
    let web_hits = legacy_web.stats().instant_hits;

    // Legacy loop 3: the maps cloudlet's render path.
    let mut legacy_maps = PocketMaps::new(grid, 10_000_000);
    for e in events.iter().filter(|e| e.service == MAPS) {
        legacy_maps.render_viewport(grid.tile_center(TileId::from_key(e.key)));
    }
    let maps_hits = legacy_maps.stats().instant_renders;

    // The unified fleet: 6 search shards + 1 web + 1 maps = 8 lanes.
    let (_table, shards) = SearchShard::fleet_of(engine, 6);
    let search_lanes: Vec<Box<dyn CloudletService + Send + Sync>> = shards
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn CloudletService + Send + Sync>)
        .collect();
    let fleet = Frontend::new(
        vec![
            search_lanes,
            vec![Box::new(WebService::new(
                world.clone(),
                PocketWeb::new(world, RefreshPolicy::OvernightOnly),
            ))],
            vec![Box::new(PocketMaps::new(grid, 10_000_000))],
        ],
        FrontendConfig::pr3_baseline(),
    );
    assert_eq!(fleet.lane_count(), 8);
    assert_eq!(fleet.group_count(), 3);

    let report = fleet.serve_batch(&events).expect("mixed batch").report;

    let legacy_hits = search_hits + web_hits + maps_hits;
    assert_eq!(report.events(), events.len() as u64);
    assert_eq!(report.errors(), 0);
    assert_eq!(
        report.hits(),
        legacy_hits,
        "aggregate hits must equal the sum of the three legacy loops"
    );
    assert_eq!(
        report.hit_rate(),
        legacy_hits as f64 / events.len() as f64,
        "hit ratio matches exactly"
    );
    assert!(
        report.hits() > 0 && report.misses() > 0,
        "both paths exercised"
    );

    // Per-group sanity: lane names partition as declared.
    assert_eq!(fleet.lane_name(0), "search");
    assert_eq!(fleet.lane_name(6), "web");
    assert_eq!(fleet.lane_name(7), "maps");
}
