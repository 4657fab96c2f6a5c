//! Set-up: the generated worlds each workload serves against, built
//! step by step so the traced run can attribute set-up time to
//! `querylog::generator`, `querylog::triplets` and `core::contentgen`.

use std::time::Instant;

use cloudlet_core::cache::CommunityCache;
use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
use cloudlet_core::corpus::UniverseCorpus;
use cloudlet_core::population::PairTable;
use cloudlet_core::ranking::RankingPolicy;
use cloudlet_core::update::UpdateServer;
use pocket_bench::workloads::PopulationWorld;
use pocketsearch::engine::Catalog;
use querylog::generator::{GeneratorConfig, LogGenerator};
use querylog::log::{LogEntry, SearchLog};
use querylog::triplets::TripletTable;

/// Community-cache admission share every workload uses (the paper's
/// 55% cumulative-volume cut).
pub const SHARE: f64 = 0.55;

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Log generation (`querylog::generator`).
    pub log_gen_s: f64,
    /// Triplet extraction (`querylog::triplets`).
    pub triplets_s: f64,
    /// Community-content mining (`core::contentgen`).
    pub contentgen_s: f64,
    /// Catalog, snapshot and engine assembly.
    pub engine_build_s: f64,
    /// The nightly update servers' sliding windows.
    pub update_servers_s: f64,
}

/// Runs `f`, adding its host seconds to `slot`.
pub fn step<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

fn mine(triplets: &TripletTable, generator: &LogGenerator) -> CacheContents {
    CacheContents::generate(
        triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share: SHARE },
    )
}

/// The population studies' frozen world, built by the same steps as
/// [`pocket_bench::workloads::population_world`].
pub fn population_world(config: GeneratorConfig, seed: u64, t: &mut SetupTimes) -> PopulationWorld {
    let (generator, build_month) = step(&mut t.log_gen_s, || {
        let mut generator = LogGenerator::new(config, seed);
        let month = generator.generate_month();
        (generator, month)
    });
    let triplets = step(&mut t.triplets_s, || TripletTable::from_log(&build_month));
    let contents = step(&mut t.contentgen_s, || mine(&triplets, &generator));
    step(&mut t.engine_build_s, || {
        let catalog = Catalog::new(generator.universe());
        let mut community = CommunityCache::new(RankingPolicy::default());
        community.install_contents(&contents);
        let pairs = PairTable::new(
            generator
                .universe()
                .pairs()
                .iter()
                .map(|p| (catalog.query_hash(p.query), catalog.result_hash(p.result)))
                .collect(),
        );
        PopulationWorld {
            universe: generator.universe().clone(),
            community: community.into_shared(),
            pairs: pairs.into_shared(),
            contents,
        }
    })
}

/// The single-device search studies' inputs: a build month mined into
/// community contents, a replay month, and the hash catalog.
pub struct SearchInputs {
    /// The month the community cache is mined from.
    pub build_month: SearchLog,
    /// The month whose per-user streams are replayed.
    pub replay_month: SearchLog,
    /// Community contents of the build month.
    pub contents: CacheContents,
    /// Hash catalog of the universe.
    pub catalog: Catalog,
    /// The generator (for its universe, when mining update windows).
    pub generator: LogGenerator,
}

/// Builds [`SearchInputs`] by the same steps as
/// [`pocket_bench::workloads::full_scale_study_inputs`].
pub fn search_inputs(config: GeneratorConfig, seed: u64, t: &mut SetupTimes) -> SearchInputs {
    let (generator, build_month, replay_month) = step(&mut t.log_gen_s, || {
        let mut generator = LogGenerator::new(config, seed);
        let build = generator.generate_month();
        let replay = generator.generate_month();
        (generator, build, replay)
    });
    let triplets = step(&mut t.triplets_s, || TripletTable::from_log(&build_month));
    let contents = step(&mut t.contentgen_s, || mine(&triplets, &generator));
    let catalog = step(&mut t.engine_build_s, || Catalog::new(generator.universe()));
    SearchInputs {
        build_month,
        replay_month,
        contents,
        catalog,
        generator,
    }
}

/// The §6.2.2 update servers for replay days `0..days`: server `d`
/// holds the contents mined from the 28-day window that ends with
/// replay day `d` (build-month days after `d`, replay-month days up to
/// and including `d`), exactly as the hit-rate study builds them.
pub fn update_servers(inputs: &SearchInputs, days: u16, t: &mut SetupTimes) -> Vec<UpdateServer> {
    let month_days = inputs.replay_month.days();
    step(&mut t.update_servers_s, || {
        (0..days)
            .map(|d| {
                let mut window: Vec<LogEntry> = inputs
                    .build_month
                    .iter()
                    .filter(|e| e.time.day > d)
                    .copied()
                    .collect();
                window.extend(
                    inputs
                        .replay_month
                        .iter()
                        .filter(|e| e.time.day <= d)
                        .copied(),
                );
                let table = TripletTable::from_log(&SearchLog::new(window, month_days));
                UpdateServer::from_contents(
                    &mine(&table, &inputs.generator),
                    RankingPolicy::default(),
                )
            })
            .collect()
    })
}
