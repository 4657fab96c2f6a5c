//! Canonical workload construction shared by figures, tables, and benches.

use std::collections::HashSet;
use std::sync::Arc;

use cloudlet_core::cache::CommunityCache;
use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
use cloudlet_core::corpus::UniverseCorpus;
use cloudlet_core::frontend::ServeRequest;
use cloudlet_core::population::PairTable;
use cloudlet_core::ranking::RankingPolicy;
use mobsim::time::SimInstant;
use pocketsearch::engine::Catalog;
use querylog::generator::{GeneratorConfig, LogGenerator};
use querylog::ids::UserId;
use querylog::log::{LogEntry, SearchLog};
use querylog::stream::{EpochBatch, MICROS_PER_DAY};
use querylog::triplets::TripletTable;
use querylog::universe::Universe;
use querylog::zipf::{TwoSegmentZipf, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the experiments need from one generated world: the
/// cache-construction month, the replay month, the extracted triplets,
/// the community cache contents, and the hash catalog.
#[derive(Debug, Clone)]
pub struct StudyInputs {
    /// The universe behind both months.
    pub universe: Universe,
    /// Month used to build the community cache.
    pub build_month: SearchLog,
    /// Month whose per-user streams are replayed.
    pub replay_month: SearchLog,
    /// Volume-sorted triplets of the build month.
    pub triplets: TripletTable,
    /// Community cache generated at the given share.
    pub contents: CacheContents,
    /// Precomputed hash catalog.
    pub catalog: Catalog,
}

fn study_inputs(config: GeneratorConfig, seed: u64, share: f64) -> StudyInputs {
    let mut generator = LogGenerator::new(config, seed);
    let build_month = generator.generate_month();
    let replay_month = generator.generate_month();
    let triplets = TripletTable::from_log(&build_month);
    let contents = CacheContents::generate(
        &triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share },
    );
    let catalog = Catalog::new(generator.universe());
    StudyInputs {
        universe: generator.universe().clone(),
        build_month,
        replay_month,
        triplets,
        contents,
        catalog,
    }
}

/// Paper-scale inputs (used by the figure/table binaries).
pub fn full_scale_study_inputs(seed: u64) -> StudyInputs {
    study_inputs(GeneratorConfig::full_scale(), seed, 0.55)
}

/// Small, fast inputs (used by tests and the wall-clock benches).
pub fn test_scale_study_inputs(seed: u64) -> StudyInputs {
    study_inputs(GeneratorConfig::test_scale(), seed, 0.55)
}

/// A search request (service group 0) at the simulation epoch.
fn search_request(user: u64, query_hash: u64) -> ServeRequest {
    ServeRequest::new(user, 0, query_hash, SimInstant::ZERO)
}

/// A Zipf-distributed `(user, query)` serving stream for the fleet
/// studies: queries are ranked by their build-month volume and drawn
/// from a two-segment Zipf over that rank, so the hot head mostly hits
/// the community cache while the long tail goes to the radio. Users are
/// assigned uniformly. Deterministic in `seed`.
pub fn fleet_workload(
    inputs: &StudyInputs,
    users: u64,
    n_events: usize,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(users > 0, "the fleet needs at least one user");
    // Distinct queries in descending-volume order.
    let mut seen = HashSet::new();
    let ranked: Vec<u64> = inputs
        .triplets
        .iter()
        .filter(|t| seen.insert(t.query))
        .map(|t| inputs.catalog.query_hash(t.query))
        .collect();
    assert!(ranked.len() >= 2, "workload needs at least two queries");
    let profile = TwoSegmentZipf {
        head_count: (ranked.len() / 10).max(1).min(ranked.len() - 1),
        head_mass: 0.7,
        s_head: 0.9,
        s_tail: 0.3,
    };
    let index = WeightedIndex::new(profile.weights(ranked.len()));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_events)
        .map(|_| search_request(rng.random_range(0..users), ranked[index.sample(&mut rng)]))
        .collect()
}

/// A duplicate-heavy serving stream for the front-end studies: the same
/// two-segment Zipf machinery as [`fleet_workload`], but with a much
/// sharper head (5% of queries carrying 90% of the mass, steeper
/// in-segment exponents), so bursts of *identical* concurrent queries —
/// the traffic duplicate-key coalescing collapses — are common by
/// construction. The head spans the community-cache admission boundary,
/// so the duplicates include hot radio misses, where coalescing pays
/// most. Deterministic in `seed`.
pub fn frontend_workload(
    inputs: &StudyInputs,
    users: u64,
    n_events: usize,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(users > 0, "the front-end needs at least one user");
    let mut seen = HashSet::new();
    let ranked: Vec<u64> = inputs
        .triplets
        .iter()
        .filter(|t| seen.insert(t.query))
        .map(|t| inputs.catalog.query_hash(t.query))
        .collect();
    assert!(ranked.len() >= 2, "workload needs at least two queries");
    let profile = TwoSegmentZipf {
        head_count: (ranked.len() / 20).max(1).min(ranked.len() - 1),
        head_mass: 0.9,
        s_head: 1.1,
        s_tail: 0.4,
    };
    let index = WeightedIndex::new(profile.weights(ranked.len()));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_events)
        .map(|_| search_request(rng.random_range(0..users), ranked[index.sample(&mut rng)]))
        .collect()
}

/// A skewed two-cloudlet serving schedule for the arbiter study: the
/// [`fleet_workload`] stream is cut into `epochs` equal slices and each
/// event is routed to the currently-hot cloudlet with probability
/// `hot_share` (the other cloudlet gets the rest). Cloudlet 0 is hot for
/// the first half of the epochs, then the skew flips to cloudlet 1 —
/// the shape an adaptive arbiter must first exploit and then chase.
/// Returns one `[keys_for_cloudlet_0, keys_for_cloudlet_1]` pair per
/// epoch. Deterministic in `seed`.
pub fn skewed_arbiter_workload(
    inputs: &StudyInputs,
    n_events: usize,
    epochs: usize,
    hot_share: f64,
    seed: u64,
) -> Vec<[Vec<u64>; 2]> {
    assert!(epochs > 0, "the schedule needs at least one epoch");
    assert!(
        (0.0..=1.0).contains(&hot_share),
        "hot_share is a probability"
    );
    let events = fleet_workload(inputs, 64, n_events, seed);
    let per_epoch = (n_events / epochs).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0051_e3ed);
    (0..epochs)
        .map(|epoch| {
            let hot = usize::from(epoch >= epochs / 2);
            let slice = &events[epoch * per_epoch..((epoch + 1) * per_epoch).min(events.len())];
            let mut keys: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for event in slice {
                let cloudlet = if rng.random_range(0.0..1.0) < hot_share {
                    hot
                } else {
                    1 - hot
                };
                keys[cloudlet].push(event.key);
            }
            keys
        })
        .collect()
}

/// The shared, frozen state of a population study: the universe the
/// streams draw from, the mined community snapshot, and the pair
/// directory — everything that exists *once* regardless of how many
/// users replay against it.
#[derive(Debug, Clone)]
pub struct PopulationWorld {
    /// The universe population streams draw from.
    pub universe: Universe,
    /// Community snapshot mined from a sampled build population.
    pub community: Arc<CommunityCache>,
    /// Key → `(query_hash, result_hash)` directory over the universe's
    /// pairs (request key = dense `PairId` index).
    pub pairs: Arc<PairTable>,
    /// The mined community contents (for reporting shares).
    pub contents: CacheContents,
}

/// Builds the frozen world of a population study: a *sampled* build
/// population (`config.n_users`) generates one month, the update server
/// mines it into community contents at `share`, and the snapshot plus
/// pair directory are frozen for `Arc`-sharing across lanes. The
/// streamed serving population is then chosen independently (it can be
/// a million users over the same universe).
pub fn population_world(config: GeneratorConfig, seed: u64, share: f64) -> PopulationWorld {
    let mut generator = LogGenerator::new(config, seed);
    let build_month = generator.generate_month();
    let triplets = TripletTable::from_log(&build_month);
    let contents = CacheContents::generate(
        &triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share },
    );
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
}

/// Converts one streamed epoch batch into front-end requests: user id,
/// the population service group (0), the dense pair key, and the
/// entry's real simulated arrival instant.
pub fn population_requests(batch: &EpochBatch) -> Vec<ServeRequest> {
    batch
        .entries
        .iter()
        .map(|e| {
            let at = u64::from(e.time.day) * MICROS_PER_DAY + e.time.micros_of_day;
            ServeRequest::new(
                u64::from(e.user.index()),
                0,
                u64::from(e.pair.index()),
                SimInstant::from_micros(at),
            )
        })
        .collect()
}

/// The shared-interest peer-cell workload of the `peers` study: a
/// warm-up pass that installs each device's private interest pool into
/// its personalization delta, then a measurement stream in which a
/// `skew` fraction of every device's requests target *another* device's
/// pool — the community-locality premise of the cooperative tier. The
/// stream depends only on `(devices, …, skew, seed)`, never on how the
/// fabric later groups devices into cells, so every cell-size arm
/// replays the identical workload.
#[derive(Debug, Clone)]
pub struct PeerWorkload {
    /// One request per (device, private-pool key): the radio misses
    /// that seed each device's delta before summaries are built.
    pub warmup: Vec<ServeRequest>,
    /// The measurement stream (`requests_per_device` per device,
    /// step-interleaved across devices).
    pub measure: Vec<ServeRequest>,
    /// Per-device private pools of non-community keys (device `d`
    /// holds `pools[d]` after warm-up).
    pub pools: Vec<Vec<u64>>,
}

/// Builds a [`PeerWorkload`] over a [`PopulationWorld`].
///
/// Keys split three ways per measurement request, drawn
/// deterministically from `seed`:
///
/// * with probability `skew` — a key from a uniformly chosen *other*
///   device's private pool (servable by a peer iff that device lands in
///   the requester's cell);
/// * with probability `(1 − skew)/2` — a community key (a local hit on
///   every device, the shared-snapshot floor);
/// * otherwise — a key from a reserved tail pool no device warmed up
///   (a radio miss in every arm).
///
/// # Panics
///
/// Panics when the universe's non-community tail is too small to give
/// every device a disjoint pool plus a miss reserve, or when `skew` is
/// not a probability.
pub fn peer_cell_workload(
    world: &PopulationWorld,
    devices: usize,
    pool_per_device: usize,
    requests_per_device: usize,
    skew: f64,
    seed: u64,
) -> PeerWorkload {
    assert!(devices >= 2, "shared interest needs at least two devices");
    assert!((0.0..=1.0).contains(&skew), "skew is a probability");
    let mut community_keys = Vec::new();
    let mut tail_keys = Vec::new();
    for key in 0..world.pairs.len() as u64 {
        let Some((query_hash, _)) = world.pairs.get(key) else {
            continue;
        };
        if world.community.contains_query(query_hash) {
            community_keys.push(key);
        } else {
            tail_keys.push(key);
        }
    }
    let reserved = devices * pool_per_device;
    assert!(
        tail_keys.len() > reserved && !community_keys.is_empty(),
        "universe too small: {} tail keys for {} pooled",
        tail_keys.len(),
        reserved
    );
    let pools: Vec<Vec<u64>> = (0..devices)
        .map(|d| tail_keys[d * pool_per_device..(d + 1) * pool_per_device].to_vec())
        .collect();
    let miss_reserve = &tail_keys[reserved..];

    let mut at = 0u64;
    let mut next_at = || {
        at += 1_000;
        SimInstant::from_micros(at)
    };
    let mut warmup = Vec::with_capacity(reserved);
    for (d, pool) in pools.iter().enumerate() {
        for &key in pool {
            warmup.push(ServeRequest::new(d as u64, 0, key, next_at()));
        }
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ee2_ce11);
    let mut measure = Vec::with_capacity(devices * requests_per_device);
    for _ in 0..requests_per_device {
        for d in 0..devices as u64 {
            let roll: f64 = rng.random_range(0.0..1.0);
            let key = if roll < skew {
                let other = (d + rng.random_range(1..devices as u64)) % devices as u64;
                pools[other as usize][rng.random_range(0..pool_per_device)]
            } else if roll < skew + (1.0 - skew) / 2.0 {
                community_keys[rng.random_range(0..community_keys.len())]
            } else {
                miss_reserve[rng.random_range(0..miss_reserve.len())]
            };
            measure.push(ServeRequest::new(d, 0, key, next_at()));
        }
    }
    PeerWorkload {
        warmup,
        measure,
        pools,
    }
}

/// The materialized baseline the streamed path is proven against: every
/// user's next month appended into **one shared buffer** via the public
/// `append_user_month` form (no per-user `Vec` allocation), sorted into
/// the canonical `(time, user, pair)` log order, and converted to
/// requests. Bit-identical input to concatenating
/// [`population_requests`] over a full `stream_month`.
pub fn materialized_month_requests(generator: &LogGenerator) -> Vec<ServeRequest> {
    let mut entries: Vec<LogEntry> = Vec::new();
    for u in 0..generator.profiles().len() {
        generator.append_user_month(UserId::new(u as u32), &mut entries);
    }
    entries.sort_by_key(|e| (e.time, e.user, e.pair));
    let batch = EpochBatch {
        month: generator.months_generated(),
        day: 0,
        epoch_of_day: 0,
        epoch: 0,
        entries,
    };
    population_requests(&batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_internally_consistent() {
        let inputs = test_scale_study_inputs(4);
        assert_eq!(
            inputs.triplets.total_volume() as usize,
            inputs.build_month.len()
        );
        assert!(!inputs.contents.is_empty());
        assert!(!inputs.replay_month.is_empty());
        // Catalog covers the whole universe.
        let last_result = inputs.universe.results().last().unwrap().id;
        assert!(inputs
            .catalog
            .record_by_hash(inputs.catalog.result_hash(last_result))
            .is_some());
    }

    #[test]
    fn skewed_schedule_is_skewed_then_flips() {
        let inputs = test_scale_study_inputs(4);
        let schedule = skewed_arbiter_workload(&inputs, 2_000, 4, 0.9, 7);
        assert_eq!(schedule.len(), 4);
        for (epoch, [a, b]) in schedule.iter().enumerate() {
            let (hot, cold) = if epoch < 2 { (a, b) } else { (b, a) };
            assert!(
                hot.len() > 3 * cold.len(),
                "epoch {epoch}: hot {} vs cold {}",
                hot.len(),
                cold.len()
            );
        }
        assert_eq!(
            schedule,
            skewed_arbiter_workload(&inputs, 2_000, 4, 0.9, 7),
            "the schedule is deterministic in the seed"
        );
    }

    #[test]
    fn build_and_replay_months_differ() {
        let inputs = test_scale_study_inputs(4);
        assert_ne!(inputs.build_month, inputs.replay_month);
    }

    #[test]
    fn population_world_covers_the_universe() {
        let world = population_world(GeneratorConfig::test_scale(), 4, 0.55);
        assert!(!world.contents.is_empty());
        assert!(world.community.pair_count() > 0);
        assert_eq!(world.pairs.len(), world.universe.pairs().len());
        // Every mined community query resolves through the pair table.
        let (qh, _) = world.pairs.get(0).unwrap();
        assert!(qh != 0);
    }

    #[test]
    fn materialized_month_matches_the_streamed_epochs() {
        let config = GeneratorConfig::test_scale();
        let baseline = materialized_month_requests(&LogGenerator::new(config, 11));
        let mut generator = LogGenerator::new(config, 11);
        let streamed: Vec<ServeRequest> = generator
            .stream_month_chunked(6)
            .flat_map(|batch| population_requests(&batch))
            .collect();
        assert_eq!(baseline, streamed);
        assert!(!baseline.is_empty());
    }
}
