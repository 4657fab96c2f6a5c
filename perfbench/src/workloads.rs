//! The four workloads: set-up, the measured phase, the output checks,
//! and (traced) the per-layer attribution.

use std::collections::BTreeMap;
use std::time::Instant;

use cloudlet_core::update::UpdateServer;
use pocket_bench::workloads::{peer_cell_workload, PeerWorkload, PopulationWorld};
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use pocketsearch::replay::{replay_user_with_updates, ReplayOutcome};
use querylog::generator::GeneratorConfig;
use querylog::log::LogEntry;

use crate::population::{
    cell_problems, day_problems, replay_consults, run_cells, run_day, telemetry_digest,
    warmed_lanes, DayRun, Probes, PEER_CELL, POPULATION_DAY,
};
use crate::report::{peak_rss_mb, Metric, RunResult};
use crate::search::{classified_streams, replay_user, Fingerprints, SearchDigest, SearchTrace};
use crate::setup::{self, step, SearchInputs, SetupTimes};
use crate::stats::{median, percentile};
use crate::{END_TO_END, PER_LAYER};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = [
    "population_day",
    "search_month",
    "search_updates",
    "peer_cell",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Every this-many-th user of a search workload is also replayed
/// through `pocketsearch::replay` as the reference.
pub const REFERENCE_STRIDE: usize = 8;

/// `search_month` replays every this-many-th classified user.
pub const MONTH_USER_STRIDE: usize = 2;

/// `search_updates` replays every this-many-th classified user.
pub const UPDATE_USER_STRIDE: usize = 40;

/// `search_updates` applies nightly updates after replay days
/// `0..UPDATE_DAYS`. Its events are these update cycles: they take
/// nearly all of its time, so counting serves instead would make its
/// throughput track the sampled users' query volumes.
pub const UPDATE_DAYS: u16 = 2;

/// Where the range check on `trace.coverage` sits: layer times must sum
/// to within 10% of the end-to-end time.
pub const COVERAGE_RANGE: std::ops::RangeInclusive<f64> = 0.9..=1.1;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured time, host seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Runs one workload and returns its checked result.
///
/// # Panics
///
/// Panics on an unknown workload name (the caller validates it).
pub fn run(args: &Args) -> RunResult {
    let mut out = RunResult::default();
    let mut layers = BTreeMap::new();
    let measured = match args.workload.as_str() {
        "population_day" => population_day(args, &mut out, &mut layers),
        "search_month" => search(args, false, &mut out, &mut layers),
        "search_updates" => search(args, true, &mut out, &mut layers),
        "peer_cell" => peer_cell(args, &mut out, &mut layers),
        other => panic!("unknown workload {other:?}"),
    };
    if args.trace {
        out.metrics = PER_LAYER
            .iter()
            .map(|m| Metric::single(m.name, m.unit, layers.remove(m.name).unwrap_or(0.0)))
            .collect();
        let coverage = out
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .map_or(0.0, |m| m.value);
        out.check(COVERAGE_RANGE.contains(&coverage), || {
            format!("trace.coverage {coverage:.3} is outside {COVERAGE_RANGE:?}")
        });
    } else {
        let [(eps, eps_unit), (setup, setup_unit), (rss, rss_unit)] = END_TO_END;
        out.metrics = vec![
            Metric::pooled(eps, eps_unit, measured.events_per_s, measured.throughput),
            Metric::median_of(setup, setup_unit, measured.setup_s),
            Metric::single(rss, rss_unit, measured.peak_rss_mb),
        ];
    }
    out
}

/// Builds a workload's world [`SETUP_REPEATS`] times, dropping each
/// before the next so the memory high-water mark holds one world, and
/// returns the last one with every set-up's host seconds and the last
/// one's step times.
fn set_up<W>(mut build: impl FnMut(&mut SetupTimes) -> W) -> (W, Vec<f64>, SetupTimes) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    let mut times = SetupTimes::default();
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        times = SetupTimes::default();
        let start = Instant::now();
        world = Some(build(&mut times));
        samples.push(start.elapsed().as_secs_f64());
    }
    (world.expect("at least one set-up"), samples, times)
}

/// What an untraced run measured.
struct Measured {
    /// Events per host second over all measured units together: the
    /// reported throughput.
    events_per_s: f64,
    /// Events per host second of each measured unit.
    throughput: Vec<f64>,
    /// Host seconds of each set-up.
    setup_s: Vec<f64>,
    /// The memory high-water mark once set-up and the first unit are
    /// done, so that it does not depend on how many units fit in the
    /// run.
    peak_rss_mb: f64,
}

/// Repeats `unit` until `seconds` of host time have passed (at least
/// once), and reads the memory high-water mark after the first unit. Untraced runs measure this way. The traced run makes one
/// untraced pass, the traced pass, and a second untraced pass, and takes
/// `trace.overhead` against the mean of the two untraced ones: a pass's
/// speed also depends on its position in the process.
fn repeat_for<U>(seconds: f64, trace: bool, mut unit: impl FnMut() -> U) -> (Vec<U>, f64) {
    let start = Instant::now();
    let mut runs = vec![unit()];
    let rss = peak_rss_mb();
    while !trace && start.elapsed().as_secs_f64() < seconds {
        runs.push(unit());
    }
    (runs, rss)
}

fn put(layers: &mut BTreeMap<&'static str, f64>, name: &'static str, value: f64) {
    debug_assert!(
        PER_LAYER.iter().any(|m| m.name == name),
        "undeclared metric {name}"
    );
    layers.insert(name, value);
}

fn put_setup(layers: &mut BTreeMap<&'static str, f64>, t: &SetupTimes) {
    put(layers, "setup.log_gen_s", t.log_gen_s);
    put(layers, "setup.triplets_s", t.triplets_s);
    put(layers, "setup.contentgen_s", t.contentgen_s);
    put(layers, "setup.engine_build_s", t.engine_build_s);
    put(layers, "setup.update_servers_s", t.update_servers_s);
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Lane-probe metrics shared by the two front-end workloads.
fn put_lanes(layers: &mut BTreeMap<&'static str, f64>, probes: &Probes, delta_bytes: u64) {
    let (serves, attempts, fast_hits) = probes.calls();
    put(layers, "lane.serve_calls", (serves + attempts) as f64);
    put(
        layers,
        "lane.serve_ns",
        per(probes.busy_ns() as f64, serves + attempts),
    );
    put(layers, "lane.fast_path_attempts", attempts as f64);
    put(layers, "lane.fast_path_hits", fast_hits as f64);
    put(
        layers,
        "lane.fast_path_yield",
        per(fast_hits as f64, attempts),
    );
    put(layers, "lane.delta_bytes", delta_bytes as f64);
}

/// Events per host second.
fn rate(events: u64, host_ns: u64) -> f64 {
    events as f64 / secs(host_ns)
}

fn day_eps(run: &DayRun) -> f64 {
    rate(run.events, run.host_ns)
}

fn population_day(
    args: &Args,
    out: &mut RunResult,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Measured {
    let config = GeneratorConfig::full_scale();
    let (world, setup_s, setup_times) = set_up(|t| setup::population_world(config, args.seed, t));
    let (runs, peak_rss_mb) = repeat_for(args.seconds, args.trace, || {
        run_day(&world, config, args.seed, POPULATION_DAY, None)
    });
    let reference = &runs[0];
    out.digest = telemetry_digest(&reference.telemetry, &Default::default());
    for run in &runs {
        let a = run.telemetry.aggregate();
        out.attempted += run.events;
        out.failed += a.errors + a.rejected;
        for p in day_problems(run) {
            out.fail(p);
        }
        out.check(run.telemetry == reference.telemetry, || {
            "a repeat of the same day produced different telemetry".to_owned()
        });
    }
    out.repeats = runs.len();
    let throughput: Vec<f64> = runs.iter().map(day_eps).collect();
    let events_per_s = rate(
        runs.iter().map(|r| r.events).sum(),
        runs.iter().map(|r| r.host_ns).sum(),
    );

    if args.trace {
        let probes = Probes::new(POPULATION_DAY.lanes, false);
        let traced = run_day(&world, config, args.seed, POPULATION_DAY, Some(&probes));
        let after = run_day(&world, config, args.seed, POPULATION_DAY, None);
        out.attempted += traced.events + after.events;
        out.check(traced.telemetry == reference.telemetry, || {
            "lane-wrapped telemetry differs from the unwrapped front-end's".to_owned()
        });
        out.check(after.telemetry == reference.telemetry, || {
            "a repeat of the same day produced different telemetry".to_owned()
        });
        let s = &traced.spans;
        let events = traced.events;
        let lane_ns = probes.busy_ns();
        put(
            layers,
            "stream.next_ns_per_event",
            per(s.stream_next.ns as f64, events),
        );
        put(
            layers,
            "stream.convert_ns_per_event",
            per(s.convert.ns as f64, events),
        );
        put(layers, "stream.events", events as f64);
        put(
            layers,
            "stream.peak_day_entries",
            traced.peak_day_entries as f64,
        );
        put(
            layers,
            "frontend.self_ns_per_event",
            per(s.serve_batch.ns.saturating_sub(lane_ns) as f64, events),
        );
        let delta: u64 = traced.telemetry.lanes.iter().map(|l| l.cache_bytes).sum();
        put_lanes(layers, &probes, delta);
        put(layers, "arbiter.epoch_ns", s.arbiter.mean_ns());
        put(layers, "arbiter.epochs", traced.arbitrations as f64);
        let layer_ns = s.stream_next.ns + s.convert.ns + s.serve_batch.ns + s.arbiter.ns;
        put(
            layers,
            "trace.coverage",
            layer_ns as f64 / traced.host_ns as f64,
        );
        put(
            layers,
            "trace.overhead",
            median(&[throughput[0], day_eps(&after)]) / day_eps(&traced),
        );
        put_setup(layers, &setup_times);
    }
    Measured {
        events_per_s,
        throughput,
        setup_s,
        peak_rss_mb,
    }
}

/// A search workload's world: inputs, the built engine, the replayed
/// streams, and (for updates) the nightly servers.
struct SearchWorld {
    inputs: SearchInputs,
    base: PocketSearch,
    streams: Vec<Vec<LogEntry>>,
    servers: Vec<UpdateServer>,
}

fn search_world(seed: u64, updates: bool, t: &mut SetupTimes) -> SearchWorld {
    let inputs = setup::search_inputs(GeneratorConfig::full_scale(), seed, t);
    let base = step(&mut t.engine_build_s, || {
        PocketSearch::build(
            &inputs.contents,
            &inputs.catalog,
            PocketSearchConfig::default(),
        )
    });
    let stride = if updates {
        UPDATE_USER_STRIDE
    } else {
        MONTH_USER_STRIDE
    };
    let streams = step(&mut t.log_gen_s, || {
        classified_streams(&inputs.replay_month)
            .into_iter()
            .step_by(stride)
            .collect()
    });
    let servers = if updates {
        setup::update_servers(&inputs, UPDATE_DAYS, t)
    } else {
        Vec::new()
    };
    SearchWorld {
        inputs,
        base,
        streams,
        servers,
    }
}

/// One pass over every stream of a search world.
struct SearchPass {
    outcomes: Vec<ReplayOutcome>,
    /// The workload's events: serves, or update cycles when updating.
    events: u64,
    trace: SearchTrace,
    host_ns: u64,
}

impl SearchPass {
    fn serves(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.total)).sum()
    }

    fn eps(&self) -> f64 {
        rate(self.events, self.host_ns)
    }

    fn digest(&self) -> SearchDigest {
        let mut d = SearchDigest::default();
        for o in &self.outcomes {
            d.add(o);
        }
        d
    }
}

fn search_pass(world: &SearchWorld, mut trace: SearchTrace) -> SearchPass {
    let servers = (!world.servers.is_empty()).then_some(world.servers.as_slice());
    let start = Instant::now();
    let outcomes: Vec<ReplayOutcome> = world
        .streams
        .iter()
        .map(|s| replay_user(&world.base, &world.inputs, s, servers, &mut trace))
        .collect();
    let host_ns = crate::stats::ns_since(start);
    let events = match servers {
        Some(_) => trace.update_ns.len() as u64,
        None => outcomes.iter().map(|o| u64::from(o.total)).sum(),
    };
    SearchPass {
        outcomes,
        events,
        trace,
        host_ns,
    }
}

fn search(
    args: &Args,
    updates: bool,
    out: &mut RunResult,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Measured {
    let (world, setup_s, setup_times) = set_up(|t| search_world(args.seed, updates, t));
    let (mut passes, peak_rss_mb) = repeat_for(args.seconds, args.trace, || {
        let mut trace = SearchTrace::new(false);
        if args.trace {
            trace.fingerprints = Fingerprints::Record(Vec::new());
        }
        search_pass(&world, trace)
    });
    let reference = passes[0].digest();
    out.digest = reference.render();
    for pass in &passes {
        out.attempted += pass.trace.attempted;
        out.failed += pass.trace.failures;
        out.check(pass.digest() == reference, || {
            "a repeat of the same month produced different outcomes".to_owned()
        });
    }
    // The program's own replay path is the reference for a sample of
    // users (every user would double the run).
    let servers: &[UpdateServer] = &world.servers;
    for (i, stream) in world.streams.iter().enumerate().step_by(REFERENCE_STRIDE) {
        let expected =
            replay_user_with_updates(&world.base, &world.inputs.catalog, stream, servers);
        if passes[0].outcomes[i] != expected {
            out.fail(format!(
                "user {i}: replay outcome differs from pocketsearch::replay"
            ));
        }
    }
    out.repeats = passes.len();
    let throughput: Vec<f64> = passes.iter().map(SearchPass::eps).collect();
    let events_per_s = rate(
        passes.iter().map(|p| p.events).sum(),
        passes.iter().map(|p| p.host_ns).sum(),
    );

    if args.trace {
        let mut untraced = passes.swap_remove(0);
        let mut trace = SearchTrace::new(true);
        if let Fingerprints::Record(expected) = std::mem::take(&mut untraced.trace.fingerprints) {
            trace.fingerprints = Fingerprints::Check {
                expected,
                next: 0,
                mismatches: 0,
            };
        }
        let traced = search_pass(&world, trace);
        let after = search_pass(&world, SearchTrace::new(false));
        let t = &traced.trace;
        out.attempted += t.attempted + after.trace.attempted;
        out.failed += t.failures + after.trace.failures;
        out.check(after.digest() == reference, || {
            "a repeat of the same month produced different outcomes".to_owned()
        });
        if let Fingerprints::Check {
            expected,
            next,
            mismatches,
        } = &t.fingerprints
        {
            out.check(*mismatches == 0 && *next == expected.len(), || {
                format!("{mismatches} traced results differ from the untraced engine's")
            });
        }
        out.check(traced.outcomes == untraced.outcomes, || {
            "traced replay outcomes differ from the untraced ones".to_owned()
        });

        let users = world.streams.len() as u64;
        let serves = traced.serves();
        let cycles = t.update_ns.len() as u64;
        put(
            layers,
            "engine.clone_ns_per_user",
            per(t.clone.ns as f64, users),
        );
        put(layers, "engine.click_ns", t.click.mean_ns());
        put(layers, "cache.serve_ns", t.cache.mean_ns());
        put(layers, "cache.hit_ratio", per(t.cache_hits as f64, serves));
        put(layers, "flashdb.get_ns", t.db_get.mean_ns());
        put(layers, "flashdb.records_read", t.records_read as f64);
        put(layers, "flashdb.get_failed", t.get_failed as f64);
        put(layers, "flashdb.inserts", t.inserts as f64);
        put(layers, "device.serve_ns", t.device.mean_ns());
        if updates {
            put(layers, "flashdb.patch_build_ns", t.patch_build.mean_ns());
            put(layers, "flashdb.patch_apply_ns", t.patch_apply.mean_ns());
            put(
                layers,
                "flashdb.patch_bytes",
                per(t.patch_bytes as f64, cycles),
            );
            put(layers, "update.upload_ns", t.upload.mean_ns());
            put(layers, "update.build_ns", t.build.mean_ns());
            put(layers, "update.apply_ns", t.apply.mean_ns());
            put(
                layers,
                "update.upload_bytes",
                per(t.upload_bytes as f64, cycles),
            );
            put(layers, "update.records_added", t.records_added as f64);
            put(layers, "update.records_removed", t.records_removed as f64);
            let mut ns = untraced.trace.update_ns.clone();
            put(
                layers,
                "update_p50_ms",
                percentile(&mut ns, 0.50) as f64 / 1e6,
            );
            put(
                layers,
                "update_p95_ms",
                percentile(&mut ns, 0.95) as f64 / 1e6,
            );
        }
        let mut ns = untraced.trace.serve_ns.clone();
        put(
            layers,
            "serve_p50_us",
            percentile(&mut ns, 0.50) as f64 / 1e3,
        );
        put(
            layers,
            "serve_p999_us",
            percentile(&mut ns, 0.999) as f64 / 1e3,
        );
        let end_to_end_ns = traced.host_ns.saturating_sub(t.trace_only_ns());
        put(
            layers,
            "trace.coverage",
            t.layer_ns() as f64 / end_to_end_ns as f64,
        );
        put(
            layers,
            "trace.overhead",
            median(&[untraced.eps(), after.eps()]) / rate(traced.events, end_to_end_ns),
        );
        put_setup(layers, &setup_times);
    }
    Measured {
        events_per_s,
        throughput,
        setup_s,
        peak_rss_mb,
    }
}

/// The peer-cell world: the population world, the shared-interest
/// stream, and lanes warmed with each device's private pool.
struct CellWorld {
    workload: PeerWorkload,
    warmed: Vec<cloudlet_core::population::PopulationLane>,
    _world: PopulationWorld,
}

fn peer_cell(
    args: &Args,
    out: &mut RunResult,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Measured {
    let shape = PEER_CELL;
    let (world, setup_s, setup_times) = set_up(|t| {
        let world = setup::population_world(GeneratorConfig::full_scale(), args.seed, t);
        step(&mut t.engine_build_s, || {
            let workload = peer_cell_workload(
                &world,
                shape.devices,
                shape.pool,
                shape.per_device,
                shape.skew,
                args.seed,
            );
            let warmed = warmed_lanes(&world, shape.devices, &workload.warmup);
            CellWorld {
                workload,
                warmed,
                _world: world,
            }
        })
    });
    let measure = &world.workload.measure;
    let submitted = measure.len() as u64;
    let (runs, peak_rss_mb) = repeat_for(args.seconds, args.trace, || {
        run_cells(&world.warmed, measure, shape, None)
    });
    let reference = &runs[0];
    out.digest = telemetry_digest(&reference.telemetry, &reference.fabric);
    for run in &runs {
        let a = run.telemetry.aggregate();
        out.attempted += submitted;
        out.failed += a.errors + a.rejected;
        for p in cell_problems(run, submitted) {
            out.fail(p);
        }
        out.check(
            run.telemetry == reference.telemetry && run.fabric == reference.fabric,
            || "a repeat of the same stream produced different telemetry".to_owned(),
        );
    }
    out.repeats = runs.len();
    let eps = |host_ns: u64| rate(submitted, host_ns);
    let throughput: Vec<f64> = runs.iter().map(|r| eps(r.host_ns)).collect();
    let events_per_s = rate(
        submitted * runs.len() as u64,
        runs.iter().map(|r| r.host_ns).sum(),
    );

    if args.trace {
        let probes = Probes::new(shape.devices, true);
        let traced = run_cells(&world.warmed, measure, shape, Some(&probes));
        let after = run_cells(&world.warmed, measure, shape, None);
        out.attempted += 2 * submitted;
        out.check(
            traced.telemetry == reference.telemetry && traced.fabric == reference.fabric,
            || "lane-wrapped telemetry differs from the unwrapped front-end's".to_owned(),
        );
        out.check(
            after.telemetry == reference.telemetry && after.fabric == reference.fabric,
            || "a repeat of the same stream produced different telemetry".to_owned(),
        );
        let replay = replay_consults(&traced, &probes, shape);
        out.check(replay.replayed == traced.fabric, || {
            format!(
                "replayed consults {:?} differ from the fabrics' own {:?}",
                replay.replayed, traced.fabric
            )
        });
        let lane_ns = probes.busy_ns();
        put(
            layers,
            "frontend.self_ns_per_event",
            per(
                traced.serve_batch.ns.saturating_sub(lane_ns) as f64,
                submitted,
            ),
        );
        let delta: u64 = traced.telemetry.lanes.iter().map(|l| l.cache_bytes).sum();
        put_lanes(layers, &probes, delta);
        let f = traced.fabric;
        put(layers, "peer.consult_ns", replay.span.mean_ns());
        put(layers, "peer.consults", f.consults as f64);
        put(
            layers,
            "peer.hit_yield",
            per(f.peer_hits as f64, f.consults),
        );
        put(layers, "peer.false_positives", f.false_positives as f64);
        // Front-end self time is the batch's residual over the lanes, so
        // the consults it contains, replayed alone, must fit inside it.
        let layer_ns = traced.serve_batch.ns;
        put(
            layers,
            "trace.coverage",
            layer_ns as f64 / traced.host_ns as f64,
        );
        out.check(replay.span.ns <= layer_ns.saturating_sub(lane_ns), || {
            "replayed peer consults take longer than the front-end's whole self time".to_owned()
        });
        put(
            layers,
            "trace.overhead",
            median(&[throughput[0], eps(after.host_ns)]) / eps(traced.host_ns),
        );
        put_setup(layers, &setup_times);
    }
    Measured {
        events_per_s,
        throughput,
        setup_s,
        peak_rss_mb,
    }
}
