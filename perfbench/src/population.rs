//! The two front-end workloads, `population_day` and `peer_cell`: user
//! streams served through a user-routed `Frontend` over
//! `PopulationLane`s, traced by wrapping each lane from outside.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cloudlet_core::arbiter::{AdaptiveArbiter, ArbiterConfig, DemandContext};
use cloudlet_core::coordination::{BudgetDemand, CloudletId};
use cloudlet_core::frontend::{
    Frontend, FrontendConfig, FrontendTelemetry, LaneTotals, OverflowPolicy, RouteBy, ServeRequest,
};
use cloudlet_core::peer::{PeerConfig, PeerFabric, PeerFabricStats};
use cloudlet_core::population::{PopulationConfig, PopulationLane};
use cloudlet_core::service::{
    CloudletError, CloudletService, ServeKind, ServeOutcome, ServeRequest as ServiceRequest,
    ServeStats,
};
use mobsim::radio::RadioKind;
use mobsim::time::{SimDuration, SimInstant};
use pocket_bench::workloads::{population_requests, PopulationWorld};
use querylog::generator::GeneratorConfig;
use querylog::stream::{EventStream, StreamConfig};

use crate::stats::{ns_since, timed, Span};

/// Host-time counters one traced lane accumulates. Atomics because the
/// fast path is called through `&self` behind the lane's read lock.
#[derive(Debug, Default)]
pub struct LaneProbe {
    serve_ns: AtomicU64,
    serve_calls: AtomicU64,
    fast_ns: AtomicU64,
    fast_attempts: AtomicU64,
    fast_hits: AtomicU64,
    /// Keys of local radio misses, in serve order, when recording for a
    /// peer-consult replay.
    misses: Option<Mutex<Vec<u64>>>,
}

impl LaneProbe {
    /// A probe; `record_misses` keeps every locally missed key.
    pub fn new(record_misses: bool) -> Self {
        LaneProbe {
            misses: record_misses.then(|| Mutex::new(Vec::new())),
            ..LaneProbe::default()
        }
    }

    /// Host ns spent in the lane (exclusive serves plus fast-path tries).
    pub fn busy_ns(&self) -> u64 {
        self.serve_ns.load(Ordering::Relaxed) + self.fast_ns.load(Ordering::Relaxed)
    }

    fn missed_keys(&self) -> Vec<u64> {
        self.misses.as_ref().map_or_else(Vec::new, |m| {
            m.lock().expect("miss log lock poisoned").clone()
        })
    }
}

/// A forwarding `CloudletService` that times every call into the
/// wrapped lane. Every trait method forwards, so a front-end over traced
/// lanes behaves exactly as one over the bare lanes.
pub struct TracedLane<S> {
    inner: S,
    probe: Arc<LaneProbe>,
}

impl<S> TracedLane<S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: Arc<LaneProbe>) -> Self {
        TracedLane { inner, probe }
    }
}

impl<S: CloudletService> CloudletService for TracedLane<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serve(&mut self, request: &ServiceRequest) -> Result<ServeOutcome, CloudletError> {
        let start = Instant::now();
        let out = self.inner.serve(request);
        self.probe
            .serve_ns
            .fetch_add(ns_since(start), Ordering::Relaxed);
        self.probe.serve_calls.fetch_add(1, Ordering::Relaxed);
        if let (Some(log), Ok(outcome)) = (&self.probe.misses, &out) {
            if outcome.kind == ServeKind::Miss {
                log.lock()
                    .expect("miss log lock poisoned")
                    .push(request.key);
            }
        }
        out
    }

    fn try_serve_hit(&self, request: &ServiceRequest) -> Option<ServeOutcome> {
        let start = Instant::now();
        let out = self.inner.try_serve_hit(request);
        self.probe
            .fast_ns
            .fetch_add(ns_since(start), Ordering::Relaxed);
        self.probe.fast_attempts.fetch_add(1, Ordering::Relaxed);
        if out.is_some() {
            self.probe.fast_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    #[allow(deprecated)]
    fn serve_user(
        &mut self,
        user: u64,
        key: u64,
        now: SimInstant,
    ) -> Result<ServeOutcome, CloudletError> {
        self.inner.serve_user(user, key, now)
    }

    #[allow(deprecated)]
    fn try_serve_hit_user(&self, user: u64, key: u64, now: SimInstant) -> Option<ServeOutcome> {
        self.inner.try_serve_hit_user(user, key, now)
    }

    fn summary_keys(&self) -> Vec<u64> {
        self.inner.summary_keys()
    }

    fn service_stats(&self) -> ServeStats {
        self.inner.service_stats()
    }

    fn cache_bytes(&self) -> u64 {
        self.inner.cache_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        self.inner.budget_demand(cloudlet, ctx)
    }
}

/// Population lanes sharing the world's community snapshot.
pub fn population_lanes(world: &PopulationWorld, lanes: usize) -> Vec<PopulationLane> {
    (0..lanes)
        .map(|_| {
            PopulationLane::new(
                PopulationConfig::default(),
                world.community.clone(),
                world.pairs.clone(),
            )
        })
        .collect()
}

/// The population studies' front-end: routed by user, no coalescing or
/// stealing, parking on full queues — so each request's lane, and the
/// serve order every user sees, is a function of the input alone. With
/// `probes`, lane `i` is wrapped in a [`TracedLane`] reporting to
/// `probes[i]`.
pub fn population_frontend(
    lanes: Vec<PopulationLane>,
    probes: Option<&[Arc<LaneProbe>]>,
) -> Frontend {
    let config = FrontendConfig::builder()
        .route_by(RouteBy::User)
        .coalescing(false)
        .work_stealing(false)
        .overflow(OverflowPolicy::Park)
        .build();
    let services: Vec<Box<dyn CloudletService + Send + Sync>> = lanes
        .into_iter()
        .enumerate()
        .map(|(i, lane)| match probes {
            Some(p) => Box::new(TracedLane::new(lane, Arc::clone(&p[i])))
                as Box<dyn CloudletService + Send + Sync>,
            None => Box::new(lane) as Box<dyn CloudletService + Send + Sync>,
        })
        .collect();
    Frontend::new(vec![services], config)
}

/// Energy of one 3G radio miss under the population lane's default
/// request and payload sizes, in millijoules (the studies' battery
/// bill per miss).
pub fn miss_energy_mj() -> f64 {
    let radio = RadioKind::ThreeG.default_model();
    let active =
        radio.wakeup + radio.warm_exchange_time(200, PopulationConfig::default().miss_radio_bytes);
    radio.active_extra_power.over(active).millijoules()
}

/// The simulated outputs a front-end run is checked on.
pub fn telemetry_digest(t: &FrontendTelemetry, fabric: &PeerFabricStats) -> String {
    let a = t.aggregate();
    let delta: u64 = t.lanes.iter().map(|l| l.cache_bytes).sum();
    let peer = PeerConfig::default();
    let energy_mj = a.misses as f64 * miss_energy_mj()
        + fabric.peer_hits as f64 * peer.fetch_energy_mj()
        + fabric.false_positives as f64 * peer.probe_energy_mj();
    format!(
        "events={} hits={} misses={} peer_hits={} radio_bytes={} peer_bytes={} busy_us={} \
         energy_mj={energy_mj:.3} delta_bytes={delta}",
        a.events,
        a.hits,
        a.misses,
        a.peer_hits,
        a.radio_bytes,
        a.peer_bytes,
        a.busy.as_micros(),
    )
}

/// Front-end accounting identities every run must satisfy, checked
/// across the front-end's own counters, the per-batch reports, and the
/// lanes' serve statistics (`lane_stats_delta`: what the lanes counted
/// during the run). Returns the identities that failed.
pub fn accounting_problems(
    t: &FrontendTelemetry,
    batch_totals: &LaneTotals,
    lane_stats_delta: &ServeStats,
    submitted: u64,
) -> Vec<String> {
    let a = t.aggregate();
    let mut problems = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!(
                "{what}: {a:?} vs batches {batch_totals:?}, lanes {lane_stats_delta:?}"
            ));
        }
    };
    check(
        a.events == submitted,
        "every submitted request is counted once",
    );
    check(
        a == *batch_totals,
        "cumulative counters equal the summed batch reports",
    );
    check(
        a.hits + a.stale_hits + a.misses + a.skipped + a.errors + a.rejected == a.events,
        "events = hits + stale + misses + skipped + errors + rejected",
    );
    check(a.peer_hits <= a.hits, "peer hits are a subset of hits");
    check(
        lane_stats_delta.serves == a.events - a.errors - a.rejected,
        "every served request reached its lane exactly once",
    );
    check(
        lane_stats_delta.hits + a.peer_hits == a.hits,
        "local hits plus peer hits equal front-end hits",
    );
    problems
}

fn sum_stats(stats: impl Iterator<Item = ServeStats>) -> ServeStats {
    let mut total = ServeStats::default();
    for s in stats {
        total.merge(&s);
    }
    total
}

fn add_totals(acc: &mut LaneTotals, lanes: &[LaneTotals]) {
    let sum = LaneTotals::aggregate(&[*acc, LaneTotals::aggregate(lanes)]);
    *acc = sum;
}

/// Lane probes for one traced run.
pub struct Probes {
    /// One probe per lane.
    pub lanes: Vec<Arc<LaneProbe>>,
}

impl Probes {
    /// Probes for `n` lanes.
    pub fn new(n: usize, record_misses: bool) -> Self {
        Probes {
            lanes: (0..n)
                .map(|_| Arc::new(LaneProbe::new(record_misses)))
                .collect(),
        }
    }

    /// Host ns spent inside all lanes.
    pub fn busy_ns(&self) -> u64 {
        self.lanes.iter().map(|p| p.busy_ns()).sum()
    }

    /// Summed call counters: (serve calls, fast attempts, fast hits).
    pub fn calls(&self) -> (u64, u64, u64) {
        let load = |f: fn(&LaneProbe) -> &AtomicU64| {
            self.lanes
                .iter()
                .map(|p| f(p).load(Ordering::Relaxed))
                .sum::<u64>()
        };
        (
            load(|p| &p.serve_calls),
            load(|p| &p.fast_attempts),
            load(|p| &p.fast_hits),
        )
    }
}

/// Spans of the population day's client loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaySpans {
    /// `EventStream::next`.
    pub stream_next: Span,
    /// `population_requests`.
    pub convert: Span,
    /// `Frontend::serve_batch` (lanes included).
    pub serve_batch: Span,
    /// `Frontend::arbitrate`.
    pub arbiter: Span,
}

/// One served population day.
pub struct DayRun {
    /// Cumulative front-end telemetry after the day.
    pub telemetry: FrontendTelemetry,
    /// Per-batch reports summed.
    pub batch_totals: LaneTotals,
    /// Requests submitted.
    pub events: u64,
    /// Batches the front-end refused outright.
    pub batch_errors: u64,
    /// Largest day the stream held resident.
    pub peak_day_entries: usize,
    /// Arbitration epochs that ran.
    pub arbitrations: u64,
    /// Host ns of the whole day, stream generation included.
    pub host_ns: u64,
    /// Client-loop spans (traced runs only).
    pub spans: DaySpans,
}

/// Day shape of the population workload.
#[derive(Debug, Clone, Copy)]
pub struct DayShape {
    /// Streamed serving population.
    pub users: usize,
    /// User-routed lanes.
    pub lanes: usize,
    /// Epochs (hours) per day, each one batch plus an arbitration.
    pub epochs_per_day: u16,
}

/// Half the population study's full-scale day (500k of its 1M users),
/// over its 8 lanes and hourly epochs: a day of about 1.7M events, short
/// enough that a run's median covers several days.
pub const POPULATION_DAY: DayShape = DayShape {
    users: 500_000,
    lanes: 8,
    epochs_per_day: 24,
};

/// Streams day 0 of the month for `shape.users` users through a fresh
/// front-end, one hourly batch and one arbitration per epoch — the
/// `--study population` path without its world build and equivalence
/// replay. `probes` makes it the traced run.
pub fn run_day(
    world: &PopulationWorld,
    config: GeneratorConfig,
    seed: u64,
    shape: DayShape,
    probes: Option<&Probes>,
) -> DayRun {
    let trace = probes.is_some();
    let frontend = population_frontend(
        population_lanes(world, shape.lanes),
        probes.map(|p| p.lanes.as_slice()),
    );
    let mut arbiter = AdaptiveArbiter::new(
        ArbiterConfig::new(world.community.footprint_bytes().max(1))
            .with_epoch_length(SimDuration::from_secs(3_600)),
    );
    let mut spans = DaySpans::default();
    let mut batch_totals = LaneTotals::default();
    let (mut events, mut batch_errors, mut arbitrations) = (0u64, 0u64, 0u64);

    let start = Instant::now();
    let mut stream = EventStream::new(
        &world.universe,
        config.behavior,
        seed ^ 0x0b5e_55ed,
        shape.users,
        config.days_per_month,
        StreamConfig {
            month: 0,
            epochs_per_day: shape.epochs_per_day,
        },
    );
    for _ in 0..shape.epochs_per_day {
        let Some(batch) = timed(trace, &mut spans.stream_next, || stream.next()) else {
            break;
        };
        let requests = timed(trace, &mut spans.convert, || population_requests(&batch));
        events += requests.len() as u64;
        if !requests.is_empty() {
            match timed(trace, &mut spans.serve_batch, || {
                frontend.serve_batch(&requests)
            }) {
                Ok(served) => add_totals(&mut batch_totals, &served.report.lanes),
                Err(_) => batch_errors += 1,
            }
        }
        let now = SimInstant::from_micros(batch.end_micros(shape.epochs_per_day));
        if timed(trace, &mut spans.arbiter, || {
            frontend.arbitrate(&mut arbiter, now)
        })
        .is_some()
        {
            arbitrations += 1;
        }
    }
    let host_ns = ns_since(start);
    DayRun {
        telemetry: frontend.telemetry(),
        batch_totals,
        events,
        batch_errors,
        peak_day_entries: stream.peak_day_entries(),
        arbitrations,
        host_ns,
        spans,
    }
}

/// Checks one population day: identities plus the lanes' own counters.
pub fn day_problems(run: &DayRun) -> Vec<String> {
    let lanes = sum_stats(run.telemetry.lanes.iter().map(|l| l.stats));
    let mut problems = accounting_problems(&run.telemetry, &run.batch_totals, &lanes, run.events);
    if run.batch_errors > 0 {
        problems.push(format!("{} batches failed", run.batch_errors));
    }
    problems
}

/// Shape of the peer-cell workload.
#[derive(Debug, Clone, Copy)]
pub struct CellShape {
    /// Devices, one lane each.
    pub devices: usize,
    /// Private pool keys per device, installed by warm-up.
    pub pool: usize,
    /// Measured requests per device.
    pub per_device: usize,
    /// Share of requests aimed at another device's pool.
    pub skew: f64,
    /// Devices per peer cell.
    pub cell: usize,
}

/// The peers study's stream shape (skew 0.7, cells of 8, default
/// summaries) with month-scale private pools, run long.
pub const PEER_CELL: CellShape = CellShape {
    devices: 24,
    pool: 2_000,
    per_device: 4_000,
    skew: 0.7,
    cell: 8,
};

/// Lanes warmed with each device's private pool, as the peers study's
/// warm-up pass leaves them (every warm-up key is a radio miss that
/// folds into the device's delta; nothing is attached to a cell yet,
/// so serving the lanes directly is the front-end's exclusive path).
pub fn warmed_lanes(
    world: &PopulationWorld,
    devices: usize,
    warmup: &[ServeRequest],
) -> Vec<PopulationLane> {
    let mut lanes = population_lanes(world, devices);
    for r in warmup {
        let lane = &mut lanes[(r.user % devices as u64) as usize];
        lane.serve(&ServiceRequest::for_user(r.user, r.key, r.at))
            .expect("warm-up keys resolve in the pair table");
    }
    lanes
}

/// One measured peer-cell pass.
pub struct CellRun {
    /// Front-end telemetry after the pass.
    pub telemetry: FrontendTelemetry,
    /// Per-batch report lanes summed.
    pub batch_totals: LaneTotals,
    /// Lane statistics accumulated during the pass.
    pub lane_stats: ServeStats,
    /// The cells' own counters, summed.
    pub fabric: PeerFabricStats,
    /// The cells, for a consult replay.
    pub cells: Vec<Arc<PeerFabric>>,
    /// Whether the batch was refused.
    pub batch_failed: bool,
    /// Host ns of the measured pass: the batch and the client's
    /// bookkeeping of its report.
    pub host_ns: u64,
    /// The `Frontend::serve_batch` call (traced runs only).
    pub serve_batch: Span,
}

/// Serves the measured stream once against clones of the warmed lanes,
/// wired into cells after warm-up as the peers study does.
pub fn run_cells(
    warmed: &[PopulationLane],
    measure: &[ServeRequest],
    shape: CellShape,
    probes: Option<&Probes>,
) -> CellRun {
    let lanes = warmed.to_vec();
    let before = sum_stats(lanes.iter().map(CloudletService::service_stats));
    let mut frontend = population_frontend(lanes, probes.map(|p| p.lanes.as_slice()));
    let cells = frontend.attach_peer_cells(0, shape.cell, PeerConfig::default());
    let mut serve_batch = Span::default();
    let mut batch_totals = LaneTotals::default();
    let start = Instant::now();
    let served = timed(probes.is_some(), &mut serve_batch, || {
        frontend.serve_batch(measure)
    });
    let batch_failed = match served {
        Ok(b) => {
            add_totals(&mut batch_totals, &b.report.lanes);
            false
        }
        Err(_) => true,
    };
    let host_ns = ns_since(start);
    let telemetry = frontend.telemetry();
    let after = sum_stats(telemetry.lanes.iter().map(|l| l.stats));
    CellRun {
        lane_stats: after.delta_since(&before),
        fabric: fabric_totals(&cells),
        telemetry,
        batch_totals,
        cells,
        batch_failed,
        host_ns,
        serve_batch,
    }
}

/// The cells' counters summed.
pub fn fabric_totals(cells: &[Arc<PeerFabric>]) -> PeerFabricStats {
    let mut total = PeerFabricStats::default();
    for s in cells.iter().map(|c| c.telemetry()) {
        total.consults += s.consults;
        total.peer_hits += s.peer_hits;
        total.false_positives += s.false_positives;
        total.peer_bytes += s.peer_bytes;
        total.radio_fallbacks += s.radio_fallbacks;
    }
    total
}

/// Checks one peer-cell pass: identities plus the front-end's view of
/// peer serves against the fabrics' own counters.
pub fn cell_problems(run: &CellRun, submitted: u64) -> Vec<String> {
    let mut problems = accounting_problems(
        &run.telemetry,
        &run.batch_totals,
        &run.lane_stats,
        submitted,
    );
    let a = run.telemetry.aggregate();
    if run.batch_failed {
        problems.push("the measured batch failed".to_owned());
    }
    if a.peer_hits != run.fabric.peer_hits || a.peer_bytes != run.fabric.peer_bytes {
        problems.push(format!(
            "front-end peer serves {}/{} B differ from the fabrics' {}/{} B",
            a.peer_hits, a.peer_bytes, run.fabric.peer_hits, run.fabric.peer_bytes
        ));
    }
    problems
}

/// Result of replaying the traced run's local misses against its cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsultReplay {
    /// Host time of the replayed consults.
    pub span: Span,
    /// What the replay added to the fabrics' counters.
    pub replayed: PeerFabricStats,
}

/// Replays every locally missed `(lane, key)` of a traced pass against
/// the cell the lane belongs to, timing each `PeerFabric::consult`.
/// Cell summaries are frozen after attachment, so each replayed consult
/// repeats the original's answer; the counters it adds must equal what
/// the pass itself counted.
pub fn replay_consults(run: &CellRun, probes: &Probes, shape: CellShape) -> ConsultReplay {
    let before = fabric_totals(&run.cells);
    let mut span = Span::default();
    for (lane, probe) in probes.lanes.iter().enumerate() {
        let fabric = &run.cells[lane / shape.cell];
        for key in probe.missed_keys() {
            std::hint::black_box(timed(true, &mut span, || fabric.consult(lane as u64, key)));
        }
    }
    let after = fabric_totals(&run.cells);
    ConsultReplay {
        span,
        replayed: PeerFabricStats {
            consults: after.consults - before.consults,
            peer_hits: after.peer_hits - before.peer_hits,
            false_positives: after.false_positives - before.false_positives,
            peer_bytes: after.peer_bytes - before.peer_bytes,
            radio_fallbacks: after.radio_fallbacks - before.radio_fallbacks,
        },
    }
}
