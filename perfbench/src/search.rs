//! The two single-device workloads, `search_month` and
//! `search_updates`: each user's month replayed on a clone of the
//! PocketSearch engine, as `pocketsearch::replay` does, with the serve
//! composition and the §5.4 update protocol traced layer by layer from
//! outside.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use cloudlet_core::update::{apply_update, UpdateServer, UploadPayload};
use flashdb::patch::{apply_patch, DbPatch};
use mobsim::power::Energy;
use mobsim::time::SimDuration;
use pocketsearch::engine::{PocketSearch, ServedQuery, UpdateCycleReport};
use pocketsearch::replay::ReplayOutcome;
use querylog::ids::UserId;
use querylog::log::{LogEntry, SearchLog};
use querylog::universe::QueryKind;
use querylog::users::UserClass;

use crate::setup::SearchInputs;
use crate::stats::{ns_since, timed, Span};

/// Per-user streams of every classified user of a replay month, in
/// user order: what `SearchLog::user_stream` returns for each user,
/// grouped in one pass over the log.
pub fn classified_streams(month: &SearchLog) -> Vec<Vec<LogEntry>> {
    let mut by_user: BTreeMap<UserId, Vec<LogEntry>> = BTreeMap::new();
    for e in month.iter() {
        by_user.entry(e.user).or_default().push(*e);
    }
    by_user
        .into_values()
        .filter(|s| UserClass::classify(s.len() as u32).is_some())
        .collect()
}

/// How traced-run results are compared with the untraced run's.
#[derive(Debug, Default)]
pub enum Fingerprints {
    /// Not compared.
    #[default]
    Off,
    /// The untraced run records one fingerprint per serve and update.
    Record(Vec<u64>),
    /// The traced run checks each result against the recorded ones.
    Check {
        /// Fingerprints the untraced run recorded.
        expected: Vec<u64>,
        /// Next one to compare.
        next: usize,
        /// Results that differed.
        mismatches: u64,
    },
}

impl Fingerprints {
    fn observe(&mut self, fp: u64) {
        match self {
            Fingerprints::Off => {}
            Fingerprints::Record(v) => v.push(fp),
            Fingerprints::Check {
                expected,
                next,
                mismatches,
            } => {
                if expected.get(*next) != Some(&fp) {
                    *mismatches += 1;
                }
                *next += 1;
            }
        }
    }
}

fn fingerprint(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn served_fingerprint(s: &ServedQuery) -> u64 {
    fingerprint(&(
        s.hit,
        &s.results,
        s.report.total_time.as_micros(),
        s.report.energy.millijoules().to_bits(),
        s.degraded.is_some(),
    ))
}

fn update_fingerprint(r: &Result<UpdateCycleReport, pocketsearch::engine::EngineError>) -> u64 {
    match r {
        Ok(r) => fingerprint(&(
            r.upload_bytes,
            r.download_bytes,
            r.patch.added,
            r.patch.removed,
            r.patch.flash_time.as_micros(),
        )),
        Err(_) => 0,
    }
}

/// Layer spans and counts of a search replay. Only the latency samples
/// and failure counts are kept when untraced.
#[derive(Debug, Default)]
pub struct SearchTrace {
    /// Whether layer spans are recorded (the traced run).
    pub on: bool,
    /// The per-user engine: `PocketSearch::clone` and the drop after the
    /// user's month.
    pub clone: Span,
    /// `PocketCache::serve`.
    pub cache: Span,
    /// `ResultDb::get_many`.
    pub db_get: Span,
    /// `Device::serve_cache_hit` / `serve_via_radio`.
    pub device: Span,
    /// `PocketSearch::click`.
    pub click: Span,
    /// `UploadPayload::from_cache`.
    pub upload: Span,
    /// `UpdateServer::build_update`.
    pub build: Span,
    /// `apply_update`.
    pub apply: Span,
    /// `DbPatch::from_bundle`.
    pub patch_build: Span,
    /// `apply_patch`.
    pub patch_apply: Span,
    /// Trace-only work: result fingerprints, the insert probe, clones
    /// for the stepwise update and the state comparisons after it.
    pub extra: Span,
    /// Cache hits seen by the traced serve composition.
    pub cache_hits: u64,
    /// Records the database returned.
    pub records_read: u64,
    /// `get_many` calls that failed.
    pub get_failed: u64,
    /// Clicks that inserted a record into the database.
    pub inserts: u64,
    /// Upload bytes over all stepwise cycles.
    pub upload_bytes: u64,
    /// Patch wire bytes over all stepwise cycles.
    pub patch_bytes: u64,
    /// Records the stepwise patches added.
    pub records_added: u64,
    /// Records the stepwise patches removed.
    pub records_removed: u64,
    /// Host ns of each `PocketSearch::serve` (untraced runs).
    pub serve_ns: Vec<u64>,
    /// Host ns of each `PocketSearch::nightly_update`.
    pub update_ns: Vec<u64>,
    /// Serves plus update cycles attempted.
    pub attempted: u64,
    /// Degraded serves, failed updates, and stepwise states that
    /// differed from the engine's.
    pub failures: u64,
    /// Per-result comparison between the traced and untraced runs.
    pub fingerprints: Fingerprints,
}

impl SearchTrace {
    /// A fresh trace; `on` records layer spans.
    pub fn new(on: bool) -> Self {
        SearchTrace {
            on,
            ..SearchTrace::default()
        }
    }

    /// Host ns of the traced layers' self time, the stepwise update
    /// standing in for the real cycle it mirrors.
    pub fn layer_ns(&self) -> u64 {
        [
            self.clone,
            self.cache,
            self.db_get,
            self.device,
            self.click,
            self.upload,
            self.build,
            self.apply,
            self.patch_build,
            self.patch_apply,
        ]
        .iter()
        .map(|s| s.ns)
        .sum()
    }

    /// Host ns of work only the traced run does.
    pub fn trace_only_ns(&self) -> u64 {
        self.extra.ns
            + [
                self.upload,
                self.build,
                self.apply,
                self.patch_build,
                self.patch_apply,
            ]
            .iter()
            .map(|s| s.ns)
            .sum::<u64>()
    }
}

/// `PocketSearch::serve`, called layer by layer: the cache probe, the
/// flash fetch of the top two results, then the device cost model.
fn serve_by_layer(engine: &mut PocketSearch, query_hash: u64, t: &mut SearchTrace) -> ServedQuery {
    let lookup = timed(true, &mut t.cache, || engine.cache_mut().serve(query_hash));
    let miss_radio = engine.config().miss_radio;
    if lookup.hit {
        t.cache_hits += 1;
        let top: Vec<u64> = lookup
            .results
            .iter()
            .take(2)
            .map(|r| r.result_hash)
            .collect();
        let fetched = timed(true, &mut t.db_get, || {
            engine
                .db()
                .get_many(top.iter().copied(), engine.device().flash())
        });
        match fetched {
            Ok((results, fetch_time)) => {
                t.records_read += results.len() as u64;
                let report = timed(true, &mut t.device, || {
                    engine.device_mut().serve_cache_hit(fetch_time)
                });
                return ServedQuery {
                    hit: true,
                    results,
                    report,
                    degraded: None,
                };
            }
            Err(e) => {
                t.get_failed += 1;
                let report = timed(true, &mut t.device, || {
                    engine.device_mut().serve_via_radio(miss_radio)
                });
                return ServedQuery {
                    hit: false,
                    results: Vec::new(),
                    report,
                    degraded: Some(e),
                };
            }
        }
    }
    let report = timed(true, &mut t.device, || {
        engine.device_mut().serve_via_radio(miss_radio)
    });
    ServedQuery {
        hit: false,
        results: Vec::new(),
        report,
        degraded: None,
    }
}

/// One §5.4 cycle. Traced, each protocol step first runs on clones of
/// the engine's cache, database and flash, taken just before the real
/// `nightly_update`; afterwards the stepwise state must equal the
/// engine's.
fn update_cycle(
    engine: &mut PocketSearch,
    server: &UpdateServer,
    inputs: &SearchInputs,
    t: &mut SearchTrace,
) {
    let catalog = &inputs.catalog;
    let stepwise = t.on.then(|| {
        let (mut cache, mut db, mut flash) = timed(true, &mut t.extra, || {
            (
                engine.cache().clone(),
                engine.db().clone(),
                engine.device().flash().clone(),
            )
        });
        let upload = timed(true, &mut t.upload, || UploadPayload::from_cache(&cache));
        t.upload_bytes += upload.wire_bytes() as u64;
        if let Ok(bundle) = timed(true, &mut t.build, || server.build_update(&upload)) {
            let applied = timed(true, &mut t.apply, || apply_update(&mut cache, &bundle));
            let patch = timed(true, &mut t.patch_build, || {
                DbPatch::from_bundle(&bundle, |h| catalog.record_by_hash(h))
            });
            t.patch_bytes += patch.wire_bytes() as u64;
            let patched = timed(true, &mut t.patch_apply, || {
                apply_patch(&mut db, &patch, &mut flash)
            });
            if let (Ok(()), Ok(report)) = (applied, patched) {
                t.records_added += report.added as u64;
                t.records_removed += report.removed as u64;
            }
        }
        (cache, db, flash)
    });

    let start = Instant::now();
    let result = engine.nightly_update(server, catalog);
    t.update_ns.push(ns_since(start));
    t.attempted += 1;
    if result.is_err() {
        t.failures += 1;
    }
    t.fingerprints.observe(update_fingerprint(&result));

    if let Some((cache, db, flash)) = stepwise {
        let same = timed(true, &mut t.extra, || {
            cache == *engine.cache() && db == *engine.db() && flash == *engine.device().flash()
        });
        if !same {
            t.failures += 1;
        }
    }
}

/// Replays one user's stream on a clone of `base`, exactly as
/// `pocketsearch::replay::replay_user` (no `servers`) or
/// `replay_user_with_updates` does, and returns the same outcome.
/// Untraced, each serve is one timed `PocketSearch::serve`; traced, it
/// is [`serve_by_layer`].
pub fn replay_user(
    base: &PocketSearch,
    inputs: &SearchInputs,
    stream: &[LogEntry],
    servers: Option<&[UpdateServer]>,
    t: &mut SearchTrace,
) -> ReplayOutcome {
    let catalog = &inputs.catalog;
    let on = t.on;
    let mut engine = timed(on, &mut t.clone, || base.clone());
    let days = stream
        .iter()
        .map(|e| usize::from(e.time.day) + 1)
        .max()
        .unwrap_or(0);
    let mut o = ReplayOutcome {
        user: stream.first().map_or(UserId::new(u32::MAX), |e| e.user),
        class: UserClass::classify(stream.len() as u32),
        device: stream.first().map(|e| e.device),
        total: 0,
        hits: 0,
        hits_by_day: vec![0; days],
        total_by_day: vec![0; days],
        nav_hits: 0,
        nav_total: 0,
        time: SimDuration::ZERO,
        energy: Energy::ZERO,
        top_ranked_clicks: 0,
    };
    let mut current_day = 0u16;
    for entry in stream {
        if let Some(servers) = servers {
            while current_day < entry.time.day {
                if let Some(server) = servers.get(usize::from(current_day)) {
                    update_cycle(&mut engine, server, inputs, t);
                }
                current_day += 1;
            }
        }
        let query_hash = catalog.query_hash(entry.query);
        let result_hash = catalog.result_hash(entry.result);
        let served = if on {
            serve_by_layer(&mut engine, query_hash, t)
        } else {
            let start = Instant::now();
            let served = engine.serve(query_hash);
            t.serve_ns.push(ns_since(start));
            served
        };
        t.attempted += 1;
        if served.degraded.is_some() {
            t.failures += 1;
        }
        let fingerprints = &mut t.fingerprints;
        timed(on, &mut t.extra, || {
            fingerprints.observe(served_fingerprint(&served))
        });

        let day = usize::from(entry.time.day);
        o.total += 1;
        o.total_by_day[day] += 1;
        let nav = entry.kind == QueryKind::Navigational;
        if nav {
            o.nav_total += 1;
        }
        if served.hit {
            o.hits += 1;
            o.hits_by_day[day] += 1;
            if nav {
                o.nav_hits += 1;
            }
            if served.results.first().map(|r| r.result_hash) == Some(result_hash) {
                o.top_ranked_clicks += 1;
            }
        }
        o.time += served.report.total_time;
        o.energy += served.report.energy;

        if on && !timed(on, &mut t.extra, || engine.db().contains(result_hash)) {
            t.inserts += 1;
        }
        timed(on, &mut t.click, || {
            engine.click(query_hash, result_hash, || catalog.record(entry.result));
        });
    }
    timed(on, &mut t.clone, || drop(engine));
    o
}

/// Simulated totals of a set of replay outcomes, for the digest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchDigest {
    /// Queries replayed.
    pub serves: u64,
    /// Cache hits.
    pub hits: u64,
    /// Navigational hits.
    pub nav_hits: u64,
    /// Hits whose top result was the clicked one.
    pub top_ranked: u64,
    /// Simulated service time, microseconds.
    pub time_us: u64,
    /// Simulated energy, millijoules.
    pub energy_mj: f64,
}

impl SearchDigest {
    /// Folds one user's outcome in.
    pub fn add(&mut self, o: &ReplayOutcome) {
        self.serves += u64::from(o.total);
        self.hits += u64::from(o.hits);
        self.nav_hits += u64::from(o.nav_hits);
        self.top_ranked += u64::from(o.top_ranked_clicks);
        self.time_us += o.time.as_micros();
        self.energy_mj += o.energy.millijoules();
    }

    /// The digest line.
    pub fn render(&self) -> String {
        format!(
            "serves={} hits={} misses={} nav_hits={} top_ranked={} time_us={} energy_mj={:.3}",
            self.serves,
            self.hits,
            self.serves - self.hits,
            self.nav_hits,
            self.top_ranked,
            self.time_us,
            self.energy_mj
        )
    }
}
