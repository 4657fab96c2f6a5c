//! Wall-clock measurement: per-call bench samples and thread sweeps.
//!
//! Everything else in the workspace runs on simulated time
//! (`mobsim::time`) so results are bit-reproducible across machines —
//! and lint rule R2 bans host clocks to keep it that way. This module
//! is the **one deliberate exception** (see the two `lint.allow`
//! entries pinned by `tests/lint_clean.rs`): the ROADMAP's "as fast as
//! the hardware allows" north star needs real ns/lookup and real qps,
//! which only a host clock can produce. Numbers from here are
//! host-dependent by design and are committed as a *trajectory*
//! (BENCH_hotpath.json), not as reproducible artifacts.
//!
//! Two primitives:
//!
//! * [`Bench`] — the harness every `crates/bench/benches/*` target runs
//!   on: per named bench, a 60 ms warm-up, then one timed call per
//!   sample until a 250 ms budget is spent, printed as one
//!   `name  time: [p5 median p95]` line. An optional per-call setup runs
//!   outside the timed region.
//! * [`thread_sweep`] — `threads` workers start behind one barrier,
//!   each performs `ops_per_thread` operations; the wall time of one
//!   repetition becomes ns/op and qps. Oversubscribing the host (more
//!   threads than cores) is valid: `ablations --study hotpath` runs it
//!   and flags those points.

use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Untimed calls before a bench's samples are taken.
const WARM_UP: Duration = Duration::from_millis(60);
/// Time budget for a bench's timed samples.
const MEASURE: Duration = Duration::from_millis(250);
/// Sample cap, reached first by routines much faster than a microsecond.
const MAX_SAMPLES: usize = 100_000;

/// Timing summary of one operation, in nanoseconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median ns per call across samples.
    pub median_ns: f64,
    /// 5th-percentile ns per call (best-case samples).
    pub p5_ns: f64,
    /// 95th-percentile ns per call (worst-case samples).
    pub p95_ns: f64,
    /// Samples summarised.
    pub samples: usize,
}

impl Measurement {
    /// Summarises per-call samples (ns) by nearest-rank percentiles.
    ///
    /// # Panics
    ///
    /// Panics when `ns` is empty.
    pub fn from_samples(mut ns: Vec<f64>) -> Self {
        assert!(!ns.is_empty(), "need at least one sample");
        ns.sort_by(f64::total_cmp);
        Measurement {
            median_ns: percentile(&ns, 50.0),
            p5_ns: percentile(&ns, 5.0),
            p95_ns: percentile(&ns, 95.0),
            samples: ns.len(),
        }
    }
}

/// One thread-count point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Total operations (`threads × ops_per_thread`).
    pub total_ops: u64,
    /// Wall nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per wall second.
    pub qps: f64,
}

/// `p`-th percentile of an ascending-sorted, non-empty slice
/// (nearest-rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bench binary's harness. The first non-flag command-line argument
/// is a substring filter on bench names, so
/// `cargo bench -p pocket-bench --bench throughput -- serve_one` runs
/// only the matching benches; flags such as `--bench` are ignored.
#[derive(Debug, Clone)]
pub struct Bench {
    filter: Option<String>,
}

impl Bench {
    /// Builds the harness from the process arguments.
    pub fn from_args() -> Self {
        Bench {
            filter: std::env::args().skip(1).find(|arg| !arg.starts_with('-')),
        }
    }

    /// Times `routine`, one call per sample, and prints its line.
    /// Returns `None`, without calling `routine`, when the filter
    /// excludes `name`.
    pub fn run<O>(&self, name: &str, mut routine: impl FnMut() -> O) -> Option<Measurement> {
        self.run_with_setup(name, || (), |()| routine())
    }

    /// Times `routine` on a fresh input from `setup` per call; `setup`
    /// and dropping the routine's output run outside the timed region. Prints the bench's line and
    /// returns its summary, or returns `None` without calling either
    /// closure when the filter excludes `name`.
    pub fn run_with_setup<I, O>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) -> Option<Measurement> {
        if !self.filter.as_deref().is_none_or(|f| name.contains(f)) {
            return None;
        }
        let warm_deadline = Instant::now() + WARM_UP;
        while Instant::now() < warm_deadline {
            std::hint::black_box(routine(setup()));
        }
        let mut ns = Vec::new();
        let deadline = Instant::now() + MEASURE;
        loop {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            ns.push(start.elapsed().as_nanos() as f64);
            drop(output);
            if ns.len() >= MAX_SAMPLES || Instant::now() >= deadline {
                break;
            }
        }
        let m = Measurement::from_samples(ns);
        println!(
            "{name:<50} time: [{} {} {}]",
            fmt_ns(m.p5_ns),
            fmt_ns(m.median_ns),
            fmt_ns(m.p95_ns)
        );
        Some(m)
    }
}

/// Renders nanoseconds in the largest unit that keeps the value ≥ 1.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Times `threads` workers each performing `ops_per_thread` calls of
/// `op(thread_index, op_index)`, started together behind a barrier.
/// The wall time spans the earliest worker's first op to the latest
/// worker's last op (stamped worker-side). One warmup repetition runs
/// first and is discarded.
///
/// # Panics
///
/// Panics when `threads` or `ops_per_thread` is zero.
pub fn thread_sweep<F>(threads: usize, ops_per_thread: u64, op: F) -> SweepPoint
where
    F: Fn(usize, u64) + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    assert!(ops_per_thread > 0, "need at least one op per thread");
    // The warmup repetition warms caches and clocks.
    sweep_wall_ns(threads, ops_per_thread, &op);
    let wall_ns = sweep_wall_ns(threads, ops_per_thread, &op);
    let total_ops = threads as u64 * ops_per_thread;
    SweepPoint {
        threads,
        total_ops,
        ns_per_op: wall_ns / total_ops as f64,
        qps: if wall_ns > 0.0 {
            1e9 * total_ops as f64 / wall_ns
        } else {
            f64::INFINITY
        },
    }
}

/// One repetition of [`thread_sweep`], in wall nanoseconds.
fn sweep_wall_ns<F>(threads: usize, ops_per_thread: u64, op: &F) -> f64
where
    F: Fn(usize, u64) + Sync,
{
    let barrier = Barrier::new(threads);
    // Each worker stamps its own first-op and last-op instants; the
    // repetition's wall time is the span from the earliest start to the
    // latest end. Timing from the spawning thread instead would be wrong
    // on small hosts: on one core, workers released by the barrier can
    // finish all their ops before the spawner is even rescheduled.
    let spans: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let spans = &spans;
            scope.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for i in 0..ops_per_thread {
                    op(t, i);
                }
                let end = Instant::now();
                let mut spans = spans.lock().unwrap_or_else(PoisonError::into_inner);
                spans.push((start, end));
            });
        }
    });
    let spans = spans.into_inner().unwrap_or_else(PoisonError::into_inner);
    let first = spans.iter().map(|s| s.0).min().expect("threads > 0");
    let last = spans.iter().map(|s| s.1).max().expect("threads > 0");
    last.duration_since(first).as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[test]
    fn filtered_out_names_never_run() {
        let bench = Bench {
            filter: Some("keep".into()),
        };
        let (mut set_up, mut ran) = (false, false);
        let skipped = bench.run_with_setup("skip/this", || set_up = true, |()| ran = true);
        assert_eq!(skipped, None);
        assert!(!set_up && !ran);
        let kept = bench
            .run("keep/this", || 1 + 1)
            .expect("the filter keeps it");
        assert!(kept.samples > 0);
        assert!(kept.p5_ns <= kept.median_ns && kept.median_ns <= kept.p95_ns);
    }

    #[test]
    fn setup_runs_once_per_sample_and_is_not_timed() {
        const NAP: Duration = Duration::from_millis(2);
        let mut made = 0u64;
        let mut used = Vec::new();
        let m = Bench { filter: None }
            .run_with_setup(
                "batched",
                || {
                    std::thread::sleep(NAP);
                    made += 1;
                    made
                },
                |input| used.push(input),
            )
            .expect("no filter");
        // Every setup call fed exactly one routine call, in order.
        assert_eq!(used, (1..=made).collect::<Vec<_>>());
        assert!(m.samples as u64 <= made);
        assert!(
            m.median_ns < NAP.as_nanos() as f64,
            "the setup's sleep leaked into the timed region: {m:?}"
        );
    }

    #[test]
    fn dropping_the_output_is_not_timed() {
        const NAP: Duration = Duration::from_millis(2);
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(NAP);
            }
        }
        let m = Bench { filter: None }
            .run_with_setup("teardown", || (), |()| SlowDrop)
            .expect("no filter");
        assert!(
            m.median_ns < NAP.as_nanos() as f64,
            "the output's drop leaked into the timed region: {m:?}"
        );
    }

    #[test]
    fn thread_sweep_runs_every_op_exactly_once_per_rep() {
        let count = AtomicU64::new(0);
        let point = thread_sweep(4, 50, |_, _| {
            count.fetch_add(1, Ordering::AcqRel);
        });
        // 1 measured repetition + 1 discarded warmup repetition.
        assert_eq!(count.load(Ordering::Acquire), 400);
        assert_eq!(point.threads, 4);
        assert_eq!(point.total_ops, 200);
        assert!(point.ns_per_op > 0.0);
        assert!(point.qps > 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 5.0), 1.0);
        assert_eq!(percentile(&sorted, 95.0), 4.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
    }
}
