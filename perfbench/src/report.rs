//! The result record every run prints: provenance, per-metric
//! summaries, and the final one-line JSON verdict.

use crate::stats::quartiles;

/// One reported metric: the value the verdict carries plus the
/// per-repeat samples it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (later claims cite it).
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-repeat values behind `value` (one entry for a single
    /// measurement).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its per-repeat samples.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        let value = quartiles(&samples)[1];
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A rate reported over the whole measured phase, with the rate of
    /// each repeat as its samples.
    pub fn pooled(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::median_of(name, unit, vec![value])
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations the client issued (serves and update cycles).
    pub attempted: u64,
    /// Operations that failed: serve errors, shed requests, digest
    /// mismatches against the reference path, and traced/untraced
    /// divergences.
    pub failed: u64,
    /// Failed output checks, by description.
    pub problems: Vec<String>,
    /// Measured repeats of the workload's unit of work.
    pub repeats: usize,
    /// Digest of the simulated outputs (identical for a seed on every
    /// host and every commit that leaves simulated behaviour alone).
    pub digest: String,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Records a failed check: it counts against `failed` and makes the
    /// run incorrect.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Checks `ok`, recording `problem` when it does not hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Build and host facts recorded beside every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measurement time, seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
}

/// Renders `x` as a JSON number (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance line: host, toolchain, revision, inputs, and each
/// metric's median and quartiles over the run's repeats.
pub fn provenance_json(p: &Provenance, r: &RunResult) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let [q1, q2, q3] = quartiles(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
            format!(
                "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"samples\": [{}]}}",
                m.name,
                m.unit,
                num(q2),
                num(q1),
                num(q3),
                samples.join(", ")
            )
        })
        .collect();
    let problems: Vec<String> = r
        .problems
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"repeats\": {}, \"digest\": \"{}\", \"problems\": [{}], \"metrics\": {{{}}}}}}}",
        escape(&p.workload),
        p.seed,
        num(p.seconds),
        p.trace,
        escape(env!("PERFBENCH_RUSTC")),
        escape(env!("PERFBENCH_COMMIT")),
        r.repeats,
        escape(&r.digest),
        problems.join(", "),
        metrics.join(", ")
    )
}

/// The verdict line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn verdict_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
