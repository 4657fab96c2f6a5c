//! Host-time benchmark of the Pocket Cloudlets stack.
//!
//! Four workloads drive the public API from one closed-loop client on
//! one thread: `population_day`, `search_month`, `search_updates` and
//! `peer_cell` (see `BENCHMARK.json` for why each was chosen). The
//! untraced run reports the end-to-end metrics; the traced run wraps
//! or decomposes the calls into each layer from outside the program and
//! reports the per-layer metrics. Both check the simulated outputs
//! against the program's own reference paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod population;
pub mod report;
pub mod search;
pub mod setup;
pub mod stats;
pub mod workloads;

/// The seed runs use by default.
pub const DEFAULT_SEED: u64 = 2011;

/// A seed held out from tuning: a later claimed gain must also hold on
/// it.
pub const HELD_OUT_SEED: u64 = 1_729;

/// The end-to-end metrics, `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_eps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: its name and unit, which direction is better,
/// and the end-to-end metrics and workloads a change to it should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Space-separated `metric@workload` pairs this metric should move:
    /// an end-to-end metric, or one of the host latency percentiles the
    /// traced run reports beside the layers. Empty for the trace's own
    /// self-checks.
    pub moves: &'static str,
}

impl LayerMetric {
    /// The `(metric, workload)` pairs of [`LayerMetric::moves`].
    pub fn moves(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.moves
            .split_whitespace()
            .filter_map(|pair| pair.split_once('@'))
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const ALL_SETUP: &str =
    "setup_s@population_day setup_s@search_month setup_s@search_updates setup_s@peer_cell";
const MONTH_SERVE: &str =
    "serve_p50_us@search_month serve_p999_us@search_month throughput_eps@search_month";
const UPDATE_PATCH: &str =
    "update_p50_ms@search_updates update_p95_ms@search_updates throughput_eps@search_updates";
const UPDATE_STEP: &str = "update_p50_ms@search_updates throughput_eps@search_updates";
const BOTH_FRONTENDS: &str = "throughput_eps@population_day throughput_eps@peer_cell";

/// The per-layer metrics in report order. A workload reports 0 for a
/// layer it never calls. `serve_*` and `update_*` are host latency
/// percentiles of single `PocketSearch` calls, taken from the traced
/// run's untraced pass.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 46] = [
    layer("stream.next_ns_per_event", "ns", "lower", "throughput_eps@population_day"),
    layer("stream.convert_ns_per_event", "ns", "lower", "throughput_eps@population_day"),
    layer("stream.events", "count", "higher", "throughput_eps@population_day"),
    layer("stream.peak_day_entries", "count", "lower", "peak_rss_mb@population_day"),
    layer("frontend.self_ns_per_event", "ns", "lower", BOTH_FRONTENDS),
    layer("lane.serve_calls", "count", "lower", BOTH_FRONTENDS),
    layer("lane.serve_ns", "ns", "lower", BOTH_FRONTENDS),
    layer("lane.fast_path_attempts", "count", "lower", BOTH_FRONTENDS),
    layer("lane.fast_path_hits", "count", "higher", BOTH_FRONTENDS),
    layer("lane.fast_path_yield", "ratio", "higher", BOTH_FRONTENDS),
    layer("lane.delta_bytes", "B", "lower", "peak_rss_mb@peer_cell peak_rss_mb@population_day"),
    layer("peer.consult_ns", "ns", "lower", "throughput_eps@peer_cell"),
    layer("peer.consults", "count", "lower", "throughput_eps@peer_cell"),
    layer("peer.hit_yield", "ratio", "higher", "throughput_eps@peer_cell"),
    layer("peer.false_positives", "count", "lower", "throughput_eps@peer_cell"),
    layer("arbiter.epoch_ns", "ns", "lower", "throughput_eps@population_day"),
    layer("arbiter.epochs", "count", "higher", "throughput_eps@population_day"),
    layer("engine.clone_ns_per_user", "ns", "lower", "throughput_eps@search_month throughput_eps@search_updates"),
    layer("engine.click_ns", "ns", "lower", "throughput_eps@search_month"),
    layer("cache.serve_ns", "ns", "lower", "serve_p50_us@search_month throughput_eps@search_month"),
    layer("cache.hit_ratio", "ratio", "higher", "serve_p50_us@search_month throughput_eps@search_month"),
    layer("flashdb.get_ns", "ns", "lower", MONTH_SERVE),
    layer("flashdb.records_read", "count", "lower", MONTH_SERVE),
    layer("flashdb.get_failed", "count", "lower", MONTH_SERVE),
    layer("flashdb.inserts", "count", "lower", MONTH_SERVE),
    layer("flashdb.patch_build_ns", "ns", "lower", UPDATE_PATCH),
    layer("flashdb.patch_apply_ns", "ns", "lower", UPDATE_PATCH),
    layer("flashdb.patch_bytes", "B", "lower", UPDATE_PATCH),
    layer("device.serve_ns", "ns", "lower", "serve_p50_us@search_month throughput_eps@search_month"),
    layer("update.upload_ns", "ns", "lower", UPDATE_STEP),
    layer("update.build_ns", "ns", "lower", UPDATE_STEP),
    layer("update.apply_ns", "ns", "lower", UPDATE_STEP),
    layer("update.upload_bytes", "B", "lower", UPDATE_STEP),
    layer("update.records_added", "count", "lower", UPDATE_STEP),
    layer("update.records_removed", "count", "lower", UPDATE_STEP),
    layer("serve_p50_us", "us", "lower", "throughput_eps@search_month"),
    layer("serve_p999_us", "us", "lower", "throughput_eps@search_month"),
    layer("update_p50_ms", "ms", "lower", "throughput_eps@search_updates"),
    layer("update_p95_ms", "ms", "lower", "throughput_eps@search_updates"),
    layer("setup.log_gen_s", "s", "lower", ALL_SETUP),
    layer("setup.triplets_s", "s", "lower", ALL_SETUP),
    layer("setup.contentgen_s", "s", "lower", ALL_SETUP),
    layer("setup.engine_build_s", "s", "lower", ALL_SETUP),
    layer("setup.update_servers_s", "s", "lower", "setup_s@search_updates"),
    layer("trace.coverage", "ratio", "higher", ""),
    layer("trace.overhead", "ratio", "lower", ""),
];
