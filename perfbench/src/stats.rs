//! Order statistics and timing spans.

use std::time::Instant;

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" interpolation that Python's
/// `statistics.quantiles(values, n=4)` uses, so a run's own summary
/// agrees with the one computed over many runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => [0.0; 3],
        1 => [data[0]; 3],
        _ => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile `q` (in 0..=1) of unsorted samples.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Host nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and call count at one layer boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Host nanoseconds spent inside the layer's calls.
    pub ns: u64,
    /// Calls made into the layer.
    pub calls: u64,
}

impl Span {
    /// Mean host nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Times `f` into `span` when `on`, or just runs it. The untraced and
/// traced runs share one code path through this switch, so the traced
/// run measures the same calls the untraced run makes.
pub fn timed<T>(on: bool, span: &mut Span, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    span.ns += ns_since(start);
    span.calls += 1;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 500);
        assert_eq!(percentile(&mut v, 0.999), 999);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
