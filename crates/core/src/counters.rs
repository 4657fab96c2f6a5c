//! Reusable lock-free statistics counters.
//!
//! Several layers keep monotonic per-lane statistics in banks of
//! `AtomicU64`s — the front-end's lane counters, the peer fabric's
//! consult counters, and the lock-free hash table's publication stats.
//! Before this module each of them hand-rolled the same fields and the
//! same `bump`/`peek` helpers (with the same memory-ordering
//! justification copied alongside). [`CounterSet`] is the one shared
//! implementation: a fixed-size bank of slots with relaxed
//! bump/peek semantics, so the ordering argument lives in exactly one
//! place.
//!
//! Wrappers give slots meaning with `const` indexes:
//!
//! ```
//! use cloudlet_core::counters::CounterSet;
//!
//! struct Stats(CounterSet<2>);
//! impl Stats {
//!     const HITS: usize = 0;
//!     const MISSES: usize = 1;
//! }
//!
//! let stats = Stats(CounterSet::new());
//! stats.0.bump(Stats::HITS, 1);
//! assert_eq!(stats.0.peek(Stats::HITS), 1);
//! assert_eq!(stats.0.snapshot(), [1, 0]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size bank of monotonic `AtomicU64` statistics counters,
/// updated lock-free from any thread.
///
/// Slots are independent: each bump and peek is atomic on its own
/// counter, but a [`snapshot`](CounterSet::snapshot) across slots may
/// be torn (counter `i` read before a concurrent writer's bump,
/// counter `j` after). Every consumer in the workspace is advisory
/// telemetry that tolerates such views; anything needing cross-counter
/// consistency must not live here.
#[derive(Debug)]
pub struct CounterSet<const N: usize> {
    counters: [AtomicU64; N],
}

impl<const N: usize> CounterSet<N> {
    /// A bank of `N` zeroed counters.
    pub fn new() -> Self {
        CounterSet {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds to one counter.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= N`.
    pub fn bump(&self, slot: usize, amount: u64) {
        // relaxed-ok: the counters are independent monotonic statistics;
        // no cross-counter ordering is implied and snapshot readers
        // tolerate torn multi-field views.
        self.counters[slot].fetch_add(amount, Ordering::Relaxed);
    }

    /// Reads one counter for a snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= N`.
    pub fn peek(&self, slot: usize) -> u64 {
        // relaxed-ok: advisory telemetry read; see `bump`.
        self.counters[slot].load(Ordering::Relaxed)
    }

    /// Reads every slot (individually atomic; the view across slots
    /// may be torn, which telemetry consumers tolerate).
    pub fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|i| self.peek(i))
    }
}

impl<const N: usize> Default for CounterSet<N> {
    fn default() -> Self {
        CounterSet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_peek_round_trip() {
        let set = CounterSet::<3>::new();
        set.bump(0, 1);
        set.bump(0, 2);
        set.bump(2, 7);
        assert_eq!(set.peek(0), 3);
        assert_eq!(set.peek(1), 0);
        assert_eq!(set.snapshot(), [3, 0, 7]);
    }

    #[test]
    fn counters_survive_cross_thread_bumps() {
        let set = CounterSet::<2>::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        set.bump(0, 1);
                        set.bump(1, 3);
                    }
                });
            }
        });
        assert_eq!(set.snapshot(), [4_000, 12_000]);
    }
}
