//! Lock-free snapshot publication: [`SnapshotCell`].
//!
//! The lock-free read path (see [`crate::hashtable::atomic`]) needs an
//! `arc-swap`-style cell: writers clone-modify-publish an immutable
//! snapshot, readers resolve the current snapshot without taking any
//! lock. The workspace forbids `unsafe`, which rules out the classic
//! `AtomicPtr`-based swap, so this cell gets the same steady-state
//! behaviour from two safe pieces:
//!
//! 1. a monotonically increasing **version word** (`AtomicU64`),
//!    bumped with `Release` on every publish, and
//! 2. a **per-thread snapshot cache** — a small direct-mapped array
//!    indexed by `cell id & (SLOTS-1)` holding the `Arc` each thread
//!    last resolved, stamped with the version it was current at. A
//!    probe is one index plus two integer compares; there is
//!    deliberately no hashing on this path.
//!
//! A read `Acquire`-loads the version; when it matches the thread's
//! cached stamp, the cached `Arc` *is* the current snapshot and the
//! read proceeds with **no lock, no shared store, and no reference
//! count traffic** (`f` borrows the cached `Arc` in place; it is never
//! cloned on the hot path). Only the first read on a thread — and the
//! first read after a publish — falls back to a brief writer-side
//! mutex to clone the new `Arc`. Writers are expected to be rare
//! (cache updates, nightly republishes); readers are the hot path the
//! cell exists for.
//!
//! Two live cells whose ids collide in the direct-mapped array evict
//! each other and read through the slow path. Ids are assigned
//! sequentially, so collisions need more than `THREAD_CACHE_SLOTS` (64)
//! *simultaneously hot* cells per thread — far beyond the handful of
//! shard mirrors and cache indexes the serving stack creates.
//!
//! Memory ordering: the `Acquire` version load pairs with the
//! `Release` bump in [`SnapshotCell::publish`], so a reader that
//! observes version `v` also observes every write the publisher made
//! before bumping to `v` — including stores into the shared atomic
//! flag words that snapshots carry across republishes.
//!
//! The writer-side mutex is a leaf: nothing is ever acquired while it
//! is held, so it needs no rank in the workspace lock order (see
//! `cloudlet_core::lockrank`).

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Source of unique cell ids for the thread-local cache.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

/// Direct-mapped slots in the per-thread cache (power of two). Also
/// bounds the memory a thread holds for cells it no longer reads: a
/// colliding cell simply evicts the slot.
const THREAD_CACHE_SLOTS: usize = 64;

/// One per-thread cache slot: `(cell id, version, snapshot)`.
type CacheSlot = Option<(u64, u64, Arc<dyn Any + Send + Sync>)>;

thread_local! {
    /// Direct-mapped `cell id & (SLOTS-1) → (id, version, snapshot)` —
    /// the snapshot this thread last resolved from each cell, stamped
    /// with the version it matched.
    static THREAD_CACHE: RefCell<[CacheSlot; THREAD_CACHE_SLOTS]> =
        RefCell::new([const { None }; THREAD_CACHE_SLOTS]);
}

/// A published immutable snapshot with lock-free steady-state reads.
///
/// # Example
///
/// ```
/// use cloudlet_core::snapshot::SnapshotCell;
///
/// let cell = SnapshotCell::new(vec![1, 2, 3]);
/// assert_eq!(cell.read(|v| v.len()), 3);
/// cell.publish(vec![4]);
/// assert_eq!(cell.read(|v| v[0]), 4);
/// ```
pub struct SnapshotCell<T: Send + Sync + 'static> {
    id: u64,
    version: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T: Send + Sync + 'static> SnapshotCell<T> {
    /// A cell holding `value` as its first snapshot.
    pub fn new(value: T) -> Self {
        SnapshotCell {
            // relaxed-ok: cell ids only need to be unique; no ordering
            // with any other memory operation is implied.
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// The current publication count (0 for the initial snapshot).
    pub fn version(&self) -> u64 {
        // Acquire: pairs with the Release bump in `publish`, so a
        // caller that observes version v also observes snapshot v.
        self.version.load(Ordering::Acquire)
    }

    /// Runs `f` over the current snapshot.
    ///
    /// Steady state (the version matches this thread's cached stamp)
    /// is one `Acquire` load plus one direct-mapped thread-local probe:
    /// no lock, no shared store, no `Arc` clone, no reference-count
    /// traffic — `f` borrows the cached `Arc` in place. The cache slot
    /// stays borrowed while `f` runs, so a *reentrant* read (any cell)
    /// inside `f` falls back to the slow path instead of touching the
    /// cache; it stays correct, it just briefly takes the writer-side
    /// mutex.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let version = self.version.load(Ordering::Acquire);
        let slot_idx = self.id as usize & (THREAD_CACHE_SLOTS - 1);
        THREAD_CACHE.with(|cache| {
            let Ok(mut slots) = cache.try_borrow_mut() else {
                // Reentrant read: the outer read still holds the cache.
                return f(&self.resolve_slow().1);
            };
            let fresh = matches!(
                &slots[slot_idx], Some((id, v, _)) if *id == self.id && *v == version
            );
            if !fresh {
                let (version, arc) = self.resolve_slow();
                let arc: Arc<dyn Any + Send + Sync> = arc;
                slots[slot_idx] = Some((self.id, version, arc));
            }
            match &slots[slot_idx] {
                // Ids are unique and compared above, so the slot's
                // snapshot is this cell's and the downcast always
                // succeeds; the fallback is defensive, never hot.
                Some((_, _, arc)) => match (**arc).downcast_ref::<T>() {
                    Some(value) => f(value),
                    None => f(&self.resolve_slow().1),
                },
                None => f(&self.resolve_slow().1),
            }
        })
    }

    /// Clones the current snapshot handle (always coherent; may take
    /// the writer-side mutex, so not for the hot path).
    pub fn load_full(&self) -> Arc<T> {
        self.resolve_slow().1
    }

    /// Replaces the snapshot. Readers that already resolved the old
    /// snapshot finish on it; new reads observe the new one.
    pub fn publish(&self, value: T) {
        let next = Arc::new(value);
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = next;
        // Release: pairs with the Acquire loads in `read`/`version`.
        // Bumped while the slot mutex is held so (version, slot) move
        // together; `resolve_slow` reads both under the same mutex.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Slow path: clone the authoritative `Arc` under the writer-side
    /// mutex, stamped with the version it is current at.
    fn resolve_slow(&self) -> (u64, Arc<T>) {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let version = self.version.load(Ordering::Acquire);
        let arc = Arc::clone(&slot);
        (version, arc)
    }
}

impl<T: Send + Sync + 'static> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("id", &self.id)
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_observe_the_latest_publish() {
        let cell = SnapshotCell::new(1u64);
        assert_eq!(cell.read(|v| *v), 1);
        assert_eq!(cell.version(), 0);
        cell.publish(2);
        assert_eq!(cell.read(|v| *v), 2);
        assert_eq!(cell.version(), 1);
        // Repeated reads ride the thread-local cache.
        assert_eq!(cell.read(|v| *v), 2);
    }

    #[test]
    fn distinct_cells_do_not_alias_in_the_thread_cache() {
        let a = SnapshotCell::new("a".to_owned());
        let b = SnapshotCell::new("b".to_owned());
        assert_eq!(a.read(|v| v.clone()), "a");
        assert_eq!(b.read(|v| v.clone()), "b");
        a.publish("a2".to_owned());
        assert_eq!(a.read(|v| v.clone()), "a2");
        assert_eq!(b.read(|v| v.clone()), "b");
    }

    #[test]
    fn nested_reads_of_different_cells_work() {
        let outer = SnapshotCell::new(10u64);
        let inner = SnapshotCell::new(32u64);
        let sum = outer.read(|a| inner.read(|b| a + b));
        assert_eq!(sum, 42);
    }

    #[test]
    fn reentrant_read_of_the_same_cell_falls_back_safely() {
        let cell = SnapshotCell::new(5u64);
        let _ = cell.read(|v| *v); // warm the cache
        let product = cell.read(|a| cell.read(|b| a * b));
        assert_eq!(product, 25);
    }

    #[test]
    fn load_full_is_coherent_with_publish() {
        let cell = SnapshotCell::new(vec![1u8]);
        let before = cell.load_full();
        cell.publish(vec![2, 3]);
        assert_eq!(*before, vec![1], "resolved snapshots are immutable");
        assert_eq!(*cell.load_full(), vec![2, 3]);
    }

    #[test]
    fn concurrent_readers_see_only_published_snapshots() {
        let cell = SnapshotCell::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        let v = cell.read(|v| *v);
                        assert!(v <= 64, "value {v} was never published");
                    }
                });
            }
            for v in 1..=64 {
                cell.publish(v);
            }
        });
        assert_eq!(cell.read(|v| *v), 64);
    }
}
