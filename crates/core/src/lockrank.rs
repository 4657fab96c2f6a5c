//! The workspace lock-rank map.
//!
//! Every [`analysis::sync::OrderedRwLock`] in the serving stack takes
//! its rank from here; a thread may only acquire ranks in strictly
//! increasing order (checked in debug builds). Lower rank = outer
//! lock. The static companion — the `cloudlet-analysis` lock graph —
//! checks the same discipline across function boundaries at lint time.
//!
//! Current order, outermost first:
//!
//! 1. [`FRONT_LANE`] — a front-end lane's service slot. `execute`
//!    and `serve_batch` hold it across a whole serve call, which may
//!    descend into the shard layer below.
//! 2. [`PEER_FABRIC`] — a cell's [`crate::peer::PeerFabric`]
//!    membership vector. The front-end consults the fabric on the
//!    miss path *after* dropping the lane guard, but the rank sits
//!    between lane and shard so a future in-lane consult stays legal.
//!    Only registration/refresh takes the write side; serve-path
//!    consults take the read side and then touch nothing but
//!    published snapshots (see below).
//! 3. [`SHARD`] — one shard of a [`crate::shard::ShardedTable`].
//!    Innermost: nothing else is acquired while a shard guard is
//!    held, and per-shard guards are taken one at a time.
//!
//! Adding a lock? Give it a rank that reflects where it nests, leave
//! gaps for future layers, and extend this list.
//!
//! # Lock-free paths (no rank consumed)
//!
//! Since the hot-path rebuild, a cache **hit** consumes no rank at the
//! shard layer at all: [`crate::shard::ShardedTable::lookup`], the
//! community half of [`crate::cache::SplitCache::lookup`], and
//! `PopulationLane`'s community-only fast path all probe an
//! [`crate::hashtable::atomic::AtomicTable`] read mirror — published
//! snapshots resolved through [`crate::snapshot::SnapshotCell`] with
//! atomic loads only. The front-end lane lock is still taken (shared,
//! [`FRONT_LANE`]) to pin the service slot, but the [`SHARD`] rank is
//! only reached by misses and updates, which keep the ordered write
//! path. Mirrors are read-only images: every write, click flags
//! included, goes to a locked or owned `QueryHashTable`, shard mirrors
//! are republished under the shard write guard, and community mirrors
//! are frozen, so no write path escapes the rank order.
//!
//! The cooperative peer tier keeps the same shape: each device's
//! summary (Bloom filter + exact inventory) is **published through a
//! [`crate::snapshot::SnapshotCell`]**, so reading a peer's summary on
//! the consult path costs atomic loads only — the [`PEER_FABRIC`] read
//! lock merely pins the membership vector while the snapshots are
//! read. Rebuilding a summary allocates the new filter first, then
//! publishes it as one Arc swap; a consult racing a refresh sees the
//! old or the new summary, never a torn one.
//!
//! `SnapshotCell` internally holds a plain `std::sync::Mutex` on its
//! writer side. It is deliberately *unranked*: it is a leaf — nothing
//! is ever acquired while it is held (publishers allocate before
//! locking, and the slow read path only clones an `Arc` under it) — so
//! it cannot participate in any cycle, and steady-state readers never
//! touch it.

/// Rank of a pipelined front-end lane (`frontend::FrontLane`).
pub const FRONT_LANE: u32 = 10;

/// Rank of a cell's peer-fabric membership vector
/// (`peer::PeerFabric`).
pub const PEER_FABRIC: u32 = 15;

/// Rank of one `ShardedTable` shard.
pub const SHARD: u32 = 20;
