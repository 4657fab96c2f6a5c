//! The unified cloudlet service layer (§7's many-cloudlet device).
//!
//! The paper's §7 pictures several cloudlets — search, advertisements,
//! maps, web content — coexisting on one handset under a shared budget
//! arbiter ([`crate::coordination`]). Each reproduction crate originally
//! grew its own serve loop, its own hit/miss bookkeeping, and its own
//! error story, which meant fleet-level machinery (routing, budget
//! arbitration, reporting) could only ever see one of them at a time.
//!
//! This module is the common waist:
//!
//! * [`CloudletService`] — one object-safe trait every cloudlet serves
//!   through: `serve(&ServeRequest)` answers a single keyed request in
//!   simulated time, and the capacity hooks (`cache_bytes`,
//!   `capacity_bytes`, `budget_demand`) let the §7 budget arbiter
//!   inspect heterogeneous cloudlets uniformly.
//! * [`ServeRequest`] — the one request shape both serve paths take:
//!   `{ user: Option<u64>, key, now }`. It replaced the four-method
//!   `serve`/`serve_user`/`try_serve_hit`/`try_serve_hit_user` spread.
//!   The `_user` forms stay as `#[deprecated]` forwarding shims because
//!   out-of-workspace implementors (the host-time benchmark's traced
//!   lane) still override them, and removing a trait method breaks
//!   such an impl.
//! * [`ServeOutcome`] / [`ServeKind`] / [`ServeSource`] / [`ServeFlags`]
//!   — the outcome taxonomy that subsumes the per-crate vocabularies:
//!   *what* happened (`{Hit, StaleHit, Miss, Skipped}`), *who* answered
//!   (`{Local, Peer, Radio}` — the cooperative peer tier of
//!   [`crate::peer`] sits between the local cache and the radio), and
//!   orthogonal condition bits (degraded-to-radio after damage) that
//!   compose without flag combinatorics.
//! * [`ServeStats`] — monotone counters accumulated from outcomes,
//!   replacing the four divergent stats structs for anything that needs
//!   to compare or aggregate across cloudlets.
//! * [`CloudletError`] — the workspace-level error type. Storage and
//!   engine errors from downstream crates convert into it via `From`
//!   impls (downstream, where the orphan rule allows them), so a
//!   heterogeneous front-end surfaces one typed error end-to-end
//!   instead of a panic.
//!
//! Keys are service-defined `u64`s, in keeping with the rest of this
//! crate: a query hash for search and ads, a page index for web, a
//! packed tile coordinate for maps. The serving front-end
//! ([`crate::frontend`]) routes `(service, key)` pairs onto
//! `dyn CloudletService` lanes without knowing which cloudlet is behind
//! each lane.
//!
//! (Note: [`crate::frontend`] has its own routing `ServeRequest` that
//! additionally carries the service-group index; it converts to this
//! module's request at the lane boundary. This module's struct is
//! deliberately *not* re-exported at the crate root to keep the two
//! distinct.)

use mobsim::time::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};

use crate::arbiter::DemandContext;
use crate::coordination::{BudgetDemand, CloudletId};
use crate::error::CoreError;

/// One keyed request through the unified serve surface.
///
/// Both trait methods take this by reference: the exclusive
/// [`CloudletService::serve`] path and the read-only
/// [`CloudletService::try_serve_hit`] fast path. `user` is optional
/// because most cloudlets hold one device's state and never look at it;
/// population-scale lanes ([`crate::population`]) use it to pick whose
/// personalization delta a request reads and whose click folds in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeRequest {
    /// The requesting user, when the caller knows one. `None` means
    /// "anonymous / single-user device"; user-aware cloudlets treat it
    /// as user 0, matching the old keyless `serve(key, now)` surface.
    pub user: Option<u64>,
    /// The service-defined key (query hash, page index, tile coord…).
    pub key: u64,
    /// Simulated instant the request arrives.
    pub now: SimInstant,
}

impl ServeRequest {
    /// An anonymous request (no user identity attached).
    pub fn new(key: u64, now: SimInstant) -> Self {
        ServeRequest {
            user: None,
            key,
            now,
        }
    }

    /// A request on behalf of a known user.
    pub fn for_user(user: u64, key: u64, now: SimInstant) -> Self {
        ServeRequest {
            user: Some(user),
            key,
            now,
        }
    }

    /// The user identity, defaulting anonymous requests to user 0 —
    /// exactly what the deprecated `serve(key, now)` surface did when it
    /// forwarded to `serve_user(0, …)`.
    pub fn user_or_default(&self) -> u64 {
        self.user.unwrap_or(0)
    }
}

/// How a single request was answered, in the shared taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeKind {
    /// Served before the radio woke (locally, or by a cooperative
    /// peer — see [`ServeOutcome::source`] for who answered).
    Hit,
    /// Served locally but the content was stale, so a background
    /// refetch was charged (pocketweb's `StaleRefetch`).
    StaleHit,
    /// Not servable before the radio; the radio had to fetch it.
    Miss,
    /// The cloudlet declined to answer (an ad consultation on a search
    /// miss: once the radio must wake anyway, the ad cache is not
    /// consulted).
    Skipped,
}

/// Who produced the answer — the three-tier serve path.
///
/// The old taxonomy could only say *what* happened (`ServeKind`); with
/// the cooperative peer tier ([`crate::peer`]) two different parties can
/// produce a `Hit`, so outcomes now carry the source explicitly:
/// local cache → peer device over WiFi-direct → radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeSource {
    /// This device's own cloudlet state answered (also used for
    /// `Skipped`, where nothing was fetched at all).
    Local,
    /// A nearby device's cloudlet answered over the WiFi-direct peer
    /// fabric; `peer_bytes` carries the transfer.
    Peer,
    /// The radio fetched the answer from the cloud; `radio_bytes`
    /// carries the transfer.
    Radio,
}

/// Orthogonal condition bits on a [`ServeOutcome`].
///
/// These replace the old boolean fields: conditions like
/// "degraded-to-radio after detecting damaged flash" compose with any
/// `(kind, source)` pair instead of multiplying the enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeFlags(u8);

impl ServeFlags {
    /// No condition bits set.
    pub const NONE: ServeFlags = ServeFlags(0);
    /// Local state was found damaged while answering (e.g. a corrupt
    /// flash record) and the cloudlet degraded gracefully to another
    /// source instead of failing the request — the §5.4 path.
    pub const DEGRADED: ServeFlags = ServeFlags(1);
    /// The damaged state was repaired as part of answering (re-fetched
    /// onto fresh blocks), so the next identical request will hit.
    pub const RECOVERED: ServeFlags = ServeFlags(1 << 1);

    /// Whether every bit in `other` is set in `self`.
    pub const fn contains(self, other: ServeFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of both flag sets.
    #[must_use]
    pub const fn with(self, other: ServeFlags) -> ServeFlags {
        ServeFlags(self.0 | other.0)
    }

    /// Whether no bits are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The outcome of serving one keyed request through a
/// [`CloudletService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeOutcome {
    /// What happened to the request.
    pub kind: ServeKind,
    /// Who answered it (the three-tier path: local / peer / radio).
    pub source: ServeSource,
    /// Orthogonal condition bits (degradation, recovery).
    pub flags: ServeFlags,
    /// Radio bytes the answer cost (0 unless the radio woke).
    pub radio_bytes: u64,
    /// WiFi-direct peer-link bytes (0 unless a peer answered).
    pub peer_bytes: u64,
    /// Simulated device time spent serving it (zero for cloudlets
    /// whose model does not charge serve time).
    pub service: SimDuration,
}

impl ServeOutcome {
    const fn base(kind: ServeKind, source: ServeSource) -> Self {
        ServeOutcome {
            kind,
            source,
            flags: ServeFlags::NONE,
            radio_bytes: 0,
            peer_bytes: 0,
            service: SimDuration::ZERO,
        }
    }

    /// A pure local hit: no radio traffic.
    pub fn hit() -> Self {
        Self::base(ServeKind::Hit, ServeSource::Local)
    }

    /// A hit answered by a cooperative peer over the WiFi-direct
    /// fabric: `peer_bytes` crossed the peer link, the radio slept.
    pub fn peer_hit(peer_bytes: u64) -> Self {
        ServeOutcome {
            peer_bytes,
            ..Self::base(ServeKind::Hit, ServeSource::Peer)
        }
    }

    /// A local answer that triggered a `radio_bytes` freshness refetch.
    pub fn stale_hit(radio_bytes: u64) -> Self {
        ServeOutcome {
            radio_bytes,
            ..Self::base(ServeKind::StaleHit, ServeSource::Local)
        }
    }

    /// A miss that cost `radio_bytes` over the radio.
    pub fn miss(radio_bytes: u64) -> Self {
        ServeOutcome {
            radio_bytes,
            ..Self::base(ServeKind::Miss, ServeSource::Radio)
        }
    }

    /// A miss forced by damaged local state: the answer *should* have
    /// been a hit, but corruption was detected and the radio answered
    /// instead — the §5.4 graceful-degradation path
    /// ([`ServeFlags::DEGRADED`]).
    pub fn recovered_miss(radio_bytes: u64) -> Self {
        Self::miss(radio_bytes).with_flags(ServeFlags::DEGRADED)
    }

    /// A declined consultation.
    pub fn skipped() -> Self {
        Self::base(ServeKind::Skipped, ServeSource::Local)
    }

    /// Attaches the simulated service time.
    #[must_use]
    pub fn with_service(mut self, service: SimDuration) -> Self {
        self.service = service;
        self
    }

    /// Sets condition bits (unioned with any already present).
    #[must_use]
    pub fn with_flags(mut self, flags: ServeFlags) -> Self {
        self.flags = self.flags.with(flags);
        self
    }

    /// Whether local state was found damaged while answering.
    pub fn is_degraded(&self) -> bool {
        self.flags.contains(ServeFlags::DEGRADED)
    }

    /// Whether the request was answered before the radio woke — from
    /// this device's own state *or* a cooperative peer.
    pub fn radio_slept(&self) -> bool {
        matches!(self.kind, ServeKind::Hit | ServeKind::StaleHit)
    }
}

/// Monotone serving counters shared by every cloudlet.
///
/// `record` folds a [`ServeOutcome`] in; `merge` combines counters from
/// independent lanes. Each legacy stats struct projects onto this one
/// (see the per-crate `CloudletService` impls), which is what lets a
/// heterogeneous fleet report aggregate hit ratios at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests served (all kinds, including skipped consultations).
    pub serves: u64,
    /// Hits (local *and* peer-answered; see `peer_hits` for the split).
    pub hits: u64,
    /// Local answers that charged a freshness refetch.
    pub stale_hits: u64,
    /// Radio misses.
    pub misses: u64,
    /// Declined consultations.
    pub skipped: u64,
    /// Outcomes that degraded to the radio after detecting damaged
    /// local state ([`ServeFlags::DEGRADED`]; a subset of `misses`).
    pub recovered: u64,
    /// Hits answered by a cooperative peer ([`ServeSource::Peer`]; a
    /// subset of `hits`).
    pub peer_hits: u64,
    /// Total WiFi-direct peer-link bytes across all outcomes.
    pub peer_bytes: u64,
    /// Total radio bytes across all outcomes.
    pub radio_bytes: u64,
    /// Total simulated service time.
    pub busy: SimDuration,
}

impl ServeStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, outcome: &ServeOutcome) {
        self.serves += 1;
        match outcome.kind {
            ServeKind::Hit => self.hits += 1,
            ServeKind::StaleHit => self.stale_hits += 1,
            ServeKind::Miss => self.misses += 1,
            ServeKind::Skipped => self.skipped += 1,
        }
        if outcome.is_degraded() {
            self.recovered += 1;
        }
        if outcome.source == ServeSource::Peer {
            self.peer_hits += 1;
        }
        self.peer_bytes += outcome.peer_bytes;
        self.radio_bytes += outcome.radio_bytes;
        self.busy += outcome.service;
    }

    /// Requests the cloudlet actually attempted (serves minus skipped).
    pub fn attempted(&self) -> u64 {
        self.serves - self.skipped
    }

    /// Pure-hit rate over attempted requests (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempted() as f64
        }
    }

    /// Locally-served rate (hits + stale hits) over attempted requests.
    pub fn local_rate(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            (self.hits + self.stale_hits) as f64 / self.attempted() as f64
        }
    }

    /// Peer-served rate over attempted requests (0 when none) — the
    /// fraction of this lane's answers a cooperative peer produced.
    pub fn peer_rate(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.peer_hits as f64 / self.attempted() as f64
        }
    }

    /// The counters accumulated since `earlier` was snapshotted, as a
    /// field-wise saturating difference. Both snapshots must come from
    /// the same monotone counter set for the delta to be meaningful;
    /// the adaptive arbiter uses this to turn cumulative lane stats
    /// into per-epoch observations.
    #[must_use]
    pub fn delta_since(&self, earlier: &ServeStats) -> ServeStats {
        ServeStats {
            serves: self.serves.saturating_sub(earlier.serves),
            hits: self.hits.saturating_sub(earlier.hits),
            stale_hits: self.stale_hits.saturating_sub(earlier.stale_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            skipped: self.skipped.saturating_sub(earlier.skipped),
            recovered: self.recovered.saturating_sub(earlier.recovered),
            peer_hits: self.peer_hits.saturating_sub(earlier.peer_hits),
            peer_bytes: self.peer_bytes.saturating_sub(earlier.peer_bytes),
            radio_bytes: self.radio_bytes.saturating_sub(earlier.radio_bytes),
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ServeStats) {
        self.serves += other.serves;
        self.hits += other.hits;
        self.stale_hits += other.stale_hits;
        self.misses += other.misses;
        self.skipped += other.skipped;
        self.recovered += other.recovered;
        self.peer_hits += other.peer_hits;
        self.peer_bytes += other.peer_bytes;
        self.radio_bytes += other.radio_bytes;
        self.busy += other.busy;
    }
}

/// The workspace-level serving error.
///
/// Downstream crates convert their own errors into this one via `From`
/// impls defined next to those error types (the orphan rule allows
/// `impl From<DbError> for CloudletError` inside `flashdb`), so the
/// front-end and every `CloudletService` impl speak one error
/// language without this crate depending on any of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudletError {
    /// A cache-architecture error from this crate.
    Core(CoreError),
    /// A storage-layer failure, carried as text so `cloudlet-core`
    /// stays independent of the storage crate's error type.
    Storage {
        /// Human-readable description of the storage failure.
        detail: String,
    },
    /// The key does not name anything this cloudlet can serve.
    UnknownKey {
        /// The offending key.
        key: u64,
    },
    /// A request named a service group the front-end does not host.
    UnknownService {
        /// The offending service group index.
        service: u32,
    },
    /// A bounded serving queue was full and the front-end's overflow
    /// policy sheds load instead of parking it
    /// ([`crate::frontend::OverflowPolicy::Reject`]).
    QueueFull {
        /// The lane whose queue was full.
        lane: usize,
        /// The queue depth that was exceeded.
        depth: usize,
    },
}

impl std::fmt::Display for CloudletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudletError::Core(e) => write!(f, "cache error: {e}"),
            CloudletError::Storage { detail } => write!(f, "storage error: {detail}"),
            CloudletError::UnknownKey { key } => write!(f, "no such key: {key:#x}"),
            CloudletError::UnknownService { service } => {
                write!(f, "no such service group: {service}")
            }
            CloudletError::QueueFull { lane, depth } => {
                write!(f, "serving queue full on lane {lane} (depth {depth})")
            }
        }
    }
}

impl std::error::Error for CloudletError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloudletError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for CloudletError {
    fn from(e: CoreError) -> Self {
        CloudletError::Core(e)
    }
}

/// One cloudlet behind the unified serving interface.
///
/// The trait is object-safe: the serving front-end stores
/// `Box<dyn CloudletService + Send + Sync>` lanes and routes
/// `(service, key)` requests onto them without knowing the concrete
/// cloudlet. Implementors
/// must keep `service_stats` consistent with the outcomes `serve`
/// returned — the equivalence property tests pin each impl to its
/// legacy serve loop.
///
/// The serve surface is two methods, both taking a [`ServeRequest`]:
/// the exclusive `serve` and the read-only `try_serve_hit` fast path.
/// The old four-method spread (`serve(key, now)` / `serve_user` /
/// `try_serve_hit(key, now)` / `try_serve_hit_user`) collapsed into
/// these. The `_user` forms stay as `#[deprecated]` forwarding shims:
/// implementors outside this workspace (the host-time benchmark's
/// traced lane) still override them, and deleting a trait method turns
/// such an override into a compile error.
pub trait CloudletService {
    /// Short stable name for reports ("search", "web", "maps", "ads").
    fn name(&self) -> &'static str;

    /// Serves one keyed request.
    ///
    /// A miss is a *successful* serve (the radio answered); `Err` is
    /// reserved for requests the cloudlet cannot process at all — an
    /// unknown key, corrupted storage, a broken invariant.
    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError>;

    /// Read-only fast path: answers the request *only* if it is a local
    /// hit that needs no mutation at all — no cache expansion, no click
    /// logging, no LRU touch, no stats update. Returns `None` whenever
    /// exclusive access is required, sending the caller to
    /// [`CloudletService::serve`].
    ///
    /// This is what lets a serving front-end keep hits behind a shared
    /// (`RwLock` read) lock: ~66% of traffic is hits (§4), and a hit on
    /// a read-optimized cloudlet inspects state without changing it.
    /// Because `&self` forbids updating `service_stats`, outcomes
    /// returned here are counted by the *caller* (the front-end's lane
    /// counters), not by the cloudlet; implementations must return
    /// exactly the outcome `serve` would have produced for the same
    /// request, minus any side effects.
    ///
    /// The default declines everything, which is always correct: every
    /// cloudlet works unchanged through the exclusive path.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let _ = request;
        None
    }

    /// Deprecated shim for the old user-keyed serve surface; forwards
    /// to [`CloudletService::serve`] with
    /// [`ServeRequest::for_user`]`(user, key, now)`.
    #[deprecated(
        since = "0.1.0",
        note = "build a `service::ServeRequest` and call `serve`"
    )]
    fn serve_user(
        &mut self,
        user: u64,
        key: u64,
        now: SimInstant,
    ) -> Result<ServeOutcome, CloudletError> {
        self.serve(&ServeRequest::for_user(user, key, now))
    }

    /// Deprecated shim for the old user-keyed fast path; forwards to
    /// [`CloudletService::try_serve_hit`] with
    /// [`ServeRequest::for_user`]`(user, key, now)`.
    #[deprecated(
        since = "0.1.0",
        note = "build a `service::ServeRequest` and call `try_serve_hit`"
    )]
    fn try_serve_hit_user(&self, user: u64, key: u64, now: SimInstant) -> Option<ServeOutcome> {
        self.try_serve_hit(&ServeRequest::for_user(user, key, now))
    }

    /// The key hashes this cloudlet could currently answer as local
    /// hits, advertised to the cooperative peer tier ([`crate::peer`])
    /// so nearby devices can build a compact summary of what this one
    /// holds. The default opts out (an empty inventory): the cloudlet
    /// is never consulted as a peer, which is always correct.
    fn summary_keys(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Counters accumulated by `serve` since construction.
    fn service_stats(&self) -> ServeStats;

    /// Bytes of device memory the cloudlet's cached state occupies now.
    fn cache_bytes(&self) -> u64;

    /// Bytes the cloudlet is sized for (its flash/DRAM budget). The
    /// default assumes the cloudlet is exactly as big as what it
    /// caches.
    fn capacity_bytes(&self) -> u64 {
        self.cache_bytes()
    }

    /// This cloudlet's demand on a shared §7 index budget, for
    /// [`crate::coordination::CloudletBudgets::set_demand`].
    ///
    /// The [`DemandContext`] carries the arbiter's utility-derived
    /// priority plus the lane's own telemetry for the epoch being
    /// arbitrated ([`crate::arbiter::AdaptiveArbiter`] fills it in;
    /// static callers pass [`DemandContext::equal_priority`]). The
    /// default demands the cloudlet's full capacity at the arbiter's
    /// priority; implementations may shrink their demand when the
    /// telemetry shows the lane idle, or dampen the priority when their
    /// cached state is not earning hits.
    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        BudgetDemand {
            cloudlet,
            demand_bytes: usize::try_from(self.capacity_bytes()).unwrap_or(usize::MAX),
            priority: ctx.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy service: even keys hit, key 7 is unknown,
    /// everything else misses 100 bytes.
    struct ToyService {
        stats: ServeStats,
    }

    impl CloudletService for ToyService {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            if request.key == 7 {
                return Err(CloudletError::UnknownKey { key: request.key });
            }
            let outcome = if request.key.is_multiple_of(2) {
                ServeOutcome::hit().with_service(SimDuration::from_micros(5))
            } else {
                ServeOutcome::miss(100).with_service(SimDuration::from_micros(50))
            };
            self.stats.record(&outcome);
            Ok(outcome)
        }

        fn service_stats(&self) -> ServeStats {
            self.stats
        }

        fn cache_bytes(&self) -> u64 {
            4096
        }
    }

    #[test]
    fn outcomes_fold_into_stats() {
        let mut svc = ToyService {
            stats: ServeStats::default(),
        };
        for key in 0..10 {
            let request = ServeRequest::new(key, SimInstant::ZERO);
            if key == 7 {
                assert_eq!(
                    svc.serve(&request),
                    Err(CloudletError::UnknownKey { key: 7 })
                );
            } else {
                svc.serve(&request).expect("toy serve");
            }
        }
        let stats = svc.service_stats();
        assert_eq!(stats.serves, 9);
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.radio_bytes, 400);
        assert_eq!(stats.peer_hits, 0);
        assert_eq!(
            stats.busy,
            SimDuration::from_micros(5 * 5 + 4 * 50),
            "busy sums per-outcome service time"
        );
        assert!((stats.hit_rate() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn stale_and_skipped_outcomes_are_tracked_separately() {
        let mut stats = ServeStats::default();
        stats.record(&ServeOutcome::hit());
        stats.record(&ServeOutcome::stale_hit(64));
        stats.record(&ServeOutcome::skipped());
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.attempted(), 2);
        assert_eq!(stats.radio_bytes, 64);
        assert!(ServeOutcome::stale_hit(64).radio_slept());
        assert!(!ServeOutcome::skipped().radio_slept());
        assert!((stats.local_rate() - 1.0).abs() < 1e-12);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sources_and_flags_compose() {
        // A peer hit counts as a hit that kept the radio asleep, carries
        // its transfer on the peer link, and is tallied separately.
        let peer = ServeOutcome::peer_hit(512);
        assert_eq!(peer.kind, ServeKind::Hit);
        assert_eq!(peer.source, ServeSource::Peer);
        assert!(peer.radio_slept());
        assert_eq!(peer.radio_bytes, 0);
        assert_eq!(peer.peer_bytes, 512);

        // Degradation is a flag, orthogonal to kind/source.
        let degraded = ServeOutcome::recovered_miss(128);
        assert_eq!(degraded.kind, ServeKind::Miss);
        assert_eq!(degraded.source, ServeSource::Radio);
        assert!(degraded.is_degraded());
        assert!(degraded.flags.contains(ServeFlags::DEGRADED));
        assert!(!degraded.flags.contains(ServeFlags::RECOVERED));
        let repaired = degraded.with_flags(ServeFlags::RECOVERED);
        assert!(repaired.flags.contains(ServeFlags::DEGRADED));
        assert!(repaired.flags.contains(ServeFlags::RECOVERED));
        assert!(ServeFlags::NONE.is_empty());

        let mut stats = ServeStats::default();
        stats.record(&peer);
        stats.record(&degraded);
        stats.record(&ServeOutcome::hit());
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.peer_hits, 1);
        assert_eq!(stats.peer_bytes, 512);
        assert_eq!(stats.recovered, 1);
        assert!((stats.peer_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delta_since_and_merge_cover_peer_counters() {
        let mut a = ServeStats::default();
        a.record(&ServeOutcome::hit());
        let earlier = a;
        a.record(&ServeOutcome::peer_hit(256));
        let delta = a.delta_since(&earlier);
        assert_eq!(delta.serves, 1);
        assert_eq!(delta.peer_hits, 1);
        assert_eq!(delta.peer_bytes, 256);

        let mut b = ServeStats::default();
        b.record(&ServeOutcome::miss(10).with_service(SimDuration::from_micros(3)));
        a.merge(&b);
        assert_eq!(a.serves, 3);
        assert_eq!(a.hits, 2);
        assert_eq!(a.peer_hits, 1);
        assert_eq!(a.misses, 1);
        assert_eq!(a.radio_bytes, 10);
        assert_eq!(a.busy, SimDuration::from_micros(3));
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_forward_to_the_unified_surface() {
        let mut svc = ToyService {
            stats: ServeStats::default(),
        };
        // The `_user` shims must produce exactly what the unified
        // surface produces (the 256-case proptest in
        // tests/service_equivalence.rs pins this across real cloudlets).
        let via_shim = svc.serve_user(3, 2, SimInstant::ZERO).expect("shim serve");
        let direct = svc
            .serve(&ServeRequest::for_user(3, 2, SimInstant::ZERO))
            .expect("direct serve");
        assert_eq!(via_shim, direct);
        assert_eq!(svc.try_serve_hit_user(3, 2, SimInstant::ZERO), None);
        assert_eq!(ServeRequest::new(9, SimInstant::ZERO).user_or_default(), 0);
        assert_eq!(
            ServeRequest::for_user(5, 9, SimInstant::ZERO).user_or_default(),
            5
        );
    }

    #[test]
    fn fast_path_declines_by_default() {
        let svc = ToyService {
            stats: ServeStats::default(),
        };
        // Even keys would hit through `serve`, but the default read-only
        // fast path always punts to the exclusive path.
        assert_eq!(
            svc.try_serve_hit(&ServeRequest::new(2, SimInstant::ZERO)),
            None
        );
        assert_eq!(
            svc.try_serve_hit(&ServeRequest::new(7, SimInstant::ZERO)),
            None
        );
        // And the default peer-summary inventory opts out.
        assert!(svc.summary_keys().is_empty());
    }

    #[test]
    fn budget_demand_uses_capacity_and_context_priority() {
        let svc = ToyService {
            stats: ServeStats::default(),
        };
        let ctx = DemandContext::equal_priority(0).with_priority(2.0);
        let demand = svc.budget_demand(CloudletId(3), &ctx);
        assert_eq!(demand.cloudlet, CloudletId(3));
        assert_eq!(demand.demand_bytes, 4096);
        assert!((demand.priority - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn errors_display_and_convert() {
        let core_err = CoreError::QueryNotCached { query_hash: 9 };
        let wrapped: CloudletError = core_err.clone().into();
        assert_eq!(wrapped, CloudletError::Core(core_err));
        assert!(wrapped.to_string().contains("cache error"));
        assert!(CloudletError::UnknownService { service: 4 }
            .to_string()
            .contains("service group: 4"));
        assert!(CloudletError::QueueFull { lane: 2, depth: 8 }
            .to_string()
            .contains("lane 2 (depth 8)"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
        assert!(CloudletError::Storage {
            detail: "flash gone".into()
        }
        .source()
        .is_none());
    }
}
