//! The cache-management update protocol (§5.4, Figure 14).
//!
//! Nightly, while the phone charges: (1) the phone uploads its current hash
//! table; (2) the server prunes pairs the user has never accessed, prunes
//! accessed pairs whose score has decayed below the staleness floor, and
//! merges in the freshly-mined popular set — resolving score conflicts by
//! "always adopting the maximum ranking score"; (3) the server ships back
//! the new hash table plus the list of database records to add and remove,
//! from which the per-file patches are built (`flashdb::patch`).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::cache::PocketCache;
use crate::contentgen::CacheContents;
use crate::error::CoreError;
use crate::hashtable::{ConflictPolicy, EntryRecord, QueryHashTable};
use crate::ranking::RankingPolicy;

/// Version stamp carried by uploads and bundles.
pub const PROTOCOL_VERSION: u32 = 1;

/// What the phone sends to the server: its entire hash table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadPayload {
    /// Protocol version the client speaks.
    pub version: u32,
    /// Serialized hash-table entries.
    pub records: Vec<EntryRecord>,
}

impl UploadPayload {
    /// Captures a cache's current table.
    pub fn from_cache(cache: &PocketCache) -> Self {
        UploadPayload {
            version: PROTOCOL_VERSION,
            records: cache.table().to_records(),
        }
    }

    /// Approximate upload size on the wire: 12 bytes per entry (query
    /// hash and salt) plus 13 per slot (result hash, score, accessed
    /// bit). The paper bounds the exchange at ~1.5 MB (200 KB table +
    /// 1 MB of patches).
    pub fn wire_bytes(&self) -> usize {
        self.records.iter().map(|r| 12 + r.slots.len() * 13).sum()
    }
}

/// What the server returns: the new table and the database delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateBundle {
    /// Protocol version of the bundle.
    pub version: u32,
    /// The rebuilt hash table.
    pub records: Vec<EntryRecord>,
    /// Result hashes whose records must be added to the flash database.
    pub added_results: Vec<u64>,
    /// Result hashes whose records may be garbage-collected.
    pub removed_results: Vec<u64>,
}

/// The server side of the update protocol.
///
/// # Example
///
/// ```
/// use cloudlet_core::cache::{CacheMode, PocketCache};
/// use cloudlet_core::ranking::RankingPolicy;
/// use cloudlet_core::update::{UpdateServer, UploadPayload};
///
/// let mut cache = PocketCache::new(CacheMode::Full, RankingPolicy::default());
/// cache.install_pair(1, 10, 0.4); // never accessed by this user
/// let server = UpdateServer::new(Vec::new(), RankingPolicy::default());
/// let bundle = server.build_update(&UploadPayload::from_cache(&cache)).unwrap();
/// // With an empty fresh set and no accesses, everything is pruned.
/// assert!(bundle.records.is_empty());
/// assert_eq!(bundle.removed_results, vec![10]);
/// ```
#[derive(Debug, Clone)]
pub struct UpdateServer {
    fresh: Vec<(u64, u64, f32)>,
    policy: RankingPolicy,
}

impl UpdateServer {
    /// Creates a server holding the freshly-mined popular set as
    /// `(query_hash, result_hash, score)` triples.
    pub fn new(fresh: Vec<(u64, u64, f32)>, policy: RankingPolicy) -> Self {
        UpdateServer { fresh, policy }
    }

    /// Convenience: a server primed from generated cache contents.
    pub fn from_contents(contents: &CacheContents, policy: RankingPolicy) -> Self {
        UpdateServer::new(
            contents
                .pairs()
                .iter()
                .map(|p| (p.query_hash, p.result_hash, p.score))
                .collect(),
            policy,
        )
    }

    /// The fresh popular set the server would push.
    pub fn fresh_pairs(&self) -> &[(u64, u64, f32)] {
        &self.fresh
    }

    /// Runs the §5.4 merge against an uploaded table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProtocolMismatch`] when the upload speaks a
    /// different protocol version.
    pub fn build_update(&self, upload: &UploadPayload) -> Result<UpdateBundle, CoreError> {
        if upload.version != PROTOCOL_VERSION {
            return Err(CoreError::ProtocolMismatch {
                client: upload.version,
                bundle: PROTOCOL_VERSION,
            });
        }

        let fresh_keys: HashSet<(u64, u64)> = self.fresh.iter().map(|&(q, r, _)| (q, r)).collect();

        // Rule 1 & 2: keep user-accessed pairs unless stale; drop
        // never-accessed pairs unless the fresh set re-justifies them.
        let mut table = QueryHashTable::from_records(&upload.records);
        let old_results: HashSet<u64> = table.result_hashes().into_iter().collect();
        table.retain_pairs(|q, r, score, accessed| {
            if accessed {
                !self.policy.is_stale(score)
            } else {
                fresh_keys.contains(&(q, r))
            }
        });

        // Rule 3: merge the fresh set, adopting the maximum score.
        for &(q, r, score) in &self.fresh {
            table.upsert(q, r, score, ConflictPolicy::Max);
        }

        let new_results: HashSet<u64> = table.result_hashes().into_iter().collect();
        let mut added_results: Vec<u64> = new_results.difference(&old_results).copied().collect();
        let mut removed_results: Vec<u64> = old_results.difference(&new_results).copied().collect();
        added_results.sort_unstable();
        removed_results.sort_unstable();

        Ok(UpdateBundle {
            version: PROTOCOL_VERSION,
            records: table.to_records(),
            added_results,
            removed_results,
        })
    }
}

/// Client side: installs a bundle into the cache.
///
/// # Errors
///
/// Returns [`CoreError::ProtocolMismatch`] on version skew.
pub fn apply_update(cache: &mut PocketCache, bundle: &UpdateBundle) -> Result<(), CoreError> {
    if bundle.version != PROTOCOL_VERSION {
        return Err(CoreError::ProtocolMismatch {
            client: PROTOCOL_VERSION,
            bundle: bundle.version,
        });
    }
    cache.replace_table(QueryHashTable::from_records(&bundle.records));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;

    fn cache_with(pairs: &[(u64, u64, f32)]) -> PocketCache {
        let mut c = PocketCache::new(CacheMode::Full, RankingPolicy::default());
        for &(q, r, s) in pairs {
            c.install_pair(q, r, s);
        }
        c
    }

    #[test]
    fn never_accessed_pairs_are_pruned_unless_fresh() {
        let cache = cache_with(&[(1, 10, 0.5), (2, 20, 0.5)]);
        let server = UpdateServer::new(vec![(2, 20, 0.7)], RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        let table = QueryHashTable::from_records(&bundle.records);
        assert!(!table.contains_query(1), "unaccessed, not fresh: pruned");
        assert!(table.contains_query(2));
        assert_eq!(bundle.removed_results, vec![10]);
    }

    #[test]
    fn accessed_pairs_survive_even_off_the_popular_list() {
        let mut cache = cache_with(&[(1, 10, 0.5)]);
        cache.record_click(1, 10);
        let server = UpdateServer::new(Vec::new(), RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        let table = QueryHashTable::from_records(&bundle.records);
        assert!(table.contains_query(1));
        assert!(bundle.removed_results.is_empty());
    }

    #[test]
    fn stale_accessed_pairs_are_finally_dropped() {
        let mut cache = cache_with(&[(1, 10, 0.5), (1, 11, 0.5)]);
        cache.record_click(1, 10);
        cache.record_click(1, 11);
        // Decay pair (1,10) below the staleness floor by hammering (1,11).
        for _ in 0..200 {
            cache.record_click(1, 11);
        }
        let server = UpdateServer::new(Vec::new(), RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        let table = QueryHashTable::from_records(&bundle.records);
        let results = table.lookup(1).expect("the hot pair survives");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result_hash, 11);
        assert_eq!(bundle.removed_results, vec![10]);
    }

    #[test]
    fn conflicts_adopt_the_maximum_score() {
        let mut cache = cache_with(&[(1, 10, 0.2)]);
        cache.record_click(1, 10); // score -> 1.2, accessed
        let server = UpdateServer::new(vec![(1, 10, 0.9)], RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        let table = QueryHashTable::from_records(&bundle.records);
        assert!((table.score(1, 10).unwrap() - 1.2).abs() < 1e-5);

        // And the other direction: server score higher than device score.
        let cache2 = cache_with(&[(1, 10, 0.2)]);
        let bundle2 = server
            .build_update(&UploadPayload::from_cache(&cache2))
            .unwrap();
        let table2 = QueryHashTable::from_records(&bundle2.records);
        assert!((table2.score(1, 10).unwrap() - 0.9).abs() < 1e-5);
    }

    #[test]
    fn added_results_list_new_database_records() {
        let cache = cache_with(&[(1, 10, 0.5)]);
        let server = UpdateServer::new(vec![(1, 10, 0.6), (3, 30, 0.8)], RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        assert_eq!(bundle.added_results, vec![30]);
    }

    #[test]
    fn apply_update_round_trips_into_the_cache() {
        let mut cache = cache_with(&[(1, 10, 0.5)]);
        let server = UpdateServer::new(vec![(5, 50, 0.9)], RankingPolicy::default());
        let bundle = server
            .build_update(&UploadPayload::from_cache(&cache))
            .unwrap();
        apply_update(&mut cache, &bundle).unwrap();
        assert!(cache.lookup(5).is_some());
        assert!(cache.lookup(1).is_none(), "pruned pair is gone after apply");
    }

    #[test]
    fn version_skew_is_rejected_both_ways() {
        let cache = cache_with(&[]);
        let server = UpdateServer::new(Vec::new(), RankingPolicy::default());
        let mut upload = UploadPayload::from_cache(&cache);
        upload.version = 99;
        assert!(matches!(
            server.build_update(&upload),
            Err(CoreError::ProtocolMismatch { .. })
        ));

        let mut cache = cache_with(&[]);
        let bundle = UpdateBundle {
            version: 99,
            records: Vec::new(),
            added_results: Vec::new(),
            removed_results: Vec::new(),
        };
        assert!(matches!(
            apply_update(&mut cache, &bundle),
            Err(CoreError::ProtocolMismatch { .. })
        ));
    }

    #[test]
    fn wire_bytes_count_twelve_per_entry_and_thirteen_per_slot() {
        // One two-slot entry (query 1) and one one-slot entry (query 2).
        let cache = cache_with(&[(1, 10, 0.5), (1, 11, 0.4), (2, 20, 0.5)]);
        let upload = UploadPayload::from_cache(&cache);
        assert_eq!(upload.records.len(), 2);
        assert_eq!(upload.wire_bytes(), (12 + 2 * 13) + (12 + 13));
    }

    #[test]
    fn wire_size_stays_in_the_papers_envelope() {
        // ~200 KB for a table on the order of the paper's (thousands of
        // entries).
        let mut cache = cache_with(&[]);
        for q in 0..4_000u64 {
            cache.install_pair(q, q + 100_000, 0.5);
            cache.install_pair(q, q + 200_000, 0.4);
        }
        let upload = UploadPayload::from_cache(&cache);
        let kb = upload.wire_bytes() as f64 / 1_000.0;
        assert!((100.0..300.0).contains(&kb), "upload was {kb:.0} KB");
    }
}
