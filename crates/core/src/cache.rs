//! The content-addressed measurement cache.
//!
//! A cached entry is one campaign **cell** — a single simulated run —
//! keyed by *what* was measured, never by object identity:
//!
//! ```text
//! key = ( machine.fingerprint(),   # full platform model
//!         spec.fingerprint(),      # workload allocations + phases
//!         groups_fp ⊕ config,      # allocation groups + configuration
//!         noise_fp ⊕ cell seed )   # noise model + derived cell seed
//! ```
//!
//! Each component is a stable 64-bit content hash
//! ([`hmpt_sim::fingerprint`]); the composite 256-bit key makes
//! accidental collisions implausible. The third component stands for
//! the realized placement plan without building it: a plan is a pure
//! function of (spec, groups, configuration), and the spec is already
//! the second component. Because the key includes the
//! derived per-cell seed, a hit returns the *bit-identical* outcome the
//! simulation would have produced — a warmed cache can never change an
//! analysis result, only skip simulated runs.
//!
//! The cache lives in `hmpt_core` (historically it was private to the
//! `hmpt-fleet` service layer) so any campaign front end — [`Driver`],
//! the online tuner, sensitivity sweeps, the fleet — can interpose it
//! through [`CachingExecutor`]. Every fingerprint in the key is
//! memoized once per campaign by [`CampaignPlan`]; building a cell key
//! costs two 64-bit hash mixes, not a serialization of any object.
//!
//! Infeasible cells (pool exhaustion under capacity pressure) are cached
//! too: re-asking whether a placement fits is as redundant as re-timing
//! it.
//!
//! [`Driver`]: crate::driver::Driver
//! [`CachingExecutor`]: crate::exec::CachingExecutor
//! [`CampaignPlan`]: crate::campaign::CampaignPlan

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hmpt_sim::fingerprint::Fingerprint;
use serde::{Deserialize, Serialize};

use crate::error::TunerError;
use crate::measure::CellOutcome;

/// Composite content key of one measurement cell: (machine, spec,
/// groups ⊕ configuration, noise ⊕ seed) fingerprints.
pub type CellKey = (Fingerprint, Fingerprint, Fingerprint, Fingerprint);

/// Cache counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference since an earlier snapshot (`entries` is the
    /// number of entries added in the interval).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries.saturating_sub(earlier.entries),
        }
    }
}

/// One cached cell plus its recency stamp (a tick from the cache's
/// monotonic use-clock, refreshed on every hit, peek, or insert).
#[derive(Debug)]
struct Entry {
    value: Result<CellOutcome, TunerError>,
    last_used: u64,
}

/// Thread-safe content-addressed store of measured cells.
#[derive(Debug, Default)]
pub struct MeasurementCache {
    map: Mutex<HashMap<CellKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotonic use-clock behind the per-entry recency stamps.
    clock: AtomicU64,
}

impl MeasurementCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a cell; on a miss, run `measure` and remember its result.
    ///
    /// The measurement runs outside the lock, so concurrent workers never
    /// serialize on the cache. Two workers racing on the same key may
    /// both measure; both produce the identical (seeded, deterministic)
    /// outcome, so the duplicate write is harmless.
    pub fn get_or_measure<F>(&self, key: CellKey, measure: F) -> Result<CellOutcome, TunerError>
    where
        F: FnOnce() -> Result<CellOutcome, TunerError>,
    {
        {
            let mut map = self.map.lock().expect("cache poisoned");
            if let Some(entry) = map.get_mut(&key) {
                entry.last_used = self.tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                hmpt_obs::counter("cache.hit").incr();
                return entry.value.clone();
            }
        }
        let outcome = measure();
        self.misses.fetch_add(1, Ordering::Relaxed);
        hmpt_obs::counter("cache.miss").incr();
        let last_used = self.tick();
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key, Entry { value: outcome.clone(), last_used });
        outcome
    }

    /// Peek without measuring (still counts as a use for recency).
    pub fn get(&self, key: &CellKey) -> Option<Result<CellOutcome, TunerError>> {
        let mut map = self.map.lock().expect("cache poisoned");
        let entry = map.get_mut(key)?;
        entry.last_used = self.tick();
        Some(entry.value.clone())
    }

    /// Insert (or overwrite) an entry without touching the hit/miss
    /// counters — the preload path of [`crate::store`]. Last write wins
    /// on an existing key, which is safe because equal content keys
    /// imply bit-identical measurements.
    pub fn insert(&self, key: CellKey, value: Result<CellOutcome, TunerError>) {
        let last_used = self.tick();
        self.map.lock().expect("cache poisoned").insert(key, Entry { value, last_used });
    }

    /// Snapshot every entry (unordered) — the persistence path of
    /// [`crate::store`], which sorts by key before encoding.
    pub fn entries(&self) -> Vec<(CellKey, Result<CellOutcome, TunerError>)> {
        self.map
            .lock()
            .expect("cache poisoned")
            .iter()
            .map(|(k, e)| (*k, e.value.clone()))
            .collect()
    }

    /// Evict least-recently-used entries until at most `max_entries`
    /// remain; returns how many were dropped. Ties on the recency stamp
    /// break by key, so eviction is deterministic for a deterministic
    /// use history (concurrent workers race on the use-clock, which can
    /// reorder *which* cells survive — never what a surviving cell
    /// holds: any subset of a content-addressed cache is valid, so
    /// compaction affects future cost only, not results).
    pub fn compact(&self, max_entries: usize) -> u64 {
        let mut map = self.map.lock().expect("cache poisoned");
        if map.len() <= max_entries {
            return 0;
        }
        let mut order: Vec<(u64, CellKey)> = map.iter().map(|(k, e)| (e.last_used, *k)).collect();
        // Most recent first; keep the head.
        order.sort_by(|a, b| b.cmp(a));
        let evicted = order.split_off(max_entries);
        for (_, key) in &evicted {
            map.remove(key);
        }
        hmpt_obs::counter("cache.evict").add(evicted.len() as u64);
        evicted.len() as u64
    }

    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (counters keep accumulating).
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: f64) -> Result<CellOutcome, TunerError> {
        Ok(CellOutcome { time_s: t, hbm_fraction: 0.5 })
    }

    fn key(a: u64, b: u64, c: u64, d: u64) -> CellKey {
        (
            Fingerprint::from_raw(a),
            Fingerprint::from_raw(b),
            Fingerprint::from_raw(c),
            Fingerprint::from_raw(d),
        )
    }

    #[test]
    fn second_lookup_hits_without_measuring() {
        let cache = MeasurementCache::new();
        let mut calls = 0;
        let k = key(1, 2, 3, 4);
        for _ in 0..3 {
            let out = cache
                .get_or_measure(k, || {
                    calls += 1;
                    cell(1.5)
                })
                .unwrap();
            assert_eq!(out.time_s, 1.5);
        }
        assert_eq!(calls, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = MeasurementCache::new();
        cache.get_or_measure(key(1, 0, 0, 0), || cell(1.0)).unwrap();
        cache.get_or_measure(key(0, 1, 0, 0), || cell(2.0)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1, 0, 0, 0)).unwrap().unwrap().time_s, 1.0);
        assert_eq!(cache.get(&key(0, 1, 0, 0)).unwrap().unwrap().time_s, 2.0);
    }

    #[test]
    fn errors_are_cached_like_outcomes() {
        let cache = MeasurementCache::new();
        let k = key(9, 9, 9, 9);
        let mut calls = 0;
        for _ in 0..2 {
            let r = cache.get_or_measure(k, || {
                calls += 1;
                Err(TunerError::EmptyWorkload)
            });
            assert!(matches!(r, Err(TunerError::EmptyWorkload)));
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn compact_evicts_least_recently_used_first() {
        let cache = MeasurementCache::new();
        for i in 0..10 {
            cache.insert(key(i, 0, 0, 0), cell(i as f64));
        }
        // Refresh two old entries; they must outlive younger untouched ones.
        cache.get(&key(3, 0, 0, 0));
        cache.get(&key(7, 0, 0, 0));
        assert_eq!(cache.compact(4), 6);
        assert_eq!(cache.len(), 4);
        for survivor in [3, 7, 8, 9] {
            assert!(cache.get(&key(survivor, 0, 0, 0)).is_some(), "entry {survivor} must survive");
        }
        assert!(cache.get(&key(0, 0, 0, 0)).is_none());
        assert_eq!(cache.compact(10), 0, "under the cap, compaction is a no-op");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = MeasurementCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        let out =
                            cache.get_or_measure(key(i % 8, 0, 0, 0), || cell(i as f64 % 8.0));
                        // Whoever inserted first, the value is keyed by
                        // i % 8 in both key and payload.
                        assert_eq!(out.unwrap().time_s, (i % 8) as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.hits >= 400 - 4 * 8, "at most one miss per key per racing thread");
    }
}
