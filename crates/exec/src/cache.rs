//! Epoch-keyed hot-result cache for the query serving path.
//!
//! A [`ResultCache`] memoises expensive per-query artifacts (the facade
//! stores whole `ResultSet`s) under a [`CacheKey`] of
//! `(scope, epoch, canonical query)`. The epoch is the invalidation
//! contract: every publish or mutation bumps it, so a cached value can
//! be validated with one integer compare and stale entries simply stop
//! being addressable — there is no explicit invalidation path to get
//! wrong. The full canonical query string (not a hash of it) lives in
//! the key, so a 64-bit hash collision can never alias two different
//! queries to the same entry.
//!
//! The cache is one CLOCK ring behind one `Mutex`: the slots, the key
//! → slot map, the hand and the counters all live under that lock.
//! The batch scheduler probes the cache before a batch's parallel
//! section and fills it after, both on the calling thread, so the lock
//! is never contended there. The ring holds at most the requested
//! number of entries and evicts only when it holds that many, with the
//! **CLOCK** (second-chance) sweep — a ref bit per slot, set on hit,
//! cleared as the hand passes; the first un-referenced slot is
//! replaced. CLOCK gives LRU-like retention with O(1) amortised
//! eviction and no per-access list surgery.
//!
//! Hit/miss/insert/evict counts are plain integers under the lock
//! (cheap enough to leave always-on) and mirrored to `onion-obs`
//! counters (`onion_query_cache_*`) when recording is enabled, which
//! puts them in the Prometheus and JSON exports for free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: scope (graph / system id) + epoch + canonical query text.
///
/// Equality is exact on all three fields; the epoch component is what
/// makes invalidation free (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which graph or system the entry belongs to.
    pub scope: String,
    /// The state epoch the value was computed at.
    pub epoch: u64,
    /// The canonical (display-form) query text.
    pub query: String,
}

impl CacheKey {
    /// Builds a key from its three components.
    pub fn new(scope: impl Into<String>, epoch: u64, query: impl Into<String>) -> Self {
        CacheKey { scope: scope.into(), epoch, query: query.into() }
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (including epoch-mismatched keys).
    pub misses: u64,
    /// Values stored (first insert or overwrite of a live key).
    pub insertions: u64,
    /// Entries displaced by the CLOCK sweep to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Estimated bytes held by live entries right now.
    pub bytes: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups, `0.0` when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    key: CacheKey,
    value: Arc<V>,
    bytes: usize,
    referenced: bool,
}

/// Everything the cache's one lock guards.
struct Ring<V> {
    /// CLOCK ring; never longer than the cache's capacity.
    slots: Vec<Slot<V>>,
    /// Key → slot index within `slots`.
    index: HashMap<CacheKey, usize>,
    /// The CLOCK hand: next slot the eviction sweep examines.
    hand: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// Sum of the live slots' byte estimates.
    bytes: usize,
}

/// Bounded, epoch-keyed result cache. See the module docs.
pub struct ResultCache<V> {
    ring: Mutex<Ring<V>>,
    capacity: usize,
}

impl<V> std::fmt::Debug for ResultCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> ResultCache<V> {
    /// A cache bounded at `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ResultCache {
            ring: Mutex::new(Ring {
                slots: Vec::new(),
                index: HashMap::new(),
                hand: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                bytes: 0,
            }),
            capacity,
        }
    }

    /// The entry bound, as requested (min 1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring<V>> {
        self.ring.lock().expect("cache lock poisoned")
    }

    /// Looks `key` up, marking the entry recently-used on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut ring = self.ring();
        match ring.index.get(key).copied() {
            Some(i) => {
                ring.slots[i].referenced = true;
                ring.hits += 1;
                let v = Arc::clone(&ring.slots[i].value);
                drop(ring);
                onion_obs::count!("onion_query_cache_hits_total");
                Some(v)
            }
            None => {
                ring.misses += 1;
                drop(ring);
                onion_obs::count!("onion_query_cache_misses_total");
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting (CLOCK second-chance) if
    /// the cache is at its bound. `bytes` is the caller's size
    /// estimate, tracked in [`CacheStats::bytes`] and the
    /// `onion_query_cache_bytes` gauge.
    pub fn insert(&self, key: CacheKey, value: Arc<V>, bytes: usize) {
        let mut ring = self.ring();
        let mut evicted = false;
        if let Some(&i) = ring.index.get(&key) {
            // overwrite in place (same key, e.g. re-computed value)
            let old =
                std::mem::replace(&mut ring.slots[i], Slot { key, value, bytes, referenced: true });
            ring.bytes = ring.bytes - old.bytes + bytes;
        } else if ring.slots.len() < self.capacity {
            let i = ring.slots.len();
            ring.slots.push(Slot { key: key.clone(), value, bytes, referenced: true });
            ring.index.insert(key, i);
            ring.bytes += bytes;
        } else {
            // CLOCK sweep: clear ref bits until an unreferenced victim
            // turns up (bounded: after one full lap every bit is clear)
            loop {
                let h = ring.hand;
                ring.hand = (h + 1) % ring.slots.len();
                if ring.slots[h].referenced {
                    ring.slots[h].referenced = false;
                } else {
                    let old = std::mem::replace(
                        &mut ring.slots[h],
                        Slot { key: key.clone(), value, bytes, referenced: true },
                    );
                    ring.index.remove(&old.key);
                    ring.index.insert(key, h);
                    ring.bytes = ring.bytes - old.bytes + bytes;
                    ring.evictions += 1;
                    evicted = true;
                    break;
                }
            }
        }
        ring.insertions += 1;
        let (entries, held) = (ring.slots.len(), ring.bytes);
        drop(ring);
        onion_obs::count!("onion_query_cache_insertions_total");
        if evicted {
            onion_obs::count!("onion_query_cache_evictions_total");
        }
        onion_obs::gauge_set!("onion_query_cache_entries", entries);
        onion_obs::gauge_set!("onion_query_cache_bytes", held);
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.ring().slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters, read together under the cache's lock.
    pub fn stats(&self) -> CacheStats {
        let ring = self.ring();
        CacheStats {
            hits: ring.hits,
            misses: ring.misses,
            insertions: ring.insertions,
            evictions: ring.evictions,
            entries: ring.slots.len(),
            bytes: ring.bytes,
            capacity: self.capacity,
        }
    }

    /// Drops every entry (counters other than `entries`/`bytes` keep
    /// accumulating).
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.slots.clear();
        ring.index.clear();
        ring.hand = 0;
        ring.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, q: &str) -> CacheKey {
        CacheKey::new("test", epoch, q)
    }

    #[test]
    fn get_after_insert_hits_and_epoch_bump_misses() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        cache.insert(key(1, "q"), Arc::new(42), 8);
        assert_eq!(cache.get(&key(1, "q")).as_deref(), Some(&42));
        assert_eq!(cache.get(&key(2, "q")), None, "new epoch never sees old entries");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let cache: ResultCache<u64> = ResultCache::new(4);
        for i in 0..100u64 {
            cache.insert(key(1, &format!("q{i}")), Arc::new(i), 16);
        }
        let s = cache.stats();
        assert!(s.entries <= cache.capacity(), "entries {} > capacity {}", s.entries, s.capacity);
        assert_eq!(s.insertions, 100);
        assert!(s.evictions > 0, "churn past capacity must evict");
        assert_eq!(s.entries + s.evictions as usize, 100, "every insert lives or was evicted");
        assert_eq!(s.bytes, s.entries * 16);
    }

    #[test]
    fn capacity_is_exact_and_evicts_only_when_full() {
        for n in [1usize, 5, 32, 33] {
            let cache: ResultCache<u64> = ResultCache::new(n);
            assert_eq!(cache.capacity(), n);
            assert_eq!(cache.stats().capacity, n);
            for i in 0..(3 * n) {
                cache.insert(key(1, &format!("q{i}")), Arc::new(i as u64), 1);
                let s = cache.stats();
                let inserted = i + 1;
                assert!(s.entries <= n, "capacity {n}: {} entries after {inserted}", s.entries);
                if inserted <= n {
                    assert_eq!(s.evictions, 0, "capacity {n}: evicted with {inserted} held");
                    assert_eq!(s.entries, inserted, "capacity {n}");
                } else {
                    assert_eq!(s.entries, n, "capacity {n}: a full cache stays full");
                    assert_eq!(s.evictions as usize, inserted - n, "capacity {n}");
                }
            }
        }
    }

    #[test]
    fn clock_keeps_recently_hit_entries() {
        let cache: ResultCache<u64> = ResultCache::new(3);
        for (i, q) in ["k0", "k1", "k2"].into_iter().enumerate() {
            cache.insert(key(1, q), Arc::new(i as u64), 1);
        }
        // every slot was inserted referenced: the hand clears all three
        // bits in one lap and evicts the slot it started at
        cache.insert(key(1, "k3"), Arc::new(3), 1);
        assert!(cache.get(&key(1, "k0")).is_none());
        // a hit gives k1 a second chance over the younger, unhit k2
        assert!(cache.get(&key(1, "k1")).is_some());
        cache.insert(key(1, "k4"), Arc::new(4), 1);
        assert!(cache.get(&key(1, "k1")).is_some(), "the recently hit entry survives");
        assert!(cache.get(&key(1, "k2")).is_none(), "the unreferenced entry is the victim");
        assert!(cache.get(&key(1, "k3")).is_some());
        assert!(cache.get(&key(1, "k4")).is_some());
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn overwrite_same_key_updates_bytes_without_eviction() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        cache.insert(key(1, "q"), Arc::new(1), 100);
        cache.insert(key(1, "q"), Arc::new(2), 40);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 40);
        assert_eq!(s.evictions, 0);
        assert_eq!(cache.get(&key(1, "q")).as_deref(), Some(&2));
    }

    #[test]
    fn clear_empties_and_zeroes_gauges() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        for i in 0..5u64 {
            cache.insert(key(1, &format!("q{i}")), Arc::new(i), 10);
        }
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        assert!(cache.get(&key(1, "q0")).is_none());
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = key(1, &format!("q{}", i % 32));
                        if cache.get(&k).is_none() {
                            cache.insert(k, Arc::new(t * 1000 + i), 8);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert!(s.entries <= 32);
    }
}
