//! A small, dependency-free LRU cache for the process-resident memos.
//!
//! Three caches are bounded by this policy so a daemon serving an
//! unbounded request stream holds a bounded working set: the source cache
//! (parsed benchmarks + MAXLIVE) and the allocation-result cache of a
//! compile session, and the remapping search cache that session shares
//! with its workers (`dra_regalloc::remap::RemapCache`). It lives at the
//! bottom of the crate graph so the search cache can use it. The
//! figure/table batch pipelines touch at most a few hundred distinct
//! keys, below every default capacity, so for them the bound is inert:
//! hit and miss counts are unchanged and `evictions` stays zero, keeping
//! the batch telemetry contract (counters are schedule-invariant) intact.
//!
//! The implementation is a `HashMap` of values stamped with a logical
//! access clock plus a `BTreeMap` recency index (stamp → key): `get` and
//! `insert` are O(log n), eviction pops the smallest stamp. No wall
//! clock, no randomness — eviction order is a pure function of the access
//! sequence, which keeps cache behavior reproducible under the
//! deterministic load harness.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A least-recently-used cache with a fixed entry capacity.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Recency index: access stamp → key. Stamps are unique (the clock
    /// only moves forward), so this is a total order of staleness.
    recency: BTreeMap<u64, K>,
    clock: u64,
    capacity: usize,
    evictions: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    stamp: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some(slot) => {
                self.recency.remove(&slot.stamp);
                slot.stamp = clock;
                self.recency.insert(clock, key.clone());
                Some(&slot.value)
            }
            None => None,
        }
    }

    /// True when `key` is cached, without touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key`, evicting the least-recently-used entry if the cache
    /// is full and `key` is new. An existing key is overwritten in place
    /// (and marked most-recently-used) without eviction.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.map.get_mut(&key) {
            self.recency.remove(&slot.stamp);
            slot.stamp = clock;
            slot.value = value;
            self.recency.insert(clock, key);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((_, stale)) = self.recency.pop_first() {
                self.map.remove(&stale);
                self.evictions += 1;
            }
        }
        self.map.insert(key.clone(), Slot { value, stamp: clock });
        self.recency.insert(clock, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_insert_roundtrip() {
        let mut c: LruCache<&str, u32> = LruCache::new(4);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 is the LRU entry.
        assert_eq!(c.get(&1), Some(&10));
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&2), None, "LRU entry evicted");
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&1), Some(&11));
        // The overwrite refreshed 1; 2 is now the LRU entry.
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn capacity_one_always_holds_the_latest() {
        let mut c: LruCache<u32, u32> = LruCache::new(0); // clamped to 1
        assert_eq!(c.capacity(), 1);
        for i in 0..10 {
            c.insert(i, i);
            assert_eq!(c.get(&i), Some(&i));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.evictions(), 9);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same access sequence → same eviction victims, twice over.
        let run = || {
            let mut c: LruCache<u32, u32> = LruCache::new(3);
            let mut survivors = Vec::new();
            for i in 0..10 {
                c.insert(i, i);
                c.get(&(i / 2));
            }
            for i in 0..10 {
                if c.contains(&i) {
                    survivors.push(i);
                }
            }
            (survivors, c.evictions())
        };
        assert_eq!(run(), run());
    }
}
