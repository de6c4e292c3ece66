//! Sharded, thread-safe LRU answer cache.
//!
//! `alex-cache` is a zero-dependency building block for the federated
//! executor: it maps string keys (one per endpoint probe) to immutable
//! answers. Entries never need invalidating: a key names everything its
//! answer depends on, so an entry only leaves the cache through LRU
//! eviction.
//!
//! The cache is sharded by key hash: each shard holds its own LRU list
//! behind its own mutex, so concurrent readers on different shards never
//! contend. Values are stored as [`Arc`]s, so a hit is a pointer clone
//! and entries stay immutable after insertion. Capacity is bounded per
//! shard (total capacity divided evenly); insertion past capacity evicts
//! the shard's least-recently-used entry.
//!
//! Hit/miss/eviction totals are tracked with relaxed atomics and exposed
//! via [`AnswerCache::stats`]; callers mirror them into whatever
//! telemetry registry they use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sentinel slot index meaning "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Counter snapshot returned by [`AnswerCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by LRU capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// One cached entry plus its intrusive LRU links.
struct Slot<V> {
    key: String,
    value: Arc<V>,
    prev: usize,
    next: usize,
}

/// One lock domain: key map, slot slab, and LRU list.
struct Shard<V> {
    map: HashMap<String, usize>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

impl<V> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Detach `idx` from the LRU list (it must currently be linked).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = match &self.slots[idx] {
            Some(slot) => (slot.prev, slot.next),
            None => return,
        };
        match prev {
            NIL => self.head = next,
            p => {
                if let Some(s) = self.slots[p].as_mut() {
                    s.next = next;
                }
            }
        }
        match next {
            NIL => self.tail = prev,
            n => {
                if let Some(s) = self.slots[n].as_mut() {
                    s.prev = prev;
                }
            }
        }
    }

    /// Link `idx` at the head (most recently used end) of the LRU list.
    fn link_front(&mut self, idx: usize) {
        let old_head = self.head;
        if let Some(s) = self.slots[idx].as_mut() {
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => {
                if let Some(s) = self.slots[h].as_mut() {
                    s.prev = idx;
                }
            }
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.link_front(idx);
    }

    /// Remove the slot entirely: LRU list, key map, slab.
    fn remove_slot(&mut self, idx: usize) {
        self.unlink(idx);
        let Some(slot) = self.slots[idx].take() else {
            return;
        };
        self.map.remove(&slot.key);
        self.free.push(idx);
    }

    fn get(&mut self, key: &str) -> Option<Arc<V>> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        self.slots[idx].as_ref().map(|s| Arc::clone(&s.value))
    }

    /// Insert (or replace) `key`; returns how many entries LRU-evicted.
    fn insert(&mut self, key: &str, value: Arc<V>) -> usize {
        if let Some(&idx) = self.map.get(key) {
            // Replacement: drop the old entry, then insert fresh.
            self.remove_slot(idx);
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let tail = self.tail;
            if tail == NIL {
                break;
            }
            self.remove_slot(tail);
            evicted += 1;
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(Slot {
            key: key.to_string(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key.to_string(), idx);
        self.link_front(idx);
        evicted
    }
}

/// Sharded, thread-safe LRU cache keyed by string fingerprints.
///
/// `V` is the answer type; the cache stores `Arc<V>` so hits are
/// cheap and entries are immutable once inserted.
pub struct AnswerCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> std::fmt::Debug for AnswerCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// FNV-1a over the key bytes: deterministic across runs and platforms,
/// so shard assignment (and therefore eviction order) is reproducible.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<V> AnswerCache<V> {
    /// Default shard count: enough to spread a few worker threads
    /// without splintering tiny capacities.
    const DEFAULT_SHARDS: usize = 8;

    /// Create a cache holding at most `capacity` entries total, with a
    /// default shard count. Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// Create a cache with an explicit shard count (clamped to ≥ 1).
    /// Total capacity is divided evenly; each shard gets at least 1.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let per_shard = capacity.div_ceil(shards);
        AnswerCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> MutexGuard<'_, Shard<V>> {
        let idx = (fnv1a(key) % self.shards.len() as u64) as usize;
        lock_unpoisoned(&self.shards[idx])
    }

    /// Total entry capacity across all shards (as configured).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, refreshing its LRU position on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let found = self.shard(key).get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert `value` under `key`. Returns the number of entries evicted
    /// by capacity pressure.
    pub fn insert(&self, key: &str, value: V) -> usize {
        let evicted = self.shard(key).insert(key, Arc::new(value));
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).map.len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Recover the guard even if a holder panicked: shard state is kept
/// structurally consistent before every unlock, so the data is usable.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_returns_value() {
        let cache: AnswerCache<Vec<u32>> = AnswerCache::new(16);
        assert!(cache.get("k1").is_none());
        cache.insert("k1", vec![1, 2, 3]);
        assert_eq!(cache.get("k1").as_deref(), Some(&vec![1, 2, 3]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn replacement_updates_value() {
        let cache: AnswerCache<u32> = AnswerCache::with_shards(8, 1);
        cache.insert("k", 1);
        cache.insert("k", 2);
        assert_eq!(cache.get("k").as_deref(), Some(&2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let cache: AnswerCache<u32> = AnswerCache::with_shards(2, 1);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get("a").is_some());
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, 1);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let cache: AnswerCache<u32> = AnswerCache::with_shards(2, 1);
        for i in 0..100 {
            cache.insert(&format!("k{i}"), i);
        }
        let shard = lock_unpoisoned(&cache.shards[0]);
        assert!(
            shard.slots.len() <= 3,
            "slab should recycle slots, got {}",
            shard.slots.len()
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache: AnswerCache<u32> = AnswerCache::new(0);
        cache.insert("k", 1);
        assert!(cache.get("k").is_some());
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let cache: Arc<AnswerCache<u64>> = Arc::new(AnswerCache::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = format!("k{}", (t * 200 + i) % 97);
                    cache.insert(&key, t * 1000 + i);
                    cache.get(&key);
                }
            }));
        }
        for h in handles {
            h.join().ok();
        }
        assert!(cache.len() <= 64);
        let stats = cache.stats();
        assert!(stats.hits + stats.misses >= 800);
    }

    #[test]
    fn shard_selection_is_deterministic() {
        // FNV-1a must not vary across runs: same key, same shard, same
        // eviction behaviour — reproducibility depends on it.
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }
}
