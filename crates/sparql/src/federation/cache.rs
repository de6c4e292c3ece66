//! The executor's answer cache: one LRU of endpoint probe answers.
//!
//! An entry is the rows one endpoint returned for one resolved (s, p, o)
//! pattern, keyed by the endpoint's slot in the engine and the three
//! positions. The slot, not the name, tells endpoints apart: two
//! endpoints may share a name (two `--data` files with the same stem)
//! and still hold different data. An endpoint's answer to a probe depends
//! only on that endpoint's data, never on the sameAs link index: links
//! decide *which* probes a query sends, not what a probe returns. So a
//! link mutation never stales an entry, and entries leave the cache only
//! through LRU eviction.
//!
//! The executor looks up and inserts only on the dispatching thread, in
//! endpoint then job order, so there is one lock and no sharding, and
//! hits, misses and evictions are the same at any thread count.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::value::Value;

use super::endpoint::{Probe, Rows};
use super::executor::lock_unpoisoned;

/// Counter snapshot returned by
/// [`FederatedEngine::cache_stats`](super::FederatedEngine::cache_stats).
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

/// An endpoint's slot in the engine plus the probe's three positions.
type Key = (usize, [Option<Value>; 3]);

fn key(endpoint: usize, probe: &Probe<'_>) -> Key {
    (endpoint, probe.map(Option::<&Value>::cloned))
}

/// An LRU holding at most `capacity` probe answers.
pub(crate) struct ProbeCache {
    capacity: usize,
    lru: Mutex<Lru>,
}

/// Both maps share each key, which is several times the size of a hash
/// table slot.
#[derive(Default)]
struct Lru {
    /// Each entry's rows and the tick of its last use.
    entries: HashMap<Arc<Key>, (u64, Rows)>,
    /// The entries by last use, least recent first.
    by_use: BTreeMap<u64, Arc<Key>>,
    tick: u64,
    stats: CacheStats,
}

impl ProbeCache {
    /// A cache holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        ProbeCache {
            capacity: capacity.max(1),
            lru: Mutex::new(Lru::default()),
        }
    }

    /// The rows cached for `probe` on endpoint slot `endpoint`; a hit
    /// makes the entry the most recently used.
    pub(crate) fn get(&self, endpoint: usize, probe: &Probe<'_>) -> Option<Rows> {
        let mut guard = lock_unpoisoned(&self.lru);
        let lru = &mut *guard;
        lru.tick += 1;
        let Some((last, rows)) = lru.entries.get_mut(&key(endpoint, probe)) else {
            lru.stats.misses += 1;
            return None;
        };
        if let Some(key) = lru.by_use.remove(last) {
            lru.by_use.insert(lru.tick, key);
        }
        *last = lru.tick;
        lru.stats.hits += 1;
        Some(rows.clone())
    }

    /// Cache `rows` for `probe` on endpoint slot `endpoint`, replacing any
    /// entry it had. Returns how many entries were evicted to make room.
    pub(crate) fn insert(&self, endpoint: usize, probe: &Probe<'_>, rows: Rows) -> u64 {
        let mut guard = lock_unpoisoned(&self.lru);
        let lru = &mut *guard;
        lru.tick += 1;
        let key = Arc::new(key(endpoint, probe));
        if let Some((last, _)) = lru.entries.remove(&key) {
            lru.by_use.remove(&last);
        }
        let mut evicted = 0;
        while lru.entries.len() >= self.capacity {
            let Some((_, oldest)) = lru.by_use.pop_first() else {
                break;
            };
            lru.entries.remove(&oldest);
            evicted += 1;
        }
        lru.by_use.insert(lru.tick, Arc::clone(&key));
        lru.entries.insert(key, (lru.tick, rows));
        lru.stats.evictions += evicted;
        evicted
    }

    /// The hit/miss/eviction counters and the resident entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        let lru = lock_unpoisoned(&self.lru);
        CacheStats {
            entries: lru.entries.len() as u64,
            ..lru.stats
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn rows(tag: &str) -> Rows {
        vec![[Value::plain(tag), Value::plain("p"), Value::plain("o")]]
    }

    fn probe(s: &Value) -> Probe<'_> {
        [Some(s), None, None]
    }

    #[test]
    fn get_after_insert_returns_value() {
        let cache = ProbeCache::new(16);
        let k1 = Value::plain("k1");
        assert!(cache.get(0, &probe(&k1)).is_none());
        cache.insert(0, &probe(&k1), rows("a"));
        assert_eq!(cache.get(0, &probe(&k1)), Some(rows("a")));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn replacement_updates_value() {
        let cache = ProbeCache::new(8);
        let k = Value::plain("k");
        cache.insert(0, &probe(&k), rows("a"));
        assert_eq!(cache.insert(0, &probe(&k), rows("b")), 0);
        assert_eq!(cache.get(0, &probe(&k)), Some(rows("b")));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let cache = ProbeCache::new(2);
        let [a, b, c] = ["a", "b", "c"].map(Value::plain);
        cache.insert(0, &probe(&a), rows("a"));
        cache.insert(0, &probe(&b), rows("b"));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get(0, &probe(&a)).is_some());
        assert_eq!(cache.insert(0, &probe(&c), rows("c")), 1);
        assert!(cache.get(0, &probe(&a)).is_some());
        assert!(cache.get(0, &probe(&b)).is_none());
        assert!(cache.get(0, &probe(&c)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = ProbeCache::new(0);
        let k = Value::plain("k");
        cache.insert(0, &probe(&k), rows("a"));
        assert!(cache.get(0, &probe(&k)).is_some());
    }

    #[test]
    fn endpoint_slots_keep_equal_probes_apart() {
        let cache = ProbeCache::new(8);
        let k = Value::plain("k");
        cache.insert(0, &probe(&k), rows("a"));
        cache.insert(1, &probe(&k), rows("b"));
        assert_eq!(cache.get(0, &probe(&k)), Some(rows("a")));
        assert_eq!(cache.get(1, &probe(&k)), Some(rows("b")));
        // A wildcard never aliases a bound position.
        assert!(cache.get(0, &[None, None, None]).is_none());
    }
}
