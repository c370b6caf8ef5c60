//! Sharded in-memory hot cache of fully rendered responses.
//!
//! The disk [`ResultCache`](crate::cache::ResultCache) is the source of
//! truth; this sits in front of it and holds the *final HTTP bytes* of
//! recently served reports — the `Arc<[u8]>` body plus both precomputed
//! response heads (keep-alive and close). A hit therefore costs two
//! `write_all` calls on the connection: no disk read, no JSON parse, no
//! re-serialize, no header formatting. Because cache keys are
//! content-addressed SHA-256 of the canonical spec, an entry can never
//! go stale — a key's value is immutable — so the hot cache needs no
//! invalidation protocol with the disk store, only a byte budget.
//!
//! Sharding: `SHARDS` independent `RwLock` maps, selected by the key's
//! leading hash bits (the keys are already uniformly distributed
//! SHA-256 hex). Hits take only the shard's *read* lock — recency is an
//! `AtomicU64` stamp ticked from a shared logical clock, the same
//! stamp-LRU idiom tet-mem uses for set-associative arrays. Inserts
//! take the write lock and evict minimum-stamp entries until the shard
//! is back under its slice of the byte budget.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::http::response_head;
use crate::sync;

/// Shard count: plenty for a thread-per-connection server on small
/// hosts, cheap when idle (an empty shard is one HashMap).
const SHARDS: usize = 16;

/// Counters served by `GET /v1/cache/stats` (prefixed `hot_`) and the
/// Prometheus endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that fell through (to the disk store or the scheduler).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Resident bytes (bodies + precomputed heads).
    pub bytes: u64,
    /// Entries inserted since start.
    pub insertions: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes released by eviction.
    pub evicted_bytes: u64,
}

/// One fully rendered 200 response: shared body bytes plus both
/// connection flavors of the head, built exactly once.
#[derive(Debug)]
pub struct HotEntry {
    head_keep: Box<str>,
    head_close: Box<str>,
    body: Arc<[u8]>,
}

impl HotEntry {
    /// Renders a JSON body into a reusable entry.
    pub fn json(body: &str) -> Arc<HotEntry> {
        Arc::new(HotEntry {
            head_keep: response_head(200, "application/json", body.len(), false).into(),
            head_close: response_head(200, "application/json", body.len(), true).into(),
            body: Arc::from(body.as_bytes()),
        })
    }

    /// The stored body bytes (what a cold response's body was).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Writes the complete response. Two `write_all`s of bytes built at
    /// insert time — the zero-copy fast path.
    pub fn write_to(&self, w: &mut impl Write, close: bool) {
        let head = if close {
            &self.head_close
        } else {
            &self.head_keep
        };
        let _ = w.write_all(head.as_bytes());
        let _ = w.write_all(&self.body);
        let _ = w.flush();
    }

    /// What this entry charges against the byte budget.
    fn cost(&self) -> u64 {
        (self.body.len() + self.head_keep.len() + self.head_close.len()) as u64
    }
}

struct Slot {
    entry: Arc<HotEntry>,
    /// Logical-clock stamp of the most recent touch. Atomic so a read-lock
    /// holder can refresh recency without upgrading to a write lock.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Slot>,
    bytes: u64,
}

/// The sharded hot cache.
pub struct HotCache {
    shards: Vec<RwLock<Shard>>,
    /// Shared logical clock for LRU stamps.
    clock: AtomicU64,
    /// Per-shard byte budget (`max_bytes / shards`); 0 = unlimited.
    shard_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl HotCache {
    /// A hot cache with `max_bytes` total budget (0 = unlimited).
    pub fn new(max_bytes: u64) -> HotCache {
        HotCache::with_shards(max_bytes, SHARDS)
    }

    fn with_shards(max_bytes: u64, shards: usize) -> HotCache {
        let shards = shards.max(1);
        HotCache {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            shard_budget: if max_bytes == 0 {
                0
            } else {
                (max_bytes / shards as u64).max(1)
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &str) -> &RwLock<Shard> {
        // Keys are SHA-256 hex: the first byte is already uniform.
        let b = key.as_bytes().first().copied().unwrap_or(0);
        let i = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            other => other,
        } as usize;
        &self.shards[i % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks `key` up; a hit refreshes its LRU stamp under the shard's
    /// read lock only.
    pub fn get(&self, key: &str) -> Option<Arc<HotEntry>> {
        let shard = sync::read(self.shard_of(key));
        match shard.map.get(key) {
            Some(slot) => {
                slot.stamp.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-touched
    /// entries until the shard fits its budget slice again. The entry
    /// just inserted is never its own eviction victim, so a single
    /// over-budget entry is kept (the budget is a soft per-entry cap,
    /// a hard steady-state cap).
    pub fn insert(&self, key: &str, entry: Arc<HotEntry>) {
        let cost = entry.cost();
        let stamp = self.tick();
        let mut shard = sync::write(self.shard_of(key));
        let old = shard.map.insert(
            key.to_string(),
            Slot {
                entry,
                stamp: AtomicU64::new(stamp),
            },
        );
        shard.bytes += cost;
        if let Some(old) = old {
            shard.bytes -= old.entry.cost();
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while self.shard_budget != 0 && shard.bytes > self.shard_budget && shard.map.len() > 1 {
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(slot) = shard.map.remove(&victim) {
                let freed = slot.entry.cost();
                shard.bytes -= freed;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
            }
        }
    }

    /// Current counters (entry/byte totals walk the shards).
    pub fn stats(&self) -> HotCacheStats {
        let (mut entries, mut bytes) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = sync::read(shard);
            entries += shard.map.len() as u64;
            bytes += shard.bytes;
        }
        HotCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes,
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_bytes_without_copying() {
        let cache = HotCache::new(0);
        let body = "{\"x\": 1}";
        cache.insert("k1", HotEntry::json(body));
        let a = cache.get("k1").expect("hit");
        let b = cache.get("k1").expect("hit");
        assert_eq!(a.body(), body.as_bytes());
        // Both hits share one allocation — the zero-copy property.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 2);
        assert!(cache.get("absent").is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn write_to_emits_a_complete_http_response() {
        let entry = HotEntry::json("{\"ok\": true}");
        for (close, want) in [
            (false, "connection: keep-alive"),
            (true, "connection: close"),
        ] {
            let mut out = Vec::new();
            entry.write_to(&mut out, close);
            let text = String::from_utf8(out).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
            assert!(text.contains(want), "{text}");
            assert!(text.contains("content-length: 12\r\n"), "{text}");
            assert!(text.ends_with("\r\n\r\n{\"ok\": true}"), "{text:?}");
        }
    }

    #[test]
    fn eviction_follows_the_lru_stamps() {
        // One shard, budget for roughly two entries.
        let entry = |tag: &str| HotEntry::json(&format!("{{\"tag\": \"{tag}\", \"pad\": 0}}"));
        let cost = entry("a").cost();
        let cache = HotCache::with_shards(cost * 2 + cost / 2, 1);
        cache.insert("a", entry("a"));
        cache.insert("b", entry("b"));
        // Touch `a` so `b` becomes the LRU victim.
        cache.get("a").unwrap();
        cache.insert("c", entry("c"));
        assert!(cache.get("a").is_some(), "recently touched entry survives");
        assert!(cache.get("b").is_none(), "LRU entry was evicted");
        assert!(cache.get("c").is_some(), "new entry is resident");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.evicted_bytes >= cost);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= cost * 2 + cost / 2);
    }

    #[test]
    fn an_oversized_entry_is_kept_not_thrashed() {
        let cache = HotCache::with_shards(8, 1);
        cache.insert("big", HotEntry::json("{\"big\": \"body body body\"}"));
        assert!(
            cache.get("big").is_some(),
            "a single over-budget entry stays resident"
        );
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn replacing_a_key_does_not_leak_bytes() {
        let cache = HotCache::with_shards(0, 1);
        cache.insert("k", HotEntry::json("{\"v\": 1}"));
        let after_first = cache.stats().bytes;
        cache.insert("k", HotEntry::json("{\"v\": 2}"));
        assert_eq!(cache.stats().bytes, after_first);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = HotCache::new(0);
        for k in ["0aaa", "5bbb", "accc", "fddd"] {
            cache.insert(k, HotEntry::json("{}"));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !sync::read(s).map.is_empty())
            .count();
        assert_eq!(
            populated, 4,
            "distinct leading nibbles map to distinct shards"
        );
    }
}
