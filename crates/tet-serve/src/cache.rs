//! Disk-backed, content-addressed RunReport cache with size-capped
//! stamp-LRU eviction.
//!
//! One file per cache key under `target/serve-cache/` (overridable with
//! `TET_SERVE_CACHE`), named `<hex-sha256>.json`, holding the serialized
//! [`tet_obs::RunReport`] exactly as it is served — a hit returns the
//! stored bytes untouched, so a cached response is byte-identical to the
//! cold response that populated it. An in-memory index (key → size +
//! recency stamp) avoids touching the filesystem to answer "is this
//! cached?"; bodies stay on disk so a long-lived server's memory does
//! not grow with its history.
//!
//! Integrity: every body is stored with a SHA-256 sidecar,
//! `<hex-sha256>.sha256`, written before the body's rename so it
//! survives a restart. Every disk read re-hashes the body against it; a
//! truncated or bit-flipped entry (or one missing its sidecar) is moved
//! aside to `<key>.corrupt`, dropped from the index, counted in
//! [`CacheStats::corrupt`] and reported as a miss, so the submit
//! recomputes the report instead of serving wrong bytes. `<key>.tmp`
//! files left by a write that was killed mid-way are deleted on open.
//!
//! Eviction: an optional byte budget (`TET_SERVE_CACHE_BYTES`, or
//! [`ResultCache::open_capped`]) bounds the store. Every entry carries a
//! monotonic logical-clock stamp refreshed on each hit — the same
//! stamp-LRU idiom tet-mem's replacement arrays use — and inserts that
//! push the store over budget evict minimum-stamp entries (file deleted,
//! index dropped, counters bumped) until it fits. The entry just written
//! is never its own victim, so one oversized report is stored rather
//! than thrashed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::sha::sha256_hex;
use crate::sync;

/// Cache hit/miss/size/eviction counters, served by `GET /v1/cache/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (disk reads plus hot-cache hits
    /// recorded via [`ResultCache::record_external_hit`]).
    pub hits: u64,
    /// Lookups that missed and went to the scheduler.
    pub misses: u64,
    /// Entries currently indexed.
    pub entries: u64,
    /// Total stored bytes across entries.
    pub bytes: u64,
    /// Byte budget (0 = unlimited).
    pub max_bytes: u64,
    /// Entries evicted to stay under the budget.
    pub evictions: u64,
    /// Bytes released by eviction.
    pub evicted_bytes: u64,
    /// Entries whose body failed its digest check and were moved aside.
    pub corrupt: u64,
}

/// The content-addressed result store.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Byte budget; 0 = unlimited.
    max_bytes: u64,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    /// Logical-clock stamp of the most recent touch.
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    index: HashMap<String, Entry>,
    /// Sum of indexed entry sizes (kept incrementally).
    bytes: u64,
    /// Monotonic logical clock feeding the LRU stamps.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_bytes: u64,
    corrupt: u64,
}

impl CacheInner {
    fn touch(&mut self, key: &str) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(e) = self.index.get_mut(key) {
            e.stamp = stamp;
        }
    }

    /// Drops `key` from the index, if present.
    fn forget(&mut self, key: &str) {
        if let Some(entry) = self.index.remove(key) {
            self.bytes -= entry.size;
        }
    }
}

/// Whether `stem` is a well-formed key (64 hex chars).
fn is_key(stem: &str) -> bool {
    stem.len() == 64 && stem.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The default cache directory, honoring `TET_SERVE_CACHE`.
pub fn default_dir() -> PathBuf {
    std::env::var_os("TET_SERVE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/serve-cache"))
}

/// The one parse rule for the serve byte budgets
/// (`TET_SERVE_CACHE_BYTES`, `TET_SERVE_HOT_BYTES`): `raw` is the
/// variable's value, if set. Unset or blank gives `default`; a
/// non-negative integer is the budget; anything else is an error naming
/// the variable, so the caller can warn instead of guessing.
pub fn parse_budget(name: &str, raw: Option<String>, default: u64) -> Result<u64, String> {
    match raw {
        Some(v) if !v.trim().is_empty() => v
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("{name}={v:?}: {e}")),
        _ => Ok(default),
    }
}

impl ResultCache {
    /// Opens (and creates if needed) an *unlimited* cache at `dir` —
    /// see [`ResultCache::open_capped`] for the budgeted form.
    pub fn open(dir: &Path) -> Result<ResultCache, String> {
        ResultCache::open_capped(dir, 0)
    }

    /// Opens (and creates if needed) the cache at `dir`, indexing any
    /// entries a previous server left behind and evicting immediately
    /// if they already exceed `max_bytes` (0 = unlimited). Errors are
    /// one-line diagnostics naming the offending path.
    pub fn open_capped(dir: &Path, max_bytes: u64) -> Result<ResultCache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let mut inner = CacheInner::default();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("read cache dir {}: {e}", dir.display()))?;
        // Re-index leftovers in (name, mtime) order so their stamps
        // approximate last-use recency across a restart.
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // Only well-formed keys are re-indexed or cleaned up;
            // anything else in the directory is ignored, not trusted.
            if !is_key(stem) {
                continue;
            }
            let ext = path.extension().and_then(|x| x.to_str());
            if ext == Some("tmp") {
                // A write killed before its rename: never a valid entry.
                if let Err(e) = std::fs::remove_file(&path) {
                    eprintln!("warning: removing stale {}: {e}", path.display());
                }
            } else if ext == Some("json") {
                let meta = entry.metadata().ok();
                let size = meta.as_ref().map(|m| m.len()).unwrap_or(0);
                let mtime = meta
                    .and_then(|m| m.modified().ok())
                    .unwrap_or(std::time::UNIX_EPOCH);
                found.push((stem.to_string(), size, mtime));
            }
        }
        found.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (key, size, _) in found {
            inner.clock += 1;
            let stamp = inner.clock;
            inner.bytes += size;
            inner.index.insert(key, Entry { size, stamp });
        }
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            max_bytes,
            inner: Mutex::new(inner),
        };
        // A shrunken budget applies to leftovers too.
        cache.enforce_budget(&mut sync::lock(&cache.inner), None);
        Ok(cache)
    }

    /// The file path of a key's entry.
    fn path_of(&self, key: &str) -> PathBuf {
        self.file_of(key, "json")
    }

    /// The path of a key's `ext` file: its body (`json`), digest
    /// sidecar (`sha256`), in-flight write (`tmp`) or quarantined body
    /// (`corrupt`).
    fn file_of(&self, key: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ext}"))
    }

    /// Reads `key`'s body and checks it against its digest sidecar. A
    /// missing file drops the entry from the index; a body that fails
    /// the check (or has no sidecar) is moved aside to `<key>.corrupt`,
    /// dropped and counted. Either way the caller sees a miss.
    fn read_verified(&self, key: &str) -> Option<String> {
        let path = self.path_of(key);
        let body = match std::fs::read(&path) {
            Ok(body) => body,
            Err(e) => {
                // Index said yes but the file is gone (external cleanup):
                // heal the index and treat as a miss.
                eprintln!(
                    "warning: cache entry {} unreadable: {e} (dropping from index)",
                    path.display()
                );
                sync::lock(&self.inner).forget(key);
                return None;
            }
        };
        let sidecar = std::fs::read_to_string(self.file_of(key, "sha256")).unwrap_or_default();
        if sidecar.trim() == sha256_hex(&body) {
            if let Ok(body) = String::from_utf8(body) {
                return Some(body);
            }
        }
        let aside = self.file_of(key, "corrupt");
        eprintln!(
            "warning: cache entry {} fails its digest check (moved to {})",
            path.display(),
            aside.display()
        );
        let mut inner = sync::lock(&self.inner);
        inner.forget(key);
        inner.corrupt += 1;
        let _ = std::fs::rename(&path, &aside);
        let _ = std::fs::remove_file(self.file_of(key, "sha256"));
        None
    }

    /// Evicts minimum-stamp entries (skipping `keep`) until the store
    /// fits the budget. Call with the lock held.
    fn enforce_budget(&self, inner: &mut CacheInner, keep: Option<&str>) {
        while self.max_bytes != 0 && inner.bytes > self.max_bytes && inner.index.len() > 1 {
            let victim = inner
                .index
                .iter()
                .filter(|(k, _)| Some(k.as_str()) != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.index.remove(&victim) {
                inner.bytes -= entry.size;
                inner.evictions += 1;
                inner.evicted_bytes += entry.size;
            }
            if let Err(e) = std::fs::remove_file(self.path_of(&victim)) {
                eprintln!(
                    "warning: evicting cache entry {}: {e}",
                    self.path_of(&victim).display()
                );
            }
            let _ = std::fs::remove_file(self.file_of(&victim, "sha256"));
        }
    }

    /// Looks `key` up, counting a hit or miss and refreshing its LRU
    /// stamp. A hit returns the stored bytes exactly as written; an
    /// entry that is gone or fails its digest check counts as a miss.
    pub fn get(&self, key: &str) -> Option<String> {
        let indexed = {
            let mut inner = sync::lock(&self.inner);
            let indexed = inner.index.contains_key(key);
            if indexed {
                inner.hits += 1;
                inner.touch(key);
            } else {
                inner.misses += 1;
            }
            indexed
        };
        if !indexed {
            return None;
        }
        let body = self.read_verified(key);
        if body.is_none() {
            let mut inner = sync::lock(&self.inner);
            inner.hits -= 1;
            inner.misses += 1;
        }
        body
    }

    /// Counts a hit that was answered upstream (the in-memory hot
    /// cache) without reading the disk copy, and refreshes the entry's
    /// LRU stamp so eviction sees hot keys as recently used. The hot
    /// entry may legitimately outlive an evicted disk entry — keys are
    /// content-addressed, so the bytes are still correct — in which
    /// case only the counter moves.
    pub fn record_external_hit(&self, key: &str) {
        let mut inner = sync::lock(&self.inner);
        inner.hits += 1;
        inner.touch(key);
    }

    /// Whether `key` is cached, without counting a lookup.
    pub fn contains(&self, key: &str) -> bool {
        sync::lock(&self.inner).index.contains_key(key)
    }

    /// Reads `key`'s entry without counting a hit or miss — for report
    /// fetches of an already-resolved job, where the cache decision was
    /// made (and counted) at submit time. Still refreshes the LRU stamp:
    /// a fetched report is a used report. Verified like
    /// [`ResultCache::get`].
    pub fn peek(&self, key: &str) -> Option<String> {
        {
            let mut inner = sync::lock(&self.inner);
            if !inner.index.contains_key(key) {
                return None;
            }
            inner.touch(key);
        }
        self.read_verified(key)
    }

    /// Stores `body` under `key` (write-to-temp + rename, so a reader
    /// never sees a half-written entry; the digest sidecar is written
    /// before the rename), indexes it, and evicts LRU entries if the
    /// budget is now exceeded.
    pub fn put(&self, key: &str, body: &str) -> Result<(), String> {
        let path = self.path_of(key);
        let tmp = self.file_of(key, "tmp");
        let sidecar = self.file_of(key, "sha256");
        std::fs::write(&tmp, body).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::write(&sidecar, sha256_hex(body.as_bytes()))
            .map_err(|e| format!("write {}: {e}", sidecar.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
        let mut inner = sync::lock(&self.inner);
        inner.clock += 1;
        let stamp = inner.clock;
        let size = body.len() as u64;
        if let Some(old) = inner.index.insert(key.to_string(), Entry { size, stamp }) {
            inner.bytes -= old.size;
        }
        inner.bytes += size;
        self.enforce_budget(&mut inner, Some(key));
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = sync::lock(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.index.len() as u64,
            bytes: inner.bytes,
            max_bytes: self.max_bytes,
            evictions: inner.evictions,
            evicted_bytes: inner.evicted_bytes,
            corrupt: inner.corrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tet_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const KEY: &str = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

    /// Distinct well-formed keys for eviction tests.
    fn key_n(n: u8) -> String {
        format!("{:064x}", n as u128 + 1)
    }

    #[test]
    fn round_trips_and_counts() {
        let dir = tmpdir("rt");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.get(KEY), None);
        cache.put(KEY, "{\"x\":1}").unwrap();
        assert_eq!(cache.get(KEY).as_deref(), Some("{\"x\":1}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 7);
        assert_eq!(stats.max_bytes, 0);
        assert_eq!(stats.evictions, 0);

        // A fresh instance over the same directory re-indexes the entry.
        let reopened = ResultCache::open(&dir).unwrap();
        assert!(reopened.contains(KEY));
        assert_eq!(reopened.get(KEY).as_deref(), Some("{\"x\":1}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn junk_files_are_not_indexed() {
        let dir = tmpdir("junk");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notakey.json"), "{}").unwrap();
        std::fs::write(dir.join("README.txt"), "hi").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.stats().entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_heals_the_index() {
        let dir = tmpdir("heal");
        let cache = ResultCache::open(&dir).unwrap();
        cache.put(KEY, "{}").unwrap();
        std::fs::remove_file(dir.join(format!("{KEY}.json"))).unwrap();
        assert_eq!(cache.get(KEY), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damages `KEY`'s stored body, reopens the cache over the same
    /// directory, and checks that the next read (`get`, or the
    /// uncounted `peek`) treats the entry as corrupt: a miss, moved
    /// aside, dropped from the index and counted — and that a re-put
    /// entry is trusted again.
    fn assert_damage_is_caught(tag: &str, via_peek: bool, damage: impl FnOnce(&mut Vec<u8>)) {
        let dir = tmpdir(tag);
        let body = "{\"report\": 12345}";
        ResultCache::open(&dir).unwrap().put(KEY, body).unwrap();
        let path = dir.join(format!("{KEY}.json"));
        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.contains(KEY), "a restart re-indexes the entry");
        let read = if via_peek {
            cache.peek(KEY)
        } else {
            cache.get(KEY)
        };
        assert_eq!(read, None, "a damaged body must never be served");
        let stats = cache.stats();
        assert_eq!((stats.corrupt, stats.entries, stats.bytes), (1, 0, 0));
        assert_eq!((stats.hits, stats.misses), (0, u64::from(!via_peek)));
        assert!(!path.exists());
        assert_eq!(
            std::fs::read(dir.join(format!("{KEY}.corrupt"))).unwrap(),
            bytes
        );

        cache.put(KEY, body).unwrap();
        assert_eq!(cache.get(KEY).as_deref(), Some(body));
        assert_eq!(cache.stats().corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_entry_is_moved_aside_and_missed() {
        assert_damage_is_caught("truncated", false, |b| b.truncate(b.len() / 2));
    }

    #[test]
    fn a_flipped_byte_is_moved_aside_and_missed() {
        assert_damage_is_caught("flipped", false, |b| b[3] ^= 0x01);
        assert_damage_is_caught("flipped_peek", true, |b| b[3] ^= 0x01);
    }

    #[test]
    fn open_deletes_stale_tmp_files() {
        let dir = tmpdir("stale_tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!("{KEY}.tmp"));
        std::fs::write(&stale, "{\"half").unwrap();
        std::fs::write(dir.join("notakey.tmp"), "x").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(!stale.exists(), "a killed write's temp file is removed");
        assert!(
            dir.join("notakey.tmp").exists(),
            "foreign files are left alone"
        );
        assert_eq!(cache.stats().entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_reports_unusable_dir() {
        // A file where the directory should be.
        let path = std::env::temp_dir().join(format!("tet_serve_notadir_{}", std::process::id()));
        std::fs::write(&path, "x").unwrap();
        let err = ResultCache::open(&path).unwrap_err();
        assert!(err.contains("cache dir"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_evicts_the_least_recently_used_entry() {
        let dir = tmpdir("evict");
        // Budget fits two 8-byte bodies, not three.
        let cache = ResultCache::open_capped(&dir, 20).unwrap();
        cache.put(&key_n(1), "{\"n\": 1}").unwrap();
        cache.put(&key_n(2), "{\"n\": 2}").unwrap();
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(cache.get(&key_n(1)).is_some());
        cache.put(&key_n(3), "{\"n\": 3}").unwrap();

        assert!(cache.contains(&key_n(1)), "recently used entry survives");
        assert!(!cache.contains(&key_n(2)), "LRU entry evicted");
        assert!(cache.contains(&key_n(3)), "new entry kept");
        assert!(
            !dir.join(format!("{}.json", key_n(2))).exists(),
            "eviction deletes the file"
        );
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.evicted_bytes, 8);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_hits_refresh_recency() {
        let dir = tmpdir("exthit");
        let cache = ResultCache::open_capped(&dir, 20).unwrap();
        cache.put(&key_n(1), "{\"n\": 1}").unwrap();
        cache.put(&key_n(2), "{\"n\": 2}").unwrap();
        // A hot-cache hit on entry 1 must protect it from eviction.
        cache.record_external_hit(&key_n(1));
        cache.put(&key_n(3), "{\"n\": 3}").unwrap();
        assert!(cache.contains(&key_n(1)));
        assert!(!cache.contains(&key_n(2)));
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_entry_is_stored_not_thrashed() {
        let dir = tmpdir("oversize");
        let cache = ResultCache::open_capped(&dir, 4).unwrap();
        cache.put(&key_n(1), "{\"big\": \"entry\"}").unwrap();
        assert!(cache.contains(&key_n(1)));
        assert_eq!(cache.stats().evictions, 0);
        // The next put displaces it: now there is a newer entry to keep.
        cache.put(&key_n(2), "{\"n\": 2}").unwrap();
        assert!(!cache.contains(&key_n(1)));
        assert!(cache.contains(&key_n(2)));
        assert_eq!(cache.stats().evictions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_under_a_smaller_budget_trims_leftovers() {
        let dir = tmpdir("reopen_trim");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.put(&key_n(1), "{\"n\": 1}").unwrap();
            cache.put(&key_n(2), "{\"n\": 2}").unwrap();
            cache.put(&key_n(3), "{\"n\": 3}").unwrap();
        }
        let cache = ResultCache::open_capped(&dir, 20).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 20);
        assert_eq!(stats.evictions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_max_bytes_parses_the_env_contract() {
        let parse = |raw: Option<&str>| parse_budget("B", raw.map(String::from), 7);
        assert_eq!(parse(None), Ok(7));
        assert_eq!(parse(Some(" ")), Ok(7));
        assert_eq!(parse(Some(" 4096\n")), Ok(4096));
        assert_eq!(parse(Some("0")), Ok(0));
        for bad in ["64MiB", "-1", "1e6"] {
            let err = parse(Some(bad)).unwrap_err();
            assert!(err.starts_with(&format!("B={bad:?}: ")), "{err}");
        }
    }

    /// A request thread that panics while holding the index lock must
    /// not wedge the cache: later gets and puts recover the guard.
    #[test]
    fn survives_a_poisoned_lock() {
        let dir = tmpdir("poison");
        let cache = ResultCache::open(&dir).unwrap();
        cache.put(KEY, "{\"x\":1}").unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.inner.lock();
                panic!("request panics while holding the cache lock");
            })
            .join()
            .is_err()
        });
        assert!(panicked && cache.inner.is_poisoned());
        assert_eq!(cache.get(KEY).as_deref(), Some("{\"x\":1}"));
        cache.put(&key_n(1), "{}").unwrap();
        assert_eq!(cache.get(&key_n(1)).as_deref(), Some("{}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 0, 2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
