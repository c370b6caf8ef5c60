//! The assembled cache hierarchy with latency accounting and DRAM jitter.
//!
//! Each level carries its own one-entry MRU filter (inside [`Cache`]):
//! the warm-loop case where consecutive accesses touch the same line —
//! the common shape of every gadget's probe loop — resolves each level's
//! `lookup` with a single compare instead of a set scan, without
//! perturbing LRU order (the filter line already holds its set's maximum
//! age stamp).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tet_obs::{EventKind, MemLevel, SinkHandle};

use crate::cache::{Cache, CacheConfig};
use crate::lfb::LineFillBuffer;
use crate::phys::PhysMem;
use crate::{line_addr, LINE_SIZE};

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the first-level cache.
    L1,
    /// Served by the unified second-level cache.
    L2,
    /// Served by the last-level cache.
    Llc,
    /// Served by DRAM.
    Dram,
}

impl HitLevel {
    /// The observability-crate spelling of this level.
    pub fn to_obs(self) -> MemLevel {
        match self {
            HitLevel::L1 => MemLevel::L1,
            HitLevel::L2 => MemLevel::L2,
            HitLevel::Llc => MemLevel::Llc,
            HitLevel::Dram => MemLevel::Dram,
        }
    }
}

/// The result of a timed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total access latency in cycles.
    pub latency: u64,
    /// The level that served the access.
    pub level: HitLevel,
}

/// Geometry and latency of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// DRAM base latency in cycles.
    pub dram_latency: u64,
    /// Uniform DRAM jitter amplitude in cycles (`0` = fully deterministic).
    pub dram_jitter: u64,
    /// Line fill buffer entries.
    pub lfb_entries: usize,
}

impl MemoryConfig {
    /// A Skylake-class hierarchy: 32 KiB/8-way L1, 256 KiB/8-way L2,
    /// 8 MiB/16-way LLC, ~200-cycle DRAM, 10 fill buffers.
    pub fn skylake_class() -> Self {
        MemoryConfig {
            l1d: CacheConfig::new(64, 8, 4),
            l1i: CacheConfig::new(64, 8, 4),
            l2: CacheConfig::new(512, 8, 12),
            llc: CacheConfig::new(8192, 16, 40),
            dram_latency: 200,
            dram_jitter: 12,
            lfb_entries: 10,
        }
    }
}

/// The complete memory hierarchy of one physical core (both SMT threads
/// share it, which is what makes the LFB a cross-thread leak).
///
/// Data *contents* live in [`PhysMem`]; the hierarchy tracks presence and
/// charges latency.
///
/// # Examples
///
/// ```
/// use tet_mem::{HitLevel, MemoryConfig, MemorySystem, PhysMem};
///
/// let mut phys = PhysMem::new();
/// phys.write_u64(0x1000, 7);
/// let mut mem = MemorySystem::new(MemoryConfig::skylake_class(), 42);
///
/// let cold = mem.data_load(0x1000, &phys);
/// let warm = mem.data_load(0x1000, &phys);
/// assert_eq!(cold.level, HitLevel::Dram);
/// assert_eq!(warm.level, HitLevel::L1);
/// assert!(cold.latency > warm.latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemoryConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    llc: Cache,
    lfb: LineFillBuffer,
    rng: StdRng,
    sink: SinkHandle,
    /// Lifetime count of DRAM-jitter RNG draws. Monotonic: snapshot
    /// restores roll the *stream position* back but not this counter,
    /// so deltas of it measure how many draws a span consumed.
    jitter_draws: u64,
    /// Lifetime sum of all jitter cycles drawn (same monotonicity).
    jitter_sum: u64,
}

impl MemorySystem {
    /// Creates a hierarchy; `seed` drives the DRAM jitter stream.
    pub fn new(cfg: MemoryConfig, seed: u64) -> Self {
        MemorySystem {
            l1d: Cache::new(cfg.l1d),
            l1i: Cache::new(cfg.l1i),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            lfb: LineFillBuffer::new(cfg.lfb_entries),
            rng: StdRng::seed_from_u64(seed),
            cfg,
            sink: SinkHandle::disabled(),
            jitter_draws: 0,
            jitter_sum: 0,
        }
    }

    /// Attaches (or detaches, with a disabled handle) the trace sink.
    /// Timestamps come from the handle's shared clock, which the owning
    /// core advances each cycle.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> MemoryConfig {
        self.cfg
    }

    fn dram(&mut self) -> u64 {
        if self.cfg.dram_jitter == 0 {
            self.cfg.dram_latency
        } else {
            let j = self.rng.gen_range(0..=self.cfg.dram_jitter);
            self.jitter_draws += 1;
            self.jitter_sum += j;
            self.cfg.dram_latency + j
        }
    }

    /// Lifetime `(draws, summed cycles)` of the DRAM jitter stream —
    /// monotonic across snapshot restores, so span deltas of it tell a
    /// trial batcher exactly how many draws (and how much jitter) a
    /// probe consumed.
    pub fn jitter_stats(&self) -> (u64, u64) {
        (self.jitter_draws, self.jitter_sum)
    }

    /// Advances the jitter stream by `draws` draws without simulating
    /// the DRAM accesses that would have consumed them, returning the
    /// summed jitter. This is the replay path of divergence-aware trial
    /// batching: a skipped probe must leave the RNG at exactly the
    /// position the live run would have left it.
    pub fn replay_jitter(&mut self, draws: u64) -> u64 {
        if self.cfg.dram_jitter == 0 {
            return 0;
        }
        let mut sum = 0u64;
        for _ in 0..draws {
            sum += self.rng.gen_range(0..=self.cfg.dram_jitter);
        }
        self.jitter_draws += draws;
        self.jitter_sum += sum;
        sum
    }

    /// Stamps the access result and reports it to the trace sink.
    fn finish(&self, pa: u64, level: HitLevel, latency: u64, fetch: bool) -> DataAccess {
        self.sink.emit(EventKind::CacheAccess {
            pa,
            level: level.to_obs(),
            latency,
            fetch,
        });
        DataAccess { latency, level }
    }

    fn line_data(pa: u64, phys: &PhysMem) -> [u8; LINE_SIZE as usize] {
        let mut data = [0u8; LINE_SIZE as usize];
        phys.read_into(line_addr(pa), &mut data);
        data
    }

    /// A timed demand data load of physical address `pa`. Fills all levels
    /// on the way in; fills beyond L1 pass through (and are recorded in)
    /// the line fill buffer.
    pub fn data_load(&mut self, pa: u64, phys: &PhysMem) -> DataAccess {
        let l1_lat = self.cfg.l1d.latency;
        if self.l1d.lookup(pa) {
            return self.finish(pa, HitLevel::L1, l1_lat, false);
        }
        // Every fill into L1 passes through a fill buffer.
        self.lfb.record_fill(pa, Self::line_data(pa, phys));
        self.sink.emit(EventKind::LfbFill { pa });
        if self.l2.lookup(pa) {
            self.l1d.fill(pa);
            return self.finish(pa, HitLevel::L2, l1_lat + self.cfg.l2.latency, false);
        }
        if self.llc.lookup(pa) {
            self.l2.fill(pa);
            self.l1d.fill(pa);
            return self.finish(
                pa,
                HitLevel::Llc,
                l1_lat + self.cfg.l2.latency + self.cfg.llc.latency,
                false,
            );
        }
        let lat = l1_lat + self.cfg.l2.latency + self.cfg.llc.latency + self.dram();
        self.llc.fill(pa);
        self.l2.fill(pa);
        self.l1d.fill(pa);
        self.finish(pa, HitLevel::Dram, lat, false)
    }

    /// A timed store (write-allocate: same fill path as a load).
    pub fn data_store(&mut self, pa: u64, phys: &PhysMem) -> DataAccess {
        self.data_load(pa, phys)
    }

    /// A timed instruction fetch through L1I/L2/LLC.
    pub fn inst_fetch(&mut self, pa: u64, phys: &PhysMem) -> DataAccess {
        let l1_lat = self.cfg.l1i.latency;
        if self.l1i.lookup(pa) {
            return self.finish(pa, HitLevel::L1, l1_lat, true);
        }
        self.lfb.record_fill(pa, Self::line_data(pa, phys));
        self.sink.emit(EventKind::LfbFill { pa });
        if self.l2.lookup(pa) {
            self.l1i.fill(pa);
            return self.finish(pa, HitLevel::L2, l1_lat + self.cfg.l2.latency, true);
        }
        if self.llc.lookup(pa) {
            self.l2.fill(pa);
            self.l1i.fill(pa);
            return self.finish(
                pa,
                HitLevel::Llc,
                l1_lat + self.cfg.l2.latency + self.cfg.llc.latency,
                true,
            );
        }
        let lat = l1_lat + self.cfg.l2.latency + self.cfg.llc.latency + self.dram();
        self.llc.fill(pa);
        self.l2.fill(pa);
        self.l1i.fill(pa);
        self.finish(pa, HitLevel::Dram, lat, true)
    }

    /// Flushes the line containing `pa` from every level (`clflush`).
    pub fn clflush(&mut self, pa: u64) {
        self.l1d.flush_line(pa);
        self.l1i.flush_line(pa);
        self.l2.flush_line(pa);
        self.llc.flush_line(pa);
        self.sink.emit(EventKind::CacheFlush { pa });
    }

    /// Probes whether the line containing `pa` is in the L1 data cache,
    /// without perturbing any state (used by stealth measurements).
    pub fn probe_l1d(&self, pa: u64) -> bool {
        self.l1d.probe(pa)
    }

    /// Non-perturbing presence probe across the whole hierarchy —
    /// returns the closest level holding the line, if any. Used by the
    /// Meltdown forwarding model: real silicon only forwards data that
    /// is already resident.
    pub fn probe_level(&self, pa: u64) -> Option<HitLevel> {
        if self.l1d.probe(pa) {
            Some(HitLevel::L1)
        } else if self.l2.probe(pa) {
            Some(HitLevel::L2)
        } else if self.llc.probe(pa) {
            Some(HitLevel::Llc)
        } else {
            None
        }
    }

    /// Direct access to the line fill buffer (the Zombieload substrate).
    pub fn lfb(&self) -> &LineFillBuffer {
        &self.lfb
    }

    /// Mutable access to the line fill buffer (mitigations clear it).
    pub fn lfb_mut(&mut self) -> &mut LineFillBuffer {
        &mut self.lfb
    }

    /// A combined fingerprint of all cache levels, for Table 1's
    /// stateless-channel evidence: equal fingerprints ⇒ no persistent
    /// cache footprint.
    pub fn cache_fingerprint(&self) -> Vec<Vec<u64>> {
        vec![
            self.l1d.fingerprint(),
            self.l1i.fingerprint(),
            self.l2.fingerprint(),
            self.llc.fingerprint(),
        ]
    }

    /// `(hits, misses)` of the L1 data cache.
    pub fn l1d_stats(&self) -> (u64, u64) {
        self.l1d.stats()
    }

    /// Seals every cache level for delta restore (DESIGN.md §16): later
    /// slot writes journal themselves so [`MemorySystem::restore`]
    /// against a clone of this seal repairs only touched slots.
    pub fn seal(&mut self) {
        self.l1d.seal();
        self.l1i.seal();
        self.l2.seal();
        self.llc.seal();
    }

    /// Rolls this hierarchy back to the state of `src` — tags, stamps,
    /// fill buffers and the DRAM jitter stream position — reusing every
    /// flat allocation (snapshot restore). Each cache level replays its
    /// journal across a shared seal and copies otherwise (see
    /// [`Cache::restore`]); the LFB, RNG and sink are small and copied.
    /// The trace sink is taken from `src` too;
    /// [`Machine::run`](../tet-uarch) re-attaches its own per-run sink
    /// anyway.
    pub fn restore(&mut self, src: &MemorySystem) {
        let MemorySystem {
            cfg,
            l1d,
            l1i,
            l2,
            llc,
            lfb,
            rng,
            sink,
            // Lifetime draw counters stay monotonic across restores (the
            // stream *position* rolls back, the bookkeeping does not).
            jitter_draws: _,
            jitter_sum: _,
        } = src;
        debug_assert_eq!(self.cfg, *cfg, "restore across memory configs");
        self.cfg = *cfg;
        self.l1d.restore(l1d);
        self.l1i.restore(l1i);
        self.l2.restore(l2);
        self.llc.restore(llc);
        self.lfb.restore(lfb);
        self.rng = rng.clone();
        self.sink = sink.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> (MemorySystem, PhysMem) {
        let mut cfg = MemoryConfig::skylake_class();
        cfg.dram_jitter = 0;
        (MemorySystem::new(cfg, 1), PhysMem::new())
    }

    #[test]
    fn levels_fill_inwards() {
        let (mut m, phys) = mem();
        assert_eq!(m.data_load(0x1000, &phys).level, HitLevel::Dram);
        assert_eq!(m.data_load(0x1000, &phys).level, HitLevel::L1);
        m.l1d.flush_line(0x1000);
        assert_eq!(m.data_load(0x1000, &phys).level, HitLevel::L2);
    }

    #[test]
    fn latencies_are_monotonic_in_depth() {
        let (mut m, phys) = mem();
        let dram = m.data_load(0x2000, &phys).latency;
        let l1 = m.data_load(0x2000, &phys).latency;
        m.l1d.flush_line(0x2000);
        let l2 = m.data_load(0x2000, &phys).latency;
        assert!(l1 < l2 && l2 < dram, "{l1} < {l2} < {dram}");
    }

    #[test]
    fn clflush_evicts_everywhere() {
        let (mut m, phys) = mem();
        m.data_load(0x3000, &phys);
        m.clflush(0x3000);
        assert_eq!(m.data_load(0x3000, &phys).level, HitLevel::Dram);
    }

    #[test]
    fn fills_record_stale_data_in_lfb() {
        let (mut m, mut phys) = mem();
        phys.write_u8(0x4002, b'Z');
        m.data_load(0x4000, &phys);
        assert_eq!(m.lfb().stale_byte(2), Some(b'Z'));
    }

    #[test]
    fn l1_hits_do_not_touch_the_lfb() {
        let (mut m, phys) = mem();
        m.data_load(0x5000, &phys);
        let len = m.lfb().len();
        m.data_load(0x5000, &phys);
        assert_eq!(m.lfb().len(), len);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = MemoryConfig::skylake_class();
        let phys = PhysMem::new();
        let mut a = MemorySystem::new(cfg, 7);
        let mut b = MemorySystem::new(cfg, 7);
        for i in 0..32 {
            assert_eq!(
                a.data_load(i * 64, &phys).latency,
                b.data_load(i * 64, &phys).latency
            );
        }
    }

    #[test]
    fn jitter_varies_within_bounds() {
        let cfg = MemoryConfig::skylake_class();
        let phys = PhysMem::new();
        let mut m = MemorySystem::new(cfg, 7);
        let base = cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency + cfg.dram_latency;
        let mut distinct = std::collections::HashSet::new();
        for i in 0..64 {
            let lat = m.data_load(i * 4096, &phys).latency;
            assert!(lat >= base && lat <= base + cfg.dram_jitter);
            distinct.insert(lat);
        }
        assert!(distinct.len() > 1, "jitter should actually vary");
    }

    #[test]
    fn inst_fetch_uses_l1i_not_l1d() {
        let (mut m, phys) = mem();
        m.inst_fetch(0x6000, &phys);
        assert_eq!(m.inst_fetch(0x6000, &phys).level, HitLevel::L1);
        // The data side is still cold (L2 now holds it though).
        assert_eq!(m.data_load(0x6000, &phys).level, HitLevel::L2);
    }

    #[test]
    fn sink_sees_cache_traffic() {
        use tet_obs::MemorySink;
        let (mut m, phys) = mem();
        let sink = std::sync::Arc::new(MemorySink::new());
        let handle = SinkHandle::attached(sink.clone());
        handle.tick(99);
        m.set_sink(handle);
        m.data_load(0x1000, &phys); // DRAM miss → access + LFB fill
        m.data_load(0x1000, &phys); // L1 hit → access only
        m.clflush(0x1000);
        let evs = sink.drain();
        let kinds: Vec<&str> = evs.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            ["lfb_fill", "cache_access", "cache_access", "cache_flush"]
        );
        assert!(
            evs.iter().all(|e| e.cycle == 99),
            "stamped from shared clock"
        );
        assert!(matches!(
            evs[2].kind,
            EventKind::CacheAccess {
                level: MemLevel::L1,
                fetch: false,
                ..
            }
        ));
    }

    #[test]
    fn cache_fingerprint_reflects_state() {
        let (mut m, phys) = mem();
        let f0 = m.cache_fingerprint();
        m.data_load(0x7000, &phys);
        let f1 = m.cache_fingerprint();
        assert_ne!(f0, f1);
    }
}
