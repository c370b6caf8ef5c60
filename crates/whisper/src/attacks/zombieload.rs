//! TET-Zombieload (§4.3.2): sampling stale line-fill-buffer data through
//! the TET channel.
//!
//! The victim's loads pass its data through the shared fill buffers; the
//! attacker's microcode-assisted faulting load transiently forwards the
//! stale bytes, and the in-window Jcc compares them against the test
//! value. Contrary to TET-MD, ToTE becomes **shorter** when the Jcc
//! triggers, so the decoder takes the arg*min*.

use crate::analysis::{ArgmaxDecoder, Polarity};
use crate::attacks::{LeakReport, LeakedByte};
use crate::batch::{decode_byte, ProbeMemo};
use crate::gadget::{TetGadget, TetGadgetSpec};
use crate::scenario::{victim_pa, victim_touch_pa, Scenario, VICTIM_PAGE};

/// An unmapped attacker address whose faulting loads trigger the assist.
/// The line offset of the probe selects which stale byte is sampled.
pub const ZBL_PROBE_BASE: u64 = 0x7f00_dead_0000;

/// The TET-Zombieload attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetZombieload {
    /// Argmax batches per byte.
    pub batches: u32,
}

impl Default for TetZombieload {
    fn default() -> Self {
        TetZombieload { batches: 3 }
    }
}

impl TetZombieload {
    /// Samples the victim byte at line offset `offset` (0..64). The
    /// victim is re-run before every probe, as in the paper's
    /// attacker/victim co-loop.
    pub fn sample_byte(&self, sc: &mut Scenario, offset: u64) -> LeakedByte {
        let cfg = sc.machine.config().clone();
        let probe = ZBL_PROBE_BASE + (offset % 64);
        let gadget = TetGadget::build(TetGadgetSpec::zombieload(probe, &cfg));
        sc.victim_touch(offset);
        for _ in 0..3 {
            gadget.measure(&mut sc.machine, 0);
        }
        // The hint must predict the stale fill-buffer byte at *probe*
        // time — right after each iteration's victim touch — not the
        // clobbered LFB state the warm-up runs leave behind, so it is
        // read architecturally from the victim page (no machine state
        // touched). MDS-fixed cores forward zero instead. Only the
        // measured run is memoized — the victim's touch stays live
        // every iteration so the cache hierarchy (and its DRAM jitter
        // stream position) advances exactly as in the unbatched loop.
        let hint = if sc.machine.config().vuln.lfb_forward {
            sc.machine.read_virt_u8(VICTIM_PAGE + offset) as u64
        } else {
            0
        };
        let mut memo = ProbeMemo::new(&sc.machine, Some(hint));
        let decoder = ArgmaxDecoder::new(self.batches, Polarity::MinWins);
        let pa = victim_pa(&sc.machine, offset);
        LeakedByte::decoded(decode_byte(
            &mut sc.machine,
            &mut memo,
            decoder,
            |m| victim_touch_pa(m, pa),
            |m, test| gadget.measure_detailed(m, test),
        ))
    }

    /// Samples `len` victim bytes starting at line offset 0.
    pub fn sample(&self, sc: &mut Scenario, len: usize) -> LeakReport {
        let freq = sc.machine.config().freq_ghz;
        LeakReport::from_fn(len, freq, |i| self.sample_byte(sc, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOptions;
    use tet_uarch::CpuConfig;

    #[test]
    fn samples_victim_bytes_on_mds_vulnerable_core() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        for (i, b) in b"LFB!".iter().enumerate() {
            sc.set_victim_byte(i as u64, *b);
        }
        let report = TetZombieload::default().sample(&mut sc, 4);
        assert_eq!(report.recovered, b"LFB!");
    }

    #[test]
    fn fails_on_mds_resistant_core() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions::default(),
        );
        for (i, b) in b"LFB!".iter().enumerate() {
            sc.set_victim_byte(i as u64, *b);
        }
        let report = TetZombieload::default().sample(&mut sc, 4);
        assert!(
            !report.succeeded(b"LFB!"),
            "MDS-fixed silicon must not leak, got {:?}",
            report.recovered
        );
    }

    #[test]
    fn tracks_victim_data_changes() {
        let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
        sc.set_victim_byte(7, 0x11);
        let a = TetZombieload::default().sample_byte(&mut sc, 7);
        assert_eq!(a.value, 0x11);
        sc.set_victim_byte(7, 0xee);
        let b = TetZombieload::default().sample_byte(&mut sc, 7);
        assert_eq!(b.value, 0xee);
    }
}
