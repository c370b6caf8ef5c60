//! TET-Meltdown (§4.3.1): Meltdown with the TET channel instead of
//! Flush+Reload.
//!
//! Phase 1 triggers the transient execution and the in-window Jcc when
//! the transiently obtained secret equals the test value; phase 2 records
//! the execution time. The argmax of ToTE over the 0..=255 sweep is the
//! secret byte (ToTE is *longer* on the match).

use tet_uarch::Machine;

use crate::analysis::{ArgmaxDecoder, Polarity};
use crate::attacks::{LeakReport, LeakedByte};
use crate::batch::{decode_byte, ProbeMemo};
use crate::gadget::{TetGadget, TetGadgetSpec};

/// The TET-Meltdown attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetMeltdown {
    /// Argmax batches per byte.
    pub batches: u32,
    /// Warm-up probes per byte (train the BTB, fill the kernel TLB entry
    /// and pull the secret line in).
    pub warmup: u32,
}

impl Default for TetMeltdown {
    fn default() -> Self {
        TetMeltdown {
            batches: 3,
            warmup: 4,
        }
    }
}

impl TetMeltdown {
    /// Leaks the kernel byte at `addr`.
    pub fn leak_byte(&self, machine: &mut Machine, addr: u64) -> LeakedByte {
        let cfg = machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::meltdown(addr, &cfg));
        for _ in 0..self.warmup {
            gadget.measure(machine, 0);
        }
        // The hint must be read *after* warm-up: forwarding predicts
        // the secret byte only once its line is cache resident.
        let mut memo = ProbeMemo::new(machine, gadget.match_hint(machine));
        let decoder = ArgmaxDecoder::new(self.batches, Polarity::MaxWins);
        LeakedByte::decoded(decode_byte(
            machine,
            &mut memo,
            decoder,
            |_| {},
            |m, test| gadget.measure_detailed(m, test),
        ))
    }

    /// Leaks `len` consecutive kernel bytes starting at `addr`.
    pub fn leak(&self, machine: &mut Machine, addr: u64, len: usize) -> LeakReport {
        let freq = machine.config().freq_ghz;
        LeakReport::from_fn(len, freq, |i| self.leak_byte(machine, addr + i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioOptions};
    use tet_uarch::CpuConfig;

    #[test]
    fn leaks_the_kernel_secret_on_kaby_lake() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 8);
        assert_eq!(report.recovered, b"WHISPER!");
        assert!(report.succeeded(b"WHISPER!"));
        assert!(report.bytes_per_sec > 0.0);
    }

    #[test]
    fn fails_on_meltdown_resistant_core() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions::default(),
        );
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 8);
        assert!(
            !report.succeeded(b"WHISPER!"),
            "fixed silicon must not leak, got {:?}",
            report.recovered
        );
    }

    #[test]
    fn fails_on_zen3() {
        let mut sc = Scenario::new(CpuConfig::zen3_ryzen5_5600g(), &ScenarioOptions::default());
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
        assert!(!report.succeeded(b"WHIS"));
    }

    #[test]
    fn votes_concentrate_on_the_secret() {
        let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
        let b = TetMeltdown::default().leak_byte(&mut sc.machine, sc.kernel_secret_va);
        assert_eq!(b.value, b'W');
        assert_eq!(b.votes[b'W' as usize], 3, "all batches should agree");
    }
}
