//! TET-Spectre-RSB (§4.3.3, Listing 1): leaking an in-process secret
//! through the return-stack-buffer misprediction window, transmitted via
//! the TET channel.
//!
//! The gadget redirects its architectural return address past the
//! measurement and flushes the stack slot, so `ret` resolves slowly while
//! the RSB transiently "returns" into a secret-dependent Jcc block. A
//! triggered in-window Jcc empties the window early and the total time
//! **shrinks** — the decoder takes the argmin.

use tet_uarch::Machine;

use crate::analysis::{ArgmaxDecoder, Polarity};
use crate::attacks::{LeakReport, LeakedByte};
use crate::batch::{decode_byte, ProbeMemo};
use crate::gadget::RsbGadget;
use crate::scenario::STACK_TOP;

/// The TET-Spectre-RSB attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetSpectreRsb {
    /// Argmax batches per byte.
    pub batches: u32,
    /// Fall-through nop padding of the transient block.
    pub sea_nops: usize,
}

impl Default for TetSpectreRsb {
    fn default() -> Self {
        TetSpectreRsb {
            batches: 3,
            // The fall-through squash cost must clear the recovery-window
            // floor for the occupancy signal to show (see DESIGN.md).
            sea_nops: 96,
        }
    }
}

impl TetSpectreRsb {
    /// Leaks the in-process byte at `addr` (readable architecturally in
    /// the Spectre threat model, but the attack only touches it
    /// transiently).
    pub fn leak_byte(&self, machine: &mut Machine, addr: u64) -> LeakedByte {
        let gadget = RsbGadget::build(addr, STACK_TOP, self.sea_nops);
        // Warm the secret into L1 so the in-window Jcc resolves inside
        // the transient window, and train the gadget structures.
        for _ in 0..4 {
            gadget.measure(machine, 0);
        }
        let mut memo = ProbeMemo::new(machine, gadget.match_hint(machine));
        let decoder = ArgmaxDecoder::new(self.batches, Polarity::MinWins);
        LeakedByte::decoded(decode_byte(
            machine,
            &mut memo,
            decoder,
            |_| {},
            |m, test| gadget.measure_detailed(m, test),
        ))
    }

    /// Leaks `len` consecutive in-process bytes.
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
    fn leaks_the_user_secret_on_raptor_lake() {
        // Table 2: TET-RSB reaches its best numbers on the i9-13900K.
        let mut sc = Scenario::new(
            CpuConfig::raptor_lake_i9_13900k(),
            &ScenarioOptions::default(),
        );
        let report = TetSpectreRsb::default().leak(&mut sc.machine, sc.user_secret_va, 3);
        assert_eq!(report.recovered, b"rsb");
    }

    #[test]
    fn leaks_on_the_tsx_era_cores_too() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let report = TetSpectreRsb::default().leak(&mut sc.machine, sc.user_secret_va, 2);
        assert_eq!(report.recovered, b"rs");
    }
}
