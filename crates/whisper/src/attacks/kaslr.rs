//! TET-KASLR (§4.5): breaking kernel ASLR by mapping detection.
//!
//! A faulting user access to a *mapped* kernel address completes its page
//! walk (and on Intel installs a TLB entry), while an *unmapped* address
//! fails the walk and is retried — measurably extending ToTE. The
//! attacker flushes the TLB, probes every candidate slot with the
//! Listing 2 gadget, and the first mapped slot marks the kernel base.
//!
//! * Under **KPTI** the only surviving user-table mapping is the entry
//!   trampoline at the fixed `+0xe00000` offset, so the probe sweep finds
//!   the trampoline slot and subtracts the offset (the paper locates it
//!   among the 512 candidates "within 1 s").
//! * Under **FLARE** the dummy mappings fool presence probes that merely
//!   complete walks (the prefetch baseline), but their reserved-bit
//!   leaves are *retried like unmapped pages* on the faulting-load path,
//!   so the TET probe still isolates the real image.
//!
//! Most slots are unmapped, and after warm-up their probes sit at a
//! fixed point: same ToTE, same counters. The sweep therefore runs
//! through the decode sweeps' probe memo ([`crate::batch::ProbeMemo`]):
//! a slot probe replays only when the candidate's page walk ends
//! `NotPresent` exactly as the record's did, never for the last probe
//! (its live run leaves the code page in the ITLB), and a slot's gadget
//! is built only when one of its probes runs live. A plain sweep
//! simulates about 53 of its 512 slot probes; FLARE's reserved-bit
//! leaves keep every slot live.

use tet_mem::WalkOutcome;
use tet_os::layout::{slot_base, KPTI_TRAMPOLINE_OFFSET, NUM_SLOTS, SLOT_SIZE};
use tet_os::Kernel;
use tet_uarch::Machine;

use crate::batch::{JitterShift, ProbeMemo, ProbeResult};
use crate::gadget::{TetGadget, TetGadgetSpec};

/// One slot probe's observation: the probe's `(ToTE, cycles)` plus the
/// page walk its candidate address ends with, read on the simulator
/// side ([`tet_mem::AddressSpace::walk`]) before the probe runs.
#[derive(Debug, Clone, PartialEq)]
struct SlotProbe {
    result: ProbeResult,
    walk: (WalkOutcome, u8),
}

impl JitterShift for SlotProbe {
    fn jitter_shift(&self, d: i64) -> Self {
        SlotProbe {
            result: self.result.jitter_shift(d),
            walk: self.walk,
        }
    }
}

/// The outcome of a KASLR break attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct KaslrBreak {
    /// The base the attack recovered, if the probe sweep found a mapped
    /// slot.
    pub found_base: Option<u64>,
    /// Whether `found_base` equals the true randomized base.
    pub success: bool,
    /// Total probes performed.
    pub probes: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Seconds at the model's frequency.
    pub seconds: f64,
    /// Mean ToTE per slot (diagnostics / plotting).
    pub slot_totes: Vec<u64>,
}

/// The TET-KASLR attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetKaslr {
    /// ToTE samples per candidate slot.
    pub samples_per_slot: u32,
    /// Whether the attacker assumes KPTI and probes for the trampoline
    /// (subtracting the fixed offset from the hit).
    pub assume_kpti: bool,
    /// Minimum mapped/unmapped gap (cycles) to accept a detection; below
    /// this the sweep is considered featureless (the Zen 3 case).
    pub min_gap: u64,
}

impl Default for TetKaslr {
    fn default() -> Self {
        TetKaslr {
            samples_per_slot: 1,
            assume_kpti: false,
            min_gap: 12,
        }
    }
}

impl TetKaslr {
    /// Probes all 512 candidate slots and recovers the kernel base.
    ///
    /// `kernel` supplies the ground truth for the `success` field only;
    /// the probe sequence never reads it. Proven-fixed unmapped-slot
    /// probes replay through a [`ProbeMemo`]; the result, the machine's
    /// lifetime counters and its state afterwards are those of probing
    /// every slot live.
    pub fn break_kaslr(&self, machine: &mut Machine, kernel: &Kernel) -> KaslrBreak {
        let freq = machine.config().freq_ghz;
        let mut slot_totes = Vec::with_capacity(NUM_SLOTS as usize);
        let mut cycles = 0u64;
        let mut probes = 0u64;

        // Warm the probe gadget's code path once (slot 0) so per-slot
        // measurements are not skewed by cold frontend structures.
        let warm = TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(0)));
        warm.measure(machine, 0);

        let mut memo: ProbeMemo<SlotProbe> = ProbeMemo::new(machine, None);
        let last = (NUM_SLOTS, self.samples_per_slot);
        for slot in 0..NUM_SLOTS {
            let candidate = slot_base(slot);
            let walk = machine.aspace().walk(candidate);
            let mut gadget = None;
            let mut best = u64::MAX;
            for sample in 0..self.samples_per_slot {
                machine.flush_tlbs();
                // A probe may replay only when its walk fails exactly as
                // the record's did (mapped, trampoline and reserved-bit
                // slots run live), and never as the last probe: its live
                // run leaves the code page in the ITLB, a replay would not.
                let may_replay = (slot + 1, sample + 1) != last
                    && matches!(walk.0, WalkOutcome::NotPresent { .. })
                    && memo.fixed().is_none_or(|rec| rec.result.walk == walk);
                let probe = match memo.try_replay(machine, may_replay) {
                    Some(p) => p,
                    None => {
                        let gadget = gadget.get_or_insert_with(|| {
                            TetGadget::build(TetGadgetSpec::kaslr_probe(candidate))
                        });
                        let marker = machine.delta_marker();
                        let p = SlotProbe {
                            result: gadget.measure_detailed(machine, 0),
                            walk,
                        };
                        memo.observe(machine, &marker, may_replay, &p);
                        p
                    }
                };
                if let Some((tote, c)) = probe.result {
                    best = best.min(tote);
                    cycles += c;
                    probes += 1;
                }
            }
            slot_totes.push(if best == u64::MAX { 0 } else { best });
        }

        let found_base = self.classify(&slot_totes);
        let success = found_base == Some(kernel.base);
        KaslrBreak {
            found_base,
            success,
            probes,
            cycles,
            seconds: cycles as f64 / (freq * 1e9),
            slot_totes,
        }
    }

    /// Classifies a sweep's per-slot ToTEs: mapped slots are the
    /// cluster measurably *below the median* (most of the 512 slots are
    /// unmapped, so the median sits on the unmapped level and is robust
    /// against interference outliers); the first mapped slot (minus the
    /// trampoline offset under KPTI) is the base.
    pub fn classify(&self, slot_totes: &[u64]) -> Option<u64> {
        let mut sorted: Vec<u64> = slot_totes.iter().copied().filter(|&t| t > 0).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let threshold = median.saturating_sub(self.min_gap);
        if sorted[0] >= threshold {
            return None; // featureless sweep (the AMD outcome)
        }
        let first_mapped = slot_totes.iter().position(|&t| t > 0 && t < threshold)? as u64;
        let hit = slot_base(first_mapped);
        if self.assume_kpti {
            let offset_slots = KPTI_TRAMPOLINE_OFFSET / SLOT_SIZE;
            if first_mapped < offset_slots {
                return None;
            }
            Some(hit - KPTI_TRAMPOLINE_OFFSET)
        } else {
            Some(hit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioOptions};
    use tet_uarch::CpuConfig;

    #[test]
    fn breaks_plain_kaslr_on_comet_lake() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 7,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert_eq!(result.found_base, Some(sc.kernel.base));
        assert!(result.success);
        assert_eq!(result.probes, 512);
    }

    #[test]
    fn breaks_kaslr_under_kpti() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 21,
                kpti: true,
                ..ScenarioOptions::default()
            },
        );
        let attack = TetKaslr {
            assume_kpti: true,
            ..TetKaslr::default()
        };
        let result = attack.break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(result.success, "KPTI trampoline must betray the base");
    }

    #[test]
    fn breaks_kaslr_under_flare() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 33,
                flare: true,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(result.success, "FLARE dummies must not fool the TET probe");
    }

    #[test]
    fn fails_on_zen3() {
        let mut sc = Scenario::new(
            CpuConfig::zen3_ryzen5_5600g(),
            &ScenarioOptions {
                seed: 7,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(
            !result.success,
            "Zen 3's early fault abort must hide the mapping state \
             (found {:?}, true base {:#x})",
            result.found_base, sc.kernel.base
        );
    }

    #[test]
    fn succeeds_across_seeds() {
        for seed in [1, 99, 512, 77777] {
            let mut sc = Scenario::new(
                CpuConfig::skylake_i7_6700(),
                &ScenarioOptions {
                    seed,
                    ..ScenarioOptions::default()
                },
            );
            let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
            assert!(result.success, "seed {seed} must break");
        }
    }
}
