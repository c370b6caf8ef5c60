//! Cross-thread TET-Zombieload: the genuine §4.3.2 topology, with the
//! victim and the attacker running as *concurrent programs* on the two
//! SMT threads of one core.
//!
//! The victim loops over its secret (each load passes the data through
//! the shared line fill buffers); the attacker is a single self-contained
//! program that sweeps all 256 test values, measures each ToTE with the
//! in-window Jcc on the assist-forwarded stale byte, and stores the
//! timings into a results array that the host decodes afterwards. No
//! host-side priming: the only cooperation between the threads is the
//! shared fill buffer, as on real silicon.

use tet_isa::{Addr, Asm, Cond, Inst, Program, Reg};
use tet_uarch::{CpuConfig, RunConfig, SmtMachine};

use crate::attacks::{LeakedByte, ZBL_PROBE_BASE};

/// Attacker-local results array (256 × 8 bytes).
const RESULTS_BASE: u64 = 0x48_0000;

/// The cross-thread TET-Zombieload attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmtZombieload {
    /// Full 0..=255 sweeps per sampled byte (majority-voted).
    pub sweeps: u32,
    /// Fall-through nop padding (occupancy shaping, as in TET-ZBL).
    pub sea_nops: usize,
}

impl Default for SmtZombieload {
    fn default() -> Self {
        SmtZombieload {
            sweeps: 5,
            sea_nops: 60,
        }
    }
}

impl SmtZombieload {
    /// The attacker program: sweeps `rbx` over 0..=255, measuring the
    /// ToTE of the assist-forwarded compare at line offset `offset` and
    /// storing each timing to `results[rbx]`. Returns `(program,
    /// handler_pc)`.
    fn attacker_program(&self, offset: u64) -> (Program, usize) {
        let mut a = Asm::new();
        let loop_top = a.fresh_label();
        let matched = a.fresh_label();
        let done = a.fresh_label();
        a.mov_imm(Reg::Rbx, 0).mov_imm(Reg::R12, RESULTS_BASE);
        a.bind(loop_top)
            .rdtsc()
            .mov_reg(Reg::R8, Reg::Rax)
            .lfence()
            .load_byte_abs(Reg::Rax, ZBL_PROBE_BASE + (offset % 64)) // assist
            .cmp(Reg::Rax, Reg::Rbx)
            .jcc(Cond::E, matched)
            .nops(self.sea_nops)
            .bind(matched)
            .nop();
        let handler_pc = a.here();
        // Signal handler resumes here: timestamp, store, next test value.
        a.lfence().rdtsc().sub(Reg::Rax, Reg::R8);
        a.raw(Inst::Store {
            src: Reg::Rax,
            addr: Addr::base_index(Reg::R12, Reg::Rbx, 8, 0),
        });
        a.add(Reg::Rbx, 1u64)
            .cmp_imm(Reg::Rbx, 256)
            .jcc(Cond::Ne, loop_top)
            .jmp(done);
        a.bind(done).halt();
        (
            a.assemble().expect("attacker program is closed"),
            handler_pc,
        )
    }

    /// The victim program: `iters` rounds of flushing and reloading its
    /// secret byte, keeping the line in flight through the fill buffers.
    fn victim_program(iters: u64, secret_va: u64) -> Program {
        let mut a = Asm::new();
        let top = a.fresh_label();
        a.mov_imm(Reg::Rcx, iters);
        a.bind(top)
            .clflush_abs(secret_va)
            .load_byte_abs(Reg::R9, secret_va)
            .sub(Reg::Rcx, 1u64)
            .jcc(Cond::Ne, top)
            .halt();
        a.assemble().expect("victim program is closed")
    }

    /// Samples the victim byte at line offset `offset`. The victim's
    /// secret page and value live entirely in the *victim's* address
    /// space; the attacker sees only timing.
    pub fn sample_byte(&self, cfg: &CpuConfig, seed: u64, secret: u8, offset: u64) -> LeakedByte {
        let mut smt = SmtMachine::new(cfg.clone(), seed);

        // Victim (thread 0): its own page, its own secret.
        let victim_page = 0x7100_0000u64;
        let secret_va = victim_page + (offset % 64);
        let pa = smt.map_user_page(0, victim_page);
        smt.phys_mut().write_u8(pa + (offset % 64), secret);

        // Attacker (thread 1): its results array.
        smt.map_user_page(1, RESULTS_BASE);

        let (attacker, handler_pc) = self.attacker_program(offset);
        // Enough victim rounds to outlast the attacker's sweep.
        let victim = Self::victim_program(6000, secret_va);

        let mut votes = vec![0u32; 256];
        let mut cycles = 0u64;
        for _ in 0..self.sweeps {
            let r = smt.run(
                &victim,
                &attacker,
                &RunConfig::default(),
                &RunConfig {
                    handler_pc: Some(handler_pc),
                    max_cycles: 2_000_000,
                    ..RunConfig::default()
                },
            );
            cycles += r.t1.cycles;
            // Decode this sweep's results array: the triggered Jcc
            // shortens ToTE, so the first minimum wins. The array is
            // contiguous in one page.
            let results_pa = pa_of(&smt, RESULTS_BASE);
            let mut best: Option<(u64, usize)> = None;
            for test in 0..256u64 {
                let t = smt.phys_mut().read_u64(results_pa + test * 8);
                if t != 0 && best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, test as usize));
                }
            }
            if let Some((_, winner)) = best {
                votes[winner] += 1;
            }
        }
        // The most-voted value; a tie goes to the last maximum (the
        // highest such value), as `max_by_key` resolves it.
        let value = votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .map(|(i, _)| i as u8)
            .unwrap_or(0);
        LeakedByte {
            value,
            votes,
            cycles,
        }
    }
}

/// Physical address of a mapped attacker (thread 1) virtual address.
fn pa_of(smt: &SmtMachine, va: u64) -> u64 {
    smt.aspace(1)
        .translate(va)
        .expect("attacker page is mapped")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_thread_zombieload_leaks_on_vulnerable_core() {
        let leak =
            SmtZombieload::default().sample_byte(&CpuConfig::kaby_lake_i7_7700(), 41, b'Q', 0);
        assert_eq!(
            leak.value,
            b'Q',
            "votes: {:?}",
            leak.votes
                .iter()
                .enumerate()
                .filter(|(_, v)| **v > 0)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_thread_zombieload_fails_on_fixed_core() {
        let leak =
            SmtZombieload::default().sample_byte(&CpuConfig::comet_lake_i9_10980xe(), 41, b'Q', 0);
        assert_ne!(leak.value, b'Q', "MDS-fixed silicon must not leak");
    }

    #[test]
    fn tracks_different_offsets() {
        let attack = SmtZombieload::default();
        let a = attack.sample_byte(&CpuConfig::skylake_i7_6700(), 43, 0x3c, 5);
        assert_eq!(a.value, 0x3c);
    }
}
