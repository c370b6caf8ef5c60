//! Cycle-level out-of-order core model with explicit transient execution.
//!
//! This crate is the substrate that *produces* the Whisper (DAC 2024)
//! side channel. It models, per logical thread:
//!
//! * a **frontend** with a branch prediction unit (BTB + gshare
//!   conditional predictor + return stack buffer), a decoded stream
//!   buffer (DSB, the µop cache), the legacy MITE decode path and the
//!   instruction decode queue (IDQ) — [`frontend`], [`bpu`];
//! * an **out-of-order backend** with a reorder buffer, reservation
//!   stations, execution ports, in-order retirement, and full
//!   speculative-squash machinery — [`core`];
//! * **transient execution**: faulting loads forward data to dependents
//!   and are only handled at retirement; branch mispredictions inside a
//!   transient window trigger nested squashes and frontend resteers;
//!   TSX regions redirect faults to their abort handler;
//! * the three calibrated timing mechanisms behind the paper's results
//!   (see `DESIGN.md` §1): exception-entry serialization after a
//!   recovery (lengthens ToTE — TET-Meltdown), squash cost proportional
//!   to ROB occupancy (shortens ToTE — TET-Zombieload / TET-Spectre-RSB),
//!   and page-walk retry on failing translations (TET-KASLR).
//!
//! The easiest entry point is [`Machine`], which owns a core, a memory
//! hierarchy, physical memory and an address space:
//!
//! ```
//! use tet_isa::{Asm, Reg};
//! use tet_uarch::{CpuConfig, Machine, RunConfig};
//!
//! # fn main() -> Result<(), tet_isa::AssembleError> {
//! let mut machine = Machine::new(CpuConfig::kaby_lake_i7_7700(), 42);
//! let data = machine.map_user_page(0x10_0000);
//! machine.phys_mut().write_u64(data, 7);
//!
//! let mut a = Asm::new();
//! a.load_abs(Reg::Rax, 0x10_0000).halt();
//! let result = machine.run(&a.assemble()?, &RunConfig::default());
//! assert_eq!(result.regs.get(Reg::Rax), 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bpu;
pub mod config;
pub mod core;
pub mod frontend;
mod lru;
pub mod machine;
mod ring;
mod rob;
pub mod smt;
pub mod template;
pub mod uop;

pub use crate::core::{Cpu, ExceptionRecord, RunExit};
pub use bpu::{Bpu, BpuConfig, BpuOp, BpuSpan, Prediction};
pub use config::{CpuConfig, ForwardPolicy, TimingConfig, VulnProfile};
pub use machine::{
    DeltaMarker, Machine, MachineSnapshot, MachineStats, RunConfig, RunDelta, RunResult,
};
pub use smt::{SmtMachine, SmtRunResult};
pub use template::{ProgramTemplate, UopMeta};
pub use uop::{Fault, FaultKind};

/// Virtual base address where program code is mapped.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Bytes per (modelled) instruction; used to map instruction indices to
/// code virtual addresses for I-cache and ITLB purposes.
pub const INST_BYTES: u64 = 4;

/// The code virtual address of instruction index `pc`.
#[inline]
pub fn code_vaddr(pc: usize) -> u64 {
    CODE_BASE + pc as u64 * INST_BYTES
}
