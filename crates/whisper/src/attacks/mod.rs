//! The four TET attacks of the paper: TET-Meltdown, TET-Zombieload,
//! TET-Spectre-RSB and TET-KASLR.

mod kaslr;
mod meltdown;
mod rsb;
mod zombieload;
mod zombieload_smt;

pub use kaslr::{KaslrBreak, TetKaslr};
pub use meltdown::TetMeltdown;
pub use rsb::TetSpectreRsb;
pub use zombieload::{TetZombieload, ZBL_PROBE_BASE};
pub use zombieload_smt::SmtZombieload;

use crate::analysis::{bytes_per_second, error_rate, DecodeOutcome};

/// The outcome of leaking a byte string through a TET attack.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakReport {
    /// Recovered bytes.
    pub recovered: Vec<u8>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Seconds at the model's frequency.
    pub seconds: f64,
    /// Leak throughput.
    pub bytes_per_sec: f64,
}

impl LeakReport {
    /// Leaks `len` bytes with one `leak_byte(i)` call per index
    /// `0..len` and totals their cycles.
    pub(crate) fn from_fn(
        len: usize,
        freq_ghz: f64,
        mut leak_byte: impl FnMut(u64) -> LeakedByte,
    ) -> LeakReport {
        let mut recovered = Vec::with_capacity(len);
        let mut cycles = 0u64;
        for i in 0..len as u64 {
            let b = leak_byte(i);
            recovered.push(b.value);
            cycles += b.cycles;
        }
        LeakReport {
            seconds: cycles as f64 / (freq_ghz * 1e9),
            bytes_per_sec: bytes_per_second(recovered.len(), cycles, freq_ghz),
            recovered,
            cycles,
        }
    }

    /// Error rate against the expected plaintext.
    pub fn error_against(&self, expected: &[u8]) -> f64 {
        error_rate(expected, &self.recovered)
    }

    /// Table 2 success criterion: strictly more than half of the bytes
    /// recovered correctly.
    pub fn succeeded(&self, expected: &[u8]) -> bool {
        self.error_against(expected) < 0.5
    }
}

/// One leaked byte with decoding diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakedByte {
    /// The decoded value.
    pub value: u8,
    /// Votes per candidate across batches.
    pub votes: Vec<u32>,
    /// Simulated cycles spent on this byte.
    pub cycles: u64,
}

impl LeakedByte {
    /// The byte a [`crate::batch::decode_byte`] sweep decoded, with the
    /// cycles its probes spent.
    pub(crate) fn decoded((out, cycles): (DecodeOutcome, u64)) -> LeakedByte {
        LeakedByte {
            value: out.value,
            votes: out.votes,
            cycles,
        }
    }
}
