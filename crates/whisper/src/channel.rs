//! TET-CC: the transient-execution-timing covert channel (§4.1).
//!
//! The sender writes a byte into a shared page; the receiver sweeps the
//! test value through the Figure 1a gadget (null-pointer window, Jcc on
//! the shared byte) and decodes by batched argmax. The paper reports
//! 500 B/s at < 5 % error on the i7-7700 for 1 KiB of random payload.

use std::sync::{Arc, OnceLock};

use crate::analysis::{bytes_per_second, error_rate, ArgmaxDecoder, Polarity};
use crate::batch::{decode_byte, FixedRec, ProbeMemo, ProbeResult};
use crate::gadget::{TetGadget, TetGadgetSpec};
use crate::scenario::{Scenario, SHARED_PAGE};
use tet_uarch::{Machine, MachineSnapshot};

/// Quality/throughput report of a covert-channel transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReport {
    /// Bytes the receiver decoded.
    pub received: Vec<u8>,
    /// Fraction of wrong bytes.
    pub error_rate: f64,
    /// Total simulated cycles spent receiving.
    pub cycles: u64,
    /// Wall-clock seconds at the model's frequency.
    pub seconds: f64,
    /// Decoded throughput.
    pub bytes_per_sec: f64,
}

impl ChannelReport {
    /// Builds the quality report for one transmission.
    ///
    /// Degenerate transmissions (empty payload, zero cycles) report all
    /// rates as `0.0` rather than `NaN`/`inf` — these values serialize
    /// into RunReport JSON, where non-finite numbers are invalid.
    pub fn new(sent: &[u8], received: Vec<u8>, cycles: u64, freq_ghz: f64) -> Self {
        let denom = freq_ghz * 1e9;
        let seconds = if cycles == 0 || denom <= 0.0 {
            0.0
        } else {
            cycles as f64 / denom
        };
        ChannelReport {
            error_rate: error_rate(sent, &received),
            cycles,
            seconds,
            bytes_per_sec: bytes_per_second(received.len(), cycles, freq_ghz),
            received,
        }
    }
}

/// The TET covert channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetCovertChannel {
    /// Argmax batches per byte (more batches: slower, more accurate).
    pub batches: u32,
}

impl Default for TetCovertChannel {
    fn default() -> Self {
        TetCovertChannel { batches: 3 }
    }
}

impl TetCovertChannel {
    /// Creates a channel with the given batch count.
    pub fn new(batches: u32) -> Self {
        TetCovertChannel { batches }
    }

    /// Snapshot forking is the only trial mode: every byte's trials fork
    /// from one shared warmed-up [`MachineSnapshot`]. Kept for callers
    /// that still ask for it explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `on` is `false`.
    pub fn with_snapshot_trials(self, on: bool) -> Self {
        assert!(on, "snapshot-forked trials are the only trial mode");
        self
    }

    /// Receives one byte (the sender must have written it already).
    pub fn receive_byte(&self, sc: &mut Scenario) -> (u8, u64) {
        let cfg = sc.machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg));
        let mut cycles = 0u64;
        // Warm up the gadget's code and structures once. The warm-up run
        // spends simulated receiver time like any other, so it counts
        // toward the cycle total (and thus the reported throughput).
        if let Some((_, c)) = gadget.measure_detailed(&mut sc.machine, 0) {
            cycles += c;
        }
        // Divergence-aware batching: the shared byte predicts the one
        // test value that takes the in-window branch; proven-fixed
        // non-matching probes replay instead of simulating.
        let mut memo = ProbeMemo::new(&sc.machine, gadget.match_hint(&sc.machine));
        let decoder = ArgmaxDecoder::new(self.batches, Polarity::MaxWins);
        let (out, c) = decode_byte(
            &mut sc.machine,
            &mut memo,
            decoder,
            |_| {},
            |m, test| gadget.measure_detailed(m, test),
        );
        (out.value, cycles + c)
    }

    /// Transmits `payload` through the channel and reports quality.
    ///
    /// The receiver warms up once, snapshots the machine and forks every
    /// byte's trials from the snapshot; `sc` itself is left untouched.
    pub fn transmit(&self, sc: &mut Scenario, payload: &[u8]) -> ChannelReport {
        self.transmit_chunked(sc, payload, 1)
    }

    /// Transmits `payload` on up to `threads` worker threads and reports
    /// quality.
    ///
    /// One warm-up probe primes code pages, predictors and caches; every
    /// byte then restores the warmed [`MachineSnapshot`] (each worker
    /// holds a private machine), re-seeds the interrupt phase from its
    /// **global byte index**, writes its value into the shared page and
    /// decodes. Each byte's result depends only on the snapshot and its
    /// index — never on which worker ran it or what ran before — so the
    /// report (bytes *and* cycles) is **identical to [`Self::transmit`]**
    /// at any thread count. `sc` itself is left untouched.
    ///
    /// Reported `cycles` is the total simulated receive cost.
    pub fn transmit_chunked(&self, sc: &Scenario, payload: &[u8], threads: usize) -> ChannelReport {
        let cfg = sc.machine.config().clone();
        if payload.is_empty() {
            return ChannelReport::new(payload, Vec::new(), 0, cfg.freq_ghz);
        }
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(SHARED_PAGE, &cfg));
        let mut warm = sc.machine.clone();
        let mut cycles = 0u64;
        // The warm-up run spends simulated receiver time like any other,
        // so it counts toward the cycle total — but only once for the
        // whole payload, not once per byte.
        if let Some((_, c)) = gadget.measure_detailed(&mut warm, 0) {
            cycles += c;
        }
        let snap: MachineSnapshot = warm.snapshot();
        let decoder = ArgmaxDecoder::new(self.batches, Polarity::MaxWins);
        // All trials fork from one snapshot, so their non-matching
        // probes share one fixed point: whichever clone establishes it
        // first publishes the record, and every later clone fast-forwards
        // from it after a one-probe confirmation. The record is a pure
        // function of the snapshot (racing writers store identical
        // values), so decoding stays identical at any thread count.
        let fixed: Arc<OnceLock<FixedRec<ProbeResult>>> = Arc::new(OnceLock::new());
        let per_byte: Vec<(u8, u64)> = tet_par::run_indexed_with(
            threads,
            payload.len(),
            || Machine::from_snapshot(&snap),
            |m, i| {
                m.restore(&snap);
                m.cpu_mut().reseed_interrupt_phase(i as u64);
                let pa = m
                    .aspace()
                    .translate(SHARED_PAGE)
                    .expect("shared page is mapped");
                m.phys_mut().write_u8(pa, payload[i]);
                // The hint is this trial's own payload byte (read back
                // through the forwarding oracle, after the write above).
                let mut memo = ProbeMemo::seeded(m, gadget.match_hint(m), fixed.get().cloned());
                let (out, c) = decode_byte(
                    m,
                    &mut memo,
                    decoder,
                    |_| {},
                    |m, test| gadget.measure_detailed(m, test),
                );
                if let Some(rec) = memo.fixed() {
                    let _ = fixed.set(rec.clone());
                }
                (out.value, c)
            },
        );
        let mut received = Vec::with_capacity(payload.len());
        for (b, c) in per_byte {
            received.push(b);
            cycles += c;
        }
        ChannelReport::new(payload, received, cycles, cfg.freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOptions;
    use tet_uarch::CpuConfig;

    #[test]
    fn channel_moves_one_byte() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        sc.sender_write(0xc3);
        let (got, cycles) = TetCovertChannel::default().receive_byte(&mut sc);
        assert_eq!(got, 0xc3);
        assert!(cycles > 0);
    }

    #[test]
    fn channel_moves_a_short_payload_error_free_without_noise() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let payload = b"TET";
        let report = TetCovertChannel::new(2).transmit(&mut sc, payload);
        assert_eq!(report.received, payload);
        assert_eq!(report.error_rate, 0.0);
        assert!(report.bytes_per_sec > 0.0);
    }

    #[test]
    fn warm_up_cycles_are_counted() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        sc.sender_write(0x5a);
        let mut replay = sc.clone();
        let (_, cycles) = TetCovertChannel::new(1).receive_byte(&mut sc);
        // Replay the exact same deterministic measurement sequence by
        // hand on the clone, keeping the warm-up cost separate.
        let cfg = replay.machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::covert_channel(replay.shared_page(), &cfg));
        let (_, warmup) = gadget
            .measure_detailed(&mut replay.machine, 0)
            .expect("warm-up probe must complete");
        let mut probes = 0u64;
        for test in 0..=255u8 {
            if let Some((_, c)) = gadget.measure_detailed(&mut replay.machine, test as u64) {
                probes += c;
            }
        }
        assert!(warmup > 0);
        assert_eq!(
            cycles,
            warmup + probes,
            "the warm-up run must count toward the receive cost"
        );
    }

    #[test]
    fn empty_payload_reports_finite_zero_rates() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let ch = TetCovertChannel::new(1);
        let direct = ch.transmit(&mut sc, b"");
        let chunked = ch.transmit_chunked(&sc, b"", 4);
        for report in [&direct, &chunked] {
            assert!(report.received.is_empty());
            assert_eq!(report.cycles, 0);
            // All rates must be exact zeros — NaN/inf here would
            // serialize into RunReport JSON as invalid tokens.
            assert_eq!(report.error_rate, 0.0);
            assert_eq!(report.seconds, 0.0);
            assert_eq!(report.bytes_per_sec, 0.0);
        }
    }

    #[test]
    fn chunked_transmit_equals_transmit_at_any_thread_count() {
        // Every byte forks from the same warmed-up snapshot, so the
        // parallel path runs the *exact* same per-byte trials as the
        // serial `transmit` — the reports must be equal, cycles included.
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let payload: Vec<u8> = (0..40u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let ch = TetCovertChannel::new(2);
        let serial = ch.transmit(&mut sc, &payload);
        assert_eq!(
            serial.received, payload,
            "noise-free channel decodes exactly"
        );
        for threads in [1, 2, 8] {
            let par = ch.transmit_chunked(&sc, &payload, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "only trial mode")]
    fn snapshot_trials_cannot_be_turned_off() {
        let _ = TetCovertChannel::new(2).with_snapshot_trials(false);
    }

    #[test]
    fn channel_works_on_every_table2_model() {
        // TET-CC is the one attack that succeeds on all five CPUs.
        for cfg in CpuConfig::table2_presets() {
            let mut sc = Scenario::new(cfg.clone(), &ScenarioOptions::default());
            sc.sender_write(b'W');
            let (got, _) = TetCovertChannel::new(2).receive_byte(&mut sc);
            assert_eq!(got, b'W', "TET-CC must work on {}", cfg.name);
        }
    }
}
