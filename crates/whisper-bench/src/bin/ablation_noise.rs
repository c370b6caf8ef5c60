//! Ablation A1 — noise sensitivity: covert-channel error rate versus
//! timer-interrupt rate and versus the number of argmax batches.
//!
//! The paper's batched argmax exists to average away exactly this noise;
//! the expected shape: error grows with interrupt rate and shrinks with
//! more batches.
//!
//! Run: `cargo run --release -p whisper-bench --bin ablation_noise [--threads N] [--check]`
//!
//! Both sweeps fan out one independent scenario per parameter value via
//! `tet-par`; output is byte-identical for any `--threads` setting.
//! `--check` runs every probe against the retirement oracle, which also
//! turns trial batching off: its stdout is the all-live reference the
//! batched run must equal, down to the densest noise (period 401) of
//! any experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tet_uarch::CpuConfig;
use whisper::channel::TetCovertChannel;
use whisper::scenario::{Scenario, ScenarioOptions};
use whisper_bench::{section, write_report, RunReport, Table};

fn payload(len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..len).map(|_| rng.gen()).collect()
}

fn run(interrupt_period: u64, batches: u32, bytes: usize) -> f64 {
    let mut sc = Scenario::new(
        CpuConfig::kaby_lake_i7_7700(),
        &ScenarioOptions {
            interrupt_period,
            ..ScenarioOptions::default()
        },
    );
    TetCovertChannel::new(batches)
        .transmit(&mut sc, &payload(bytes))
        .error_rate
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = tet_par::threads_from_args(&mut args);
    whisper_bench::check_from_args(&mut args);
    let started = std::time::Instant::now();
    let bytes = 24;
    let mut rep = RunReport::new("ablation_noise");
    rep.set_meta("ablation", "A1");
    rep.set_meta("cpu", "kaby_lake_i7_7700");
    rep.counter("payload_bytes", bytes as u64);

    section("Error rate vs timer-interrupt period (batches = 1)");
    let mut t1 = Table::new(&[
        "interrupt period (cycles)",
        "interrupts/probe",
        "error rate",
    ]);
    let periods = [0u64, 20011, 5003, 1201, 401];
    let errs = tet_par::par_map(threads, &periods, |&period| run(period, 1, bytes));
    for (&period, &err) in periods.iter().zip(&errs) {
        rep.scalar(&format!("error_rate.period_{period:05}"), err);
        let per_probe = if period == 0 {
            "0".to_string()
        } else {
            format!("~{:.2}", 300.0 / period as f64)
        };
        t1.row_owned(vec![
            if period == 0 {
                "off".into()
            } else {
                period.to_string()
            },
            per_probe,
            format!("{:.1} %", err * 100.0),
        ]);
    }
    print!("{}", t1.render());
    assert_eq!(errs[0], 0.0, "the noiseless channel must be error-free");
    assert!(
        errs.last().copied().unwrap_or(0.0) > errs[0],
        "heavy interrupt noise must induce errors"
    );

    section("Error rate vs argmax batches (interrupt period = 1201)");
    let mut t2 = Table::new(&["batches", "error rate"]);
    let batch_counts = [1u32, 3, 5, 9];
    let batch_errs = tet_par::par_map(threads, &batch_counts, |&batches| run(1201, batches, bytes));
    for (&batches, &err) in batch_counts.iter().zip(&batch_errs) {
        rep.scalar(&format!("error_rate.batches_{batches}"), err);
        t2.row_owned(vec![batches.to_string(), format!("{:.1} %", err * 100.0)]);
    }
    print!("{}", t2.render());
    assert!(
        batch_errs.last().copied().unwrap_or(1.0) <= batch_errs[0],
        "more batches must not make decoding worse"
    );
    rep.set_throughput(started.elapsed(), threads, None);
    write_report(&rep);
    println!("\nreproduced: the batched argmax buys accuracy back from noise, as in Fig 1b");
}
