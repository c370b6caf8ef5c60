//! §4.1 — experiment setup and result: covert-channel and attack
//! throughput with error rates, on the CPUs the paper highlights.
//!
//! Paper numbers (absolute values are testbed-specific; the comparison
//! targets are rank and order of magnitude):
//!   * TET-CC:  500 B/s  at <5 %  error (i7-7700, 1 KiB random payload)
//!   * TET-MD:   50 B/s  at <3 %  error (i7-7700)
//!   * TET-RSB: 21.5 KB/s at <0.1 % error (i9-13900K)
//!   * TET-KASLR: 0.8829 s (n=3, sd 0.0036) on the i9-10980XE
//!
//! Run: `cargo run --release -p whisper-bench --bin sec41_throughput [payload_bytes] [--threads N]`
//!
//! The covert-channel payload is transmitted in fixed 32-byte chunks and
//! the three KASLR seed replicas fan out via `tet-par`; output is
//! byte-identical for any `--threads` setting. The KASLR fan-out
//! streams a `whisper-top` dashboard to stderr while it runs
//! (`TET_QUIET=1` silences it, `TET_FLIGHT=path` appends JSONL); with
//! `TET_METRICS=1` the flight gauges also land in the JSON report's
//! metrics section. Stdout is byte-identical either way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tet_obs::MetricsSection;
use tet_uarch::CpuConfig;
use whisper::attacks::{TetKaslr, TetMeltdown, TetSpectreRsb};
use whisper::channel::TetCovertChannel;
use whisper::eval::CellStats;
use whisper::scenario::{Scenario, ScenarioOptions};
use whisper_bench::telemetry::Campaign;
use whisper_bench::{section, write_report, RunReport, Table};

fn random_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = tet_par::threads_from_args(&mut args);
    let payload_len: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(64);
    let started = std::time::Instant::now();
    let noise = ScenarioOptions {
        interrupt_period: 7919,
        ..ScenarioOptions::default()
    };
    let mut table = Table::new(&[
        "experiment",
        "CPU",
        "payload",
        "throughput",
        "error",
        "paper throughput",
        "paper error",
    ]);
    let mut report = RunReport::new("sec41_throughput");
    report.set_meta("section", "4.1");
    report.counter("payload_bytes", payload_len as u64);

    section("TET-CC (covert channel)");
    {
        let sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &noise);
        let payload = random_payload(payload_len, 11);
        let rep = TetCovertChannel::default().transmit_chunked(&sc, &payload, threads);
        println!(
            "  {} bytes in {:.4} simulated s -> {:.1} B/s, error {:.2}%",
            payload.len(),
            rep.seconds,
            rep.bytes_per_sec,
            rep.error_rate * 100.0
        );
        table.row_owned(vec![
            "TET-CC".into(),
            "i7-7700".into(),
            format!("{} B", payload.len()),
            format!("{:.1} B/s", rep.bytes_per_sec),
            format!("{:.2} %", rep.error_rate * 100.0),
            "500 B/s".into(),
            "<5 %".into(),
        ]);
        report.scalar("tet_cc.bytes_per_sec", rep.bytes_per_sec);
        report.scalar("tet_cc.error_rate", rep.error_rate);
    }

    section("TET-MD (Meltdown through TET)");
    {
        let mut sc = Scenario::new(
            CpuConfig::kaby_lake_i7_7700(),
            &ScenarioOptions {
                kernel_secret: random_payload(payload_len.min(32), 13),
                ..noise.clone()
            },
        );
        let expected_len = payload_len.min(32);
        let expected = {
            let pa = sc.machine.aspace().translate(sc.kernel_secret_va).unwrap();
            sc.machine.phys().read_bytes(pa, expected_len)
        };
        let rep = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, expected_len);
        println!(
            "  {} bytes in {:.4} simulated s -> {:.1} B/s, error {:.2}%",
            expected_len,
            rep.seconds,
            rep.bytes_per_sec,
            rep.error_against(&expected) * 100.0
        );
        table.row_owned(vec![
            "TET-MD".into(),
            "i7-7700".into(),
            format!("{expected_len} B"),
            format!("{:.1} B/s", rep.bytes_per_sec),
            format!("{:.2} %", rep.error_against(&expected) * 100.0),
            "50 B/s".into(),
            "<3 %".into(),
        ]);
        report.scalar("tet_md.bytes_per_sec", rep.bytes_per_sec);
        report.scalar("tet_md.error_rate", rep.error_against(&expected));
    }

    section("TET-RSB (Spectre-RSB through TET)");
    {
        let secret = random_payload(payload_len.min(16), 17);
        let mut sc = Scenario::new(
            CpuConfig::raptor_lake_i9_13900k(),
            &ScenarioOptions {
                user_secret: secret.clone(),
                ..noise.clone()
            },
        );
        let rep = TetSpectreRsb::default().leak(&mut sc.machine, sc.user_secret_va, secret.len());
        println!(
            "  {} bytes in {:.4} simulated s -> {:.1} B/s, error {:.2}%",
            secret.len(),
            rep.seconds,
            rep.bytes_per_sec,
            rep.error_against(&secret) * 100.0
        );
        table.row_owned(vec![
            "TET-RSB".into(),
            "i9-13900K".into(),
            format!("{} B", secret.len()),
            format!("{:.1} B/s", rep.bytes_per_sec),
            format!("{:.2} %", rep.error_against(&secret) * 100.0),
            "21.5 KB/s".into(),
            "<0.1 %".into(),
        ]);
        report.scalar("tet_rsb.bytes_per_sec", rep.bytes_per_sec);
        report.scalar("tet_rsb.error_rate", rep.error_against(&secret));
    }

    section("TET-KASLR (n=3, like the paper)");
    {
        let seeds = [31u64, 32, 33];
        // Each replica returns its result plus the machine's cost/PMU
        // counters; the campaign observer streams those to the
        // `whisper-top` dashboard as replicas finish (telemetry only —
        // results commit before the observer runs).
        let campaign = Campaign::new("sec41.kaslr", seeds.len() as u64);
        let detailed = tet_par::run_indexed_observed(
            threads,
            seeds.len(),
            || (),
            |(), i| {
                let mut sc = Scenario::new(
                    CpuConfig::comet_lake_i9_10980xe(),
                    &ScenarioOptions {
                        seed: seeds[i],
                        ..noise.clone()
                    },
                );
                // Under interrupt noise each slot needs a few samples (the
                // per-slot minimum rejects the additive bubbles).
                let attack = TetKaslr {
                    samples_per_slot: 3,
                    ..TetKaslr::default()
                };
                let r = attack.break_kaslr(&mut sc.machine, &sc.kernel);
                let mut cs = CellStats::default();
                cs.absorb(sc.machine.stats());
                cs.absorb_pmu(sc.machine.pmu_lifetime());
                (r, cs)
            },
            |_, (_, cs): &(_, CellStats)| campaign.on_cell(cs),
        );
        let runs: Vec<_> = detailed.iter().map(|(r, _)| r.clone()).collect();
        let mut flight = MetricsSection::default();
        campaign.finish(&mut flight);
        if tet_obs::env_flag("TET_METRICS", false) {
            report.set_metrics(flight);
        }
        let mut times = Vec::new();
        for (seed, r) in seeds.iter().zip(&runs) {
            assert!(r.success, "KASLR break must succeed (seed {seed})");
            times.push(r.seconds);
            println!(
                "  seed {seed}: base {:#x} found in {:.6} simulated s ({} probes)",
                r.found_base.unwrap(),
                r.seconds,
                r.probes
            );
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let sd =
            (times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64).sqrt();
        println!(
            "  mean {:.6} s, sd {:.6} (paper: 0.8829 s, sd 0.0036)",
            mean, sd
        );
        table.row_owned(vec![
            "TET-KASLR".into(),
            "i9-10980XE".into(),
            "512 slots".into(),
            format!("{mean:.6} s/break"),
            format!("sd {sd:.6}"),
            "0.8829 s/break".into(),
            "sd 0.0036".into(),
        ]);
        report.scalar("tet_kaslr.mean_seconds", mean);
        report.scalar("tet_kaslr.sd_seconds", sd);
    }

    section("Summary (paper §4.1)");
    print!("{}", table.render());
    report.set_throughput(started.elapsed(), threads, None);
    write_report(&report);
}
