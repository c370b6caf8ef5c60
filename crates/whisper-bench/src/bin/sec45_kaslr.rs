//! §4.5 — breaking KASLR: plain, under KPTI, under FLARE, and in a
//! Docker-style container — plus the baseline probes for contrast.
//!
//! Run: `cargo run -p whisper-bench --bin sec45_kaslr [--threads N]`
//!
//! The plain-KASLR sweep over the three susceptible presets fans out via
//! `tet-par` (one independent scenario per preset); output is
//! byte-identical for any `--threads` setting.

use tet_os::ContainerEnv;
use tet_uarch::CpuConfig;
use whisper::attacks::TetKaslr;
use whisper::baseline::{EntryBleedProbe, PrefetchKaslr};
use whisper::scenario::{Scenario, ScenarioOptions};
use whisper_bench::{section, tick, write_report, RunReport, Table};

fn scenario(
    cpu: CpuConfig,
    seed: u64,
    kpti: bool,
    flare: bool,
    container: ContainerEnv,
) -> Scenario {
    Scenario::new(
        cpu,
        &ScenarioOptions {
            seed,
            kpti,
            flare,
            container,
            ..ScenarioOptions::default()
        },
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = tet_par::threads_from_args(&mut args);
    let started = std::time::Instant::now();
    let mut table = Table::new(&[
        "environment",
        "CPU",
        "probe",
        "success",
        "time (sim s)",
        "paper",
    ]);
    let mut rep = RunReport::new("sec45_kaslr");
    rep.set_meta("section", "4.5");

    section("Plain KASLR (paper: broken on i7-6700, i7-7700, i9-10980XE)");
    let plain_presets = [
        CpuConfig::skylake_i7_6700(),
        CpuConfig::kaby_lake_i7_7700(),
        CpuConfig::comet_lake_i9_10980xe(),
    ];
    let plain_runs = tet_par::par_map(threads, &plain_presets, |cfg| {
        let mut sc = scenario(cfg.clone(), 1201, false, false, ContainerEnv::bare_metal());
        TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel)
    });
    for (cfg, r) in plain_presets.iter().zip(&plain_runs) {
        println!("  {}: success={} ({:.6} s)", cfg.name, r.success, r.seconds);
        table.row_owned(vec![
            "plain".into(),
            cfg.name.into(),
            "TET".into(),
            tick(r.success).into(),
            format!("{:.6}", r.seconds),
            "broken".into(),
        ]);
        assert!(r.success, "plain KASLR must fall on {}", cfg.name);
        rep.scalar(&format!("plain.{}.success", cfg.name), f64::from(r.success));
        rep.scalar(&format!("plain.{}.seconds", cfg.name), r.seconds);
    }

    section("KPTI enabled (paper: trampoline found among 512 offsets within 1 s)");
    {
        let cfg = CpuConfig::comet_lake_i9_10980xe();
        let mut sc = scenario(cfg.clone(), 1301, true, false, ContainerEnv::bare_metal());
        let attack = TetKaslr {
            assume_kpti: true,
            ..TetKaslr::default()
        };
        let r = attack.break_kaslr(&mut sc.machine, &sc.kernel);
        println!(
            "  {}: success={} over {} probes ({:.6} s)",
            cfg.name, r.success, r.probes, r.seconds
        );
        table.row_owned(vec![
            "KPTI".into(),
            cfg.name.into(),
            "TET (trampoline)".into(),
            tick(r.success).into(),
            format!("{:.6}", r.seconds),
            "broken <1 s".into(),
        ]);
        assert!(r.success, "KPTI must not save KASLR");
        assert!(
            r.seconds < 1.0,
            "the 512-slot sweep must finish within 1 simulated second"
        );
        rep.scalar("kpti.success", f64::from(r.success));
        rep.scalar("kpti.seconds", r.seconds);
        rep.counter("kpti.probes", r.probes);
    }

    section("FLARE deployed (paper: state-of-the-art defense, still bypassed)");
    {
        let cfg = CpuConfig::comet_lake_i9_10980xe();
        // The baseline prefetch probe first: FLARE defeats it.
        let mut sc = scenario(cfg.clone(), 1401, false, true, ContainerEnv::bare_metal());
        let pre = PrefetchKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        println!("  prefetch baseline under FLARE: success={}", pre.success);
        table.row_owned(vec![
            "FLARE".into(),
            cfg.name.into(),
            "prefetch baseline".into(),
            tick(pre.success).into(),
            format!("{:.6}", pre.seconds),
            "defended".into(),
        ]);
        assert!(!pre.success, "FLARE must stop the walk-presence baseline");

        let mut sc = scenario(cfg.clone(), 1401, false, true, ContainerEnv::bare_metal());
        let tet = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        println!("  TET-KASLR under FLARE: success={}", tet.success);
        table.row_owned(vec![
            "FLARE".into(),
            cfg.name.into(),
            "TET".into(),
            tick(tet.success).into(),
            format!("{:.6}", tet.seconds),
            "broken".into(),
        ]);
        assert!(tet.success, "TET must bypass FLARE");
        rep.scalar("flare.prefetch_baseline.success", f64::from(pre.success));
        rep.scalar("flare.tet.success", f64::from(tet.success));
        rep.scalar("flare.tet.seconds", tet.seconds);
    }

    section("EntryBleed baseline under KPTI (for context)");
    {
        let cfg = CpuConfig::comet_lake_i9_10980xe();
        let mut sc = scenario(cfg.clone(), 1501, true, false, ContainerEnv::bare_metal());
        let r = EntryBleedProbe::default().break_kaslr(&mut sc.machine, &sc.kernel);
        println!("  EntryBleed under KPTI: success={}", r.success);
        table.row_owned(vec![
            "KPTI".into(),
            cfg.name.into(),
            "EntryBleed baseline".into(),
            tick(r.success).into(),
            format!("{:.6}", r.seconds),
            "broken (2023)".into(),
        ]);
        rep.scalar("kpti.entrybleed_baseline.success", f64::from(r.success));
    }

    section("Docker container (paper: Docker 24.0.1/runc, still broken)");
    {
        let cfg = CpuConfig::comet_lake_i9_10980xe();
        let docker = ContainerEnv::docker_24();
        assert!(
            docker.supports_tet_probe(),
            "Docker leaves rdtsc + faulting loads"
        );
        let mut sc = scenario(cfg.clone(), 1601, false, false, docker.clone());
        let r = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        println!(
            "  {} in Docker {} ({}): success={}",
            cfg.name, docker.version, docker.runtime, r.success
        );
        table.row_owned(vec![
            format!("Docker {}", docker.version),
            cfg.name.into(),
            "TET".into(),
            tick(r.success).into(),
            format!("{:.6}", r.seconds),
            "broken".into(),
        ]);
        assert!(r.success, "containerisation must not stop TET-KASLR");
        rep.scalar("docker.success", f64::from(r.success));
        rep.scalar("docker.seconds", r.seconds);
    }

    section("Summary");
    print!("{}", table.render());
    rep.set_throughput(started.elapsed(), threads, None);
    write_report(&rep);
}
