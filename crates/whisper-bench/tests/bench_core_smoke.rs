//! `bench_core --smoke` end to end: every gated key is present and
//! positive, and every kernel/structures leg reports a positive time.
//!
//! The bench gate fails a gated key the change stops reporting, so a
//! renamed key fails the next bench pair; this test catches it earlier
//! and without timing anything. Only the presence and sign of the keys
//! are checked, so host noise cannot fail it.

use std::process::Command;

use whisper_bench::baseline::direction_for;
use whisper_bench::RunReport;

/// The keys the bench gate directs in every smoke report.
/// `table2.threadsN_seconds` and `table2.speedup` are directed too, but
/// a single-CPU host does not report them.
const GATED_KEYS: &[&str] = &[
    "sim_cycles_per_sec",
    "fig1_probe.ns_per_iter",
    "decode_sweep.ns_per_iter",
    "decode_sweep.ns_per_uop",
    "snapshot_fork.ns_per_trial",
    "snapshot_fork.restore_ns",
    "snapshot_fork.simulate_ns",
    "table2.threads1_seconds",
    "table2.ns_per_trial",
];

/// The informational legs: the noisy decode sweep, and the raw
/// simulator kernels and hot-path structures keyed by the ids DESIGN.md's
/// structures table uses.
const FOLDED_KEYS: &[&str] = &[
    "decode_sweep_noisy.sweep_ns",
    "kernel.straight_line_1k_insts_ns",
    "kernel.branchy_loop_200_iters_ns",
    "kernel.tlb_miss_loads_16_pages_ns",
    "kernel.parked_window_ns",
    "structures.cache_lookup_hit_x1024_ns",
    "structures.cache_fill_evict_x1024_ns",
    "structures.tlb_lookup_hit_x1024_ns",
    "structures.dsb_lookup_hit_x1024_ns",
    "structures.btb_predict_cond_x1024_ns",
    "structures.machine_new_ns",
    "structures.machine_clone_ns",
    "structures.from_snapshot_ns",
];

#[test]
fn smoke_report_feeds_every_gate_and_folded_leg() {
    let dir = std::env::temp_dir().join(format!("tet_bench_core_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("BENCH_core.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_core"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out_path)
        .env("TET_QUIET", "1")
        // bench_core writes only `--out`; should a leg ever write a
        // report, it lands in this temp dir, not the repo's
        // target/reports.
        .env("TET_REPORT_DIR", &dir)
        .current_dir(&dir)
        .output()
        .expect("spawn bench_core");
    assert!(
        out.status.success(),
        "bench_core --smoke failed ({:?})\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("bench_core writes --out");
    std::fs::remove_dir_all(&dir).ok();
    let rep = RunReport::from_json(&text).expect("bench_core report parses");

    let value = |key: &str| match key {
        "sim_cycles_per_sec" => rep.sim_cycles_per_sec,
        _ => rep.scalars.get(key).copied(),
    };
    for key in GATED_KEYS {
        assert!(direction_for(key).is_some(), "`{key}` is not gated");
        let v = value(key);
        assert!(v.is_some_and(|v| v > 0.0), "gated `{key}` is {v:?}");
    }
    for (key, v) in &rep.scalars {
        if direction_for(key).is_some() {
            assert!(*v > 0.0, "gated `{key}` is {v}");
        }
    }

    for key in FOLDED_KEYS {
        let ns = rep.scalars.get(*key).copied();
        assert!(ns.is_some_and(|ns| ns > 0.0), "`{key}` is {ns:?}");
        // Recorded, not gated.
        assert_eq!(direction_for(key), None, "`{key}` would be gated");
    }

    // The live-probe counts batching leaves: deterministic, so they are
    // counters, and ungated.
    for key in ["decode_sweep_noisy.live_probes", "kaslr_sweep.live_probes"] {
        let live = rep.counters.get(key).copied();
        assert!(live.is_some_and(|n| n > 0), "`{key}` is {live:?}");
        assert_eq!(direction_for(key), None, "`{key}` would be gated");
    }
}
