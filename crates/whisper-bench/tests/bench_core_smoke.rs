//! `bench_core --smoke` end to end: every `--baseline` gate finds its
//! key, and every kernel/structures leg reports a positive time.
//!
//! A gate whose key is missing on either side evaluates to
//! `Verdict::Skipped`, not to a failure, so renaming a `bench_core` key
//! would silently switch its regression gate off. The report is compared
//! with itself, so host noise cannot fail the test: only the presence
//! and sign of the keys are checked.

use std::process::Command;

use whisper_bench::baseline::{bench_core_gates, run_gates, Verdict};
use whisper_bench::{trend, RunReport};

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

    for o in run_gates(&bench_core_gates(), &rep, &rep) {
        assert_eq!(
            o.verdict,
            Verdict::Pass,
            "gate `{}` is {:?} against its own report: the key is missing or non-positive",
            o.key,
            o.verdict
        );
    }

    for key in FOLDED_KEYS {
        let ns = rep.scalars.get(*key).copied();
        assert!(ns.is_some_and(|ns| ns > 0.0), "`{key}` is {ns:?}");
        // Informational until the lineage has enough points for a noise
        // band: the trend gate must not pick a direction for them.
        assert_eq!(
            trend::direction_for(key),
            None,
            "`{key}` would be trend-gated"
        );
    }

    // The live-probe counts batching leaves: deterministic, so they are
    // counters, and ungated.
    for key in ["decode_sweep_noisy.live_probes", "kaslr_sweep.live_probes"] {
        let live = rep.counters.get(key).copied();
        assert!(live.is_some_and(|n| n > 0), "`{key}` is {live:?}");
        assert_eq!(
            trend::direction_for(key),
            None,
            "`{key}` would be trend-gated"
        );
    }
}
