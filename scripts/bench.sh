#!/usr/bin/env bash
# Core hot-path benchmark driver (the repository's one perf harness).
#
#   scripts/bench.sh           full run: BENCH_core.json at full iteration counts
#   scripts/bench.sh --smoke   CI-sized run: BENCH_core.json, few iters
#
# Extra args are forwarded to bench_core; in particular
# `--baseline PATH` fails the run when any of the six metrics gated by
# `whisper_bench::baseline::bench_core_gates()` performs below 70% of a
# previously committed report (CI regression gate): sim_cycles_per_sec
# dropping below 0.7x, or table2.ns_per_trial, decode_sweep.ns_per_iter,
# decode_sweep.ns_per_uop, snapshot_fork.ns_per_trial or
# snapshot_fork.restore_ns rising past 1/0.7x.
#
# Writes BENCH_core.json at the repository root (schema-v2 RunReport JSON):
# fig1 gadget ns/iter, decode-sweep ns/iter and ns/µop, the snapshot-fork
# trial split into restore and simulate, Table 2 matrix wall time at
# --threads 1 vs the effective worker count (min(max(--threads, 8), host
# CPUs), recorded as table2.threads_n) with the measured speedup, and the
# informational decode_sweep_noisy.sweep_ns (the decode sweep under the
# §4.1 timer-interrupt noise), kernel.*_ns and structures.*_ns legs.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
  MODE=smoke
  shift
fi

if [[ "$MODE" == full ]]; then
  cargo run --release -p whisper-bench --bin bench_core -- "$@"
else
  cargo run --release -p whisper-bench --bin bench_core -- --smoke "$@"
fi

echo "bench done (mode: $MODE) -> BENCH_core.json"
