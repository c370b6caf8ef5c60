#!/usr/bin/env bash
# Core hot-path benchmark driver (the repository's one perf harness).
#
#   scripts/bench.sh             full bench_core run -> BENCH_core.json
#   scripts/bench.sh --smoke     CI-sized run (same keys, few iterations)
#   scripts/bench.sh --pair REV  the bench gate
#
# Without --pair, extra args go to bench_core (see its module doc for
# the keys). --pair extracts REV with `git archive` into
# target/pair/<sha>/ and builds its bench_core once per commit. The
# change side is built the same way, from a copy of this working tree's
# tracked and untracked (not ignored) files in target/pair/work/. It
# then runs 10 smoke pairs of the two binaries (parent and change),
# swapping which side goes first each pair, and
# `bench_pair` compares them (whisper_bench::baseline), writing the
# paired report to BENCH_core.json. A gated key fails when it is worse
# in at least 9 of the 10 pairs and its median is worse than the
# parent's by more than the parent's relative IQR, or when the change
# stops reporting it.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
REV=
while (($#)); do
  case "$1" in
    --smoke) MODE=smoke; shift ;;
    --pair) REV="${2:?--pair needs a git revision}"; shift 2 ;;
    *) break ;;
  esac
done

if [[ -z "$REV" ]]; then
  if [[ "$MODE" == smoke ]]; then
    set -- --smoke "$@"
  fi
  cargo run --release -p whisper-bench --bin bench_core -- "$@"
  echo "bench done (mode: $MODE) -> BENCH_core.json"
  exit 0
fi

if (($#)); then
  echo "bench.sh: --pair takes no bench_core arguments (got: $*)" >&2
  exit 2
fi
PAIRS=10 # whisper_bench::baseline::PAIRS; bench_pair checks the count
sha=$(git rev-parse --verify "$REV^{commit}")
parent=target/pair/$sha/target/release/bench_core
if [[ ! -x "$parent" ]]; then
  rm -rf "target/pair/$sha"
  mkdir -p "target/pair/$sha"
  git archive "$sha" | tar -x -C "target/pair/$sha"
  cargo build --release --offline -q --manifest-path "target/pair/$sha/Cargo.toml" \
    -p whisper-bench --bin bench_core
fi
work=target/pair/work
mkdir -p "$work"
find "$work" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
git ls-files -z -co --exclude-standard |
  while IFS= read -r -d '' f; do if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi; done |
  tar -c --null -T - | tar -x -C "$work"
cargo build --release --offline -q --manifest-path "$work/Cargo.toml" \
  -p whisper-bench --bin bench_core --bin bench_pair

runs=target/pair/runs
rm -rf "$runs"
mkdir -p "$runs"
for ((i = 1; i <= PAIRS; i++)); do
  n=$(printf %02d "$i")
  order=(parent change)
  if ((i % 2 == 0)); then
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    bin=$work/target/release/bench_core
    [[ "$side" == change ]] || bin=$parent
    TET_QUIET=1 "$bin" --smoke --out "$runs/$side-$n.json" > /dev/null
  done
done
"$work/target/release/bench_pair" "$runs" "$sha"
