#!/bin/sh
# Regenerates every experiment table/figure: under results/, except the
# full-size T/F/A tables, which go to out/results/.
# Runs the offline build+test gate first so tables are never produced from
# a broken tree; skip it with NO_CHECK=1 ./run_experiments.sh.
#
# The harness is built exactly once up front and each binary is then
# invoked directly from target/release. `tables` writes every T/F/A
# table: its CSVs plus `<table>.txt`, the text it prints. The committed
# quick outputs under results/ are a gate (check.sh's results-smoke
# stage), so with `--quick` the tables go to results/ and a full-size run
# writes them to out/results/ (not committed) instead. A change that
# moves a table fails that gate here, before anything is regenerated:
# regenerate it with the `tables` command check.sh prints, or with
# `NO_CHECK=1 ./run_experiments.sh --quick`.
#
# `--bench-only BASE [PAIRS] [WORKLOAD...]` instead runs only the repo
# benchmark, on the working tree and on commit BASE, in alternating pairs
# on this host (scripts/bench_pairs.sh), and skips the gate and tables.
set -e
cd "$(dirname "$0")"
if [ "$1" = "--bench-only" ]; then
  shift
  exec sh scripts/bench_pairs.sh "$@"
fi
if [ -z "$NO_CHECK" ]; then
  sh scripts/check.sh
fi

echo "== build (once) =="
cargo build --release -q -p gather-bench -p gather-serve

tables_out=out/results
for arg in "$@"; do
  if [ "$arg" = "--quick" ]; then
    tables_out=results
  fi
done
echo "== tables (-> $tables_out) =="
target/release/tables --out "$tables_out" "$@"

# run_one BIN [extra args forwarded to the binary]
run_one() {
  bin="$1"
  shift
  echo "== $bin =="
  "target/release/$bin" --out results "$@" | tee "results/$bin.txt"
}

# The benchmarks and the ASYNC boundary mapper always run in quick mode:
# the committed BENCH_b*.json records and the committed
# results/sweep_phase.* and results/{grid,standup}_boundary.* figures are
# regenerated deliberately (full run, by hand), not as a side effect of
# refreshing the result tables. b8's quick mode covers the full new
# surface — cold open-loop sweep, cache-hit closed-loop sweep and the
# /v1/batch amortisation curve — at reduced request counts.
run_one b7_scaling --quick "$@"
run_one b8_service --quick "$@"
run_one b9_obs --quick "$@"
run_one b10_sweep --quick "$@"
run_one b12_async --quick "$@"
run_one sweep --quick "$@"
run_one f7_boundary --quick "$@"
