#!/bin/sh
# Regenerates every experiment table/figure CSV under results/.
# Runs the offline build+test gate first so tables are never produced from
# a broken tree; skip it with NO_CHECK=1 ./run_experiments.sh.
#
# The harness is built exactly once up front and each runner binary is then
# invoked directly from target/release — per-binary `cargo run` used to pay
# a cargo lock + freshness check for all 16 runners. Set JOBS=N to run up
# to N runner binaries concurrently (they write disjoint results/ files and
# each scales its own worker pool via GATHER_THREADS, so parallel waves are
# safe; default is sequential, which is what a 1-core box wants).
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

BINS="t1_theorem51 t2_baselines t3_bivalent t4_qr_detection t5_waitfree \
      t6_classification t7_byzantine f1_scaling f2_delta f3_transitions \
      f4_potential f5_crash_timing f6_staleness a1_ablations b7_scaling"
JOBS="${JOBS:-1}"

# run_one BIN [extra args forwarded to the binary]
run_one() {
  bin="$1"
  shift
  echo "== $bin =="
  "target/release/$bin" --out results "$@" | tee "results/$bin.txt"
}

if [ "$JOBS" -gt 1 ]; then
  # Parallel waves of $JOBS binaries, draining each wave before starting
  # the next so at most $JOBS runners compete for the machine at a time.
  active=0
  for bin in $BINS; do
    run_one "$bin" "$@" &
    active=$((active + 1))
    if [ "$active" -ge "$JOBS" ]; then
      wait
      active=0
    fi
  done
  wait
else
  for bin in $BINS; do
    run_one "$bin" "$@"
  done
fi

# The service load bench, the observability-overhead bench, the
# mega-sweep bench, the ASYNC event-heap bench and the ASYNC boundary
# mapper run last and always in quick mode: the committed
# BENCH_b8_service.json / BENCH_b9_obs.json / BENCH_b10_sweep.json /
# BENCH_b12_async.json records and the committed results/sweep_phase.* and
# results/{grid,standup}_boundary.* figures are regenerated deliberately
# (full run, by hand), not as a side effect of refreshing the result
# tables. b8's quick mode covers the full new surface — cold open-loop
# sweep, cache-hit closed-loop sweep and the /v1/batch amortisation
# curve — at reduced request counts.
run_one b8_service --quick "$@"
run_one b9_obs --quick "$@"
run_one b10_sweep --quick "$@"
run_one b12_async --quick "$@"
run_one sweep --quick "$@"
run_one f7_boundary --quick "$@"
