#!/bin/sh
# Offline quality gate (hermetic-build policy, DESIGN.md §8): the default
# dependency graph is path-only, so build and tests must pass with zero
# network access. fmt and clippy run when the components are installed,
# and are skipped (with a note) when they are not.
set -e
cd "$(dirname "$0")/.."

echo "== build (offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== perfbench-selftest (repo benchmark against crates/*) =="
# perfbench is a workspace of its own, so the steps above never build it.
# Its self-tests run every workload and checker at tiny size plus the
# negative tests, so a change to the crates it calls that breaks the
# benchmark fails here rather than in the next benchmark run.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

if cargo fmt --version >/dev/null 2>&1; then
  echo "== fmt =="
  cargo fmt --all --check
else
  echo "== fmt: rustfmt not installed, skipped =="
fi

if cargo clippy --version >/dev/null 2>&1; then
  echo "== clippy =="
  cargo clippy --release --offline --workspace --all-targets -- -D warnings
else
  echo "== clippy: not installed, skipped =="
fi

echo "== rustdoc (intra-doc links, warnings denied) =="
# Every doc link must resolve to a public item: a renamed or removed
# item otherwise leaves a dangling link that only a doc build notices.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== bench-smoke (B1 vs committed baseline) =="
# Tiny B1 matrix under the counting allocator: fails on any steady-state
# heap allocation in the scratch path, a warm-started Weiszfeld that is
# not >=2x cheaper than cold, or a >20% rounds/sec regression of the
# default engine against the committed record.
smoke_out="$(mktemp -d)"
cargo run --release --offline -p gather-bench --features alloc-audit \
  --bin b1_throughput -- --quick --baseline BENCH_b1_throughput.json \
  --out "$smoke_out"

echo "== bench-smoke (B7 vs committed baseline, thread matrix) =="
# Quick B7 run against the committed record: exercises the persistent
# worker pool at 1, 2 and 4 workers over a class-diverse sweep (the
# thread-matrix smoke), cross-checks result determinism across pool sizes,
# and fails on a SoA kernel that fell behind its scalar reference or a
# >20% single-worker throughput regression. The 3x-at-4-workers gate
# enforces itself only on machines with >= 4 cores (the JSON records an
# explicit skip reason otherwise).
cargo run --release --offline -p gather-bench \
  --bin b7_scaling -- --quick --baseline BENCH_b7_scaling.json \
  --out "$smoke_out"

echo "== obs-smoke (B9 vs committed baseline) =="
# Quick B9 run: absent/disabled/enabled engine observability over a
# class-diverse sweep. Fails if carrying a disabled handle costs >2% vs
# no handle at all, if enabling instrumentation changes any simulation
# result bit (timing must never steer behaviour), or if the streamed
# trace schema drifted from the pinned key set in the committed record.
cargo run --release --offline -p gather-bench \
  --bin b9_obs -- --quick --baseline BENCH_b9_obs.json \
  --out "$smoke_out"

echo "== sweep-smoke (B10 vs committed baseline, batch vs sequential) =="
# Quick B10 run: the columnar mega-sweep engine against the
# one-engine-per-scenario map path. Always fails if batched RunMetrics
# are not bit-identical to the sequential path at any pool size (the
# identity pass covers all six configuration classes), if the batched
# path drops below 2x scenarios/sec at 1 worker, or on a >30% 1-worker
# batched-throughput regression vs the committed record. Multi-worker
# rows auto-skip with a recorded reason on machines with < 4 cores
# (the B7 convention).
cargo run --release --offline -p gather-bench \
  --bin b10_sweep -- --quick --baseline BENCH_b10_sweep.json \
  --out "$smoke_out"

echo "== largen-smoke (B11 incremental vs full recompute) =="
# Quick B11 run: the incremental dirty-tracked analysis path against the
# full-recompute reference at n in {1024, 4096}. Always fails if the two
# modes are not bit-identical (positions and cache counters) or if the
# incremental speedup drops below 3x at n = 4096 — both gates compare
# the modes against each other on the same box, so they hold on any
# machine. The absolute rounds/s regression check against the committed
# record auto-skips with a recorded reason on machines with < 2 cores
# (the B7 convention: starved-runner wall clock is noise, not signal).
cargo run --release --offline -p gather-bench \
  --bin b11_largen -- --quick --baseline BENCH_b11_largen.json \
  --out "$smoke_out"

echo "== async-smoke (B12 event-heap engine vs committed baseline) =="
# Quick B12 run: the event-heap ASYNC engine. Always fails if the
# degenerate corner (atomic cycles, lockstep pacing, rigid motion) is not
# bit-identical to the FSYNC round engine for every configuration class,
# or if a same-seed phased/non-rigid/skewed run is not byte-reproducible
# — both gates are machine-independent. The absolute events/s regression
# check against the committed record auto-skips with a recorded reason on
# machines with < 2 cores (the B7 convention).
cargo run --release --offline -p gather-bench \
  --bin b12_async -- --quick --baseline BENCH_b12_async.json \
  --out "$smoke_out"
rm -rf "$smoke_out"

echo "== service-smoke (gather-serve over TCP) =="
# Boots the scenario service on an ephemeral port and drives it with the
# pure-Rust client over a real socket: one scenario request (response
# asserted bit-identical to the in-process run), one malformed request
# (must be 400, not a hang or 500), a /metrics scrape with counter
# assertions, and a graceful shutdown that must leave the port dead.
cargo run --release --offline -p gather-serve --bin b8_service -- --smoke

echo "== serve-cache-smoke (event loop + deterministic result cache) =="
# Boots the service on its default (epoll) engine and asserts the result
# cache end to end: cold-miss/hot-hit disposition headers, cache-hit
# payloads bit-identical to in-process runs, a >= 0.9 hit-rate on a
# ~200-request probe, and /v1/batch identity through the same cache.
# Auto-skips (with the reason printed) where the epoll engine is
# unavailable — non-Linux hosts or GATHER_NO_EPOLL=1.
cargo run --release --offline -p gather-serve --bin b8_service -- --cache-smoke

echo "== trace-smoke (corpus capture + analytics vs committed baseline) =="
# The trace-corpus gate (DESIGN.md §18): captures the standard six-class
# corpus twice over POST /v1/trace against two in-process service
# instances (must be byte-deterministic), audits every execution clean (zero monotonicity violations,
# zero non-lemma transition edges, all gather), asserts the analyzer's
# NDJSON byte-identical to the committed baseline, and runs a
# zero-tolerance self-diff.
cargo run --release --offline -p gather-trace --bin trace-tool -- \
  smoke --baseline results/trace_analytics.json

echo "== check.sh: all gates passed =="
