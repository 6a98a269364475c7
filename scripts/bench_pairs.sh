#!/bin/sh
# Same-host benchmark comparison of the working tree against a base commit.
#
#   sh run_experiments.sh --bench-only BASE [PAIRS] [WORKLOAD...]
#
# Builds perfbench from the working tree and from BASE (checked out in a
# throwaway `git clone` under the temporary directory, removed on exit, so
# nothing is written under the repo's .git), then runs each workload in
# PAIRS base/change pairs at seeds 11, 12, ..., alternating which side of
# a pair runs first. Every run is one `perfbench --seconds <run_seconds of
# BENCHMARK.json> --trace 0` process. Prints, per workload and end-to-end
# metric, the median and quartiles of both sides, the ratio of the
# medians (change / base) and, for the metrics BENCHMARK.json gives a
# direction, in how many pairs the change was better; `failed` is the
# per-run count of failed operations.
#
# PAIRS defaults to 10, the workloads to all three. Nothing under
# perfbench/ or BENCHMARK.json is edited; the logs and the raw
# `workload seed side metric value` table stay in the printed directory.
set -e
cd "$(dirname "$0")/.."

usage="usage: run_experiments.sh --bench-only BASE [PAIRS] [WORKLOAD...]"
base="${1:?$usage}"
shift
pairs=10
if [ $# -gt 0 ]; then
  pairs="$1"
  shift
fi
workloads="${*:-theorem-sweep async-team service-mix}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
commit="$(git rev-parse --verify -q "$base^{commit}")" || {
  echo "bench-only: $base is not a commit" >&2
  exit 2
}

work="$(mktemp -d)"
tree="$work/base"
trap 'rm -rf "$tree"' EXIT
git clone -q --no-checkout . "$tree"
git -C "$tree" checkout -q --detach "$commit"

echo "== build perfbench: working tree =="
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
echo "== build perfbench: $base =="
cargo build --release --offline -q --manifest-path "$tree/perfbench/Cargo.toml"
change_bin="perfbench/target/release/perfbench"
base_bin="$tree/perfbench/target/release/perfbench"

table="$work/runs.tsv"
: >"$table"
for w in $workloads; do
  i=0
  while [ "$i" -lt "$pairs" ]; do
    seed=$((11 + i))
    if [ $((i % 2)) -eq 0 ]; then sides="base change"; else sides="change base"; fi
    for side in $sides; do
      if [ "$side" = base ]; then bin="$base_bin"; else bin="$change_bin"; fi
      log="$work/$w-seed$seed-$side.log"
      echo "== $w seed $seed: $side =="
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$log"
      awk -v w="$w" -v seed="$seed" -v side="$side" '
        $1 == "e2e" { print w, seed, side, $2, $4 }
        $1 == "failed" && $3 == "of" { print w, seed, side, "failed", $2 }
      ' "$log" >>"$table"
    done
    i=$((i + 1))
  done
done

# Direction of every gated metric, e.g. "p50_ms lower".
better="$(sed -n 's/.*"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' BENCHMARK.json)"

echo "== bench-only: $base vs working tree, $pairs pairs, seeds 11-$((10 + pairs)) =="
echo "$better" | awk -v table="$table" '
  # Quantile q of the sorted array v[1..n], interpolated as in
  # perfbench (rank (n-1)q).
  function quantile(v, n, q,    r, lo) {
    r = (n - 1) * q
    lo = int(r)
    if (lo + 1 >= n) return v[n]
    return v[lo + 1] + (r - lo) * (v[lo + 2] - v[lo + 1])
  }
  function summary(key,    n, i, j, t, v) {
    n = count[key]
    for (i = 1; i <= n; i++) v[i] = vals[key, i]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    med[key] = quantile(v, n, 0.5)
    return sprintf("%.4g [%.4g, %.4g]", med[key], quantile(v, n, 0.25), quantile(v, n, 0.75))
  }
  { dir[$1] = $2 }
  END {
    dir["failed"] = "lower"
    while ((getline line < table) > 0) {
      split(line, f, " ")
      w = f[1]; seed = f[2]; side = f[3]; m = f[4]
      key = w SUBSEP m SUBSEP side
      vals[key, ++count[key]] = f[5]
      pair[w, m, seed, side] = f[5]
      seen[w, m, seed] = 1
      if (!((w, m) in listed)) { listed[w, m] = 1; order[++rows] = w SUBSEP m }
    }
    printf "%-14s %-20s %-34s %-34s %7s  %s\n", "workload", "metric", "base median [q1, q3]",
      "change median [q1, q3]", "ratio", "change better"
    for (r = 1; r <= rows; r++) {
      split(order[r], k, SUBSEP)
      w = k[1]; m = k[2]
      b = summary(w SUBSEP m SUBSEP "base")
      c = summary(w SUBSEP m SUBSEP "change")
      mb = med[w SUBSEP m SUBSEP "base"]; mc = med[w SUBSEP m SUBSEP "change"]
      # Pairwise wins only for metrics with a direction (test before
      # dir[m] is read: reading an awk array element creates it).
      ranked = (m in dir)
      wins = 0; total = 0
      for (s in seen) {
        split(s, sk, SUBSEP)
        if (sk[1] != w || sk[2] != m) continue
        total++
        vb = pair[w, m, sk[3], "base"]; vc = pair[w, m, sk[3], "change"]
        if ((dir[m] == "lower" && vc < vb) || (dir[m] == "higher" && vc > vb)) wins++
      }
      printf "%-14s %-20s %-34s %-34s %7s  %s\n", w, m, b, c,
        (mb == 0 ? "-" : sprintf("%.3f", mc / mb)), (ranked ? wins "/" total : "-")
    }
  }'
echo "logs and the raw table: $work"
