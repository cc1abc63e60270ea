#!/usr/bin/env bash
# Offline tier-1 gate for AFSysBench-RS.
#
# The workspace is hermetic: it has zero external dependencies (see
# DESIGN.md "Hermetic build & determinism"), so every step below runs with
# --offline and must succeed with no network access and an empty cargo
# registry cache.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

# Host-time benchmark build gate: benchmark/ is a workspace of its own,
# so the steps above never compile it. Building it and running its unit
# tests here turns a public-API change in crates/ that breaks it into a
# CI failure instead of a benchmark-pipeline one.
run cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

# Chaos determinism sweep: re-run the fault-injection suite under three
# fixed seeds. The suite asserts that every seeded plan reaches the same
# terminal outcome with byte-identical reports on repeat runs, and that
# a fault-free plan reproduces the baseline pipeline exactly. The
# chaos_serving suite rides the same seeds: every seeded fault schedule
# over the serving engine must conserve requests (admitted = completed +
# degraded + shed + failed) and wake coalesced waiters exactly once.
for seed in 101 202 303; do
    run env AFSB_CHAOS_SEED="$seed" cargo test -q --offline --test chaos
    run env AFSB_CHAOS_SEED="$seed" cargo test -q --offline -p afsb-serve --test chaos_serving
done

# Trace determinism gate: the traced pipeline example must emit
# byte-identical Chrome-trace and flamegraph artifacts across two runs
# of the same seed. The example itself re-parses the exported trace
# with rt::json before writing it, so a cmp failure means
# nondeterminism, not malformed JSON.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
mkdir -p "$trace_dir/a" "$trace_dir/b"
run cargo run --release --offline --example trace_pipeline -- "$trace_dir/a"
run cargo run --release --offline --example trace_pipeline -- "$trace_dir/b"
run cmp "$trace_dir/a/trace.json" "$trace_dir/b/trace.json"
run cmp "$trace_dir/a/flame.txt" "$trace_dir/b/flame.txt"

# Golden-results gate: regenerate the committed quick-mode experiment
# outputs and diff them. Any drift in a table the paper reproduces must
# show up as an intentional update to results/quick/, not silently.
golden_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$golden_dir"' EXIT
GOLDEN_EXPERIMENTS=(table1 table2 fig2 estimator table4 table6 ablation-persistent ablation-storage serve serve-xl serve-chaos serve-telemetry serve-whatif serve-policy)
run target/release/afsysbench "${GOLDEN_EXPERIMENTS[@]}" --quick --out "$golden_dir/quick" > /dev/null
for exp in "${GOLDEN_EXPERIMENTS[@]}"; do
    run diff -u "results/quick/$exp.txt" "$golden_dir/quick/$exp.txt"
done

# One-CPU golden gate: a sample's searches run concurrently through
# rt::par::map_ordered, and no output may depend on the host's CPU
# count. Pinned to one CPU, map_ordered takes its plain-loop path; the
# serve and table4 goldens must still match byte for byte.
if command -v taskset > /dev/null; then
    run taskset -c 0 target/release/afsysbench serve table4 --quick --out "$golden_dir/one-cpu" > /dev/null
    for exp in serve table4; do
        run diff -u "results/quick/$exp.txt" "$golden_dir/one-cpu/$exp.txt"
    done
else
    echo "==> taskset not found: skipping the one-CPU golden run"
fi

# Perf-regression gate: the profiler must be byte-deterministic, and the
# fresh profile must stay within tolerance of the committed baseline —
# per-symbol cycle shares, wall seconds, derived metrics, sampled top-N.
# `perf-diff` exits nonzero naming the offending symbols otherwise.
# The two runs land in a fixed target/ci-profiles/{a,b} so the CI
# workflow can upload run `a` as an artifact without re-running them.
profile_dir=target/ci-profiles
rm -rf "$profile_dir"
mkdir -p "$profile_dir/a" "$profile_dir/b"
run target/release/afsysbench profile pipeline --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile pipeline --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_pipeline.json" "$profile_dir/b/BENCH_pipeline.json"
run target/release/afsysbench perf-diff results/BENCH_pipeline.json "$profile_dir/a/BENCH_pipeline.json"
run target/release/afsysbench profile msa-sweep --quick --out "$profile_dir/a" > /dev/null
run target/release/afsysbench perf-diff results/BENCH_msa_sweep.json "$profile_dir/a/BENCH_msa_sweep.json"

# Serving determinism + regression gate: two same-seed serve profiles
# must be byte-identical, and the fresh profile must stay within
# tolerance of the committed baseline (throughput, latency percentiles,
# hit rate, occupancy, and the telemetry-derived attr.*/slo.* metrics
# per scenario). --timeline adds the gauge-timeline + SLO artifact and
# the latency-histogram CSV, both gated byte-for-byte: two runs must
# agree, and the timeline must match the committed quick golden.
run target/release/afsysbench profile serve --quick --timeline --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile serve --quick --timeline --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_serve.json" "$profile_dir/b/BENCH_serve.json"
run cmp "$profile_dir/a/serve.timeline.txt" "$profile_dir/b/serve.timeline.txt"
run cmp "$profile_dir/a/serve.latency.csv" "$profile_dir/b/serve.latency.csv"
run diff -u results/quick/serve-timeline.txt "$profile_dir/a/serve.timeline.txt"
run target/release/afsysbench perf-diff results/BENCH_serve.json "$profile_dir/a/BENCH_serve.json"

# Event-engine scale gate: serve-xl pushes a 10k-request Poisson/Zipf
# stream (100k in full mode) through the discrete-event scheduler. Two
# same-seed profiles must be byte-identical — one heap, one clock, no
# hidden iteration-order dependence at scale — and the fresh profile
# must stay within tolerance of the committed baseline.
run target/release/afsysbench profile serve-xl --quick --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile serve-xl --quick --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_serve_xl.json" "$profile_dir/b/BENCH_serve_xl.json"
run target/release/afsysbench perf-diff results/BENCH_serve_xl.json "$profile_dir/a/BENCH_serve_xl.json"

# Chaos-serving SLO gate: the fault-injection matrix must be
# byte-deterministic across two same-seed profiles and stay within
# tolerance of the committed baseline — availability, goodput and
# disposition counts per scenario. The strict SLO orderings themselves
# (baseline > each chaos scenario > kitchen-sink) are asserted by the
# chaos_serving suite above.
run target/release/afsysbench profile serve-chaos --quick --timeline --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile serve-chaos --quick --timeline --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_serve_chaos.json" "$profile_dir/b/BENCH_serve_chaos.json"
run cmp "$profile_dir/a/serve-chaos.timeline.txt" "$profile_dir/b/serve-chaos.timeline.txt"
run target/release/afsysbench perf-diff results/BENCH_serve_chaos.json "$profile_dir/a/BENCH_serve_chaos.json"

# Causal-profiler gate: the what-if projection run must be
# byte-deterministic (baseline, report, collapsed stacks and the
# --critical-path artifact all identical across two same-seed runs) and
# its critical-path shares, binding census and projection errors must
# stay within tolerance of the committed baseline. The projection
# *accuracy* gates themselves (MSA-dominant blame, GPU 2x < 1 %,
# on-path error <= 10 pp) are asserted by crates/serve/tests/causal.rs.
run target/release/afsysbench profile serve-whatif --quick --critical-path --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile serve-whatif --quick --critical-path --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_serve_whatif.json" "$profile_dir/b/BENCH_serve_whatif.json"
run cmp "$profile_dir/a/serve-whatif.critpath.txt" "$profile_dir/b/serve-whatif.critpath.txt"
run target/release/afsysbench perf-diff results/BENCH_serve_whatif.json "$profile_dir/a/BENCH_serve_whatif.json"

# Scheduler-policy gate: the policy matrix must be byte-deterministic
# across two same-seed profiles and stay within tolerance of the
# committed baseline. The baseline carries the two hard verdicts —
# `dominance.policies_beating_fifo` (>= 1 policy strictly beats FIFO on
# both queries/hour and exact p99) and `whatif.error_pp` (the winner's
# measured makespan delta within 10 pp of the causal what-if
# projection) — both asserted directly by crates/serve/tests/policy.rs
# in the workspace test run above, and kept diffable here.
run target/release/afsysbench profile serve-policy --quick --critical-path --out "$profile_dir/a" > /dev/null
run target/release/afsysbench profile serve-policy --quick --critical-path --out "$profile_dir/b" > /dev/null
run cmp "$profile_dir/a/BENCH_serve_policy.json" "$profile_dir/b/BENCH_serve_policy.json"
run cmp "$profile_dir/a/serve-policy.critpath.txt" "$profile_dir/b/serve-policy.critpath.txt"
run target/release/afsysbench perf-diff results/BENCH_serve_policy.json "$profile_dir/a/BENCH_serve_policy.json"

# Committed-baseline byte-identity gate: every artifact of run `a`
# that has a committed copy in results/ must match it byte for byte,
# so a re-baseline cannot leave a stale BENCH, profile, collapsed or
# critpath file behind. results/ keeps serve.timeline.txt and
# serve.latency.csv from a full-mode run, so those two are skipped
# (the quick timeline is diffed against its golden above).
for artifact in "$profile_dir"/a/*; do
    name="$(basename "$artifact")"
    case "$name" in
        serve.timeline.txt | serve.latency.csv) continue ;;
    esac
    if [ -e "results/$name" ]; then
        run cmp "results/$name" "$artifact"
    fi
done

echo "==> tier-1 gate passed"
