#!/usr/bin/env bash
# Offline tier-1 gate for AFSysBench-RS.
#
# The workspace is hermetic: it has zero external dependencies (see
# DESIGN.md "Hermetic build & determinism"), so every step below runs with
# --offline and must succeed with no network access and an empty cargo
# registry cache.
set -euo pipefail
cd "$(dirname "$0")"
# GOLDEN_EXPERIMENTS and QUICK_PROFILES, shared with rebaseline.sh.
source ./ci-manifest.sh

# Step markers go to stderr, so a step whose stdout is redirected to
# /dev/null still shows in the log before its own failure. When a step
# ends, passed or failed, `<==` gives its host wall-clock seconds, so
# every CI log carries the per-step host time.
run() {
    echo "==> $*" >&2
    local start="${EPOCHREALTIME/[.,]/}" status=0
    "$@" || status=$?
    local tenths=$(((${EPOCHREALTIME/[.,]/} - start + 50000) / 100000))
    printf '<== %d.%d s %s\n' $((tenths / 10)) $((tenths % 10)) "$*" >&2
    return "$status"
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
# a fault-free plan reproduces the baseline pipeline exactly. Its
# executor digest (executor_output_matches_the_pinned_digest) reads
# fixed plans and seeds, not AFSB_CHAOS_SEED, so every re-run checks the
# executor's reports, traces and flamegraphs against the pinned hash
# again. The chaos_serving suite (a module of the one `serve` test binary) rides
# the same seeds: every seeded fault schedule over the serving engine
# must conserve requests (admitted = completed + degraded + shed +
# failed) and wake coalesced waiters exactly once.
for seed in 101 202 303; do
    run env AFSB_CHAOS_SEED="$seed" cargo test -q --offline --test chaos
    run env AFSB_CHAOS_SEED="$seed" cargo test -q --offline -p afsb-serve --test serve chaos_serving::
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
run target/release/afsysbench "${GOLDEN_EXPERIMENTS[@]}" --quick --out "$golden_dir/quick" > /dev/null
for exp in "${GOLDEN_EXPERIMENTS[@]}"; do
    run diff -u "results/quick/$exp.txt" "$golden_dir/quick/$exp.txt"
done

# One-CPU golden gate: a sample's searches run concurrently through
# rt::par::map_ordered, simarch's private cache walks run ahead of its
# LLC replay on helper threads through rt::par::pipeline, and no output
# may depend on the host's CPU count. Pinned to one CPU, map_ordered
# takes its plain-loop path and pipeline spawns nothing: the replay
# fills each chunk when it asks for it and runs the overhead passes
# after it. The serve and table4 goldens must still match byte for
# byte, and the three digests of crates/core/tests/sim_digest.rs their
# constants: the simarch digests over the 20 msa-grid cells and over
# the 2-, 6- and 8-thread cells of 2PV7 and promo, and the search
# digest over every (chain entity x database) search of the five quick
# samples, whose per-entity calibration pass then runs inline too.
# simarch's reference-model property runs pinned as well, so the
# inline path is checked against the unsplit walk on arbitrary programs.
if command -v taskset > /dev/null; then
    run taskset -c 0 target/release/afsysbench serve table4 --quick --out "$golden_dir/one-cpu" > /dev/null
    for exp in serve table4; do
        run diff -u "results/quick/$exp.txt" "$golden_dir/one-cpu/$exp.txt"
    done
    run taskset -c 0 cargo test -q --offline -p afsb-core --test sim_digest
    run taskset -c 0 cargo test -q --offline -p afsb-simarch --lib run_matches_the_unsplit_reference_bit_for_bit
else
    echo "==> taskset not found: skipping the one-CPU golden, digest and reference runs"
fi

# Perf-regression gates. Each side (`a`, `b`) runs one full-mode
# `profile pipeline` and one process for all the quick profiles, so a
# side prices the serving cost table once. Over every profile:
#
# - every artifact of run `a` must match run `b` byte for byte (the
#   profiler and every serving run are deterministic);
# - the quick serve timeline must match its golden in results/quick/;
# - every committed results/BENCH_*.json must hold against run `a`
#   within tolerance: `perf-diff` exits nonzero naming the offending
#   symbols or metrics. The serve baselines carry the per-scenario
#   serving, chaos, what-if and policy metrics, including the policy
#   matrix's `dominance.policies_beating_fifo` and `whatif.error_pp`
#   verdicts; the serve test suites assert the same orderings directly.
#
# The two runs land in a fixed target/ci-profiles/{a,b} so the CI
# workflow can upload run `a` as an artifact without re-running them.
profile_dir=target/ci-profiles
rm -rf "$profile_dir"
for side in a b; do
    mkdir -p "$profile_dir/$side"
    run target/release/afsysbench profile pipeline --out "$profile_dir/$side" > /dev/null
    run target/release/afsysbench profile "${QUICK_PROFILES[@]}" --quick --timeline --critical-path \
        --out "$profile_dir/$side" > /dev/null
done
for artifact in "$profile_dir"/a/*; do
    run cmp "$artifact" "$profile_dir/b/$(basename "$artifact")"
done
run diff -u results/quick/serve-timeline.txt "$profile_dir/a/serve.timeline.txt"
for baseline in results/BENCH_*.json; do
    run target/release/afsysbench perf-diff "$baseline" "$profile_dir/a/$(basename "$baseline")"
done

# Committed-baseline byte-identity gate: every artifact of run `a`
# that has a committed copy in results/ must match it byte for byte,
# so a re-baseline cannot leave a stale BENCH, profile, collapsed or
# critpath file behind (rebaseline.sh regenerates them all). results/
# keeps serve.timeline.txt and serve.latency.csv from a full-mode run,
# so those two are skipped (the quick timeline is diffed against its
# golden above).
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
