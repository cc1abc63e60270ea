#!/usr/bin/env bash
# Self-agreement check of the host-time benchmark.
#
# Builds once, runs every workload twice at seed 0 (the second set in
# reverse order), prints each end-to-end metric's difference between
# the two sets against its bound in BENCHMARK.json, then runs every
# workload once at seed 1 to confirm no op fails off the canonical seed.
# Exits non-zero on a disagreement or a failed op.
#
# Usage: benchmark/run.sh        (from any directory; needs cargo, python3)
# Takes about 5 minutes on a 2-core box.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/afsb-hostbench"
out="$CARGO_TARGET_DIR/agreement"
mkdir -p "$out"

workloads=(cold-serve msa-grid serve-xl serve-matrix)
run() { # <tag> <workload> <seed>
    echo "run $1 $2 --seed $3" >&2
    "$bin" "$2" --seed "$3" > "$out/$1-$2.txt"
}
for w in "${workloads[@]}"; do run set1 "$w" 0; done
for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do run set2 "${workloads[$i]}" 0; done
for w in "${workloads[@]}"; do run seed1 "$w" 1; done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, sys
out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
def result(tag, w):
    return json.loads(open(f"{out}/{tag}-{w}.txt").read().strip().splitlines()[-1])
ok = True
print(f"{'workload':<13} {'metric':<12} {'set 1':>12} {'set 2':>12} {'diff':>8} {'bound':>6}")
for w in workloads:
    runs = [result(t, w) for t in ("set1", "set2", "seed1")]
    for tag, r in zip(("set1", "set2", "seed1"), runs):
        if not r["correct"] or r["failed"]:
            print(f"{w} {tag}: {r['failed']} of {r['attempted']} ops failed")
            ok = False
    for m in bench["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in runs[:2])
        diff = abs(b - a) / min(a, b)
        agree = diff <= m["bound"]
        ok &= agree
        print(f"{w:<13} {m['name']:<12} {a:>12.5g} {b:>12.5g} {diff:>7.2%} {m['bound']:>6.0%}"
              f"{'' if agree else '  DISAGREE'}")
print("agreement: " + ("every metric within its bound, no failed op" if ok else "FAILED"))
sys.exit(0 if ok else 1)
EOF
