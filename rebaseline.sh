#!/usr/bin/env bash
# Regenerate every committed simulated artifact that ci.sh gates, after a
# change that moves simulated numbers on purpose:
#
# - results/quick/<exp>.txt for every GOLDEN_EXPERIMENTS entry;
# - results/quick/serve-timeline.txt, the quick serve timeline;
# - every artifact of one profile side (target/ci-profiles/a, the same
#   runs as ci.sh's side `a`) that already has a committed copy in
#   results/: BENCH, profile, collapsed and critpath files;
# - results/<exp>.txt for every FULL_MODE_EXPERIMENTS entry, the
#   full-mode tables and figures.
#
# results/serve.timeline.txt and results/serve.latency.csv come from a
# full-mode `afsysbench profile serve --timeline` (under a minute) and
# are left alone; everything else in results/ is regenerated. On a tree whose
# simulated numbers did not move, `git status --porcelain results/` is
# empty afterwards. Review the diff and commit it with the change.
#
# Usage: ./rebaseline.sh     (about 10 minutes on a 2-core box with a
# warm build: 2 for the quick goldens and profiles, 8 for the full-mode
# runs)
set -euo pipefail
cd "$(dirname "$0")"
source ./ci-manifest.sh

cargo build --release --offline --workspace
target/release/afsysbench "${GOLDEN_EXPERIMENTS[@]}" --quick --out results/quick > /dev/null

profile_dir=target/ci-profiles/a
rm -rf "$profile_dir"
mkdir -p "$profile_dir"
target/release/afsysbench profile pipeline --out "$profile_dir" > /dev/null
target/release/afsysbench profile "${QUICK_PROFILES[@]}" --quick --timeline --critical-path \
    --out "$profile_dir" > /dev/null
cp "$profile_dir/serve.timeline.txt" results/quick/serve-timeline.txt
for artifact in "$profile_dir"/*; do
    name="$(basename "$artifact")"
    case "$name" in
        serve.timeline.txt | serve.latency.csv) continue ;;
    esac
    if [ -e "results/$name" ]; then
        cp "$artifact" "results/$name"
    fi
done
target/release/afsysbench "${FULL_MODE_EXPERIMENTS[@]}" --out results > /dev/null
git status --short results/
