# The experiments and profiles whose outputs are committed under
# results/, sourced by ci.sh (which gates them) and rebaseline.sh
# (which regenerates them), so the two scripts cannot drift apart.

# Quick-mode experiments with a golden in results/quick/<name>.txt.
GOLDEN_EXPERIMENTS=(table1 table2 fig2 estimator table4 table6 ablation-persistent ablation-storage serve serve-xl serve-chaos serve-telemetry serve-whatif serve-policy)

# Quick-mode profiles, run in one `afsysbench profile` process beside
# the full-mode `profile pipeline`; their BENCH, profile, collapsed and
# critpath artifacts are committed under results/.
QUICK_PROFILES=(msa-sweep serve serve-xl serve-chaos serve-whatif serve-policy)
