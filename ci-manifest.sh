# The experiments and profiles whose outputs are committed under
# results/, sourced by ci.sh (which gates the quick ones) and
# rebaseline.sh (which regenerates them all), so the two scripts cannot
# drift apart.

# Quick-mode experiments with a golden in results/quick/<name>.txt.
GOLDEN_EXPERIMENTS=(table1 table2 fig2 estimator table4 table6 ablation-persistent ablation-storage serve serve-xl serve-chaos serve-telemetry serve-whatif serve-policy)

# Full-mode tables and figures committed as results/<name>.txt. Only
# rebaseline.sh regenerates them (about 8 minutes on a 2-core box);
# no ci.sh gate runs them.
FULL_MODE_EXPERIMENTS=(table1 table2 table3 table4 table5 table6 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 estimator ablation-persistent ablation-storage recommend)

# Quick-mode profiles, run in one `afsysbench profile` process beside
# the full-mode `profile pipeline`; their BENCH, profile, collapsed and
# critpath artifacts are committed under results/.
QUICK_PROFILES=(msa-sweep serve serve-xl serve-chaos serve-whatif serve-policy)
