//! Work counters reported by every search kernel.
//!
//! These are *exact counts of executed work*, not estimates: the DP kernels
//! increment cell counters as they compute, the I/O model counts buffered
//! bytes, and the pipeline counts per-stage survivors. `afsb-core` maps
//! them onto the paper's profiled symbols:
//!
//! | Counter                | Paper symbol (Table IV)      |
//! |------------------------|------------------------------|
//! | `band_cells_mi`        | `calc_band_9`                |
//! | `band_cells_ds`        | `calc_band_10`               |
//! | `buffer_fills`         | `addbuf`                     |
//! | `buffer_peeks`         | `seebuf`                     |
//! | `copied_bytes`         | `copy_to_iter`               |

/// Aggregated work counts for one search (or one simulated thread's
/// share of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Database sequences scanned.
    pub db_sequences: u64,
    /// Database residues scanned.
    pub db_residues: u64,
    /// SSV diagonal cells evaluated.
    pub ssv_cells: u64,
    /// MSV cells evaluated (multi-hit rescoring of SSV survivors).
    pub msv_cells: u64,
    /// Banded Viterbi main-state (M/I) cells — the `calc_band_9` analogue.
    pub band_cells_mi: u64,
    /// Banded Viterbi delete/special cells — the `calc_band_10` analogue.
    pub band_cells_ds: u64,
    /// Full Forward cells evaluated on Viterbi survivors.
    pub forward_cells: u64,
    /// Traceback cells walked for reported hits.
    pub traceback_cells: u64,
    /// Sequences surviving the SSV stage.
    pub ssv_survivors: u64,
    /// Sequences surviving the MSV stage.
    pub msv_survivors: u64,
    /// Sequences surviving the Viterbi filter.
    pub viterbi_survivors: u64,
    /// Final reported hits.
    pub hits: u64,
    /// Candidate windows rescanned due to ambiguous partial matches
    /// (inflated by low-complexity queries — the `promo` effect).
    pub rescans: u64,
    /// Bytes re-read during rescans.
    pub rescan_bytes: u64,
    /// Buffer refill operations (`addbuf`).
    pub buffer_fills: u64,
    /// Buffer lookahead operations (`seebuf`).
    pub buffer_peeks: u64,
    /// Bytes copied from the (simulated) kernel page cache into user
    /// buffers (`copy_to_iter`).
    pub copied_bytes: u64,
    /// Peak resident bytes of search state (DP matrices + candidates).
    pub peak_state_bytes: u64,
}

impl WorkCounters {
    /// Merge another counter block into this one (peaks take the max).
    pub fn merge(&mut self, other: &WorkCounters) {
        self.db_sequences += other.db_sequences;
        self.db_residues += other.db_residues;
        self.ssv_cells += other.ssv_cells;
        self.msv_cells += other.msv_cells;
        self.band_cells_mi += other.band_cells_mi;
        self.band_cells_ds += other.band_cells_ds;
        self.forward_cells += other.forward_cells;
        self.traceback_cells += other.traceback_cells;
        self.ssv_survivors += other.ssv_survivors;
        self.msv_survivors += other.msv_survivors;
        self.viterbi_survivors += other.viterbi_survivors;
        self.hits += other.hits;
        self.rescans += other.rescans;
        self.rescan_bytes += other.rescan_bytes;
        self.buffer_fills += other.buffer_fills;
        self.buffer_peeks += other.buffer_peeks;
        self.copied_bytes += other.copied_bytes;
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
    }

    /// Total DP cells across every stage (a coarse "compute volume").
    pub fn total_dp_cells(&self) -> u64 {
        self.ssv_cells
            + self.msv_cells
            + self.band_cells_mi
            + self.band_cells_ds
            + self.forward_cells
            + self.traceback_cells
    }

    /// Publish the counters under `<prefix>.<symbol>.<unit>`, using the
    /// paper's Table IV symbol names where one exists (`calc_band_9`,
    /// `calc_band_10`, `addbuf`, `seebuf`, `copy_to_iter`) and the
    /// counter's own name otherwise. The peak goes out as a gauge — peaks
    /// do not sum across publishes the way monotone counts do.
    pub fn publish_metrics(&self, metrics: &mut afsb_rt::MetricsRegistry, prefix: &str) {
        let inc = |m: &mut afsb_rt::MetricsRegistry, name: &str, v: u64| {
            m.inc(&format!("{prefix}.{name}"), v);
        };
        inc(metrics, "db_sequences", self.db_sequences);
        inc(metrics, "db_residues", self.db_residues);
        inc(metrics, "ssv_cells", self.ssv_cells);
        inc(metrics, "msv_cells", self.msv_cells);
        inc(metrics, "calc_band_9.cells", self.band_cells_mi);
        inc(metrics, "calc_band_10.cells", self.band_cells_ds);
        inc(metrics, "forward_cells", self.forward_cells);
        inc(metrics, "hits", self.hits);
        inc(metrics, "rescans", self.rescans);
        inc(metrics, "addbuf.ops", self.buffer_fills);
        inc(metrics, "seebuf.ops", self.buffer_peeks);
        inc(metrics, "copy_to_iter.bytes", self.copied_bytes);
        metrics.set_gauge(
            &format!("{prefix}.peak_state_bytes"),
            self.peak_state_bytes as f64,
        );
    }

    /// Per-stage DP cell counts in pipeline order, named by the paper's
    /// Table IV symbols where one exists. The single source of stage
    /// naming for span tiling ([`Self::trace_stages_under`]) and the
    /// `afsb-perf` stat report.
    pub fn stage_cells(&self) -> [(&'static str, u64); 6] {
        [
            ("ssv_filter", self.ssv_cells),
            ("msv_filter", self.msv_cells),
            ("calc_band_9", self.band_cells_mi),
            ("calc_band_10", self.band_cells_ds),
            ("forward", self.forward_cells),
            ("traceback", self.traceback_cells),
        ]
    }

    /// Tile one closed child span per DP stage under `parent` across
    /// `[start_s, start_s + duration_s)`, widths proportional to each
    /// stage's cell count and named by the paper's Table IV symbols where
    /// one exists. Stages with zero cells are skipped. Returns the
    /// created ids, in stage order.
    pub fn trace_stages_under(
        &self,
        tracer: &mut afsb_rt::Tracer,
        parent: afsb_rt::obs::SpanId,
        start_s: f64,
        duration_s: f64,
    ) -> Vec<afsb_rt::obs::SpanId> {
        let stages = self.stage_cells();
        let total = self.total_dp_cells().max(1) as f64;
        let mut at = start_s;
        let mut ids = Vec::new();
        for (name, cells) in stages {
            if cells == 0 {
                continue;
            }
            let width = duration_s * cells as f64 / total;
            let id = tracer.child_span(parent, name, at, width);
            tracer.span_attr(id, "cells", cells);
            at += width;
            ids.push(id);
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = WorkCounters {
            db_sequences: 10,
            band_cells_mi: 100,
            peak_state_bytes: 500,
            ..WorkCounters::default()
        };
        let b = WorkCounters {
            db_sequences: 5,
            band_cells_mi: 50,
            peak_state_bytes: 900,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.db_sequences, 15);
        assert_eq!(a.band_cells_mi, 150);
        assert_eq!(a.peak_state_bytes, 900);
    }

    #[test]
    fn publish_and_trace_use_the_paper_symbols() {
        let c = WorkCounters {
            ssv_cells: 10,
            band_cells_mi: 30,
            band_cells_ds: 20,
            buffer_fills: 3,
            copied_bytes: 4096,
            ..WorkCounters::default()
        };
        let mut m = afsb_rt::MetricsRegistry::new();
        c.publish_metrics(&mut m, "msa");
        assert_eq!(m.counter("msa.calc_band_9.cells"), 30);
        assert_eq!(m.counter("msa.calc_band_10.cells"), 20);
        assert_eq!(m.counter("msa.copy_to_iter.bytes"), 4096);
        assert_eq!(m.counter("msa.addbuf.ops"), 3);

        let mut tracer = afsb_rt::Tracer::new();
        let root = tracer.begin("msa_search");
        tracer.advance(60.0);
        let ids = c.trace_stages_under(&mut tracer, root, 0.0, 60.0);
        tracer.end();
        // Stages with zero cells get no span.
        assert_eq!(ids.len(), 3);
        let names = tracer.span_names();
        for stage in ["ssv_filter", "calc_band_9", "calc_band_10"] {
            assert!(names.contains(&stage), "{names:?}");
        }
        assert!(!names.contains(&"forward"), "{names:?}");
    }

    #[test]
    fn total_dp_cells_sums_stages() {
        let c = WorkCounters {
            ssv_cells: 1,
            msv_cells: 2,
            band_cells_mi: 3,
            band_cells_ds: 4,
            forward_cells: 5,
            traceback_cells: 6,
            ..WorkCounters::default()
        };
        assert_eq!(c.total_dp_cells(), 21);
    }
}
