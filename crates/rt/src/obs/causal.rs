//! `rt::obs::causal` — critical-path extraction over the engine's
//! provenance edges.
//!
//! The additive attribution layers (PR 4 profiles, PR 8
//! `PhaseSegments`) answer *where time accrued*; this module answers
//! the causal question behind ROADMAP #3: *which resource the makespan
//! actually waited on*. Per-phase time shares routinely misidentify
//! the binding constraint once queueing and overlap enter the picture
//! — a request can accrue hours of `batch_wait` that are entirely off
//! its critical path, because the batch trigger (another request's MSA
//! finish) is what its completion causally descends from.
//!
//! With [`crate::sim::SimEngine::record_provenance`] armed, every
//! scheduled event knows its causal parent — the event being handled
//! when it was scheduled — and a typed [`WaitEdge`] naming the
//! blocking resource. [`critical_path`] walks those parent edges
//! backward from any target event (the makespan-terminating completion
//! for the whole-run path; a request's own completion for per-request
//! classification) and yields the chain of wait segments whose end
//! times are exactly the target's fire time. Blame shares aggregate
//! segment durations by resource; [`CriticalPath::binding`] names the
//! dominant one. Everything renders deterministically: an ASCII report
//! and a collapsed-stack export in the same `a;b;c <µs>` format the
//! flamegraph tooling already consumes.

use crate::sim::{ProvenanceEdge, WaitEdge};

/// One wait segment on a critical path: the span between the causal
/// parent's fire time and this event's fire time, attributed to the
/// resource the event waited on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// The event whose wait this segment is (its schedule seq).
    pub seq: u64,
    /// The event's stable label (`arrival`, `msa-done`, ...).
    pub label: &'static str,
    /// The resource waited on across this segment.
    pub edge: WaitEdge,
    /// Segment start: the parent's fire time (0 for root causes).
    pub start_s: f64,
    /// Segment end: this event's fire time.
    pub end_s: f64,
}

impl PathSegment {
    /// The segment's span in simulated seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// The portion of the segment at or after `clip_from` — used to
    /// restrict a path to a request's own latency window so its
    /// pre-arrival ancestry (earlier arrivals, other requests' queue
    /// history) does not dilute the classification.
    pub fn clipped_s(&self, clip_from: f64) -> f64 {
        (self.end_s - self.start_s.max(clip_from)).max(0.0)
    }
}

/// A causal chain extracted by [`critical_path`]: wait segments in
/// chronological order, ending at the target event's fire time.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Segments in chronological (root → target) order.
    pub segments: Vec<PathSegment>,
    /// Fire time of the target event the walk started from.
    pub end_s: f64,
}

/// Walk parent edges backward from `target` (a schedule seq) and
/// return the chain as chronological wait segments. The root segment
/// (an event scheduled outside any handler) spans from simulated
/// second 0 to its fire time.
///
/// # Panics
///
/// Panics when `target` is out of range of the edge log, or (debug
/// builds) when the chain passes through a cancelled or undelivered
/// parent — impossible by construction: a parent is an event that was
/// being *handled*, and cancelled timers are never popped.
pub fn critical_path(edges: &[ProvenanceEdge], target: u64) -> CriticalPath {
    let mut segments = Vec::new();
    let mut cursor = &edges[target as usize];
    let end_s = cursor.at_s;
    loop {
        let start_s = match cursor.parent {
            Some(parent) => {
                let p = &edges[parent as usize];
                debug_assert!(!p.cancelled, "cancelled timer appears as a cause");
                debug_assert!(p.delivered, "undelivered event appears as a cause");
                p.at_s
            }
            None => 0.0,
        };
        segments.push(PathSegment {
            seq: cursor.seq,
            label: cursor.label,
            edge: cursor.edge,
            start_s,
            end_s: cursor.at_s,
        });
        match cursor.parent {
            Some(parent) => cursor = &edges[parent as usize],
            None => break,
        }
    }
    segments.reverse();
    CriticalPath { segments, end_s }
}

impl CriticalPath {
    /// Seconds attributed to each resource (indexed per
    /// [`WaitEdge::index`]), counting only the portion of each segment
    /// at or after `clip_from`. Pass 0.0 for the whole-run path.
    pub fn blame(&self, clip_from: f64) -> [f64; 7] {
        let mut by_edge = [0.0f64; 7];
        for seg in &self.segments {
            by_edge[seg.edge.index()] += seg.clipped_s(clip_from);
        }
        by_edge
    }

    /// Blame as `(edge, seconds, share)` rows in canonical order;
    /// shares are fractions of the clipped path span and sum to 1 when
    /// the span is nonzero.
    pub fn blame_shares(&self, clip_from: f64) -> Vec<(WaitEdge, f64, f64)> {
        let by_edge = self.blame(clip_from);
        let total: f64 = by_edge.iter().sum();
        WaitEdge::ALL
            .iter()
            .map(|&e| {
                let s = by_edge[e.index()];
                let share = if total > 0.0 { s / total } else { 0.0 };
                (e, s, share)
            })
            .collect()
    }

    /// The binding constraint: the resource with the largest clipped
    /// blame (ties break toward the canonical order, i.e. the earliest
    /// entry in [`WaitEdge::ALL`]).
    pub fn binding(&self, clip_from: f64) -> WaitEdge {
        let by_edge = self.blame(clip_from);
        let mut best = WaitEdge::External;
        let mut best_s = f64::MIN;
        for &e in &WaitEdge::ALL {
            if by_edge[e.index()] > best_s {
                best_s = by_edge[e.index()];
                best = e;
            }
        }
        best
    }

    /// Deterministic ASCII report: path span, blame table, and the
    /// longest individual segments.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let span: f64 = self.segments.iter().map(|s| s.duration_s()).sum();
        out.push_str(&format!(
            "critical path: {title} — {} segments, {:.1} s span, ends at {:.1} s\n",
            self.segments.len(),
            span,
            self.end_s
        ));
        out.push_str("  resource       seconds   share  segments\n");
        let counts = self.segment_counts();
        for (edge, seconds, share) in self.blame_shares(0.0) {
            if counts[edge.index()] == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:>10.1}  {:>5.1}%  {:>8}\n",
                edge.label(),
                seconds,
                share * 100.0,
                counts[edge.index()]
            ));
        }
        let mut longest: Vec<&PathSegment> = self.segments.iter().collect();
        longest.sort_by(|a, b| {
            b.duration_s()
                .total_cmp(&a.duration_s())
                .then_with(|| a.seq.cmp(&b.seq))
        });
        out.push_str("  longest waits:\n");
        for seg in longest.iter().take(5) {
            out.push_str(&format!(
                "    {:<12} {:<16} [{:.1} .. {:.1}] {:>10.1} s\n",
                seg.edge.label(),
                seg.label,
                seg.start_s,
                seg.end_s,
                seg.duration_s()
            ));
        }
        out
    }

    /// Collapsed-stack export (`root;edge;event <µs>` per line, sorted)
    /// — the same format as the tracer's flamegraph export, so the
    /// critical path can sit alongside the sampled profiles.
    pub fn collapsed(&self, root: &str) -> String {
        let mut by_stack: std::collections::BTreeMap<String, u64> = Default::default();
        for seg in &self.segments {
            let micros = (seg.duration_s() * 1e6).round() as u64;
            *by_stack
                .entry(format!("{root};{};{}", seg.edge.label(), seg.label))
                .or_insert(0) += micros;
        }
        let mut out = String::new();
        for (stack, micros) in by_stack {
            out.push_str(&format!("{stack} {micros}\n"));
        }
        out
    }

    fn segment_counts(&self) -> [usize; 7] {
        let mut counts = [0usize; 7];
        for seg in &self.segments {
            counts[seg.edge.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Event, SimEngine};

    /// arrival(0→2) → msa-done(2→10, worker-busy) → batch-close(10) →
    /// gpu-done(10→14, gpu-busy): the walk from gpu-done must recover
    /// exactly that chain.
    fn tiny_run() -> SimEngine {
        let mut e = SimEngine::new();
        e.record_provenance();
        e.schedule(2.0, Event::Arrival { request: 0 });
        e.pop().unwrap();
        e.schedule_tagged(
            10.0,
            Event::MsaDone {
                request: 0,
                worker: 0,
            },
            WaitEdge::WorkerBusy,
        );
        e.pop().unwrap();
        e.schedule_tagged(10.0, Event::BatchClose, WaitEdge::BatchClose);
        e.pop().unwrap();
        e.schedule_tagged(14.0, Event::GpuDone, WaitEdge::GpuBusy);
        e.pop().unwrap();
        e
    }

    #[test]
    fn walk_recovers_the_chain_and_blame() {
        let e = tiny_run();
        let path = critical_path(e.provenance(), 3);
        let labels: Vec<&str> = path.segments.iter().map(|s| s.label).collect();
        assert_eq!(
            labels,
            vec!["arrival", "msa-done", "batch-close", "gpu-done"]
        );
        assert_eq!(path.end_s, 14.0);
        let blame = path.blame(0.0);
        assert_eq!(blame[WaitEdge::External.index()], 2.0);
        assert_eq!(blame[WaitEdge::WorkerBusy.index()], 8.0);
        assert_eq!(blame[WaitEdge::BatchClose.index()], 0.0);
        assert_eq!(blame[WaitEdge::GpuBusy.index()], 4.0);
        assert_eq!(path.binding(0.0), WaitEdge::WorkerBusy);
        // Clipping to the arrival time drops the external lead-in.
        assert_eq!(path.blame(2.0)[WaitEdge::External.index()], 0.0);
        let shares = path.blame_shares(0.0);
        let total: f64 = shares.iter().map(|(_, _, sh)| sh).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_and_collapsed_are_deterministic() {
        let e = tiny_run();
        let path = critical_path(e.provenance(), 3);
        assert_eq!(path.render("tiny"), path.render("tiny"));
        let collapsed = path.collapsed("critpath");
        assert_eq!(collapsed, path.collapsed("critpath"));
        assert!(collapsed.contains("critpath;worker-busy;msa-done 8000000\n"));
        let mut lines: Vec<&str> = collapsed.lines().collect();
        let sorted = {
            lines.sort();
            lines
        };
        assert_eq!(sorted.join("\n") + "\n", collapsed, "lines sorted");
    }
}
