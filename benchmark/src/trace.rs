//! In-memory span recorder for the traced run, with self time, layer
//! summaries and the Chrome-trace / `layers.txt` writers.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the simulator is
//! instrumented. `afsb_rt::obs::Tracer` runs on the simulated clock and
//! cannot take spans another process recorded earlier, so host-clock
//! spans are kept here.

use afsb_rt::json::{obj, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span name, metric prefix and the word for its span count, per
/// layer. A span name is the module whose public call the span wraps.
pub const LAYERS: [(&str, &str, &str); 11] = [
    ("serve.cost_table", "cost_table", "builds"),
    ("core.context", "search", "calls"),
    ("core.msa_phase", "msa_phase", "calls"),
    ("model", "model", "calls"),
    ("gpu", "gpu", "calls"),
    ("serve.engine", "serve.engine", "calls"),
    ("serve.chaos", "serve.chaos", "calls"),
    ("serve.policy", "serve.policy", "calls"),
    ("serve.workload", "serve.workload", "calls"),
    ("proc.spawn", "proc.spawn", "spawns"),
    ("check", "check", "calls"),
];

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or `op` / `setup`) name.
    pub name: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to, if any.
    pub op: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counters when enabled; every call is a no-op
/// otherwise, so the untraced run pays nothing but the branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
    counters: BTreeMap<String, u64>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Record `f` as a span named `name` nested in the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let depth = self.begin(name);
        let out = f(self);
        self.close_to(depth);
        out
    }

    /// Add `v` to counter `name` (recorded only when enabled).
    pub fn count(&mut self, name: &str, v: u64) {
        if self.enabled {
            *self.counters.entry(name.to_owned()).or_default() += v;
        }
    }

    /// Open the span of op `id`; returns the depth to close back to.
    pub(crate) fn begin_op(&mut self, id: usize) -> usize {
        self.op = Some(id);
        self.begin("op")
    }

    fn begin(&mut self, name: &str) -> usize {
        let depth = self.open.len();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.spans.len() - 1);
        }
        depth
    }

    /// Close every span opened at or below `depth` (also those a panic
    /// left open).
    pub(crate) fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let i = self.open.pop().expect("loop condition");
            self.spans[i].end_ns = now;
        }
        if self.open.is_empty() {
            self.op = None;
        }
    }

    /// Import spans and counters recorded by another process. The
    /// spans' times are relative to that process's origin and are
    /// placed `base_ns` after this one's, under the open span.
    pub fn import(&mut self, spans: Vec<Span>, counters: BTreeMap<String, u64>, base_ns: u64) {
        if !self.enabled {
            return;
        }
        let offset = self.spans.len();
        let outer = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                start_ns: base_ns + s.start_ns,
                end_ns: base_ns + s.end_ns,
                parent: s.parent.map(|p| p + offset).or(outer),
                op: self.op,
                name: s.name,
            });
        }
        for (k, v) in counters {
            *self.counters.entry(k).or_default() += v;
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in clipped {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it the
/// union of its children covers.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let kids = kids.iter().map(|&k| (spans[k].start_ns, spans[k].end_ns));
            s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Calls, busy time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, seconds.
    pub busy_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Per-name totals over every span.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let selfs = self_ns(spans);
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.busy_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Share of op time (percent) covered by layer spans inside the ops.
pub fn coverage_pct(spans: &[Span]) -> f64 {
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, op) in spans.iter().enumerate().filter(|(_, s)| s.name == "op") {
        let kids = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.start_ns, s.end_ns));
        covered += covered_ns(op.start_ns, op.end_ns, kids);
        total += op.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        100.0 * covered as f64 / total as f64
    }
}

/// Spans as JSON records (the cross-process wire format and the
/// Chrome trace's source).
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                obj()
                    .field("name", s.name.as_str())
                    .field("start", s.start_ns)
                    .field("end", s.end_ns)
                    .field("parent", s.parent)
                    .build()
            })
            .collect(),
    )
}

/// Parse [`spans_to_json`] output.
pub fn spans_from_json(json: &Json) -> Result<Vec<Span>, String> {
    let items = json.as_array().ok_or("spans: not an array")?;
    items
        .iter()
        .map(|s| {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("span field {k}"))
            };
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span name")?
                    .to_owned(),
                start_ns: num("start")?,
                end_ns: num("end")?,
                parent: s.get("parent").and_then(Json::as_usize),
                op: None,
            })
        })
        .collect()
}

/// Chrome trace-event document of every span (complete `X` events,
/// microseconds).
pub fn chrome_trace(spans: &[Span], ops: &[String]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let label = match (s.name.as_str(), s.op) {
                ("op", Some(op)) => ops.get(op).cloned().unwrap_or_default(),
                _ => s.name.clone(),
            };
            obj()
                .field("name", label)
                .field("cat", if s.name == "op" { "op" } else { "layer" })
                .field("ph", "X")
                .field("ts", s.start_ns as f64 / 1e3)
                .field("dur", s.dur_ns() as f64 / 1e3)
                .field("pid", 1u64)
                .field("tid", 1u64)
                .field(
                    "args",
                    obj()
                        .field("span", i)
                        .field("parent", s.parent)
                        .field("op", s.op)
                        .build(),
                )
                .build()
        })
        .collect::<Vec<_>>();
    obj()
        .field("traceEvents", events)
        .field("displayTimeUnit", "ms")
        .build()
}

/// The per-layer text table.
pub fn layers_txt(spans: &[Span]) -> String {
    let totals = layer_totals(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<16} {:>7} {:>11} {:>11}",
        "layer", "metric prefix", "calls", "busy_s", "self_s"
    );
    let rows = LAYERS
        .iter()
        .map(|&(name, prefix, _)| (name, prefix))
        .chain([("op", "-"), ("setup", "-")]);
    for (name, prefix) in rows {
        let t = totals.get(name).copied().unwrap_or_default();
        let _ = writeln!(
            out,
            "{name:<18} {prefix:<16} {:>7} {:>11.6} {:>11.6}",
            t.calls, t.busy_s, t.self_s
        );
    }
    out
}

/// Write `trace.json` (re-parsed before writing) and `layers.txt` into
/// `dir`.
pub fn write_trace(dir: &Path, trace: &Json, layers: &str) -> Result<(), String> {
    let text = trace.to_text();
    let reparsed = Json::parse(&text).map_err(|e| format!("trace.json does not parse: {e}"))?;
    if &reparsed != trace {
        return Err("trace.json does not round-trip".to_owned());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, body) in [("trace.json", text.as_str()), ("layers.txt", layers)] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 120, Some(0)), // clipped to the parent at 100
            span("d", 15, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![40, 25, 30, 30, 5]);
        assert!((coverage_pct(&spans) - 60.0).abs() < 1e-12);
        let totals = layer_totals(&spans);
        assert_eq!(totals["a"].calls, 1);
        assert!((totals["op"].self_s - 40e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_imports() {
        let mut t = Tracer::new(true);
        let depth = t.begin_op(0);
        t.span("serve.engine", |t| t.count("serve.engine.requests", 3));
        let child = vec![span("core.context", 5, 9, None), span("gpu", 6, 7, Some(0))];
        t.import(child, BTreeMap::from([("x".to_owned(), 2)]), 1_000);
        t.close_to(depth);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            (s[2].start_ns, s[2].parent, s[2].op),
            (1_005, Some(0), Some(0))
        );
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(t.counters()["serve.engine.requests"], 3);
        assert_eq!(t.counters()["x"], 2);
        let wire = spans_from_json(&spans_to_json(s)).unwrap();
        assert_eq!(wire.len(), 4);
        assert_eq!(wire[3].parent, Some(2));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let depth = t.begin_op(0);
        t.span("model", |t| t.count("model.x", 1));
        t.close_to(depth);
        assert!(t.spans().is_empty() && t.counters().is_empty());
    }
}
