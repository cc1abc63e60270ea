//! Measurement primitives: nearest-rank statistics, peak RSS, the
//! closed-loop op runner and the golden diff.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest nearest-rank percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` with ten samples
/// or fewer, where no percentile has ten beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let rank = n.checked_sub(10).filter(|&r| r > 0)?;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set in KiB.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// `None` when `actual` equals `expected`, otherwise a message naming
/// the first line (1-based) where they differ.
pub fn first_difference(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let (mut exp, mut act) = (expected.split('\n'), actual.split('\n'));
    for line in 1.. {
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => continue,
            (e, a) => {
                let show =
                    |s: Option<&str>| s.map_or("<end of text>".to_owned(), |s| format!("{s:?}"));
                return Some(format!(
                    "line {line} differs: expected {}, got {}",
                    show(e),
                    show(a)
                ));
            }
        }
    }
    unreachable!("split('\\n') of unequal texts differs on some line")
}

/// One timed operation of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// What the op ran.
    pub label: String,
    /// Host seconds spent inside the op (checks excluded).
    pub secs: f64,
    /// Whether the op finished and passed its checks.
    pub ok: bool,
}

/// The closed loop: one client issues one op at a time on this thread.
/// Each op is timed, caught if it panics, then checked outside the
/// timed region.
pub struct Runner {
    /// Span recorder for the layers the ops call into.
    pub trace: Tracer,
    /// Every op run so far, in order.
    pub ops: Vec<OpRecord>,
    /// Why each failed op failed.
    pub failures: Vec<String>,
    /// Host seconds spent checking outputs.
    pub check_s: f64,
    /// Peak RSS (KiB) each child-process op reported for itself.
    pub child_rss_kb: Vec<u64>,
}

impl Runner {
    /// An empty run recording spans into `trace`.
    pub fn new(trace: Tracer) -> Runner {
        Runner {
            trace,
            ops: Vec::new(),
            failures: Vec::new(),
            check_s: 0.0,
            child_rss_kb: Vec::new(),
        }
    }

    /// Run `op` as the next operation and check its output. Returns
    /// the output unless the op panicked.
    pub fn op<T>(
        &mut self,
        label: String,
        op: impl FnOnce(&mut Tracer) -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        let id = self.ops.len();
        let depth = self.trace.begin_op(id);
        let start = Instant::now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&mut self.trace)));
        let secs = start.elapsed().as_secs_f64();
        self.trace.close_to(depth);
        self.ops.push(OpRecord {
            label,
            secs,
            ok: true,
        });
        match result {
            Ok(out) => {
                self.check_ops(&[id], || check(&out));
                Some(out)
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                self.fail(id, &format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Run a check outside any op, timed as check time.
    fn check<R>(&mut self, check: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = self.trace.span("check", |_| check());
        self.check_s += start.elapsed().as_secs_f64();
        out
    }

    /// Run a check over the outputs of several ops that already ran,
    /// failing all of them if it fails.
    pub fn check_ops(&mut self, ids: &[usize], check: impl FnOnce() -> Result<(), String>) {
        if let Err(msg) = self.check(check) {
            for &id in ids {
                self.fail(id, &msg);
            }
        }
    }

    /// Mark op `id` failed.
    fn fail(&mut self, id: usize, msg: &str) {
        let op = &mut self.ops[id];
        if op.ok {
            op.ok = false;
            self.failures.push(format!("{}: {msg}", op.label));
        }
    }

    /// Ops that failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Sum of op durations.
    pub fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.secs).sum()
    }

    /// Best (shortest) duration of each distinct op label, ascending.
    /// Host noise here comes in bursts of a few seconds that only ever
    /// add time, so the best of repeats spread across the run is the
    /// steady estimate of an op's cost.
    pub fn best_secs(&self) -> Vec<f64> {
        let mut best: BTreeMap<&str, f64> = BTreeMap::new();
        for o in &self.ops {
            let b = best.entry(&o.label).or_insert(o.secs);
            *b = b.min(o.secs);
        }
        let mut secs: Vec<f64> = best.into_values().collect();
        secs.sort_by(f64::total_cmp);
        secs
    }

    /// Host seconds of one pass over the distinct ops, each at its best.
    pub fn work_s(&self) -> f64 {
        self.best_secs().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 51.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let v: Vec<f64> = (1..=137).map(f64::from).collect();
        let (p, value) = tail(&v).expect("137 samples have a tail");
        assert_eq!(value, 127.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // The tail value is the nearest-rank percentile it is labelled.
        assert_eq!(percentile(&v, p), value);
        let (p20, v20) = tail(&(1..=20).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((p20, v20), (50.0, 10.0));
    }

    #[test]
    fn vm_hwm_from_status_fixture() {
        let status = "Name:\tafsb-hostbench\nVmPeak:\t  812340 kB\nVmSize:\t  811000 kB\n\
                      VmHWM:\t  123456 kB\nVmRSS:\t   98765 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn live_peak_rss_is_positive() {
        assert!(peak_rss_kb().expect("linux /proc") > 0);
    }

    #[test]
    fn golden_diff_names_first_differing_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        let msg = first_difference("a\nb\nc\n", "a\nB\nc\n").unwrap();
        assert!(msg.starts_with("line 2 differs"), "{msg}");
        assert!(msg.contains("\"b\"") && msg.contains("\"B\""), "{msg}");
        let short = first_difference("a\nb", "a").unwrap();
        assert!(
            short.contains("line 2") && short.contains("<end of text>"),
            "{short}"
        );
    }

    #[test]
    fn best_secs_keeps_each_labels_fastest_repeat() {
        let mut run = Runner::new(Tracer::new(false));
        for (label, secs) in [("a", 3.0), ("b", 1.0), ("a", 2.0), ("b", 5.0), ("c", 4.0)] {
            run.ops.push(OpRecord {
                label: label.into(),
                secs,
                ok: true,
            });
        }
        assert_eq!(run.best_secs(), vec![1.0, 2.0, 4.0]);
        assert_eq!(run.wall_s(), 15.0);
    }

    #[test]
    fn panicking_op_fails_without_aborting_the_run() {
        let mut run = Runner::new(Tracer::new(true));
        let first = run.op(
            "boom".into(),
            |_| -> u32 { panic!("op exploded") },
            |_| Ok(()),
        );
        assert_eq!(first, None);
        let second = run.op(
            "fine".into(),
            |_| 2 + 2,
            |&v| (v == 4).then_some(()).ok_or("bad".into()),
        );
        assert_eq!(second, Some(4));
        let third = run.op("wrong".into(), |_| 5, |_| Err("expected 4".into()));
        assert_eq!(third, Some(5));
        assert_eq!(run.ops.len(), 3);
        assert_eq!(run.failed(), 2);
        assert!(!run.ops[0].ok && run.ops[1].ok && !run.ops[2].ok);
        assert!(
            run.failures[0].contains("op exploded"),
            "{:?}",
            run.failures
        );
        assert!(run.failures[1].contains("expected 4"), "{:?}", run.failures);
        // A check over several finished ops fails each of them once.
        run.check_ops(&[1, 2], || Err("golden differs".into()));
        assert_eq!(run.failed(), 3);
        assert_eq!(run.failures.len(), 3);
        assert!(run.failures[2].starts_with("fine: golden differs"));
        // The panicked op's span was closed, so later ops nest correctly.
        assert!(run.trace.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(
            run.trace.spans().iter().filter(|s| s.name == "op").count(),
            3
        );
    }
}
