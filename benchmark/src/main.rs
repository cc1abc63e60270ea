//! Host-clock benchmark of the AFSysBench-RS simulator: how long the
//! simulator itself takes, end to end and per layer, on four workloads
//! whose simulated outputs are checked on every op.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     <workload> [--seed S] [--seconds N] [--trace 0|1|DIR]
//! ```
//!
//! The workload may also be given as `--workload <name>`. Every metric
//! is printed as `name value unit`, and the last line is one JSON
//! object. `--trace` re-runs the ops with span recording after the
//! untraced ops, prints the per-layer metrics and writes
//! `trace.json` and `layers.txt` into DIR (`1`: `benchmark/trace/<workload>`).

mod measure;
mod trace;
mod workloads;

use afsb_rt::json::{obj, Json};
use measure::{geomean, percentile, tail, Runner};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{layer_totals, Tracer, LAYERS};
use workloads::{Params, WORKLOADS};

const USAGE: &str =
    "usage: afsb-hostbench [--workload] <cold-serve|msa-grid|serve-xl|serve-matrix> \
                     [--seed S] [--seconds N] [--trace 0|1|DIR]";

/// Measured seconds when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

/// End-to-end metrics of the untraced run, as declared in `BENCHMARK.json`.
const END_TO_END: [&str; 4] = ["setup_s", "work_s", "op_geomean_s", "peak_rss_mb"];

/// Per-layer metrics of the traced run, as declared in `BENCHMARK.json`.
const PER_LAYER: [&str; 12] = [
    "search.calls",
    "search.busy_s",
    "search.dp_cells_per_s",
    "msa_phase.calls",
    "msa_phase.busy_s",
    "simarch.sim_instr_per_s",
    "model.calls",
    "gpu.calls",
    "cost_table.builds",
    "check.busy_s",
    "trace.overhead_pct",
    "trace.coverage_pct",
];

struct Args {
    workload: String,
    params: Params,
    trace: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, DEFAULT_SECONDS, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => trace = Some(value()?.clone()),
            w if !w.starts_with('-') && workload.is_none() => workload = Some(w.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("no workload given")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("trace")
                .join(&workload),
        ),
        Some(dir) => Some(PathBuf::from(dir)),
    };
    Ok(Args {
        workload,
        params: Params { seed, seconds },
        trace,
    })
}

/// What one invocation measured.
struct Measured {
    setup_s: f64,
    untraced: Runner,
    traced: Option<Runner>,
}

/// Set up once, run the ops untraced, and, when tracing, run them again
/// with span recording (which also covered the set-up).
fn measure<S>(
    traced: bool,
    setup: impl FnOnce(&mut Tracer) -> S,
    ops: impl Fn(&S, &mut Runner),
) -> Measured {
    let mut tracer = Tracer::new(traced);
    let start = Instant::now();
    let state = tracer.span("setup", setup);
    let setup_s = start.elapsed().as_secs_f64();
    let mut untraced = Runner::new(Tracer::new(false));
    ops(&state, &mut untraced);
    let traced = traced.then(|| {
        let mut run = Runner::new(tracer);
        ops(&state, &mut run);
        run
    });
    Measured {
        setup_s,
        untraced,
        traced,
    }
}

fn run_workload(args: &Args) -> Measured {
    let (p, traced) = (&args.params, args.trace.is_some());
    match args.workload.as_str() {
        "cold-serve" => measure(
            traced,
            |t| workloads::cold_serve_setup(p, t),
            |s, r| workloads::cold_serve_ops(s, p, r),
        ),
        "msa-grid" => measure(
            traced,
            |t| workloads::msa_grid_setup(p, t),
            |s, r| workloads::msa_grid_ops(s, p, r),
        ),
        "serve-xl" => measure(
            traced,
            |t| workloads::serve_setup(p, t),
            |s, r| workloads::serve_xl_ops(s, p, r),
        ),
        "serve-matrix" => measure(
            traced,
            |t| workloads::serve_setup(p, t),
            |s, r| workloads::serve_matrix_ops(s, p, r),
        ),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// `work_s` and the op statistics use each distinct op's best pass;
/// `wall_s` is every op's time, as run. `work_s` is dominated by the
/// costliest ops; `op_geomean_s` weighs every op alike, so a regression
/// confined to cheap ops still shows.
fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let run = &m.untraced;
    let best = run.best_secs();
    let rss_kb = if run.child_rss_kb.is_empty() {
        measure::peak_rss_kb()? as f64
    } else {
        let mut kb: Vec<f64> = run.child_rss_kb.iter().map(|&k| k as f64).collect();
        kb.sort_by(f64::total_cmp);
        percentile(&kb, 50.0)
    };
    let mut out: Metrics = vec![
        ("setup_s".into(), m.setup_s, "s"),
        ("work_s".into(), run.work_s(), "s"),
        ("op_geomean_s".into(), geomean(&best), "s"),
        ("peak_rss_mb".into(), rss_kb / 1024.0, "MiB"),
        ("op_p50_s".into(), percentile(&best, 50.0), "s"),
    ];
    if let Some((pct, v)) = tail(&best) {
        out.push((format!("op_tail_s.p{pct:.1}"), v, "s"));
    }
    out.push(("distinct_ops".into(), best.len() as f64, "count"));
    out.push(("ops".into(), run.ops.len() as f64, "count"));
    out.push(("wall_s".into(), run.wall_s(), "s"));
    out.push((
        "failed_op_share".into(),
        run.failed() as f64 / run.ops.len() as f64,
        "ratio",
    ));
    out.push(("check_s".into(), run.check_s, "s"));
    Ok(out)
}

fn per_layer(traced: &Runner, untraced: &Runner) -> Metrics {
    let spans = traced.trace.spans();
    let totals = layer_totals(spans);
    let counter = |k: &str| traced.trace.counters().get(k).copied().unwrap_or(0) as f64;
    let mut out: Metrics = Vec::new();
    for (span, prefix, calls) in LAYERS {
        let t = totals.get(span).copied().unwrap_or_default();
        out.push((format!("{prefix}.{calls}"), t.calls as f64, "count"));
        out.push((format!("{prefix}.busy_s"), t.busy_s, "s"));
        out.push((format!("{prefix}.self_s"), t.self_s, "s"));
    }
    let busy = |span: &str| totals.get(span).map_or(0.0, |t| t.busy_s);
    let rate = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    out.push((
        "search.dp_cells".into(),
        counter("search.dp_cells"),
        "count",
    ));
    out.push((
        "search.db_residues".into(),
        counter("search.db_residues"),
        "count",
    ));
    out.push((
        "search.dp_cells_per_s".into(),
        rate(counter("search.dp_cells"), busy("core.context")),
        "1/s",
    ));
    out.push((
        "simarch.sim_instr".into(),
        counter("simarch.sim_instr"),
        "count",
    ));
    out.push((
        "simarch.sim_instr_per_s".into(),
        rate(counter("simarch.sim_instr"), busy("core.msa_phase")),
        "1/s",
    ));
    for layer in ["serve.engine", "serve.chaos", "serve.policy"] {
        let requests = counter(&format!("{layer}.requests"));
        out.push((format!("{layer}.requests"), requests, "count"));
        out.push((
            format!("{layer}.ns_per_request"),
            rate(busy(layer) * 1e9, requests),
            "ns",
        ));
    }
    out.push((
        "serve.engine.batches".into(),
        counter("serve.engine.batches"),
        "count",
    ));
    out.push((
        "serve.policy.preemptions".into(),
        counter("serve.policy.preemptions"),
        "count",
    ));
    let (tw, uw) = (traced.work_s(), untraced.work_s());
    out.push(("trace.work_s".into(), tw, "s"));
    out.push(("trace.untraced_work_s".into(), uw, "s"));
    out.push(("trace.overhead_pct".into(), 100.0 * (tw - uw) / uw, "%"));
    out.push(("trace.coverage_pct".into(), trace::coverage_pct(spans), "%"));
    out
}

fn json_metrics(all: &Metrics, names: &[&str]) -> Result<Json, String> {
    let fields = names
        .iter()
        .map(|&name| {
            let (_, value, unit) = all
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or(format!("metric {name} was not measured"))?;
            Ok((
                name.to_owned(),
                obj().field("value", *value).field("unit", *unit).build(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Json::Obj(fields))
}

/// Print every metric and the result line. A traced invocation reports
/// only per-layer metrics: its set-up ran traced.
fn report(args: &Args, m: &Measured) -> Result<(), String> {
    let mut runs = vec![&m.untraced];
    let metrics = match (&m.traced, &args.trace) {
        (Some(traced), Some(dir)) => {
            runs.push(traced);
            let layers = per_layer(traced, &m.untraced);
            let lines: Vec<String> = layers
                .iter()
                .map(|(n, v, u)| format!("{n} {v} {u}"))
                .collect();
            println!("{}", lines.join("\n"));
            let labels: Vec<String> = traced.ops.iter().map(|o| o.label.clone()).collect();
            let spans = traced.trace.spans();
            let summary: Vec<&str> = lines
                .iter()
                .map(String::as_str)
                .filter(|l| l.starts_with("trace."))
                .collect();
            trace::write_trace(
                dir,
                &trace::chrome_trace(spans, &labels),
                &format!("{}\n{}\n", trace::layers_txt(spans), summary.join("\n")),
            )?;
            println!("trace written to {}", dir.display());
            json_metrics(&layers, &PER_LAYER)?
        }
        _ => {
            let e2e = end_to_end(m)?;
            for (name, value, unit) in &e2e {
                println!("{name} {value} {unit}");
            }
            json_metrics(&e2e, &END_TO_END)?
        }
    };
    let attempted: usize = runs.iter().map(|r| r.ops.len()).sum();
    let failed: usize = runs.iter().map(|r| r.failed()).sum();
    for failure in runs.iter().flat_map(|r| &r.failures) {
        eprintln!("FAILED {failure}");
    }
    let result = obj()
        .field("correct", failed == 0)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics)
        .build();
    println!("{result}");
    Ok(())
}

/// `--child cold-serve --seed S --trace 0|1`: one cold-serve op.
fn child_main(argv: &[String]) -> ExitCode {
    let args = parse_args(argv).expect("the parent passes valid child arguments");
    println!(
        "{}",
        workloads::cold_serve_child(args.params.seed, args.trace.is_some())
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        return child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured = run_workload(&args);
    match report(&args, &measured) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
