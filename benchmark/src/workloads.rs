//! The four workloads, each a closed loop of ops over one layer mix.
//!
//! `--seed S` is added to every canonical input seed (request stream
//! 17, simarch engine 42, search context 11), so `S = 0` reproduces the
//! committed goldens under `results/quick/`, which are then checked byte
//! for byte. Every other seed is checked against invariants.

use crate::measure::{first_difference, peak_rss_kb, Runner};
use crate::trace::{spans_from_json, spans_to_json, Span, Tracer};
use afsb_core::calib;
use afsb_core::context::{BenchContext, ContextConfig, SampleSearchData};
use afsb_core::inference_phase::gpu_for;
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions, MsaPhaseResult};
use afsb_core::report;
use afsb_gpu::runtime::{GpuRuntime, HostCpuModel};
use afsb_model::{run_inference, ModelConfig};
use afsb_rt::json::{obj, Json};
use afsb_rt::ObsSession;
use afsb_seq::samples::SampleId;
use afsb_serve::scenario::SERVE_SEED;
use afsb_serve::server::ShapeCost;
use afsb_serve::{
    chaos_scenarios, default_scenarios, policy_scenarios, render_chaos_summary, render_summary,
    run_serve, run_serve_chaos, run_serve_policy, workload, xl_scenarios, ChaosConfig, ChaosReport,
    ChaosScenarioRun, CostTable, ScenarioRun, ServeConfig, ServeReport,
};
use afsb_simarch::config::GIB;
use afsb_simarch::memory::CapacityModel;
use afsb_simarch::Platform;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["cold-serve", "msa-grid", "serve-xl", "serve-matrix"];

/// Nominal host seconds of one pass over each workload's ops, measured
/// on the reference box (2 cores, release build). They turn `--seconds`
/// into a fixed amount of work, so a faster commit does the same work
/// sooner instead of more work in the same time.
const COLD_SERVE_PASS_S: f64 = 11.5;
const MSA_GRID_PASS_S: f64 = 9.4;
const SERVE_XL_PASS_S: f64 = 3.35;
const SERVE_MATRIX_PASS_S: f64 = 5.4;

/// The `--quick` simarch sampling budget of the harness and of
/// `CostTable::build`.
const QUICK_SAMPLE_CAP: u64 = 400_000;
/// MSA threads per pool worker of every serve experiment.
const MSA_THREADS: usize = 4;
/// Thread counts of the msa-grid cells: the Table IV columns, which
/// bracket the Fig. 4 scaling knee, so a pass fits about 9 s.
const GRID_THREADS: [usize; 2] = [1, 4];
/// Stream length of the serve-xl stress ops: the `xl_scenarios(false)`
/// configs cut from 100k to 40k requests so a pass fits about 3 s, yet
/// long enough that the backlog-bound `warm_b1` dominates it.
const XL_STRESS_REQUESTS: usize = 40_000;
/// Stream length and stream seeds per pass of the serve-matrix ops.
/// Stream cost varies by about 8% from seed to seed (the SJF and
/// preemption policies most), so many short streams keep a run's cost
/// nearly independent of `--seed`.
const MATRIX_REQUESTS: usize = 5_000;
const MATRIX_SEEDS: u64 = 12;
/// `CostTable::build`'s private feature-file pricing constants, mirrored
/// by the replay (the bit-for-bit check catches drift).
const FEATURE_LOAD_BASE_S: f64 = 0.05;
const FEATURE_CELL_BYTES: u64 = 16;

/// How one invocation sizes and seeds its inputs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Offset added to every canonical seed.
    pub seed: u64,
    /// Nominal measured seconds (sets the number of passes).
    pub seconds: f64,
}

impl Params {
    /// Passes over a workload's ops of `pass_s` nominal seconds each:
    /// at least two, so every op has a repeat to take the best of.
    fn passes(&self, pass_s: f64) -> u64 {
        ((self.seconds / pass_s).floor() as u64).max(2)
    }
}

/// Repeated ops must reproduce their first pass byte for byte.
fn same_as_first(
    first: &mut BTreeMap<String, String>,
    label: &str,
    render: String,
) -> Result<(), String> {
    let expected = first
        .entry(label.to_owned())
        .or_insert_with(|| render.clone());
    first_difference(expected, &render)
        .map_or(Ok(()), |d| Err(format!("differs from its first pass: {d}")))
}

/// A committed `--quick` golden, read relative to this package so the
/// benchmark runs from any directory.
fn golden(name: &str) -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../results/quick")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("golden {}: {e}", path.display()))
}

/// Check `actual` against golden `name` (exactly, or as its prefix).
fn check_golden(name: &str, actual: &str, prefix: bool) -> Result<(), String> {
    let expected = golden(name)?;
    let expected = if prefix {
        expected.get(..actual.len()).unwrap_or(&expected)
    } else {
        &expected
    };
    first_difference(expected, actual).map_or(Ok(()), |d| Err(format!("{name}: {d}")))
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(())
        .ok_or_else(|| format!("invariant broken: {what}"))
}

/// Search data of one sample, one `core.context` span.
fn sample_data(ctx: &mut BenchContext, id: SampleId, t: &mut Tracer) -> Arc<SampleSearchData> {
    let data = t.span("core.context", |_| ctx.sample_data(id));
    let counters = data.total_counters();
    t.count("search.dp_cells", counters.total_dp_cells());
    t.count("search.db_residues", counters.db_residues);
    data
}

/// One MSA-phase simulation, one `core.msa_phase` span.
fn msa_phase(
    data: &SampleSearchData,
    platform: Platform,
    threads: usize,
    options: &MsaPhaseOptions,
    t: &mut Tracer,
) -> MsaPhaseResult {
    let r = t.span("core.msa_phase", |_| {
        run_msa_phase(data, platform, threads, options)
    });
    t.count("simarch.sim_instr", r.sim.totals.instructions);
    r
}

/// `CostTable::build(Server, quick, 4, seed)` replayed from its public
/// constituents, one span per layer call, so the traced run splits the
/// table's cost by layer.
pub fn replay_cost_table(seed: u64, t: &mut Tracer) -> CostTable {
    t.span("serve.cost_table", |t| {
        let platform = Platform::Server;
        let mut ctx = BenchContext::new(ContextConfig::test());
        let options = MsaPhaseOptions {
            sample_cap: QUICK_SAMPLE_CAP,
            ..MsaPhaseOptions::default()
        };
        let runtime = GpuRuntime::new(
            gpu_for(platform),
            HostCpuModel {
                single_core_score: calib::host_cpu_score(platform),
            },
        );
        let capacity = CapacityModel::new(&platform.spec());
        let storage_bps = platform.spec().storage.seq_read_gibs * GIB as f64;
        let (mut init_s, mut dispatch_s) = (0.0, 0.0);
        let mut shapes = BTreeMap::new();
        for id in SampleId::all() {
            let data = sample_data(&mut ctx, id, t);
            let msa = msa_phase(&data, platform, MSA_THREADS, &options, t);
            let peak = data.paper_peak_msa_bytes(MSA_THREADS);
            let model = t.span("model", |_| {
                run_inference(
                    &data.sample.assembly,
                    data.msa_depth,
                    &ModelConfig::paper(),
                    seed,
                )
            });
            let (cold, warm) = t.span("gpu", |_| {
                let (log, ws) = (&model.cost_log, model.working_set_bytes);
                (runtime.run_cold(log, ws), runtime.run_warm(log, ws))
            });
            init_s = cold.init_s;
            dispatch_s = warm.init_s + warm.finalize_s;
            let feature_bytes = data.msa_depth as u64
                * data.sample.assembly.total_residues() as u64
                * FEATURE_CELL_BYTES;
            let shape = ShapeCost {
                msa_s: msa.wall_seconds(),
                feature_bytes,
                feature_load_s: FEATURE_LOAD_BASE_S + feature_bytes as f64 / storage_bps,
                peak_msa_bytes: peak,
                admitted: capacity.admit(peak).completes() && msa.completed(),
                compile_s: cold.xla_compile_s,
                compute_s: warm.gpu_compute_s,
            };
            shapes.insert(id, shape);
        }
        CostTable {
            platform,
            msa_threads: MSA_THREADS,
            init_s,
            dispatch_s,
            shapes,
        }
    })
}

/// The quick serve cost table as every serve experiment builds it.
fn build_costs(seed: u64) -> CostTable {
    CostTable::build(Platform::Server, true, MSA_THREADS, seed)
}

/// Every field of a cost table; `Debug` prints floats in shortest
/// round-trip form, so equal text means equal bits.
fn table_bits(table: &CostTable) -> String {
    format!("{table:?}")
}

/// The quick serve cost table every serve experiment prices with.
/// Traced, it is replayed layer by layer and checked bit for bit
/// against `CostTable::build`.
fn serve_costs(seed: u64, t: &mut Tracer) -> CostTable {
    if !t.enabled() {
        return build_costs(seed);
    }
    let replayed = replay_cost_table(seed, t);
    let real = t.span("check", |_| build_costs(seed));
    assert_eq!(
        table_bits(&replayed),
        table_bits(&real),
        "the CostTable replay no longer matches CostTable::build"
    );
    replayed
}

/// Traced runs time `workload::generate` on its own, after the op:
/// every serve loop calls it internally, where the outside cannot see.
fn probe_workload(t: &mut Tracer, config: &ServeConfig) {
    if t.enabled() {
        t.span("serve.workload", |_| workload::generate(&config.workload));
    }
}

fn engine(config: &ServeConfig, costs: &CostTable, t: &mut Tracer) -> (ServeReport, ObsSession) {
    let mut obs = ObsSession::new();
    let report = t.span("serve.engine", |_| run_serve(config, costs, &mut obs));
    t.count("serve.engine.requests", report.outcomes.len() as u64);
    t.count("serve.engine.batches", report.batches as u64);
    (report, obs)
}

fn serve_invariants(r: &ServeReport, config: &ServeConfig) -> Result<(), String> {
    let n = config.workload.num_requests;
    ensure(r.outcomes.len() == n, "one outcome per request")?;
    ensure(r.served + r.rejected == n, "served + rejected == requests")?;
    ensure(
        r.throughput_qph.is_finite() && r.throughput_qph > 0.0,
        "finite positive queries/hour",
    )?;
    ensure(
        (0.0..=1.0).contains(&r.gpu_occupancy),
        "GPU occupancy in [0, 1]",
    )?;
    let l = r.latency.as_ref().ok_or("no latency summary")?;
    ensure(
        l.p50.is_finite() && l.p99.is_finite() && l.p50 <= l.p99,
        "finite p50 <= p99",
    )
}

fn chaos_invariants(r: &ChaosReport) -> Result<(), String> {
    ensure(
        r.conserves_requests(),
        "every admitted request ends in one disposition",
    )?;
    ensure(
        r.availability.is_finite() && r.goodput.is_finite(),
        "finite availability and goodput",
    )?;
    ensure(r.base.throughput_qph.is_finite(), "finite queries/hour")
}

/// The four `default_scenarios(true)` on stream seed `17 + seed`: the
/// serving half of `afsysbench serve --quick`.
fn serve_default(costs: &CostTable, seed: u64, t: &mut Tracer) -> Vec<ScenarioRun> {
    default_scenarios(true)
        .into_iter()
        .map(|mut s| {
            s.config.workload.seed = SERVE_SEED + seed;
            let (report, obs) = engine(&s.config, costs, t);
            probe_workload(t, &s.config);
            ScenarioRun {
                name: s.name,
                report,
                obs,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- cold-serve

/// The in-process reference every fresh child must reproduce.
pub struct ColdServe {
    render: String,
    table: String,
}

/// What a cold-serve child reports.
pub struct ChildOut {
    render: String,
    table: String,
    rss_kb: u64,
    elapsed_ns: u64,
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
}

/// Setup: `afsysbench serve --quick` once in this process, as the
/// reference for the children.
pub fn cold_serve_setup(p: &Params, t: &mut Tracer) -> ColdServe {
    let costs = t.span("serve.cost_table", |_| build_costs(SERVE_SEED + p.seed));
    let runs = serve_default(&costs, p.seed, t);
    for run in &runs {
        serve_invariants(&run.report, &run.report.config)
            .unwrap_or_else(|e| panic!("reference run {}: {e}", run.name));
    }
    ColdServe {
        render: render_summary(&runs),
        table: table_bits(&costs),
    }
}

/// Ops: each is a fresh child process running `serve --quick`, one at
/// a time, so per-process set-up is paid on every op, as users pay it.
pub fn cold_serve_ops(reference: &ColdServe, p: &Params, run: &mut Runner) {
    for _ in 0..p.passes(COLD_SERVE_PASS_S) {
        let out = run.op(
            "serve --quick child".to_owned(),
            |t| spawn_child(p.seed, t),
            |c| {
                ensure(c.table == reference.table, "child CostTable == reference")?;
                if let Some(d) = first_difference(&reference.render, &c.render) {
                    return Err(format!("child render differs from the reference: {d}"));
                }
                if p.seed == 0 {
                    check_golden("serve.txt", &c.render, false)?;
                }
                Ok(())
            },
        );
        if let Some(c) = out {
            run.child_rss_kb.push(c.rss_kb);
        }
    }
}

fn spawn_child(seed: u64, t: &mut Tracer) -> ChildOut {
    let start_ns = t.now_ns();
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let traced = if t.enabled() { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "--child",
            "cold-serve",
            "--seed",
            &seed.to_string(),
            "--trace",
            traced,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning the cold-serve child");
    assert!(out.status.success(), "child exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("child output is UTF-8");
    let line = stdout.lines().last().expect("child printed a result");
    let mut child = parse_child(line).unwrap_or_else(|e| panic!("child result: {e}"));
    // Align the child's clock so its work ends when it was reaped; the
    // gap before it is process spawn, exec and start-up.
    let base = t.now_ns().saturating_sub(child.elapsed_ns).max(start_ns);
    let spawn = Span {
        name: "proc.spawn".into(),
        start_ns: 0,
        end_ns: base - start_ns,
        parent: None,
        op: None,
    };
    t.import(vec![spawn], BTreeMap::new(), start_ns);
    let (spans, counters) = (
        std::mem::take(&mut child.spans),
        std::mem::take(&mut child.counters),
    );
    t.import(spans, counters, base);
    child
}

fn parse_child(line: &str) -> Result<ChildOut, String> {
    let j = Json::parse(line).map_err(|e| e.to_string())?;
    let text = |k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("missing {k}"))
    };
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("missing {k}"))
    };
    let counters = j
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("missing counters")?
        .iter()
        .map(|(k, v)| {
            let v = v.as_str().and_then(|s| s.parse().ok());
            v.map(|v| (k.clone(), v)).ok_or(format!("counter {k}"))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildOut {
        render: text("render")?,
        table: text("table")?,
        rss_kb: num("rss_kb")?,
        elapsed_ns: num("elapsed_ns")?,
        spans: spans_from_json(j.get("spans").ok_or("missing spans")?)?,
        counters,
    })
}

/// The child side of a cold-serve op: exactly `afsysbench serve
/// --quick` (a traced child replays the cost table layer by layer),
/// reported as one JSON line.
pub fn cold_serve_child(seed: u64, traced: bool) -> Json {
    let mut t = Tracer::new(traced);
    let costs = if traced {
        replay_cost_table(SERVE_SEED + seed, &mut t)
    } else {
        build_costs(SERVE_SEED + seed)
    };
    let runs = serve_default(&costs, seed, &mut t);
    let render = render_summary(&runs);
    let elapsed_ns = t.now_ns();
    // As strings: instruction counts pass 2^53, where JSON numbers
    // (f64) stop being exact.
    let counters = t
        .counters()
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(v.to_string())))
        .collect();
    obj()
        .field("render", render)
        .field("table", table_bits(&costs))
        .field(
            "rss_kb",
            peak_rss_kb().expect("reading the child's peak RSS"),
        )
        .field("elapsed_ns", elapsed_ns)
        .field("spans", spans_to_json(t.spans()))
        .field("counters", Json::Obj(counters))
        .build()
}

// ------------------------------------------------------------------ msa-grid

/// Setup: search data for every sample.
pub fn msa_grid_setup(p: &Params, t: &mut Tracer) -> Vec<Arc<SampleSearchData>> {
    let mut ctx = BenchContext::new(ContextConfig {
        seed: ContextConfig::test().seed + p.seed,
        ..ContextConfig::test()
    });
    SampleId::all()
        .into_iter()
        .map(|id| sample_data(&mut ctx, id, t))
        .collect()
}

/// Ops: one MSA-phase simulation per (threads, sample, platform) cell,
/// each pass on its own engine seed. At seed 0 the first pass's Table
/// IV cells must render the committed table.
pub fn msa_grid_ops(data: &[Arc<SampleSearchData>], p: &Params, run: &mut Runner) {
    for pass in 0..p.passes(MSA_GRID_PASS_S) {
        let options = MsaPhaseOptions {
            sample_cap: QUICK_SAMPLE_CAP,
            seed: MsaPhaseOptions::default().seed + p.seed + pass,
            ..MsaPhaseOptions::default()
        };
        let mut table4 = BTreeMap::new();
        for threads in GRID_THREADS {
            for d in data {
                for platform in Platform::all() {
                    let id = run.ops.len();
                    let label = format!("{} {platform} {threads}T", d.sample.id.name());
                    let r = run.op(
                        label,
                        |t| msa_phase(d, platform, threads, &options, t),
                        |r| {
                            ensure(r.completed(), "phase completed")?;
                            let wall = r.wall_seconds();
                            ensure(wall.is_finite() && wall > 0.0, "finite positive wall")?;
                            ensure(r.sim.totals.instructions > 0, "instructions simulated")
                        },
                    );
                    let table4_cell = matches!(d.sample.id, SampleId::S2pv7 | SampleId::Promo)
                        && platform == Platform::Server;
                    if table4_cell && pass == 0 && p.seed == 0 {
                        table4.insert((d.sample.id, threads), (id, r));
                    }
                }
            }
        }
        if !table4.is_empty() {
            let ids: Vec<usize> = table4.values().map(|(id, _)| *id).collect();
            run.check_ops(&ids, || {
                let mut rendered = String::new();
                for id in [SampleId::S2pv7, SampleId::Promo] {
                    let cell = |t| table4[&(id, t)].1.as_ref().ok_or("cell failed");
                    let (t1, t4) = (cell(1)?, cell(4)?);
                    rendered.push('\n');
                    rendered.push_str(&report::table4(id.name(), &t1.sim.report, &t4.sim.report));
                }
                check_golden("table4.txt", &rendered, true)
            });
        }
    }
}

// ------------------------------------------------------------------ serve-xl

/// Setup: the quick cost table.
pub fn serve_setup(p: &Params, t: &mut Tracer) -> CostTable {
    serve_costs(SERVE_SEED + p.seed, t)
}

fn engine_op(
    run: &mut Runner,
    first: &mut BTreeMap<String, String>,
    label: String,
    config: &ServeConfig,
    costs: &CostTable,
) -> Option<(ServeReport, ObsSession)> {
    let out = run.op(
        label.clone(),
        |t| engine(config, costs, t),
        |(r, _)| {
            serve_invariants(r, config)?;
            same_as_first(first, &label, r.render())
        },
    );
    probe_workload(&mut run.trace, config);
    out
}

/// Ops per pass: the four `xl_scenarios(true)` (10k requests, golden at
/// seed 0), then the four `xl_scenarios(false)` configs cut to 40k
/// requests.
pub fn serve_xl_ops(costs: &CostTable, p: &Params, run: &mut Runner) {
    let mut first = BTreeMap::new();
    for pass in 0..p.passes(SERVE_XL_PASS_S) {
        let (mut runs, mut ids) = (Vec::new(), Vec::new());
        for mut s in xl_scenarios(true) {
            s.config.workload.seed = SERVE_SEED + p.seed;
            ids.push(run.ops.len());
            let label = format!("xl-10k {}", s.name);
            if let Some((report, obs)) = engine_op(run, &mut first, label, &s.config, costs) {
                let name = s.name;
                runs.push(ScenarioRun { name, report, obs });
            }
        }
        if pass == 0 && p.seed == 0 {
            run.check_ops(&ids, || {
                ensure(runs.len() == ids.len(), "every golden scenario ran")?;
                check_golden("serve-xl.txt", &render_summary(&runs), false)
            });
        }
        for mut s in xl_scenarios(false) {
            s.config.workload.num_requests = XL_STRESS_REQUESTS;
            s.config.workload.seed = SERVE_SEED + p.seed;
            let label = format!("xl-40k {}", s.name);
            engine_op(run, &mut first, label, &s.config, costs);
        }
    }
}

// -------------------------------------------------------------- serve-matrix

fn chaos_op(
    run: &mut Runner,
    first: &mut BTreeMap<String, String>,
    label: String,
    config: &ServeConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
) -> Option<(ChaosReport, ObsSession)> {
    let out = run.op(
        label.clone(),
        |t| {
            let mut obs = ObsSession::new();
            let report = t.span("serve.chaos", |_| {
                run_serve_chaos(config, chaos, costs, &mut obs)
            });
            t.count("serve.chaos.requests", report.base.outcomes.len() as u64);
            (report, obs)
        },
        |(r, _)| {
            chaos_invariants(r)?;
            same_as_first(first, &label, r.render())
        },
    );
    probe_workload(&mut run.trace, config);
    out
}

/// Ops per pass: the canonical 384-request chaos matrix (golden at seed
/// 0), then every chaos and policy scenario at 5k requests on each of
/// twelve stream seeds.
pub fn serve_matrix_ops(costs: &CostTable, p: &Params, run: &mut Runner) {
    let mut first = BTreeMap::new();
    for pass in 0..p.passes(SERVE_MATRIX_PASS_S) {
        let (mut runs, mut ids) = (Vec::new(), Vec::new());
        for mut s in chaos_scenarios(true) {
            s.config.workload.seed = SERVE_SEED + p.seed;
            ids.push(run.ops.len());
            let label = format!("chaos-384 {}", s.name);
            if let Some((report, obs)) =
                chaos_op(run, &mut first, label, &s.config, &s.chaos, costs)
            {
                let name = s.name;
                runs.push(ChaosScenarioRun { name, report, obs });
            }
        }
        if pass == 0 && p.seed == 0 {
            run.check_ops(&ids, || {
                ensure(runs.len() == ids.len(), "every golden scenario ran")?;
                check_golden("serve-chaos.txt", &render_chaos_summary(&runs), false)
            });
        }
        for seed in (0..MATRIX_SEEDS).map(|i| SERVE_SEED + p.seed + i) {
            let mut baseline = None;
            for mut s in chaos_scenarios(true) {
                s.config.workload.num_requests = MATRIX_REQUESTS;
                s.config.workload.seed = seed;
                let label = format!("chaos-5k {} seed {seed}", s.name);
                let out = chaos_op(run, &mut first, label, &s.config, &s.chaos, costs);
                if !s.chaos.is_active() {
                    baseline = out.map(|(r, _)| r.render());
                }
            }
            for mut s in policy_scenarios(true) {
                s.config.workload.num_requests = MATRIX_REQUESTS;
                s.config.workload.seed = seed;
                let (cfg, fifo) = (s.config, s.policy.is_plain_fifo());
                let label = format!("policy-5k {} seed {seed}", s.name);
                run.op(
                    label.clone(),
                    |t| {
                        let mut obs = ObsSession::new();
                        let none = ChaosConfig::none();
                        let r = t.span("serve.policy", |_| {
                            run_serve_policy(&cfg, &s.policy, &none, costs, &mut obs)
                        });
                        t.count("serve.policy.requests", r.chaos.base.outcomes.len() as u64);
                        t.count("serve.policy.preemptions", r.preemptions);
                        r
                    },
                    |r| {
                        chaos_invariants(&r.chaos)?;
                        let (p50, p99) = (r.exact_percentile_s(0.5), r.exact_percentile_s(0.99));
                        ensure(p50.is_finite() && p99.is_finite(), "finite exact p50/p99")?;
                        if fifo {
                            let base = baseline.as_deref().ok_or("chaos baseline failed")?;
                            if let Some(d) = first_difference(base, &r.render()) {
                                return Err(format!(
                                    "fifo policy differs from chaos baseline: {d}"
                                ));
                            }
                        }
                        same_as_first(&mut first, &label, r.render())
                    },
                );
                probe_workload(&mut run.trace, &cfg);
            }
        }
    }
}
