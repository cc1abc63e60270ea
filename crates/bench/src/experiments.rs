//! The experiment implementations, one per paper table/figure.

use afsb_core::context::{scale, BenchContext};
use afsb_core::inference_phase::{self, InferenceOptions};
use afsb_core::msa_phase::{self, MsaPhaseOptions};
use afsb_core::pipeline::{self, PipelineOptions};
use afsb_core::report::{self, ascii_table};
use afsb_core::runner::{self, INFERENCE_THREAD_SWEEP, MSA_THREAD_SWEEP};
use afsb_core::MemoryEstimator;
use afsb_gpu::runtime::PersistentSession;
use afsb_hmmer::nhmmer;
use afsb_model::{run_inference, ModelConfig};
use afsb_seq::samples::{self, SampleId};
use afsb_simarch::config::GIB;
use afsb_simarch::memory::CapacityModel;
use afsb_simarch::storage::{IoPhase, SeparatedIoPaths};
use afsb_simarch::Platform;

/// Shared experiment state: the executed search data cache plus options.
pub struct Harness {
    ctx: BenchContext,
    msa_options: MsaPhaseOptions,
    model: ModelConfig,
    quick: bool,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(false)
    }
}

impl Harness {
    /// Create a harness. `quick` shrinks the synthetic databases and the
    /// simulation sampling budget (used by tests and smoke runs).
    pub fn new(quick: bool) -> Harness {
        let (config, sample_cap) = scale(quick);
        let msa_options = MsaPhaseOptions {
            sample_cap,
            ..MsaPhaseOptions::default()
        };
        Harness {
            ctx: BenchContext::new(config),
            msa_options,
            model: ModelConfig::paper(),
            quick,
        }
    }

    fn pipeline_options(&self) -> PipelineOptions {
        PipelineOptions {
            msa: self.msa_options,
            model: Some(self.model),
            seed: 17,
        }
    }

    /// Table I: hardware configurations.
    pub fn table1(&mut self) -> String {
        let rows: Vec<Vec<String>> = Platform::all()
            .iter()
            .map(|p| {
                let s = p.spec();
                vec![
                    p.to_string(),
                    s.cpu_name.to_owned(),
                    format!("{}/{}", s.core.cores, s.core.threads),
                    format!("{:.1}/{:.1} GHz", s.core.base_ghz, s.core.max_ghz),
                    format!("{} MiB", s.llc.capacity >> 20),
                    format!(
                        "{} GiB{}",
                        s.memory.dram_bytes >> 30,
                        if s.memory.cxl_bytes > 0 {
                            format!(" (+{} CXL)", s.memory.cxl_bytes >> 30)
                        } else {
                            String::new()
                        }
                    ),
                    s.gpu_name.to_owned(),
                ]
            })
            .collect();
        ascii_table(
            &["Config", "CPU", "C/T", "Clock", "LLC", "Memory", "GPU"],
            &rows,
        )
    }

    /// Table II: the input sample suite.
    pub fn table2(&mut self) -> String {
        let rows: Vec<Vec<String>> = SampleId::all()
            .iter()
            .map(|&id| {
                let s = samples::sample(id);
                vec![
                    s.id.name().to_owned(),
                    s.assembly.composition_summary(),
                    s.complexity.to_string(),
                    s.assembly.total_residues().to_string(),
                    s.characteristic.to_owned(),
                ]
            })
            .collect();
        ascii_table(
            &[
                "Sample",
                "Structure",
                "Complexity",
                "Seq. Length",
                "Characteristic",
            ],
            &rows,
        )
    }

    /// Fig. 2: nhmmer peak memory vs RNA length, with admission outcomes
    /// on the Server (with and without CXL).
    pub fn fig2(&mut self) -> String {
        let server = CapacityModel::new(&Platform::Server.spec());
        let server_no_cxl = server.clone().without_cxl();
        let mut rows = Vec::new();
        for len in [400usize, 621, 800, 935, 1050, 1135, 1250, 1335] {
            let bytes = nhmmer::paper_peak_bytes(len);
            let paper = crate::paper::FIG2_PAPER
                .iter()
                .find(|(l, _)| *l == len)
                .map(|(_, g)| format!("{g:.1}"))
                .unwrap_or_else(|| "-".into());
            rows.push(vec![
                len.to_string(),
                format!("{:.1}", bytes as f64 / GIB as f64),
                paper,
                server_no_cxl.admit(bytes).to_string(),
                server.admit(bytes).to_string(),
            ]);
        }
        ascii_table(
            &[
                "RNA nt",
                "Peak GiB (sim)",
                "Peak GiB (paper)",
                "Server 512 GiB",
                "Server +CXL 768 GiB",
            ],
            &rows,
        )
    }

    /// Fig. 3: end-to-end stacked MSA+inference across samples, platforms
    /// and thread counts. Returns `(table, csv)`.
    pub fn fig3(&mut self) -> (String, String) {
        let options = self.pipeline_options();
        let mut results = Vec::new();
        for id in SampleId::all() {
            let data = self.ctx.sample_data(id);
            for platform in Platform::all() {
                for &t in &MSA_THREAD_SWEEP {
                    results.push(pipeline::run_pipeline(&data, platform, t, &options));
                }
            }
        }
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.sample.clone(),
                    r.platform.to_string(),
                    r.threads.to_string(),
                    report::outcome_seconds(r.msa.outcome, r.msa_seconds()),
                    report::outcome_seconds(r.inference.outcome, r.inference_seconds()),
                    report::outcome_seconds(r.outcome(), r.total_seconds()),
                    if r.completed() {
                        format!("{:.0}%", r.msa_share() * 100.0)
                    } else {
                        "-".to_owned()
                    },
                ]
            })
            .collect();
        let table = ascii_table(
            &[
                "Sample",
                "Platform",
                "T",
                "MSA",
                "Inference",
                "Total",
                "MSA share",
            ],
            &rows,
        );
        (table, report::phase_series_csv(&results))
    }

    /// Fig. 4: MSA time vs threads for the scaling sample set.
    pub fn fig4(&mut self) -> String {
        let mut rows = Vec::new();
        for id in SampleId::scaling_set() {
            let data = self.ctx.sample_data(id);
            for platform in Platform::all() {
                let sweep =
                    runner::msa_thread_sweep(&data, platform, &MSA_THREAD_SWEEP, &self.msa_options);
                let mut row = vec![id.name().to_owned(), platform.to_string()];
                for (_, r) in &sweep {
                    row.push(report::outcome_seconds(r.outcome, r.wall_seconds()));
                }
                rows.push(row);
            }
        }
        ascii_table(&["Sample", "Platform", "1T", "2T", "4T", "6T", "8T"], &rows)
    }

    /// Fig. 5: 6QNR thread-scaling and speedup (saturation/degradation).
    pub fn fig5(&mut self) -> String {
        let data = self.ctx.sample_data(SampleId::S6qnr);
        let sweep = runner::msa_thread_sweep(
            &data,
            Platform::Server,
            &MSA_THREAD_SWEEP,
            &self.msa_options,
        );
        let speedups =
            runner::speedup_curve(&sweep).expect("MSA_THREAD_SWEEP includes the 1-thread baseline");
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .zip(&speedups)
            .map(|((t, r), (_, s))| {
                vec![
                    t.to_string(),
                    report::outcome_seconds(r.outcome, r.wall_seconds()),
                    format!("{s:.2}x"),
                    format!("{:.2}x", *t as f64),
                ]
            })
            .collect();
        ascii_table(&["Threads", "MSA time", "Speedup", "Ideal"], &rows)
    }

    /// Fig. 6: inference time vs threads (flat scaling).
    pub fn fig6(&mut self) -> String {
        let mut rows = Vec::new();
        for id in SampleId::scaling_set() {
            let data = self.ctx.sample_data(id);
            for platform in Platform::all() {
                let mut row = vec![id.name().to_owned(), platform.to_string()];
                for &t in &INFERENCE_THREAD_SWEEP {
                    let r = inference_phase::run_inference_phase(
                        &data.sample.assembly,
                        platform,
                        &InferenceOptions {
                            model: self.model,
                            msa_depth: data.msa_depth,
                            threads: t,
                            seed: 17,
                        },
                    );
                    row.push(report::fmt_seconds(r.wall_seconds()));
                }
                rows.push(row);
            }
        }
        ascii_table(&["Sample", "Platform", "1T", "2T", "4T", "6T"], &rows)
    }

    /// Fig. 7: MSA-vs-inference share at each platform's recommended
    /// thread count.
    pub fn fig7(&mut self) -> String {
        let options = self.pipeline_options();
        let mut rows = Vec::new();
        for id in SampleId::all() {
            let data = self.ctx.sample_data(id);
            for platform in Platform::all() {
                let best = runner::recommend_threads(&data, platform, &self.msa_options);
                let r = pipeline::run_pipeline(&data, platform, best, &options);
                let share = |v: f64| {
                    if r.completed() {
                        format!("{:.1}%", v * 100.0)
                    } else {
                        r.outcome().as_str().to_ascii_uppercase()
                    }
                };
                rows.push(vec![
                    r.sample.clone(),
                    platform.to_string(),
                    best.to_string(),
                    share(r.msa_share()),
                    share(1.0 - r.msa_share()),
                ]);
            }
        }
        ascii_table(
            &[
                "Sample",
                "Platform",
                "Best T",
                "MSA share",
                "Inference share",
            ],
            &rows,
        )
    }

    /// Fig. 8: inference-phase breakdown per platform.
    pub fn fig8(&mut self) -> String {
        let mut out = String::new();
        for id in [SampleId::S2pv7, SampleId::S1yy9, SampleId::Promo] {
            let data = self.ctx.sample_data(id);
            for platform in Platform::all() {
                let r = inference_phase::run_inference_phase(
                    &data.sample.assembly,
                    platform,
                    &InferenceOptions {
                        model: self.model,
                        msa_depth: data.msa_depth,
                        threads: 1,
                        seed: 17,
                    },
                );
                out.push_str(&format!(
                    "\n== {} on {} (overhead share {:.0}%{}) ==\n{}",
                    id.name(),
                    report::platform_label(platform),
                    r.breakdown.overhead_share() * 100.0,
                    if r.breakdown.uvm_fraction > 0.0 {
                        format!(", unified memory {:.0}%", r.breakdown.uvm_fraction * 100.0)
                    } else {
                        String::new()
                    },
                    r.breakdown.timeline
                ));
            }
        }
        out
    }

    /// Fig. 9 + Table VI: Pairformer/Diffusion layer time distribution on
    /// the Server GPU.
    pub fn fig9_table6(&mut self) -> String {
        let mut out = String::new();
        let mut per_sample = Vec::new();
        for id in [SampleId::S2pv7, SampleId::Promo] {
            let asm = samples::sample(id).assembly;
            let result = run_inference(&asm, 512, &self.model, 17);
            let breakdown = afsb_gpu::runtime::GpuRuntime::new(
                afsb_gpu::device::GpuSpec::h100(),
                afsb_gpu::runtime::HostCpuModel {
                    single_core_score: 0.4,
                },
            )
            .run_cold(&result.cost_log, result.working_set_bytes);
            per_sample.push((id, breakdown.per_label_s.clone()));
        }

        // Combined-pie shares (Fig. 9).
        out.push_str("Fig. 9 — layer shares of GPU compute:\n");
        for (id, labels) in &per_sample {
            let total: f64 = labels.values().sum();
            let mut rows: Vec<Vec<String>> = labels
                .iter()
                .map(|(label, s)| vec![label.clone(), format!("{:.1}%", s / total * 100.0)])
                .collect();
            rows.sort_by(|a, b| {
                b[1].trim_end_matches('%')
                    .parse::<f64>()
                    .unwrap_or(0.0)
                    .partial_cmp(&a[1].trim_end_matches('%').parse::<f64>().unwrap_or(0.0))
                    .unwrap()
            });
            out.push_str(&format!(
                "\n{}:\n{}",
                id.name(),
                ascii_table(&["Layer", "Share"], &rows)
            ));
        }

        // Table VI: per-invocation times (ms): pairformer labels per
        // block, diffusion labels per step and sample.
        out.push_str("\nTable VI — layer times (ms, per block / per step·sample):\n");
        let blocks = self.model.pairformer_blocks as f64;
        let steps = (self.model.diffusion_steps * afsb_model::diffusion::DIFFUSION_SAMPLES) as f64;
        let mut rows = Vec::new();
        for (label, divisor) in [
            ("pairformer/triangle_mult_update", blocks),
            ("pairformer/triangle_attention", blocks),
            ("pairformer/pair_transition", blocks),
            ("diffusion/local_attention_encoder", steps),
            ("diffusion/local_attention_decoder", steps),
            ("diffusion/global_attention", steps),
        ] {
            let mut row = vec![label.to_owned()];
            for (_, labels) in &per_sample {
                let s = labels.get(label).copied().unwrap_or(0.0);
                row.push(format!("{:.2}", s / divisor * 1e3));
            }
            rows.push(row);
        }
        out.push_str(&ascii_table(&["Layer", "2PV7 (ms)", "promo (ms)"], &rows));
        out
    }

    /// Table III: CPU metrics for 2PV7 and promo across platforms and
    /// thread counts, with paper reference values.
    pub fn table3(&mut self) -> String {
        let threads = [1usize, 4, 6];
        let mut out = String::new();
        for (id, paper) in [
            (SampleId::S2pv7, &crate::paper::TABLE3_2PV7),
            (SampleId::Promo, &crate::paper::TABLE3_PROMO),
        ] {
            let data = self.ctx.sample_data(id);
            let server: Vec<_> = threads
                .iter()
                .map(|&t| msa_phase::run_msa_phase(&data, Platform::Server, t, &self.msa_options))
                .collect();
            let desktop: Vec<_> = threads
                .iter()
                .map(|&t| msa_phase::run_msa_phase(&data, Platform::Desktop, t, &self.msa_options))
                .collect();
            out.push_str(&format!(
                "\n{}\n",
                report::table3(id.name(), &threads, &server, &desktop)
            ));
            out.push_str("paper reference:\n");
            let rows: Vec<Vec<String>> = paper
                .iter()
                .map(|(m, a, b, c, d, e, f)| {
                    vec![
                        (*m).to_owned(),
                        a.to_string(),
                        b.to_string(),
                        c.to_string(),
                        d.to_string(),
                        e.to_string(),
                        f.to_string(),
                    ]
                })
                .collect();
            out.push_str(&ascii_table(
                &[
                    "Metric", "Xeon 1T", "Xeon 4T", "Xeon 6T", "Ryzen 1T", "Ryzen 4T", "Ryzen 6T",
                ],
                &rows,
            ));
        }
        out
    }

    /// Table IV: function-level profile on the Server, 1T vs 4T.
    pub fn table4(&mut self) -> String {
        let mut out = String::new();
        for id in [SampleId::S2pv7, SampleId::Promo] {
            let data = self.ctx.sample_data(id);
            let t1 = msa_phase::run_msa_phase(&data, Platform::Server, 1, &self.msa_options);
            let t4 = msa_phase::run_msa_phase(&data, Platform::Server, 4, &self.msa_options);
            out.push_str(&format!(
                "\n{}",
                report::table4(id.name(), &t1.sim.report, &t4.sim.report)
            ));
        }
        out.push_str("\npaper reference (2PV7): cycles calc_band_9 28.7/27.1, calc_band_10 26.3/26.0, addbuf 16.3/17.4, seebuf 6.1/6.1; cache-miss shares copy_to_iter 46.5->24.5, calc_band_9 14.2->27.0, addbuf 10.0->17.3\n");
        out
    }

    /// Table V: inference host-phase bottlenecks on the Server.
    pub fn table5(&mut self) -> String {
        let mut rows = Vec::new();
        for id in [SampleId::S2pv7, SampleId::Promo, SampleId::S6qnr] {
            let data = self.ctx.sample_data(id);
            let r = inference_phase::run_inference_phase(
                &data.sample.assembly,
                Platform::Server,
                &InferenceOptions {
                    model: self.model,
                    msa_depth: data.msa_depth,
                    threads: 1,
                    seed: 17,
                },
            );
            let report = &r.host_sim.report;
            rows.push(vec![
                "Page Faults".into(),
                "_M_fill_insert".into(),
                id.name().into(),
                format!("{:.2}%", report.page_fault_share("_M_fill_insert") * 100.0),
            ]);
            rows.push(vec![
                "dTLB Load Misses".into(),
                "ShapeUtil::ByteSizeOf".into(),
                id.name().into(),
                format!(
                    "{:.2}%",
                    report.tlb_miss_share("ShapeUtil::ByteSizeOf") * 100.0
                ),
            ]);
            rows.push(vec![
                "LLC Load Misses".into(),
                "copy_to_iter".into(),
                id.name().into(),
                format!("{:.2}%", report.cache_miss_share("copy_to_iter") * 100.0),
            ]);
        }
        let mut out = ascii_table(
            &["Event Type", "Function/Symbol", "Sample", "Overhead"],
            &rows,
        );
        out.push_str("\npaper: _M_fill_insert faults 12.99% (2PV7) / 16.83% (promo); ByteSizeOf dTLB 5.99/3.89%; copy_to_iter LLC 6.90% (2PV7) / 5.80% (6QNR)\n");
        out
    }

    /// §VI ablation: persistent model sessions (cold vs warm requests).
    pub fn ablation_persistent(&mut self) -> String {
        let data = self.ctx.sample_data(SampleId::S2pv7);
        let result = run_inference(&data.sample.assembly, data.msa_depth, &self.model, 17);
        let mut rows = Vec::new();
        for platform in Platform::all() {
            let runtime = afsb_gpu::runtime::GpuRuntime::new(
                inference_phase::gpu_for(platform),
                afsb_gpu::runtime::HostCpuModel {
                    single_core_score: afsb_core::calib::host_cpu_score(platform),
                },
            );
            let mut session = PersistentSession::new(runtime);
            let cold = session.request(&result.cost_log, result.working_set_bytes);
            let warm = session.request(&result.cost_log, result.working_set_bytes);
            rows.push(vec![
                platform.to_string(),
                format!("{:.1}s", cold.total_s()),
                format!("{:.1}s", warm.total_s()),
                format!("{:.2}x", cold.total_s() / warm.total_s()),
            ]);
        }
        ascii_table(
            &["Platform", "Cold request", "Warm request", "Speedup"],
            &rows,
        )
    }

    /// §VI ablation: storage strategies (I/O path separation + preload)
    /// on the Desktop.
    pub fn ablation_storage(&mut self) -> String {
        let data = self.ctx.sample_data(SampleId::Promo);
        let base = msa_phase::run_msa_phase(&data, Platform::Desktop, 4, &self.msa_options);
        let preload = msa_phase::run_msa_phase(
            &data,
            Platform::Desktop,
            4,
            &MsaPhaseOptions {
                preload_databases: true,
                ..self.msa_options
            },
        );
        let cfg = Platform::Desktop.spec().storage;
        let phase = IoPhase {
            cold_bytes: base.cold_bytes,
            compute_seconds: base.cpu_seconds,
            sequential: true,
        };
        let shared = SeparatedIoPaths::shared(cfg).evaluate_scan(phase);
        let dedicated = SeparatedIoPaths::dedicated(cfg).evaluate_scan(phase);
        let rows = vec![
            vec![
                "default (shared paths)".into(),
                report::fmt_seconds(shared.wall_seconds),
                format!("{:.0}%", shared.util_pct),
            ],
            vec![
                "dedicated database device".into(),
                report::fmt_seconds(dedicated.wall_seconds),
                format!("{:.0}%", dedicated.util_pct),
            ],
            vec![
                "database preload (page cache)".into(),
                report::fmt_seconds(preload.wall_seconds()),
                format!("{:.0}%", preload.iostat.util_pct),
            ],
        ];
        ascii_table(&["Strategy", "MSA wall time", "NVMe util"], &rows)
    }

    /// The memory-estimator pre-flight demo over the RNA length series.
    pub fn estimator(&mut self) -> String {
        let est = MemoryEstimator::new(8);
        let mut out = String::new();
        for len in [621usize, 935, 1135, 1335] {
            let asm = samples::rna_memory_probe(len);
            out.push_str(&format!(
                "\n-- RNA {len} nt on Server --\n{}",
                est.preflight(&asm, Platform::Server)
            ));
        }
        out
    }

    /// Adaptive thread recommendation per sample/platform (Observation 3).
    pub fn recommend(&mut self) -> String {
        let mut rows = Vec::new();
        for id in SampleId::all() {
            let data = self.ctx.sample_data(id);
            let mut row = vec![id.name().to_owned()];
            for platform in Platform::all() {
                row.push(runner::recommend_threads(&data, platform, &self.msa_options).to_string());
            }
            rows.push(row);
        }
        ascii_table(&["Sample", "Server best T", "Desktop best T"], &rows)
    }

    /// `trace` mode: one Server-platform resilient run under a seeded
    /// fault plan with the `rt::obs` tracer attached. Returns the
    /// rendered report (ASCII span tree + metrics registry) plus the two
    /// exportable artifacts: Chrome trace-event JSON and collapsed
    /// flamegraph stacks. Fully deterministic for a fixed `seed`.
    pub fn trace(&mut self, seed: u64) -> (String, String, String) {
        use std::fmt::Write;
        let data = self.ctx.sample_data(SampleId::S7rce);
        let options = PipelineOptions {
            seed,
            ..self.pipeline_options()
        };
        let mut obs = afsb_rt::ObsSession::new();
        let result = afsb_core::resilience::run_resilient_traced(
            &data,
            Platform::Server,
            4,
            &options,
            &afsb_core::resilience::ResilienceOptions::default(),
            &afsb_rt::FaultPlan::seeded(seed),
            &mut obs,
        );
        let mut text = String::new();
        let _ = writeln!(
            text,
            "traced {} on Server (seed {seed}): outcome {} after {} retries, {} faults fired, {:.1}s simulated wall\n",
            result.sample,
            result.outcome,
            result.retries,
            result.fault_events.len(),
            result.wall_seconds
        );
        text.push_str(&obs.tracer.ascii_tree());
        text.push('\n');
        text.push_str(&obs.metrics.render_text());
        (text, obs.chrome_trace_text(), obs.tracer.flamegraph())
    }

    /// Multi-query serving: the canonical scenario set (feature-cache
    /// and GPU-batching ablations) on the Server.
    pub fn serve(&self) -> String {
        let runs = afsb_serve::scenario::run_default(self.quick);
        afsb_serve::scenario::render_summary(&runs)
    }

    /// Multi-query serving at production scale: the same ablations over
    /// a 10k-request (quick) / 100k-request (full) stream with miss
    /// coalescing on — the event engine's scale exercise.
    pub fn serve_xl(&self) -> String {
        let runs = afsb_serve::scenario::run_xl(self.quick);
        afsb_serve::scenario::render_summary(&runs)
    }

    /// Serving under faults: the canonical chaos matrix (fault-free
    /// baseline, worker churn, storage brownout, GPU flap, kitchen
    /// sink) with the recovery policy on — availability, goodput and
    /// per-disposition counts per scenario.
    pub fn serve_chaos(&self) -> String {
        let runs = afsb_serve::chaos::run_chaos(self.quick);
        afsb_serve::chaos::render_chaos_summary(&runs)
    }

    /// Causal what-if projection: critical-path extraction over the
    /// provenance-armed `cold` scenario, per-request binding
    /// classification, and every canonical virtual speedup projected
    /// from the recorded DAG then validated by a ground-truth re-run.
    pub fn serve_whatif(&self) -> String {
        let report = afsb_serve::run_whatif(self.quick);
        afsb_serve::render_whatif(&report)
    }

    /// Scheduling-policy matrix: FIFO (the byte-identical baseline),
    /// predicted-cost SJF, EDF, shape-bucketed GPU batching,
    /// checkpoint-yield preemption and speculative MSA-depth
    /// degradation over the `cold` scenario — per-policy throughput,
    /// exact p50/p99, GPU occupancy and goodput, the FIFO-dominance
    /// verdict, and the winner validated against the causal profiler's
    /// what-if projection.
    pub fn serve_policy(&self) -> String {
        let matrix = afsb_serve::run_policy_matrix(self.quick);
        afsb_serve::render_policy_matrix(&matrix)
    }

    /// Serving telemetry: the canonical scenarios plus the
    /// storage-brownout campaign with the observation-only telemetry
    /// layer armed — gauge timeline + sparkline dashboard, per-request
    /// latency attribution, p99 waterfall, and the SLO burn-rate log.
    pub fn serve_telemetry(&self) -> String {
        let report = afsb_serve::run_telemetry(self.quick);
        afsb_serve::render_telemetry(&report)
    }
}
