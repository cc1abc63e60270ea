//! The `afsysbench serve-telemetry` experiment: the canonical serving
//! scenarios with the observation-only telemetry layer armed —
//! a [`TimelineSampler`](afsb_rt::TimelineSampler) on the serving
//! gauges, per-request latency attribution, and the SLO burn-rate
//! monitor — plus the `storage-brownout` chaos campaign, whose fault
//! window must drive the SLO alert through a full `burn → clear`
//! cycle.
//!
//! Telemetry never feeds back into scheduling: every number in a
//! [`ServeReport`](crate::ServeReport) other than the `timeline` and
//! `slo` fields is byte-identical to the same run without telemetry
//! (`tests/telemetry.rs` proves it). This module only *arranges* the
//! runs and renders one combined dashboard.

use crate::chaos::{run_chaos, ChaosScenarioRun};
use crate::scenario::{run_default, ScenarioRun};

/// The chaos scenario the telemetry experiment exercises: the storage
/// brownout's stall window is long enough (relative to the SLO window)
/// that goodput burn must cross the fire threshold and later clear.
pub const TELEMETRY_CHAOS_SCENARIO: &str = "storage-brownout";

/// Everything `afsysbench serve-telemetry` runs.
pub struct TelemetryReport {
    /// The four canonical scenarios, telemetry-enabled.
    pub scenarios: Vec<ScenarioRun>,
    /// The storage-brownout chaos campaign, telemetry-enabled.
    pub brownout: ChaosScenarioRun,
}

/// The canonical scenarios of [`run_default`] plus the storage-brownout
/// row of [`run_chaos`]; both runners arm
/// [`TelemetryConfig::standard`](crate::server::TelemetryConfig::standard)
/// telemetry.
pub fn run_telemetry(quick: bool) -> TelemetryReport {
    let brownout = run_chaos(quick)
        .into_iter()
        .find(|run| run.name == TELEMETRY_CHAOS_SCENARIO)
        .expect("storage-brownout scenario exists");
    TelemetryReport {
        scenarios: run_default(quick),
        brownout,
    }
}

/// The combined dashboard: per scenario, the gauge timeline + sparkline
/// strip, the latency-attribution table, and the p99 waterfall; the
/// brownout block adds the SLO transition log.
pub fn render_telemetry(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for run in &report.scenarios {
        out.push_str(&format!("[{}]\n", run.name));
        push_serve_block(&mut out, &run.report);
        out.push('\n');
    }
    let run = &report.brownout;
    out.push_str(&format!("[chaos:{}]\n", run.name));
    push_serve_block(&mut out, &run.report.base);
    if let Some(slo) = &run.report.base.slo {
        out.push_str(&slo.render());
    }
    out
}

/// The `--timeline` artifact block for one run: the gauge timeline,
/// the sparkline strip, and (when armed) the SLO transition log.
pub fn render_timeline_block(name: &str, report: &crate::server::ServeReport) -> String {
    let mut out = String::new();
    if let Some(tl) = &report.timeline {
        out.push_str(&format!("[{name}]\n"));
        out.push_str(&tl.render());
        out.push_str(&tl.render_sparklines());
        if let Some(slo) = &report.slo {
            out.push_str(&slo.render());
        }
        out.push('\n');
    }
    out
}

fn push_serve_block(out: &mut String, report: &crate::server::ServeReport) {
    if let Some(tl) = &report.timeline {
        out.push_str(&tl.render());
        out.push_str(&tl.render_sparklines());
    }
    out.push_str(&report.render_attribution());
    out.push_str(&report.render_p99_waterfall());
}
