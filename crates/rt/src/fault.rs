//! Deterministic fault injection for the simulated AF3 pipeline.
//!
//! The paper's central failure mode — a long-RNA nhmmer run OOM-killed
//! after hours of MSA (§III-C, Fig. 2) — is only the most visible member
//! of a family of faults a production serving stack has to survive:
//! transient storage errors, crashed or straggling search workers, GPU
//! initialization failures, runaway XLA compiles. This module provides
//! the *chaos side* of that story: a seeded [`FaultPlan`] describing
//! which faults fire where, and a [`FaultInjector`] the simulated
//! subsystems poll at well-defined sites.
//!
//! Everything is charged in **simulated seconds** and derived purely from
//! the plan contents, never from wall-clock time or ambient randomness:
//! the same plan always produces the same fault sequence, the same event
//! log, and byte-identical downstream reports. An empty plan is free —
//! every poll returns `None` and the instrumented code paths reduce to
//! their fault-free behaviour.

use crate::rng::{mix, Rng};
use std::fmt;

/// Where in the pipeline a fault can be delivered. Each site has exactly
/// one consumer per execution path, so plan order fully determines
/// delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Aborts the in-flight MSA attempt (OOM kill, worker crash). Polled
    /// by the resilient executor and by the serving loop.
    MsaAbort,
    /// Slows the MSA attempt without aborting it (straggler worker).
    MsaCompute,
    /// The storage path of a database scan (read errors, device stalls).
    Storage,
    /// GPU driver/context initialization.
    GpuInit,
    /// XLA compilation.
    XlaCompile,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::MsaAbort => "msa-abort",
            FaultSite::MsaCompute => "msa-compute",
            FaultSite::Storage => "storage",
            FaultSite::GpuInit => "gpu-init",
            FaultSite::XlaCompile => "xla-compile",
        })
    }
}

/// A concrete injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The process is OOM-killed after `at_fraction` of the remaining MSA
    /// work (the paper's mid-MSA kill).
    OomKill {
        /// Fraction of the attempt's remaining work completed (and, absent
        /// a checkpoint, lost) at the kill, in `[0, 1]`.
        at_fraction: f64,
    },
    /// One search worker crashes, taking the whole attempt down after
    /// `at_fraction` of its work.
    WorkerCrash {
        /// Fraction of the attempt's work done when the worker died.
        at_fraction: f64,
    },
    /// One search worker runs `factor`× slower than its siblings; the scan
    /// completes but its wall time inflates.
    Straggler {
        /// Slowdown factor (> 1.0).
        factor: f64,
    },
    /// A transient storage read error: the scan's cold bytes must be
    /// re-read once.
    StorageReadError,
    /// The storage device stalls for a fixed number of simulated seconds.
    StorageStall {
        /// Stall duration in simulated seconds.
        stall_seconds: f64,
    },
    /// GPU driver/context initialization fails; the request must be
    /// retried from scratch.
    GpuInitFailure,
    /// XLA compilation stalls to `factor`× its normal duration (the
    /// "compile timeout" scenario — a phase deadline converts the stall
    /// into an abort).
    XlaCompileStall {
        /// Compile-time inflation factor (> 1.0).
        factor: f64,
    },
}

impl FaultKind {
    /// The site this fault is delivered at.
    pub fn site(&self) -> FaultSite {
        match self {
            FaultKind::OomKill { .. } | FaultKind::WorkerCrash { .. } => FaultSite::MsaAbort,
            FaultKind::Straggler { .. } => FaultSite::MsaCompute,
            FaultKind::StorageReadError | FaultKind::StorageStall { .. } => FaultSite::Storage,
            FaultKind::GpuInitFailure => FaultSite::GpuInit,
            FaultKind::XlaCompileStall { .. } => FaultSite::XlaCompile,
        }
    }

    /// Stable label used in event logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::OomKill { .. } => "oom-kill",
            FaultKind::WorkerCrash { .. } => "worker-crash",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::StorageReadError => "storage-read-error",
            FaultKind::StorageStall { .. } => "storage-stall",
            FaultKind::GpuInitFailure => "gpu-init-failure",
            FaultKind::XlaCompileStall { .. } => "xla-compile-stall",
        }
    }
}

/// One planned fault: delivered at the first poll of its site whose
/// simulated clock has reached `not_before_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// What fails.
    pub kind: FaultKind,
    /// Earliest simulated second at which the fault may fire.
    pub not_before_s: f64,
}

/// A deterministic schedule of faults for one job execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty plan: nothing fails.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in delivery order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Add a fault deliverable from simulated time zero.
    pub fn with(self, kind: FaultKind) -> FaultPlan {
        self.with_at(kind, 0.0)
    }

    /// Add a fault deliverable once the simulated clock reaches
    /// `not_before_s`.
    pub fn with_at(mut self, kind: FaultKind, not_before_s: f64) -> FaultPlan {
        self.faults.push(ScheduledFault { kind, not_before_s });
        self
    }

    /// Check every fault's numbers, returning an error that names the
    /// fault's index and field: a NaN time reaches the engine as a
    /// non-finite event time, and a negative stall books negative wait.
    /// `not_before_s` and `stall_seconds` must be finite and >= 0,
    /// `at_fraction` finite and in [0, 1], and `factor` finite and >= 1.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            let check = |field: &str, value: f64, ok: bool, want: &str| {
                if ok && value.is_finite() {
                    Ok(())
                } else {
                    Err(format!(
                        "fault plan: fault {i} {field} must be {want}, got {value}"
                    ))
                }
            };
            let t = f.not_before_s;
            check("not_before_s", t, t >= 0.0, "finite and >= 0")?;
            match f.kind {
                FaultKind::OomKill { at_fraction: x }
                | FaultKind::WorkerCrash { at_fraction: x } => {
                    check("at_fraction", x, (0.0..=1.0).contains(&x), "in [0, 1]")?
                }
                FaultKind::Straggler { factor: x } | FaultKind::XlaCompileStall { factor: x } => {
                    check("factor", x, x >= 1.0, "finite and >= 1")?
                }
                FaultKind::StorageStall { stall_seconds: x } => {
                    check("stall_seconds", x, x >= 0.0, "finite and >= 0")?
                }
                FaultKind::StorageReadError | FaultKind::GpuInitFailure => {}
            }
        }
        Ok(())
    }

    /// Draw a random plan from a seed: one to four faults over all kinds,
    /// with parameters in realistic ranges. Same seed, same plan.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut rng = Rng::seed_from_u64(mix(seed, 0xFA17));
        let n = rng.gen_range(1u64..5) as usize;
        let mut plan = FaultPlan::none();
        for _ in 0..n {
            let kind = match rng.gen_range(0u64..7) {
                0 => FaultKind::OomKill {
                    at_fraction: rng.gen_range(0.05..0.95),
                },
                1 => FaultKind::WorkerCrash {
                    at_fraction: rng.gen_range(0.05..0.95),
                },
                2 => FaultKind::Straggler {
                    factor: rng.gen_range(1.2..3.0),
                },
                3 => FaultKind::StorageReadError,
                4 => FaultKind::StorageStall {
                    stall_seconds: rng.gen_range(1.0..30.0),
                },
                5 => FaultKind::GpuInitFailure,
                _ => FaultKind::XlaCompileStall {
                    factor: rng.gen_range(1.5..6.0),
                },
            };
            let not_before_s = if rng.gen_bool(0.25) {
                rng.gen_range(0.0..300.0)
            } else {
                0.0
            };
            plan = plan.with_at(kind, not_before_s);
        }
        plan
    }

    /// Build the injector that delivers this plan, with its clock at
    /// simulated second zero.
    ///
    /// A plan is reusable; an injector is **not**. Each call builds a
    /// brand-new injector with its own clock, so a plan that outlives
    /// one scenario run delivers the identical fault sequence to the
    /// next run — build one injector *per run*, never share one across
    /// runs (see [`FaultInjector::sync_to`] for why a shared injector
    /// would misdeliver).
    ///
    /// # Panics
    ///
    /// Panics when a fault's `not_before_s` is NaN or infinite: no clock
    /// could ever order it ([`FaultPlan::validate`] names the fault).
    pub fn injector(&self) -> FaultInjector {
        for f in &self.faults {
            assert!(
                f.not_before_s.is_finite(),
                "fault time must be finite, got {}",
                f.not_before_s
            );
        }
        FaultInjector {
            pending: self.faults.iter().map(|&f| Some(f)).collect(),
            clock_s: 0.0,
            fired: Vec::new(),
        }
    }
}

/// One delivered fault, with its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Site the fault fired at.
    pub site: FaultSite,
    /// The fault delivered.
    pub kind: FaultKind,
    /// Simulated clock when it fired.
    pub at_s: f64,
    /// Simulated seconds the fault cost (filled in by the consumer via
    /// [`FaultInjector::charge`]).
    pub lost_s: f64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.1}s {} [{}] lost={:.1}s",
            self.at_s,
            self.kind.label(),
            self.site,
            self.lost_s
        )
    }
}

/// Delivers a [`FaultPlan`] to polling sites and logs what fired.
///
/// The injector keeps the plan's faults in plan order beside a monotone
/// simulated clock. A fault is due once the clock reaches its
/// `not_before_s`; a poll delivers the first unconsumed due fault of its
/// site, so among faults due together **plan order** decides.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The plan's faults in plan order; `None` once delivered.
    pending: Vec<Option<ScheduledFault>>,
    clock_s: f64,
    fired: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector with nothing to deliver (the fault-free path).
    pub fn none() -> FaultInjector {
        FaultPlan::none().injector()
    }

    /// Move the clock forward to an absolute simulated time (never
    /// backwards; a non-finite time is ignored) — lets a runner that
    /// keeps its own clock keep the injector on it exactly.
    ///
    /// The clock is **monotone across the injector's whole life**: it
    /// never rewinds, and a fault is consumed at most once. An injector
    /// must therefore serve exactly one scenario run. Reusing one for a
    /// second run would (a) start the second run's clock at the first
    /// run's end, so every still-pending fault whose `not_before_s` has
    /// "already passed" fires on the first poll, and (b) never re-fire
    /// the faults the first run consumed. To run several scenarios from
    /// one [`FaultPlan`], call [`FaultPlan::injector`] once per run —
    /// the regression test
    /// `reusing_a_plan_across_runs_does_not_double_fire` pins this
    /// contract down.
    pub fn sync_to(&mut self, clock_s: f64) {
        if clock_s.is_finite() && clock_s > self.clock_s {
            self.clock_s = clock_s;
        }
    }

    /// The current simulated clock.
    pub fn clock_seconds(&self) -> f64 {
        self.clock_s
    }

    /// Deliver the next due fault for `site`, if any: the first fault
    /// (in plan order) mapped to the site whose scheduled time has
    /// passed. The fault is consumed and logged.
    pub fn poll(&mut self, site: FaultSite) -> Option<FaultKind> {
        let clock_s = self.clock_s;
        let kind = self
            .pending
            .iter_mut()
            .find(|f| f.is_some_and(|f| f.kind.site() == site && f.not_before_s <= clock_s))?
            .take()?
            .kind;
        self.fired.push(FaultEvent {
            site,
            kind,
            at_s: clock_s,
            lost_s: 0.0,
        });
        Some(kind)
    }

    /// Attribute `seconds` of simulated loss to the most recently fired
    /// fault. No-op when nothing fired yet.
    pub fn charge(&mut self, seconds: f64) {
        if let Some(last) = self.fired.last_mut() {
            if seconds.is_finite() && seconds > 0.0 {
                last.lost_s += seconds;
            }
        }
    }

    /// Everything that fired so far, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.fired
    }

    /// Total simulated seconds charged to fired faults.
    pub fn total_lost_seconds(&self) -> f64 {
        self.fired.iter().map(|e| e.lost_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut inj = FaultInjector::none();
        for site in [
            FaultSite::MsaAbort,
            FaultSite::MsaCompute,
            FaultSite::Storage,
            FaultSite::GpuInit,
            FaultSite::XlaCompile,
        ] {
            assert_eq!(inj.poll(site), None);
        }
        assert!(inj.events().is_empty());
        assert_eq!(inj.total_lost_seconds(), 0.0);
    }

    #[test]
    fn faults_deliver_at_their_site_in_plan_order() {
        let plan = FaultPlan::none()
            .with(FaultKind::StorageReadError)
            .with(FaultKind::GpuInitFailure)
            .with(FaultKind::StorageStall { stall_seconds: 3.0 });
        let mut inj = plan.injector();
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageReadError)
        );
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageStall { stall_seconds: 3.0 })
        );
        assert_eq!(inj.poll(FaultSite::Storage), None);
        assert_eq!(
            inj.poll(FaultSite::GpuInit),
            Some(FaultKind::GpuInitFailure)
        );
        assert_eq!(inj.events().len(), 3);
    }

    #[test]
    fn scheduled_faults_wait_for_the_simulated_clock() {
        let plan = FaultPlan::none().with_at(FaultKind::GpuInitFailure, 100.0);
        let mut inj = plan.injector();
        assert_eq!(inj.poll(FaultSite::GpuInit), None);
        inj.sync_to(99.0);
        assert_eq!(inj.poll(FaultSite::GpuInit), None);
        inj.sync_to(100.0);
        assert_eq!(
            inj.poll(FaultSite::GpuInit),
            Some(FaultKind::GpuInitFailure)
        );
    }

    #[test]
    fn a_fault_due_earlier_fires_first_until_both_are_due() {
        // The plan lists a fault due at 100 s before one due at 10 s.
        let plan = FaultPlan::none()
            .with_at(FaultKind::StorageStall { stall_seconds: 1.0 }, 100.0)
            .with_at(FaultKind::StorageReadError, 10.0);
        // At 20 s only the second is due, so it fires first.
        let mut inj = plan.injector();
        inj.sync_to(20.0);
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageReadError)
        );
        assert_eq!(inj.poll(FaultSite::Storage), None);
        inj.sync_to(100.0);
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageStall { stall_seconds: 1.0 })
        );
        // Once both are due, plan order wins.
        let mut inj = plan.injector();
        inj.sync_to(100.0);
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageStall { stall_seconds: 1.0 })
        );
        assert_eq!(
            inj.poll(FaultSite::Storage),
            Some(FaultKind::StorageReadError)
        );
        assert_eq!(inj.poll(FaultSite::Storage), None);
    }

    #[test]
    #[should_panic(expected = "fault time must be finite, got NaN")]
    fn injector_refuses_a_non_finite_time() {
        FaultPlan::none()
            .with_at(FaultKind::GpuInitFailure, f64::NAN)
            .injector();
    }

    #[test]
    fn charge_attributes_loss_to_last_event() {
        let mut inj = FaultPlan::none()
            .with(FaultKind::StorageStall { stall_seconds: 5.0 })
            .injector();
        inj.charge(100.0); // nothing fired: no-op
        assert_eq!(inj.total_lost_seconds(), 0.0);
        inj.poll(FaultSite::Storage).unwrap();
        inj.charge(5.0);
        inj.charge(2.5);
        assert_eq!(inj.total_lost_seconds(), 7.5);
        assert_eq!(inj.events()[0].lost_s, 7.5);
    }

    #[test]
    fn validate_names_each_bad_field_and_its_fault() {
        let edges = FaultPlan::none()
            .with(FaultKind::OomKill { at_fraction: 0.0 })
            .with(FaultKind::WorkerCrash { at_fraction: 1.0 })
            .with(FaultKind::Straggler { factor: 1.0 })
            .with(FaultKind::StorageStall { stall_seconds: 0.0 })
            .with(FaultKind::StorageReadError)
            .with_at(FaultKind::GpuInitFailure, 92_000.0);
        assert_eq!(edges.validate(), Ok(()));
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded(seed).validate(), Ok(()), "seed {seed}");
        }
        let cases: [(&str, FaultKind, f64); 10] = [
            ("not_before_s", FaultKind::GpuInitFailure, f64::NAN),
            ("not_before_s", FaultKind::StorageReadError, -1.0),
            (
                "at_fraction",
                FaultKind::OomKill {
                    at_fraction: f64::NAN,
                },
                0.0,
            ),
            (
                "at_fraction",
                FaultKind::WorkerCrash { at_fraction: 1.5 },
                0.0,
            ),
            (
                "at_fraction",
                FaultKind::WorkerCrash { at_fraction: -0.1 },
                0.0,
            ),
            ("factor", FaultKind::Straggler { factor: 0.5 }, 0.0),
            (
                "factor",
                FaultKind::XlaCompileStall {
                    factor: f64::INFINITY,
                },
                0.0,
            ),
            (
                "stall_seconds",
                FaultKind::StorageStall {
                    stall_seconds: -300.0,
                },
                0.0,
            ),
            (
                "stall_seconds",
                FaultKind::StorageStall {
                    stall_seconds: f64::NAN,
                },
                0.0,
            ),
            (
                "stall_seconds",
                FaultKind::StorageStall {
                    stall_seconds: f64::INFINITY,
                },
                0.0,
            ),
        ];
        for (field, kind, at) in cases {
            // Behind a valid fault, so the error must name index 1.
            let plan = FaultPlan::none()
                .with(FaultKind::GpuInitFailure)
                .with_at(kind, at);
            let err = plan.validate().expect_err(field);
            assert!(err.contains(&format!("fault 1 {field} ")), "{field}: {err}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.faults().len() <= 4);
        let distinct = (0..20u64)
            .map(FaultPlan::seeded)
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w[0] != w[1]);
        assert!(distinct, "different seeds should produce different plans");
    }

    #[test]
    fn reusing_a_plan_across_runs_does_not_double_fire() {
        // One plan, two runs: each run builds its own injector and sees
        // the full fault sequence exactly once, from clock zero.
        let plan = FaultPlan::none()
            .with_at(FaultKind::StorageReadError, 50.0)
            .with_at(FaultKind::GpuInitFailure, 200.0);
        for _run in 0..2 {
            let mut inj = plan.injector();
            assert_eq!(inj.clock_seconds(), 0.0, "fresh injector starts at 0");
            assert_eq!(inj.poll(FaultSite::Storage), None, "not due yet");
            inj.sync_to(100.0);
            assert_eq!(
                inj.poll(FaultSite::Storage),
                Some(FaultKind::StorageReadError)
            );
            assert_eq!(inj.poll(FaultSite::GpuInit), None);
            inj.sync_to(500.0);
            assert_eq!(
                inj.poll(FaultSite::GpuInit),
                Some(FaultKind::GpuInitFailure)
            );
            // Consumed: the same injector never re-delivers.
            assert_eq!(inj.poll(FaultSite::Storage), None);
            assert_eq!(inj.poll(FaultSite::GpuInit), None);
            assert_eq!(inj.events().len(), 2, "each run fires each fault once");
        }
        // A *shared* injector would misdeliver run 2: clock stuck at the
        // end of run 1 and nothing left to fire.
        let mut shared = plan.injector();
        shared.sync_to(500.0);
        assert_eq!(
            shared.poll(FaultSite::Storage),
            Some(FaultKind::StorageReadError)
        );
        assert_eq!(
            shared.poll(FaultSite::GpuInit),
            Some(FaultKind::GpuInitFailure)
        );
        shared.sync_to(500.0); // "run 2" on the same injector
        assert_eq!(shared.poll(FaultSite::Storage), None);
        assert_eq!(shared.poll(FaultSite::GpuInit), None);
        assert_eq!(shared.events().len(), 2, "nothing re-fires on reuse");
    }

    #[test]
    fn event_display_is_stable() {
        let mut inj = FaultPlan::none()
            .with(FaultKind::OomKill { at_fraction: 0.5 })
            .injector();
        inj.sync_to(12.0);
        inj.poll(FaultSite::MsaAbort).unwrap();
        inj.charge(6.0);
        assert_eq!(
            inj.events()[0].to_string(),
            "t=12.0s oom-kill [msa-abort] lost=6.0s"
        );
    }
}
