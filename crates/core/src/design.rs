//! The four evaluated designs (§5.1 of the paper).

use std::fmt;

use v10_npu::NpuConfig;
use v10_sim::{FaultPlan, V10Error, V10Result};

use crate::engine::{closed_loop, RunOptions, V10Engine, WorkloadSpec};
use crate::lifecycle::AdmissionSchedule;
use crate::metrics::RunReport;
use crate::observer::{NullObserver, SimObserver};
use crate::overload::OverloadController;
use crate::pmt::serve_pmt_faulted_observed;
use crate::policy::Policy;

/// One of the paper's compared designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Baseline preemptive multi-tasking: task-level time sharing, no
    /// simultaneous operator execution, 20–40 µs context switches.
    Pmt,
    /// V10 with simultaneous operator execution and non-preemptive
    /// round-robin operator scheduling.
    V10Base,
    /// V10-Base plus the priority-based scheduling policy (Algorithm 1),
    /// equal priorities by default.
    V10Fair,
    /// The full design: V10-Fair plus operator preemption (§3.3).
    V10Full,
}

impl Design {
    /// All four designs in the paper's comparison order.
    pub const ALL: [Design; 4] = [
        Design::Pmt,
        Design::V10Base,
        Design::V10Fair,
        Design::V10Full,
    ];

    /// The paper's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Design::Pmt => "PMT",
            Design::V10Base => "V10-Base",
            Design::V10Fair => "V10-Fair",
            Design::V10Full => "V10-Full",
        }
    }

    /// The V10 engine that implements this design, or `None` for the PMT
    /// baseline, which runs on its own executor.
    fn engine(self, config: &NpuConfig) -> Option<V10Engine> {
        let (policy, preemption) = match self {
            Design::Pmt => return None,
            Design::V10Base => (Policy::RoundRobin, false),
            Design::V10Fair => (Policy::Priority, false),
            Design::V10Full => (Policy::Priority, true),
        };
        Some(V10Engine::new(*config, policy, preemption))
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `specs` collocated on one core under `design`.
///
/// # Errors
///
/// Returns [`v10_sim::V10Error::InvalidArgument`] if `specs` is empty, and
/// [`v10_sim::V10Error::Deadlock`] / [`v10_sim::V10Error::Livelock`] if the
/// simulation stops making progress.
pub fn run_design(
    design: Design,
    specs: &[WorkloadSpec],
    config: &NpuConfig,
    opts: &RunOptions,
) -> V10Result<RunReport> {
    const CONTEXT: &str = "run_design";
    let (schedule, opts) = closed_loop(CONTEXT, specs, opts)?;
    serve_design_as(
        CONTEXT,
        design,
        &schedule,
        config,
        &opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
        &mut NullObserver,
    )
}

/// Serves an open-loop [`AdmissionSchedule`] on one core under `design`:
/// tenants are admitted as they arrive (rejected while the context table is
/// full), complete their request quota, and depart. This is
/// [`serve_design_stressed_observed`] with an empty plan, a disarmed
/// controller, and no observer.
///
/// # Errors
///
/// As [`run_design`].
pub fn serve_design(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
) -> V10Result<RunReport> {
    serve_design_as(
        "serve_design",
        design,
        schedule,
        config,
        opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
        &mut NullObserver,
    )
}

/// [`serve_design_stressed_observed`] without an observer.
///
/// # Errors
///
/// As [`serve_design_stressed_observed`].
pub fn serve_design_stressed(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
) -> V10Result<RunReport> {
    serve_design_as(
        "serve_design_stressed",
        design,
        schedule,
        config,
        opts,
        plan,
        controller,
        &mut NullObserver,
    )
}

/// The general single-core entry: serves `schedule` under `design` while
/// `plan` injects faults and `controller` handles overload, with
/// `observer` receiving the merged event stream.
///
/// * **Faults.** The plan is compiled into a deterministic schedule and
///   injected as the run plays out, with each design paying its own
///   recovery cost (V10's per-FU checkpoint restore vs PMT's whole-core
///   20–40 µs restore). Pass [`FaultPlan::none`] for a fault-free run.
/// * **Overload.** An armed controller parks full-table arrivals in an
///   admission queue and walks the graceful-degradation ladder instead of
///   hard-rejecting load. Pass [`OverloadController::disarmed`] for plain
///   admission. PMT has no priority mechanism for the ladder or the
///   watchdog to act on, so `Design::Pmt` with an *armed* controller is
///   rejected.
/// * **Observation.** Pass [`NullObserver`] to run unobserved.
///
/// An empty plan and a disarmed controller are bit-identical to
/// [`serve_design`].
///
/// # Errors
///
/// As [`run_design`], plus [`v10_sim::V10Error::InvalidArgument`] if the
/// plan's stochastic streams expand past the compile-time cap, or for
/// `Design::Pmt` with an armed controller.
pub fn serve_design_stressed_observed<O: SimObserver>(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
    observer: &mut O,
) -> V10Result<RunReport> {
    serve_design_as(
        "serve_design_stressed_observed",
        design,
        schedule,
        config,
        opts,
        plan,
        controller,
        observer,
    )
}

/// Dispatches a serve to the design's executor; `context` names the public
/// entry that was called, for error messages.
#[allow(clippy::too_many_arguments)]
fn serve_design_as<O: SimObserver>(
    context: &'static str,
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
    observer: &mut O,
) -> V10Result<RunReport> {
    match design.engine(config) {
        Some(engine) => {
            engine.serve_stressed_observed(context, schedule, opts, plan, controller, observer)
        }
        None if controller.is_armed() => Err(V10Error::invalid(
            context,
            "PMT has no priority mechanism for the degradation ladder; \
             arm the controller on a V10 design",
        )),
        None => serve_pmt_faulted_observed(context, schedule, config, opts, plan, observer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::{FuKind, OpDesc, RequestTrace};

    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }
    fn sa(c: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(c).build()
    }
    fn vu(c: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(c).build()
    }

    /// A complementary pair with mismatched operator lengths — the paper's
    /// canonical scenario (Fig. 12).
    fn mismatched_pair() -> [WorkloadSpec; 2] {
        [
            spec("long-sa", vec![sa(600_000), vu(20_000)]),
            spec(
                "short-mixed",
                vec![sa(10_000), vu(50_000), sa(10_000), vu(50_000)],
            ),
        ]
    }

    #[test]
    fn design_ordering_on_aggregate_utilization() {
        // §5.2: V10-Full >= V10-Base variants >= PMT on aggregate compute
        // utilization for a complementary pair.
        let specs = mismatched_pair();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(10).unwrap();
        let util = |d: Design| {
            run_design(d, &specs, &cfg, &opts)
                .unwrap()
                .aggregate_compute_util()
        };
        let pmt = util(Design::Pmt);
        let base = util(Design::V10Base);
        let full = util(Design::V10Full);
        assert!(base > pmt, "V10-Base {base} should beat PMT {pmt}");
        assert!(
            full + 0.02 >= base,
            "V10-Full {full} should not lose to Base {base}"
        );
    }

    #[test]
    fn v10_full_beats_pmt_on_elapsed_time() {
        let specs = mismatched_pair();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(10).unwrap();
        let pmt = run_design(Design::Pmt, &specs, &cfg, &opts).unwrap();
        let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
        assert!(full.elapsed_cycles() < pmt.elapsed_cycles());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Design::Pmt.to_string(), "PMT");
        assert_eq!(Design::V10Full.to_string(), "V10-Full");
        assert_eq!(Design::ALL.len(), 4);
    }

    #[test]
    fn pmt_rejects_an_armed_overload_controller() {
        let schedule = AdmissionSchedule::closed_loop(&mismatched_pair(), 2).unwrap();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let none = FaultPlan::none();
        let armed = OverloadController::armed(crate::overload::OverloadPolicy::default());
        let err =
            serve_design_stressed(Design::Pmt, &schedule, &cfg, &opts, &none, armed).unwrap_err();
        assert!(err.to_string().contains("PMT"), "{err}");
        // A disarmed controller degrades to plain serving.
        let plain = serve_design(Design::Pmt, &schedule, &cfg, &opts).unwrap();
        let disarmed = serve_design_stressed(
            Design::Pmt,
            &schedule,
            &cfg,
            &opts,
            &none,
            OverloadController::disarmed(),
        )
        .unwrap();
        assert_eq!(plain.elapsed_cycles(), disarmed.elapsed_cycles());
    }

    #[test]
    fn armed_pmt_rejection_names_the_entry_that_was_called() {
        let schedule = AdmissionSchedule::closed_loop(&mismatched_pair(), 2).unwrap();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let armed = || OverloadController::armed(crate::overload::OverloadPolicy::default());
        let plan = FaultPlan::none();
        let context = |r: V10Result<RunReport>| match r {
            Err(V10Error::InvalidArgument { context, .. }) => context,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        assert_eq!(
            context(serve_design_stressed(
                Design::Pmt,
                &schedule,
                &cfg,
                &opts,
                &plan,
                armed()
            )),
            "serve_design_stressed"
        );
        assert_eq!(
            context(serve_design_stressed_observed(
                Design::Pmt,
                &schedule,
                &cfg,
                &opts,
                &plan,
                armed(),
                &mut NullObserver,
            )),
            "serve_design_stressed_observed"
        );
    }

    #[test]
    fn only_full_design_preempts_operators() {
        let specs = [
            spec("a", vec![sa(400_000)]),
            spec("b", vec![sa(8_000), vu(8_000)]),
        ];
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(6).unwrap();
        for d in [Design::V10Base, Design::V10Fair] {
            let r = run_design(d, &specs, &cfg, &opts).unwrap();
            let preempts: u64 = r.workloads().iter().map(|w| w.preemptions()).sum();
            assert_eq!(preempts, 0, "{d} must not preempt operators");
        }
        let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
        let preempts: u64 = full.workloads().iter().map(|w| w.preemptions()).sum();
        assert!(preempts > 0, "V10-Full should preempt the long SA ops");
    }
}
