//! # v10-core — the V10 hardware-assisted NPU multi-tenancy framework
//!
//! This crate is the paper's primary contribution: an operator scheduler
//! that co-executes tensor operators from different ML workloads on the
//! systolic arrays and vector units of one NPU core, with fine-grained
//! operator preemption and priority-based fairness.
//!
//! * [`context`] — the workload context table of Fig. 11 ([`ContextTable`]):
//!   one row per collocated workload tracking its most recent operator's
//!   Ready/Active bits, FU assignment, and active/total cycle counters.
//! * [`policy`] — the scheduling policies of §3.2 ([`Policy`],
//!   [`Scheduler`]): Round-Robin and the priority-based policy of
//!   Algorithm 1 (lowest `active_rate_p = active_rate / priority` first).
//! * [`engine`] — the simultaneous-multi-tenancy executor ([`V10Engine`]):
//!   event-driven co-execution of operator streams over the FU pool, HBM
//!   arbitration, instruction-prefetch Ready tracking, and the
//!   preemption-timer mechanism of §3.3.
//! * [`pmt`] — the baselines: PREMA-style preemptive multi-tasking
//!   ([`run_pmt_observed`], task-level time sharing with 20–40 µs context
//!   switches)
//!   and single-tenant execution ([`run_single_tenant`]).
//! * [`design`] — the four evaluated designs ([`Design`]): `PMT`,
//!   `V10-Base`, `V10-Fair`, `V10-Full` (§5.1): [`run_design`] for
//!   closed-loop runs, [`serve_design`] for open-loop schedules, and the
//!   general entry [`serve_design_stressed_observed`] for serving under a
//!   deterministic [`FaultPlan`] with checkpoint-replay recovery, an
//!   [`OverloadController`], and an observer.
//! * [`lifecycle`] — dynamic tenancy ([`Admission`],
//!   [`AdmissionSchedule`]): open-loop tenant arrival/departure serving,
//!   with the classic fixed-set runs as an admit-all-at-cycle-0 wrapper.
//! * [`metrics`] — run reports and the paper's metrics: utilizations,
//!   overlap breakdown (Fig. 17), system throughput (STP, Fig. 18),
//!   average/tail latency (Figs. 19–20), preemption accounting (Fig. 21).
//! * [`observer`] — zero-cost-when-disabled instrumentation: the engine
//!   event stream ([`SimEvent`]) behind the [`SimObserver`] trait, with
//!   built-in [`CounterObserver`] and [`JsonLinesObserver`] sinks.
//! * [`overload`] — the SLO-aware overload control plane
//!   ([`OverloadController`]): queue-on-full admission, a hysteresis-guarded
//!   graceful-degradation ladder (priority demotion → slice shrink → quota
//!   trim → deadline shed), and a starvation watchdog, all bit-identical to
//!   plain serving when disarmed ([`serve_design_stressed`]).
//! * [`audit`] — online invariant auditing ([`RuntimeAuditor`]): a
//!   [`SimObserver`] that checks clock monotonicity, tenancy lifecycle, and
//!   conservation (admitted = completed + rejected + shed) during the run
//!   and reconciles against the final [`RunReport`]; plus the cross-shard
//!   fleet checker ([`FleetConservation`]) extending the conservation
//!   invariants over a sharded serving plane's shard boundaries.
//! * [`invariants`] — the named serving invariants ([`check_serve_invariants`],
//!   [`run_digest`]) shared by the robustness tests and the adversarial
//!   property harness, plus the audited combined-path driver
//!   ([`audit_serve_stressed`]).
//! * [`harness`] — the shrinking property harness ([`PropertyHarness`]):
//!   knob-generic minimization of violating scenarios over tenants ×
//!   horizon × fault-prefix, with deterministic, replayable shrink traces.
//! * [`overhead`] — the hardware-cost model of Table 3.
//!
//! Both executors drive the same event-loop core (the crate-private
//! `engine_core` module) through a strategy trait, so their busy/overlap
//! accounting and observability hookup are shared. Public entry points
//! validate their inputs and return [`Result`]s over the workspace-wide
//! [`V10Error`].
//!
//! # Example
//!
//! ```
//! use v10_core::{run_design, Design, WorkloadSpec, RunOptions};
//! use v10_isa::{FuKind, OpDesc, RequestTrace};
//! use v10_npu::NpuConfig;
//!
//! // Two tiny complementary workloads: one SA-heavy, one VU-heavy.
//! let sa_heavy = WorkloadSpec::new(
//!     "sa-heavy",
//!     RequestTrace::new(vec![
//!         OpDesc::builder(FuKind::Sa).compute_cycles(5_000).build(),
//!         OpDesc::builder(FuKind::Vu).compute_cycles(500).build(),
//!     ])
//!     .expect("non-empty trace"),
//! );
//! let vu_heavy = WorkloadSpec::new(
//!     "vu-heavy",
//!     RequestTrace::new(vec![
//!         OpDesc::builder(FuKind::Sa).compute_cycles(500).build(),
//!         OpDesc::builder(FuKind::Vu).compute_cycles(5_000).build(),
//!     ])
//!     .expect("non-empty trace"),
//! );
//! let cfg = NpuConfig::table5();
//! let opts = RunOptions::new(20).expect("positive request count");
//! let pmt = run_design(Design::Pmt, &[sa_heavy.clone(), vu_heavy.clone()], &cfg, &opts)
//!     .expect("valid run");
//! let v10 = run_design(Design::V10Full, &[sa_heavy, vu_heavy], &cfg, &opts)
//!     .expect("valid run");
//! // Simultaneous operator execution finishes the same work sooner.
//! assert!(v10.elapsed_cycles() < pmt.elapsed_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod context;
pub mod design;
pub mod engine;
mod engine_core;
pub mod harness;
pub mod invariants;
pub mod lifecycle;
pub mod metrics;
pub mod observer;
pub mod overhead;
pub mod overload;
pub mod packed;
pub mod pmt;
pub mod policy;

pub use audit::{FleetConservation, RuntimeAuditor};
pub use context::{ContextTable, WorkloadId};
pub use design::{
    run_design, serve_design, serve_design_stressed, serve_design_stressed_observed, Design,
};
pub use engine::{RunOptions, V10Engine, WorkloadSpec};
pub use harness::{PropertyHarness, ShrinkKnobs, ShrinkReport, ShrinkStep};
pub use invariants::{audit_serve_stressed, check_serve_invariants, run_digest};
pub use lifecycle::{Admission, AdmissionSchedule};
pub use metrics::{OverlapBreakdown, RunReport, WorkloadReport};
pub use observer::{CounterObserver, JsonLinesObserver, NullObserver, SimEvent, SimObserver};
pub use overhead::{estimate_overhead, SchedulerOverhead, TABLE3_PUBLISHED};
pub use overload::{
    DegradationRung, OverloadController, OverloadPolicy, OverloadPressure, OverloadStats,
};
pub use packed::{
    pack_row, parse_table_image, snapshot_table, unpack_row, PackedRowFields, FIG11_TABLE_ROWS,
};
pub use pmt::{run_pmt_observed, run_single_tenant};
pub use policy::{Policy, Scheduler};
pub use v10_sim::{FaultEvent, FaultInjector, FaultKind, FaultPlan, V10Error, V10Result};
