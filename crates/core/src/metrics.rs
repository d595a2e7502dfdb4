//! Run reports and the paper's evaluation metrics.
//!
//! * **Utilization** (Figs. 9, 16): per-kind FU occupancy and HBM bandwidth
//!   use over the run.
//! * **Overlap breakdown** (Fig. 17): wall-clock time with both SA and VU
//!   busy, only one busy, or neither.
//! * **System throughput** (Fig. 18): the sum of each workload's normalized
//!   forward progress versus its single-tenant run — the STP metric of
//!   Eyerman & Eeckhout that the paper adopts ("the sum of the normalized
//!   forward progress of each collocated workload").
//! * **Latency** (Figs. 19–20): per-workload average and 95th-percentile
//!   request latency.
//! * **Preemption accounting** (Fig. 21): context-switch overhead and
//!   preemptions per request.

use v10_sim::convert::{u64_to_f64, usize_to_f64};
use v10_sim::LatencySummary;

use crate::overload::OverloadStats;

/// Wall-clock partition of a run by which FU kinds were busy (Fig. 17).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapBreakdown {
    /// unit: cycles with at least one SA *and* one VU busy.
    pub both: f64,
    /// unit: cycles with only SA(s) busy.
    pub sa_only: f64,
    /// unit: cycles with only VU(s) busy.
    pub vu_only: f64,
    /// unit: cycles with no FU busy.
    pub idle: f64,
}

impl OverlapBreakdown {
    /// Adds `dt` cycles to the bucket matching the busy pattern.
    ///
    /// unit: `dt` is a cycle delta.
    pub fn accumulate(&mut self, sa_busy: bool, vu_busy: bool, dt: f64) {
        debug_assert!(dt >= 0.0);
        match (sa_busy, vu_busy) {
            (true, true) => self.both += dt,
            (true, false) => self.sa_only += dt,
            (false, true) => self.vu_only += dt,
            (false, false) => self.idle += dt,
        }
    }

    /// Total accounted cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.both + self.sa_only + self.vu_only + self.idle
    }

    /// Fraction of non-idle time with both kinds busy — the paper's
    /// "SA Op & VU Op" share in Fig. 17.
    #[must_use]
    pub fn both_fraction_of_elapsed(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.both / t
        }
    }
}

/// Per-workload outcome of a run.
///
/// Under open-loop serving one entry describes one *tenancy*: the report
/// also records when the tenant was admitted and (for non-resident tenants
/// that met their quota) when it retired.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    label: String,
    priority: f64,
    completed_requests: usize,
    latencies: Vec<f64>,
    avg_latency: f64,
    p50_latency: f64,
    p95_latency: f64,
    p99_latency: f64,
    busy_sa: f64,
    busy_vu: f64,
    hbm_bytes: f64,
    preemptions: u64,
    switch_overhead: f64,
    replays: u64,
    replay_overhead: f64,
    admitted_at: f64,
    retired_at: Option<f64>,
}

impl WorkloadReport {
    /// Assembles a report; latency summaries are precomputed here.
    ///
    /// unit: `priority` is a dimensionless share weight; `busy_sa`,
    /// `busy_vu`, `switch_overhead`, `replay_overhead`, and `admitted_at`
    /// are cycles; `hbm_bytes` is bytes; `preemptions` and `replays` are
    /// event counts.
    #[allow(clippy::too_many_arguments)] // internal constructor, called by the executors
    #[must_use]
    pub(crate) fn new(
        label: String,
        priority: f64,
        completed_requests: usize,
        latencies: Vec<f64>,
        busy_sa: f64,
        busy_vu: f64,
        hbm_bytes: f64,
        preemptions: u64,
        switch_overhead: f64,
        replays: u64,
        replay_overhead: f64,
        admitted_at: f64,
        retired_at: Option<f64>,
    ) -> Self {
        let summary = LatencySummary::from_samples(&latencies);
        let avg = summary.as_ref().map_or(0.0, LatencySummary::mean);
        let p50 = summary.as_ref().map_or(0.0, LatencySummary::p50);
        let p95 = summary.as_ref().map_or(0.0, LatencySummary::p95);
        let p99 = summary.as_ref().map_or(0.0, LatencySummary::p99);
        WorkloadReport {
            label,
            priority,
            completed_requests,
            latencies,
            avg_latency: avg,
            p50_latency: p50,
            p95_latency: p95,
            p99_latency: p99,
            busy_sa,
            busy_vu,
            hbm_bytes,
            preemptions,
            switch_overhead,
            replays,
            replay_overhead,
            admitted_at,
            retired_at,
        }
    }

    /// The workload's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configured priority.
    #[must_use]
    pub fn priority(&self) -> f64 {
        self.priority
    }

    /// Inference requests completed during the run.
    #[must_use]
    pub fn completed_requests(&self) -> usize {
        self.completed_requests
    }

    /// Raw per-request latencies in cycles.
    #[must_use]
    pub fn latencies_cycles(&self) -> &[f64] {
        &self.latencies
    }

    /// Mean request latency in cycles (Fig. 19's metric).
    #[must_use]
    pub fn avg_latency_cycles(&self) -> f64 {
        self.avg_latency
    }

    /// Median request latency in cycles.
    #[must_use]
    pub fn p50_latency_cycles(&self) -> f64 {
        self.p50_latency
    }

    /// 95th-percentile request latency in cycles (Fig. 20's metric).
    #[must_use]
    pub fn p95_latency_cycles(&self) -> f64 {
        self.p95_latency
    }

    /// 99th-percentile request latency in cycles (the serving-tail metric).
    #[must_use]
    pub fn p99_latency_cycles(&self) -> f64 {
        self.p99_latency
    }

    /// Cycle at which the tenant was admitted (0 for closed-loop runs).
    #[must_use]
    pub fn admitted_at_cycles(&self) -> f64 {
        self.admitted_at
    }

    /// Cycle at which the tenant retired, freeing its slot. `None` while
    /// resident (closed-loop tenants stay until the run ends).
    #[must_use]
    pub fn retired_at_cycles(&self) -> Option<f64> {
        self.retired_at
    }

    /// Cycles this workload occupied SAs.
    #[must_use]
    pub fn busy_sa_cycles(&self) -> f64 {
        self.busy_sa
    }

    /// Cycles this workload occupied VUs.
    #[must_use]
    pub fn busy_vu_cycles(&self) -> f64 {
        self.busy_vu
    }

    /// HBM bytes this workload moved.
    #[must_use]
    pub fn hbm_bytes(&self) -> f64 {
        self.hbm_bytes
    }

    /// Times this workload's operators were preempted.
    #[must_use]
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Context-switch cycles charged to this workload's preemptions.
    #[must_use]
    pub fn switch_overhead_cycles(&self) -> f64 {
        self.switch_overhead
    }

    /// Operators this workload re-issued from their input checkpoint after
    /// a transient fault.
    #[must_use]
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Checkpoint-restore cycles charged to this workload's replays.
    #[must_use]
    pub fn replay_overhead_cycles(&self) -> f64 {
        self.replay_overhead
    }

    /// Preemptions per completed request (Fig. 21, right axis).
    #[must_use]
    pub fn preemptions_per_request(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            u64_to_f64(self.preemptions) / usize_to_f64(self.completed_requests)
        }
    }

    /// Context-switch overhead relative to the workload's useful busy time
    /// (Fig. 21, left axis).
    #[must_use]
    pub fn switch_overhead_fraction(&self) -> f64 {
        let busy = self.busy_sa + self.busy_vu;
        if busy <= 0.0 {
            0.0
        } else {
            self.switch_overhead / busy
        }
    }
}

/// The outcome of one multi-tenant (or single-tenant) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    elapsed: f64,
    sa_busy: f64,
    vu_busy: f64,
    switch_overhead: f64,
    replay_overhead: f64,
    faults_injected: u64,
    core_retired_at: Option<f64>,
    overlap: OverlapBreakdown,
    hbm_bytes: f64,
    hbm_peak_bytes_per_cycle: f64,
    fu_pairs: u32,
    rejected_admissions: u64,
    overload: OverloadStats,
    workloads: Vec<WorkloadReport>,
}

impl RunReport {
    /// Assembles the run-level report.
    ///
    /// unit: `elapsed`, `sa_busy`, `vu_busy`, `switch_overhead`, and
    /// `replay_overhead` are cycles; `hbm_bytes` is bytes;
    /// `hbm_peak_bytes_per_cycle` is bytes per cycle; `faults_injected`
    /// and `rejected_admissions` are event counts.
    #[allow(clippy::too_many_arguments)] // internal constructor, called by the executors
    #[must_use]
    pub(crate) fn new(
        elapsed: f64,
        sa_busy: f64,
        vu_busy: f64,
        switch_overhead: f64,
        replay_overhead: f64,
        faults_injected: u64,
        core_retired_at: Option<f64>,
        overlap: OverlapBreakdown,
        hbm_bytes: f64,
        hbm_peak_bytes_per_cycle: f64,
        fu_pairs: u32,
        rejected_admissions: u64,
        workloads: Vec<WorkloadReport>,
    ) -> Self {
        RunReport {
            elapsed,
            sa_busy,
            vu_busy,
            switch_overhead,
            replay_overhead,
            faults_injected,
            core_retired_at,
            overlap,
            hbm_bytes,
            hbm_peak_bytes_per_cycle,
            fu_pairs,
            rejected_admissions,
            overload: OverloadStats::default(),
            workloads,
        }
    }

    /// Installs the overload-control counters (armed serving entry points
    /// only; every other run keeps the all-zero default).
    pub(crate) fn set_overload_stats(&mut self, stats: OverloadStats) {
        self.overload = stats;
    }

    /// The overload control plane's action counters for this run. All zero
    /// unless the run was served under an armed controller
    /// ([`serve_design_stressed_observed`](crate::serve_design_stressed_observed)).
    #[must_use]
    pub fn overload_stats(&self) -> &OverloadStats {
        &self.overload
    }

    /// Simulated cycles until every workload reached its request target.
    #[must_use]
    pub fn elapsed_cycles(&self) -> f64 {
        self.elapsed
    }

    /// Aggregate SA busy cycles (summed over the pool's SAs).
    #[must_use]
    pub fn sa_busy_cycles(&self) -> f64 {
        self.sa_busy
    }

    /// Aggregate VU busy cycles.
    #[must_use]
    pub fn vu_busy_cycles(&self) -> f64 {
        self.vu_busy
    }

    /// Aggregate context-switch cycles across all FUs.
    #[must_use]
    pub fn switch_overhead_cycles(&self) -> f64 {
        self.switch_overhead
    }

    /// Aggregate checkpoint-restore cycles charged to fault replays.
    #[must_use]
    pub fn replay_overhead_cycles(&self) -> f64 {
        self.replay_overhead
    }

    /// Scheduled faults the injector fired during the run.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Cycle at which a permanent core fault retired this core, if one
    /// fired. The serving layer uses this to hand the core's unfinished
    /// tenants back to admission.
    #[must_use]
    pub fn core_retired_at(&self) -> Option<f64> {
        self.core_retired_at
    }

    /// SA temporal utilization in `[0, 1]` (Fig. 16a).
    #[must_use]
    pub fn sa_util(&self) -> f64 {
        self.sa_busy / (f64::from(self.fu_pairs) * self.elapsed.max(1e-12))
    }

    /// VU temporal utilization in `[0, 1]` (Fig. 16b).
    #[must_use]
    pub fn vu_util(&self) -> f64 {
        self.vu_busy / (f64::from(self.fu_pairs) * self.elapsed.max(1e-12))
    }

    /// Mean of SA and VU utilization — the "aggregated utilization of all
    /// compute units" headline metric (§5.2).
    #[must_use]
    pub fn aggregate_compute_util(&self) -> f64 {
        (self.sa_util() + self.vu_util()) / 2.0
    }

    /// HBM bandwidth utilization in `[0, 1]` (Fig. 16c).
    #[must_use]
    pub fn hbm_util(&self) -> f64 {
        self.hbm_bytes / (self.elapsed.max(1e-12) * self.hbm_peak_bytes_per_cycle)
    }

    /// The Fig. 17 overlap breakdown.
    #[must_use]
    pub fn overlap(&self) -> OverlapBreakdown {
        self.overlap
    }

    /// Per-workload reports, in admission order (spec order for closed-loop
    /// runs). Includes retired tenants.
    #[must_use]
    pub fn workloads(&self) -> &[WorkloadReport] {
        &self.workloads
    }

    /// Arrivals turned away because the context table was full.
    #[must_use]
    pub fn rejected_admissions(&self) -> u64 {
        self.rejected_admissions
    }

    /// System throughput: `Σ_i single_tenant_avg_latency_i /
    /// multi_tenant_avg_latency_i` — each workload's normalized forward
    /// progress, summed (Fig. 18; ideal = number of workloads).
    ///
    /// # Panics
    ///
    /// Panics if `single_tenant_avg_latencies` does not have one entry per
    /// workload or any entry is non-positive.
    #[must_use]
    pub fn system_throughput(&self, single_tenant_avg_latencies: &[f64]) -> f64 {
        assert_eq!(
            single_tenant_avg_latencies.len(),
            self.workloads.len(),
            "need one single-tenant reference per workload"
        );
        self.workloads
            .iter()
            .zip(single_tenant_avg_latencies)
            .map(|(wl, &single)| {
                assert!(single > 0.0, "single-tenant latency must be positive");
                let multi = wl.avg_latency_cycles();
                if multi <= 0.0 {
                    0.0
                } else {
                    single / multi
                }
            })
            .sum()
    }

    /// One workload's normalized progress vs its dedicated-core run
    /// (Fig. 22a's "Perf vs Ideal").
    ///
    /// An out-of-range `index` yields `0.0`.
    ///
    /// unit: `single_tenant_avg_latency` is cycles; returns a
    /// dimensionless ratio.
    ///
    /// # Panics
    ///
    /// Panics if `single_tenant_avg_latency` is non-positive.
    #[must_use]
    pub fn normalized_progress(&self, index: usize, single_tenant_avg_latency: f64) -> f64 {
        assert!(
            single_tenant_avg_latency > 0.0,
            "reference latency must be positive"
        );
        let multi = self
            .workloads
            .get(index)
            .map_or(0.0, WorkloadReport::avg_latency_cycles);
        if multi <= 0.0 {
            0.0
        } else {
            single_tenant_avg_latency / multi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(label: &str, latencies: Vec<f64>) -> WorkloadReport {
        WorkloadReport::new(
            label.into(),
            1.0,
            latencies.len(),
            latencies,
            10.0,
            5.0,
            0.0,
            3,
            100.0,
            0,
            0.0,
            0.0,
            None,
        )
    }

    fn report(workloads: Vec<WorkloadReport>) -> RunReport {
        RunReport::new(
            1_000.0,
            600.0,
            300.0,
            50.0,
            0.0,
            0,
            None,
            OverlapBreakdown {
                both: 250.0,
                sa_only: 350.0,
                vu_only: 50.0,
                idle: 350.0,
            },
            100_000.0,
            471.0,
            1,
            0,
            workloads,
        )
    }

    #[test]
    fn utilizations_divide_by_elapsed_and_pool() {
        let r = report(vec![wl("a", vec![100.0])]);
        assert!((r.sa_util() - 0.6).abs() < 1e-12);
        assert!((r.vu_util() - 0.3).abs() < 1e-12);
        assert!((r.aggregate_compute_util() - 0.45).abs() < 1e-12);
        assert!((r.hbm_util() - 100_000.0 / 471_000.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_buckets_partition_time() {
        let mut o = OverlapBreakdown::default();
        o.accumulate(true, true, 1.0);
        o.accumulate(true, false, 2.0);
        o.accumulate(false, true, 3.0);
        o.accumulate(false, false, 4.0);
        assert_eq!(o.total(), 10.0);
        assert!((o.both_fraction_of_elapsed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn latency_summaries_precomputed() {
        let w = wl("a", (1..=100).map(f64::from).collect());
        assert!((w.avg_latency_cycles() - 50.5).abs() < 1e-12);
        assert!((w.p50_latency_cycles() - 50.5).abs() < 1e-9);
        assert!((w.p95_latency_cycles() - 95.05).abs() < 1e-9);
        assert!((w.p99_latency_cycles() - 99.01).abs() < 1e-9);
        assert_eq!(w.completed_requests(), 100);
    }

    #[test]
    fn empty_latency_workload_is_zeroed() {
        let w = WorkloadReport::new(
            "x".into(),
            1.0,
            0,
            vec![],
            0.0,
            0.0,
            0.0,
            0,
            0.0,
            0,
            0.0,
            0.0,
            None,
        );
        assert_eq!(w.avg_latency_cycles(), 0.0);
        assert_eq!(w.p50_latency_cycles(), 0.0);
        assert_eq!(w.p95_latency_cycles(), 0.0);
        assert_eq!(w.p99_latency_cycles(), 0.0);
        assert_eq!(w.preemptions_per_request(), 0.0);
        assert_eq!(w.switch_overhead_fraction(), 0.0);
    }

    #[test]
    fn tenancy_fields_carried_through() {
        let w = WorkloadReport::new(
            "t".into(),
            2.0,
            1,
            vec![5.0],
            1.0,
            1.0,
            0.0,
            0,
            0.0,
            2,
            768.0,
            123.0,
            Some(456.0),
        );
        assert_eq!(w.admitted_at_cycles(), 123.0);
        assert_eq!(w.retired_at_cycles(), Some(456.0));
        assert_eq!(w.replays(), 2);
        assert_eq!(w.replay_overhead_cycles(), 768.0);
        let r = report(vec![w]);
        assert_eq!(r.rejected_admissions(), 0);
        assert_eq!(r.replay_overhead_cycles(), 0.0);
        assert_eq!(r.faults_injected(), 0);
        assert_eq!(r.core_retired_at(), None);
    }

    #[test]
    fn stp_sums_normalized_progress() {
        let r = report(vec![wl("a", vec![200.0]), wl("b", vec![400.0])]);
        // Singles: 100 and 100 -> progress 0.5 + 0.25.
        let stp = r.system_throughput(&[100.0, 100.0]);
        assert!((stp - 0.75).abs() < 1e-12);
        assert!((r.normalized_progress(1, 100.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn preemption_accounting() {
        let w = wl("a", vec![10.0, 20.0]);
        assert!((w.preemptions_per_request() - 1.5).abs() < 1e-12);
        // overhead 100 / busy 15.
        assert!((w.switch_overhead_fraction() - 100.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one single-tenant reference")]
    fn stp_requires_matching_lengths() {
        let r = report(vec![wl("a", vec![1.0])]);
        let _ = r.system_throughput(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn stp_rejects_bad_reference() {
        let r = report(vec![wl("a", vec![1.0])]);
        let _ = r.system_throughput(&[0.0]);
    }
}
