//! Shared plumbing for the serving-mode bench targets.
//!
//! The serving benches (`serving_openloop`, `serving_overload`,
//! `serving_faults`, `serving_fleet`, `serving_fleet_faults`,
//! `sim_throughput`) all parse the same environment knobs and compile
//! sampled arrival streams the same way, and the two fleet benches share
//! one fleet fixture (tenant mix, flash crowd, mesh plane, placer);
//! this module is the single home for that glue — the thread-pool knob
//! lives next door in [`sweep::sweep_threads`](crate::sweep::sweep_threads).

use v10_collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetPlane, OnlinePlacer, PairPerfCache,
    TopologyWeights,
};
use v10_core::{Admission, AdmissionSchedule, WorkloadSpec};
use v10_npu::FleetTopology;
use v10_sim::Cycles;
use v10_workloads::{MmppProcess, Model, TimedArrival};

/// The fleet benches' tenant mix: three light-footprint models, so
/// sessions retire within an epoch or two and slots keep recycling.
const FLEET_MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// HBM-affinity column bands of every fleet-bench mesh.
pub const FLEET_HBM_GROUPS: usize = 8;

/// Context-table slots per core (the fleet plane's admission capacity).
pub const FLEET_SLOTS_PER_CORE: usize = 4;

/// Epoch length for cross-shard departure exchange, in cycles. Longer
/// than the longest single-request service demand (~2.8 Mcycles for
/// NCF), so tenants admitted in one epoch retire within the next few.
pub const FLEET_EPOCH_CYCLES: f64 = 8.0e6;

/// Models the fleet benches fit their clustering pipeline over (a
/// superset of their served mix, the same fixture as the placer
/// evaluation).
const FLEET_FIT_MODELS: [Model; 6] = [
    Model::Bert,
    Model::Ncf,
    Model::Dlrm,
    Model::ResNet,
    Model::Mnist,
    Model::RetinaNet,
];

/// SLO multiple of the model's isolated request service demand
/// (env `V10_BENCH_SLO_FACTOR`, default 4).
#[must_use]
pub fn slo_factor() -> f64 {
    std::env::var("V10_BENCH_SLO_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f: &f64| f.is_finite() && f > 0.0)
        .unwrap_or(4.0)
}

/// Smoke mode (env `V10_BENCH_SMOKE=1`): shrink the workload so CI can
/// exercise the full bench path in seconds.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("V10_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Compiles a sampled arrival stream into one open-loop
/// [`AdmissionSchedule`].
///
/// # Panics
///
/// Panics on an empty stream or an arrival the admission validator
/// refuses — sampled streams from the workload generators are always
/// valid, so a panic here means the bench itself is misconfigured.
#[must_use]
pub fn schedule_of(arrivals: &[TimedArrival]) -> AdmissionSchedule {
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .expect("sampled arrivals are valid admissions")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

/// A seeded flash crowd of `count` arrivals over the fleet mix: calm-phase
/// mean inter-arrival of 2.5e5 cycles, ×4 bursts, and a 2e7-cycle mean
/// dwell per modulation phase. `salt` decorrelates one bench's stream
/// from another's.
///
/// # Panics
///
/// Panics if `requests_per_session` or `count` is zero.
#[must_use]
pub fn fleet_flash_crowd(
    requests_per_session: usize,
    salt: u64,
    count: usize,
) -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(&FLEET_MODELS, 2.5e5, 4.0, 2.0e7, crate::seed() ^ salt)
        .expect("valid flash-crowd process")
        .with_requests_per_session(requests_per_session)
        .expect("positive session quota")
        .sample(count)
        .expect("non-zero arrival count")
}

/// A fleet plane over a `side`×`side` mesh with [`FLEET_HBM_GROUPS`]
/// bands and 64 B/cycle links. Placement scores 0.02 per hop to the
/// weight-resident HBM group and 0.01 per same-class neighbour, and admits
/// any pair with predicted STP above 0.01 (permissive: rejections are not
/// what the fleet benches measure).
///
/// # Panics
///
/// Panics if `side` or `shards` is zero, or `shards` exceeds the core
/// count.
#[must_use]
pub fn fleet_plane(
    pipeline: &ClusteringPipeline,
    side: usize,
    shards: usize,
    threads: usize,
) -> FleetPlane<'_> {
    let placer = OnlinePlacer::new(pipeline)
        .with_threshold(0.01)
        .expect("valid placement threshold");
    let topology =
        FleetTopology::mesh(side, side, FLEET_HBM_GROUPS, 64.0).expect("valid mesh geometry");
    let weights = TopologyWeights::new(0.02, 0.01).expect("valid weights");
    FleetPlane::new(
        placer,
        topology,
        FLEET_SLOTS_PER_CORE,
        shards,
        Cycles::new(FLEET_EPOCH_CYCLES),
        weights,
    )
    .expect("valid fleet plane")
    .with_threads(threads)
}

/// The clustering pipeline the fleet benches place with, fitted at the
/// bench seed.
#[must_use]
pub fn fleet_pipeline() -> ClusteringPipeline {
    let points = build_dataset(&FLEET_FIT_MODELS, &[], crate::seed());
    let mut cache = PairPerfCache::new(2, crate::seed());
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, crate::seed())
}

/// Goodput and p99 of a fleet run. Goodput counts the requests that met
/// their SLO ([`slo_factor`] times the model's isolated request demand)
/// per simulated Mcycle of fleet makespan (the latest per-core
/// completion); p99 is in Mcycles.
///
/// # Panics
///
/// Panics if the report names a tenant that is not in `arrivals`.
#[must_use]
pub fn fleet_goodput_p99(report: &ClusterServeReport, arrivals: &[TimedArrival]) -> (f64, f64) {
    let factor = slo_factor();
    let slo_of = |label: &str| -> f64 {
        let a = arrivals
            .iter()
            .find(|a| a.label() == label)
            .expect("report labels come from the arrival stream");
        factor * a.model().default_profile().request_cycles() as f64
    };
    let mut within_slo = 0usize;
    for wl in report
        .per_core()
        .iter()
        .flatten()
        .flat_map(|r| r.workloads())
    {
        let bound = slo_of(wl.label());
        within_slo += wl
            .latencies_cycles()
            .iter()
            .filter(|&&l| l <= bound)
            .count();
    }
    let makespan = report
        .per_core()
        .iter()
        .flatten()
        .map(|r| r.elapsed_cycles())
        .fold(0.0f64, f64::max);
    let goodput = if makespan > 0.0 {
        within_slo as f64 * 1.0e6 / makespan
    } else {
        0.0
    };
    (goodput, report.p99_latency_cycles() / 1.0e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_workloads::{Model, OpenLoopProcess};

    #[test]
    fn schedule_compiles_in_arrival_order() {
        let arrivals = OpenLoopProcess::new(&[Model::Mnist, Model::Ncf], 1.0e5, 9)
            .unwrap()
            .sample(6)
            .unwrap();
        let schedule = schedule_of(&arrivals);
        assert_eq!(schedule.len(), 6);
        let ats: Vec<f64> = schedule
            .entries()
            .iter()
            .map(Admission::at_cycles)
            .collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn knob_defaults() {
        // The test environment does not set the knobs.
        if std::env::var("V10_BENCH_SLO_FACTOR").is_err() {
            assert_eq!(slo_factor(), 4.0);
        }
        if std::env::var("V10_BENCH_SMOKE").is_err() {
            assert!(!smoke());
        }
    }
}
