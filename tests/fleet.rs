//! Cross-shard determinism tests for the fleet serving plane.
//!
//! The sharded plane's contract is that the shard partition and the
//! worker-thread pool are pure *implementation* choices: the
//! [`ClusterServeReport`], the admission decisions, and the merged
//! departure log must be byte-identical at any shard count and any thread
//! count. These tests drive a seeded flash-crowd stream over a mesh fleet
//! through every (shards, threads) combination in {1, 2, 4, 8} × {1, 2, 4}
//! and compare each run against the 1-shard/1-thread reference, then wire
//! every run through the [`FleetConservation`] auditor so the conservation
//! invariants (offered = placed + rejected, placements = hosted tenancies,
//! departures ordered/unique/bounded) are checked across shard boundaries.

use v10::collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer,
    PairPerfCache, TopologyWeights,
};
use v10::core::{Design, FleetConservation, RunOptions};
use v10::npu::{FleetTopology, NpuConfig};
use v10::sim::Cycles;
use v10::workloads::{MmppProcess, Model, TimedArrival};

/// Mesh geometry shared by every run: 8×4 = 32 cores, 4 HBM column bands.
const MESH_WIDTH: usize = 8;
const MESH_HEIGHT: usize = 4;
const HBM_GROUPS: usize = 4;
const CORES: usize = MESH_WIDTH * MESH_HEIGHT;

const SLOTS_PER_CORE: usize = 2;
const EPOCH_CYCLES: f64 = 6.0e6;
const ARRIVALS: usize = 24;

fn fit_pipeline() -> ClusteringPipeline {
    let models = [
        Model::Bert,
        Model::Ncf,
        Model::Dlrm,
        Model::ResNet,
        Model::Mnist,
        Model::RetinaNet,
    ];
    let points = build_dataset(&models, &[], 3);
    let mut cache = PairPerfCache::new(2, 3);
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, 3)
}

fn arrivals() -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(
        &[Model::Mnist, Model::Dlrm, Model::Ncf],
        1.0e6,
        4.0,
        1.5e7,
        0xF1EE7,
    )
    .expect("valid flash-crowd process")
    .with_requests_per_session(1)
    .expect("positive session quota")
    .sample(ARRIVALS)
    .expect("non-zero arrival count")
}

fn serve(
    pipeline: &ClusteringPipeline,
    stream: &[TimedArrival],
    shards: usize,
    threads: usize,
) -> (ClusterServeReport, FleetOutcome) {
    let placer = OnlinePlacer::new(pipeline)
        .with_threshold(0.01)
        .expect("valid threshold");
    let topology = FleetTopology::mesh(MESH_WIDTH, MESH_HEIGHT, HBM_GROUPS, 64.0)
        .expect("valid mesh geometry");
    let weights = TopologyWeights::new(0.02, 0.01).expect("valid weights");
    let mut plane = FleetPlane::new(
        placer,
        topology,
        SLOTS_PER_CORE,
        shards,
        Cycles::new(EPOCH_CYCLES),
        weights,
    )
    .expect("valid fleet plane")
    .with_threads(threads);
    let opts = RunOptions::new(1).expect("positive request count");
    plane
        .serve(stream, Design::V10Full, &NpuConfig::table5(), &opts)
        .expect("valid fleet serving run")
}

/// Runs the conservation auditor over one serve outcome and asserts it
/// comes back clean.
fn assert_conserved(report: &ClusterServeReport, outcome: &FleetOutcome) {
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    auditor.record_departures(CORES, outcome.departures());
    auditor.reconcile();
    assert!(
        auditor.is_clean(),
        "fleet conservation violated: {:?}",
        auditor.violations()
    );
    assert_eq!(
        auditor.completed_requests(),
        u64::try_from(report.completed_requests()).expect("request count fits u64"),
    );
}

#[test]
fn reports_identical_across_shard_and_thread_matrix() {
    let pipeline = fit_pipeline();
    let stream = arrivals();
    let (base_report, base_outcome) = serve(&pipeline, &stream, 1, 1);

    // The reference run actually exercised the plane: tenants were placed,
    // several epochs ran, and earlier tenants retired across boundaries.
    assert_eq!(base_outcome.offered(), ARRIVALS);
    assert!(base_outcome.placed() > 0, "nothing placed");
    assert!(base_outcome.epochs() > 1, "stream fits one epoch");
    assert!(
        !base_outcome.departures().is_empty(),
        "no departures crossed an epoch boundary"
    );
    assert_conserved(&base_report, &base_outcome);

    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let (report, outcome) = serve(&pipeline, &stream, shards, threads);
            assert_eq!(
                report, base_report,
                "report diverged at {shards} shards x {threads} threads"
            );
            assert_eq!(
                outcome.decisions(),
                base_outcome.decisions(),
                "decisions diverged at {shards} shards x {threads} threads"
            );
            assert_eq!(
                outcome.departures(),
                base_outcome.departures(),
                "departure log diverged at {shards} shards x {threads} threads"
            );
            assert_eq!(outcome.placed(), base_outcome.placed());
            assert_eq!(outcome.rejected(), base_outcome.rejected());
            assert_eq!(outcome.epochs(), base_outcome.epochs());
            assert_conserved(&report, &outcome);
        }
    }
}

#[test]
fn rescore_work_is_identical_across_shards_and_bounded() {
    let pipeline = fit_pipeline();
    let stream = arrivals();
    let (_, one) = serve(&pipeline, &stream, 1, 1);
    // The placement index is built once over the fleet, then re-scores
    // only the cores an admit or a release touched.
    let bound = CORES + one.placed() + one.departures().len();
    let scans = usize::try_from(one.rebuild_core_scans()).expect("count fits usize");
    assert!(scans <= bound, "{scans} re-scores > {bound}");
    for shards in [2usize, 4, 8] {
        let (_, outcome) = serve(&pipeline, &stream, shards, 1);
        assert_eq!(
            outcome.decisions(),
            one.decisions(),
            "decisions diverged at {shards} shards"
        );
        assert_eq!(
            outcome.rebuild_core_scans(),
            one.rebuild_core_scans(),
            "re-score work changed at {shards} shards"
        );
    }
}

#[test]
fn conservation_auditor_flags_a_forged_departure_log() {
    let pipeline = fit_pipeline();
    let stream = arrivals();
    let (report, outcome) = serve(&pipeline, &stream, 2, 1);

    // Re-run the audit with the merged departure order deliberately
    // reversed: the cross-shard ordering invariant must catch it.
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    let mut reversed = outcome.departures().to_vec();
    reversed.reverse();
    auditor.record_departures(CORES, &reversed);
    auditor.reconcile();
    assert!(
        !auditor.is_clean(),
        "a reversed departure log must violate the ordering invariant"
    );
}
