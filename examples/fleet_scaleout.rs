//! Fleet scale-out: one flash crowd, 1000 cores, 1 vs 4 admission shards.
//!
//! A Markov-modulated flash-crowd stream lands on a 40×25 mesh fleet
//! (1000 cores, 5 HBM-affinity column bands) served through the sharded
//! [`FleetPlane`]. The same stream is played twice — once with a single
//! admission worker owning the whole fleet, and once with four shard
//! workers owning a quarter each. Either way the placement index (a
//! tournament tree per (class, HBM group) over each worker's cores)
//! re-scores only the cores an admit or release touched, instead of
//! rescanning the fleet per arrival. The two runs must produce
//! byte-identical cluster reports, decisions, and departure logs, and
//! re-score exactly the same cores (asserted below); only the wall clock
//! differs. Sharding is a layout and fault-domain boundary, not a semantic
//! knob and not a lever on placement cost.
//!
//! ```sh
//! cargo run --release --example fleet_scaleout
//! ```

use v10::collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer,
    PairPerfCache, TopologyWeights,
};
use v10::core::{Design, RunOptions};
use v10::npu::{FleetTopology, NpuConfig};
use v10::sim::Cycles;
use v10::workloads::{MmppProcess, Model, TimedArrival};

/// Fleet geometry: 40×25 = 1000 cores, 5 HBM column bands, 64 B/cyc links.
const MESH_WIDTH: usize = 40;
const MESH_HEIGHT: usize = 25;
const HBM_GROUPS: usize = 5;

const SLOTS_PER_CORE: usize = 4;
const EPOCH_CYCLES: f64 = 8.0e6;
const ARRIVALS: usize = 256;

fn fit_pipeline() -> ClusteringPipeline {
    let models = [
        Model::Bert,
        Model::Ncf,
        Model::Dlrm,
        Model::ResNet,
        Model::Mnist,
        Model::RetinaNet,
    ];
    let points = build_dataset(&models, &[], 7);
    let mut cache = PairPerfCache::new(2, 7);
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, 7)
}

fn flash_crowd() -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(
        &[Model::Mnist, Model::Dlrm, Model::Ncf],
        3.0e5,
        4.0,
        2.0e7,
        0x5CA1E,
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
) -> (ClusterServeReport, FleetOutcome, f64) {
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
    .expect("valid fleet plane");
    let opts = RunOptions::new(1).expect("positive request count");
    // v10-lint: allow(D2) harness wall-clock; reports sim-rate only and never feeds simulated results
    let start = std::time::Instant::now();
    let (report, outcome) = plane
        .serve(stream, Design::V10Full, &NpuConfig::table5(), &opts)
        .expect("valid fleet serving run");
    (report, outcome, start.elapsed().as_secs_f64())
}

fn main() {
    let pipeline = fit_pipeline();
    let stream = flash_crowd();
    println!(
        "Flash crowd: {} tenants on a {}x{} mesh fleet ({} cores, {} HBM groups).\n",
        stream.len(),
        MESH_WIDTH,
        MESH_HEIGHT,
        MESH_WIDTH * MESH_HEIGHT,
        HBM_GROUPS
    );

    let (one_report, one_outcome, one_wall) = serve(&pipeline, &stream, 1);
    let (four_report, four_outcome, four_wall) = serve(&pipeline, &stream, 4);

    // The shard partition is invisible in every simulated quantity.
    assert_eq!(four_report, one_report, "reports diverged across shardings");
    assert_eq!(four_outcome.decisions(), one_outcome.decisions());
    assert_eq!(four_outcome.departures(), one_outcome.departures());
    println!(
        "Byte-identical serving outcome at both shardings: {} placed, {} rejected, \
         {} requests completed, {} departures over {} epochs, p99 latency {:.2} Mcycles.",
        one_outcome.placed(),
        one_outcome.rejected(),
        one_report.completed_requests(),
        one_outcome.departures().len(),
        one_outcome.epochs(),
        one_report.p99_latency_cycles() / 1.0e6,
    );

    // Placement work does not depend on the shard layout either.
    assert_eq!(
        four_outcome.rebuild_core_scans(),
        one_outcome.rebuild_core_scans()
    );
    let cores = MESH_WIDTH * MESH_HEIGHT;
    println!(
        "\n  1 shard : {:>6} cores re-scored, {:.3} s wall",
        one_outcome.rebuild_core_scans(),
        one_wall
    );
    println!(
        "  4 shards: {:>6} cores re-scored, {:.3} s wall",
        four_outcome.rebuild_core_scans(),
        four_wall
    );
    println!(
        "\nThe index was built once over the {cores} cores, then re-scored {:.2} cores \
         per placement — rescanning the fleet per arrival would have scored {} cores.",
        (one_outcome.rebuild_core_scans() as f64 - cores as f64)
            / one_outcome.placed().max(1) as f64,
        cores * one_outcome.placed(),
    );
    println!(
        "Each admit or release re-scores the one core it touched and replays that \
         core's path up its tournament trees; the decomposed argmax still picks the \
         very same cores as a flat scan, so the report above is the proof of equivalence."
    );
}
