//! serving_fleet — the sharded fleet serving plane at ≥1000 cores.
//!
//! A seeded Markov-modulated flash-crowd stream is served on a 32×32 mesh
//! fleet (1024 cores, 8 HBM-affinity groups) through
//! [`v10_collocate::FleetPlane`] at several shard counts. Every simulated
//! quantity — the [`ClusterServeReport`], the admission decisions, the
//! merged departure log — is byte-identical across shard counts and
//! `V10_BENCH_THREADS` settings (asserted every run, and cross-checked by
//! the fleet conservation auditor); only the wall clock changes. The
//! placement index's re-score work is shard-independent too: the index is
//! built once over the fleet, then each admit or release re-scores the one
//! core it touched, so `rescans_per_placement` (re-scores beyond the
//! initial build, per placed tenant) is at most 2 at every shard count.
//! Shards are a layout and fault-domain boundary, not a scan-cost lever.
//!
//! Machine-readable output: `BENCH_serving_fleet.json`, described and
//! written by [`v10_bench::artifact::SERVING_FLEET`] (override the path
//! with `V10_BENCH_JSON_OUT`). The schema's check is the bench's gate,
//! applied to the fresh run before it is written: the rebuild scans must
//! be identical at every shard count and `rescans_per_placement` at most
//! 2 — deterministic counters, so the gate is robust to machine noise,
//! and a return to full-fleet rescans (about one re-score per core per
//! arrival) fails it. When `V10_BENCH_BASELINE` names a checked-in
//! artifact, the bench validates that against the schema too.
//!
//! Knobs: `V10_BENCH_SEED` (arrival stream seed), `V10_BENCH_THREADS`
//! (dirty-core re-simulation pool), `V10_BENCH_SLO_FACTOR` (goodput SLO),
//! `V10_BENCH_SMOKE=1` (fewer arrivals, shard counts 1 and 4 only, one
//! timing sample — used by CI).

use std::time::Duration;

use v10_bench::artifact::{self, Artifact};
use v10_bench::serving::{
    fleet_flash_crowd, fleet_goodput_p99, fleet_pipeline, fleet_plane, smoke, FLEET_EPOCH_CYCLES,
    FLEET_HBM_GROUPS, FLEET_SLOTS_PER_CORE,
};
use v10_bench::sweep::sweep_threads;
use v10_bench::timing::median_wall;
use v10_bench::{fmt_x, print_table, seed};
use v10_collocate::{ClusteringPipeline, FleetOutcome};
use v10_core::{Design, FleetConservation, RunOptions};
use v10_npu::NpuConfig;
use v10_workloads::TimedArrival;

/// Fleet geometry: a 32×32 mesh — 1024 cores (the rest of the fleet
/// fixture is shared with `serving_fleet_faults`, see
/// [`v10_bench::serving::fleet_plane`]).
const MESH_SIDE: usize = 32;

/// Shard counts swept; 1 shard is the speedup baseline.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 4];

/// Arrivals offered per run; each tenant submits one request (the fleet
/// bench stresses placement, not per-core contention).
const ARRIVALS: usize = 512;
const SMOKE_ARRIVALS: usize = 96;
const REQUESTS_PER_SESSION: usize = 1;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0x8;

/// Timing samples per shard count (median reported); fewer in smoke mode.
const SAMPLES: usize = 3;
const SMOKE_SAMPLES: usize = 1;

/// One shard-count measurement.
struct FleetPoint {
    shards: usize,
    wall_median: Duration,
    rebuild_core_scans: u64,
    epochs: u64,
    placed: usize,
    rejected: usize,
    completed_requests: usize,
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
}

fn serve_once(
    pipeline: &ClusteringPipeline,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
) -> (v10_collocate::ClusterServeReport, FleetOutcome) {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    fleet_plane(pipeline, MESH_SIDE, shards, threads)
        .serve(arrivals, Design::V10Full, &NpuConfig::table5(), &opts)
        .expect("valid fleet serving run")
}

/// Audits one run's conservation invariants across shard boundaries.
fn audit(report: &v10_collocate::ClusterServeReport, outcome: &FleetOutcome, cores: usize) {
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    auditor.record_departures(cores, outcome.departures());
    auditor.reconcile();
    assert!(
        auditor.is_clean(),
        "fleet conservation violated: {:?}",
        auditor.violations()
    );
}

fn run_point(
    pipeline: &ClusteringPipeline,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
    samples: usize,
    baseline: Option<&(v10_collocate::ClusterServeReport, FleetOutcome)>,
) -> (
    FleetPoint,
    (v10_collocate::ClusterServeReport, FleetOutcome),
) {
    // One untimed run pins the deterministic simulated quantities and is
    // checked against the 1-shard reference; the timed samples then
    // measure the wall cost of the identical run.
    let (report, outcome) = serve_once(pipeline, shards, threads, arrivals);
    if let Some((base_report, base_outcome)) = baseline {
        assert_eq!(
            &report, base_report,
            "{shards}-shard report diverged from the 1-shard run"
        );
        assert_eq!(outcome.decisions(), base_outcome.decisions());
        assert_eq!(outcome.departures(), base_outcome.departures());
    }
    audit(&report, &outcome, MESH_SIDE * MESH_SIDE);

    let wall_median = median_wall(samples, || {
        let (r, o) = serve_once(pipeline, shards, threads, arrivals);
        assert_eq!(r, report, "fleet serve is not deterministic across reps");
        assert_eq!(o.rebuild_core_scans(), outcome.rebuild_core_scans());
    });

    let (goodput_per_mcycle, p99_mcycles) = fleet_goodput_p99(&report, arrivals);
    let point = FleetPoint {
        shards,
        wall_median,
        rebuild_core_scans: outcome.rebuild_core_scans(),
        epochs: outcome.epochs(),
        placed: outcome.placed(),
        rejected: outcome.rejected(),
        completed_requests: report.completed_requests(),
        goodput_per_mcycle,
        p99_mcycles,
    };
    (point, (report, outcome))
}

fn speedup(points: &[FleetPoint], p: &FleetPoint) -> f64 {
    let base = points[0].wall_median.as_secs_f64();
    let own = p.wall_median.as_secs_f64();
    if own > 0.0 {
        base / own
    } else {
        0.0
    }
}

/// Re-scores beyond the initial index build, per placed tenant.
fn rescans_per_placement(p: &FleetPoint) -> f64 {
    artifact::rescans_per_placement(
        p.rebuild_core_scans as f64,
        (MESH_SIDE * MESH_SIDE) as f64,
        p.placed as f64,
    )
}

fn main() {
    let smoke = smoke();
    let samples = if smoke { SMOKE_SAMPLES } else { SAMPLES };
    let arrival_count = if smoke { SMOKE_ARRIVALS } else { ARRIVALS };
    let counts: &[usize] = if smoke {
        &SMOKE_SHARD_COUNTS
    } else {
        &SHARD_COUNTS
    };
    let threads = sweep_threads();

    let pipeline = fleet_pipeline();
    let arrivals = fleet_flash_crowd(REQUESTS_PER_SESSION, SEED_SALT, arrival_count);

    let mut points: Vec<FleetPoint> = Vec::new();
    let mut baseline: Option<(v10_collocate::ClusterServeReport, FleetOutcome)> = None;
    for &shards in counts {
        let (point, run) = run_point(
            &pipeline,
            shards,
            threads,
            &arrivals,
            samples,
            baseline.as_ref(),
        );
        if baseline.is_none() {
            baseline = Some(run);
        }
        points.push(point);
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.shards),
                format!("{:.3}", p.wall_median.as_secs_f64()),
                fmt_x(speedup(&points, p)),
                format!("{}", p.rebuild_core_scans),
                format!("{:.3}", rescans_per_placement(p)),
                format!("{:.3}", p.goodput_per_mcycle),
                format!("{:.2}", p.p99_mcycles),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet serving — {} cores, {} arrivals, {} worker thread(s); \
             wall-clock and placement work vs shard count",
            MESH_SIDE * MESH_SIDE,
            arrivals.len(),
            threads
        ),
        &[
            "Shards",
            "Wall (s)",
            "Speedup",
            "Rebuild scans",
            "Rescans/placed",
            "Goodput/Mcyc",
            "p99 (Mcyc)",
        ],
        &rows,
    );
    let base = &points[0];
    println!(
        "All shard counts produced byte-identical cluster reports \
         ({} placed, {} rejected, {} requests completed, p99 {:.2} Mcycles); \
         the placement index re-scored {} cores at every shard count.",
        base.placed,
        base.rejected,
        base.completed_requests,
        base.p99_mcycles,
        base.rebuild_core_scans
    );

    let headline = points
        .iter()
        .find(|p| p.shards == 4)
        .expect("the sweep always includes 4 shards");
    let artifact = Artifact {
        header: vec![
            seed().into(),
            (MESH_SIDE * MESH_SIDE).into(),
            FLEET_HBM_GROUPS.into(),
            FLEET_SLOTS_PER_CORE.into(),
            FLEET_EPOCH_CYCLES.into(),
            arrivals.len().into(),
            samples.into(),
        ],
        points: points
            .iter()
            .map(|p| {
                vec![
                    p.shards.into(),
                    p.wall_median.as_secs_f64().into(),
                    speedup(&points, p).into(),
                    p.rebuild_core_scans.into(),
                    rescans_per_placement(p).into(),
                    p.epochs.into(),
                    p.placed.into(),
                    p.rejected.into(),
                    p.completed_requests.into(),
                    p.goodput_per_mcycle.into(),
                    p.p99_mcycles.into(),
                ]
            })
            .collect(),
        headline: vec![
            headline.shards.into(),
            speedup(&points, headline).into(),
            rescans_per_placement(headline).into(),
        ],
    };
    println!(
        "Regression gate (the schema check): equal rebuild scans at every shard count and \
         at most 2 re-scores per placement; this run re-scored {} cores, {:.3} per placement \
         (a full-fleet rescan per arrival would be about {}).",
        headline.rebuild_core_scans,
        rescans_per_placement(headline),
        MESH_SIDE * MESH_SIDE,
    );
    artifact::SERVING_FLEET.emit(&artifact);
}
