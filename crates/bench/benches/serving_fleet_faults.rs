//! serving_fleet_faults — fleet fault domains under a severity × shard
//! sweep.
//!
//! A seeded flash-crowd stream is served on a 16×16 mesh fleet (256
//! cores, 8 HBM-affinity groups) through
//! [`v10_collocate::FleetPlane::serve_faulted_observed`] at several shard
//! counts and three fault severities:
//!
//! * `disarmed` — an empty [`FleetFaultPlan`]. Gated in-bench to be
//!   **byte-identical** to the plain [`FleetPlane::serve`] path at every
//!   shard count: arming the fault machinery with no faults must not move
//!   a single bit of the report, the decisions, or the departure log.
//! * `shard-crash` — shard 0 crashes on an epoch boundary mid-crowd and
//!   restores one epoch later, catching up from its pending list. Blast radius
//!   (the cores steered dark) shrinks as shards get finer — the severity ×
//!   shard interaction this bench exists to measure.
//! * `region-blackout` — HBM group 0 fails during the crowd with its
//!   uplink partitioned, so orphaned tenants back off through the
//!   partition window before evacuating onto survivors. Identical across
//!   shard counts (region faults are shard-agnostic) and gated so.
//!
//! Columns: goodput (SLO-good requests per simulated Mcycle of makespan),
//! p99 latency, tenants evacuated/shed, and mean evacuation latency from
//! the region failure to the evacuee's landing.
//!
//! Machine-readable output: `BENCH_fleet_faults.json`, described and
//! written by [`v10_bench::artifact::FLEET_FAULTS`] (override the path
//! with `V10_BENCH_JSON_OUT`), schema `serving_fleet_faults` v1 —
//! deterministic fields only, so ci.sh gates the committed artifact with
//! a plain git diff after a smoke regeneration.
//!
//! Knobs: `V10_BENCH_SEED`, `V10_BENCH_THREADS`, `V10_BENCH_SLO_FACTOR`,
//! `V10_BENCH_SMOKE=1` (fewer arrivals, shard counts 1 and 4, one timing
//! sample — the CI configuration that regenerates the artifact).

use std::time::Duration;

use v10_bench::artifact::{self, Artifact, FAULT_SEVERITIES};
use v10_bench::serving::{
    fleet_flash_crowd, fleet_goodput_p99, fleet_pipeline, fleet_plane, smoke, FLEET_EPOCH_CYCLES,
    FLEET_HBM_GROUPS, FLEET_SLOTS_PER_CORE,
};
use v10_bench::sweep::sweep_threads;
use v10_bench::timing::median_wall;
use v10_bench::{print_table, seed};
use v10_collocate::{ClusterServeReport, ClusteringPipeline, FleetOutcome, RecoveryPolicy};
use v10_core::{Design, NullObserver, RunOptions};
use v10_npu::NpuConfig;
use v10_sim::{FleetFaultKind, FleetFaultPlan};
use v10_workloads::TimedArrival;

/// Fleet geometry: a 16×16 mesh (the rest of the fleet fixture is shared
/// with `serving_fleet`, see [`v10_bench::serving::fleet_plane`]).
const MESH_SIDE: usize = 16;

/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 4];

/// Flash-crowd arrivals offered per run.
const ARRIVALS: usize = 256;
const SMOKE_ARRIVALS: usize = 96;

/// Three requests per session keeps sessions open across an epoch
/// boundary, so the scripted faults always catch live tenants.
const REQUESTS_PER_SESSION: usize = 3;

/// Every scripted fault lands on the second epoch boundary, mid-crowd.
const FAULT_AT_CYCLES: f64 = 2.0 * FLEET_EPOCH_CYCLES;

/// The region-blackout uplink partition rides one epoch past the failure.
const PARTITION_WINDOW_CYCLES: f64 = 8.0e6;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0xF4;

/// Timing samples per point (median reported); fewer in smoke mode.
const SAMPLES: usize = 2;
const SMOKE_SAMPLES: usize = 1;

/// The swept fault severities, mildest first, in `FAULT_SEVERITIES` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Severity {
    Disarmed,
    ShardCrash,
    RegionBlackout,
}

impl Severity {
    const ALL: [Severity; 3] = [
        Severity::Disarmed,
        Severity::ShardCrash,
        Severity::RegionBlackout,
    ];

    /// The severity's label in the artifact; the schema checks labels
    /// against the same list.
    fn label(self) -> &'static str {
        FAULT_SEVERITIES[self as usize]
    }

    /// The scripted fleet plan for this severity. Shard 0 and HBM group 0
    /// exist at every swept shard count, so one plan serves the whole
    /// sweep.
    fn plan(self) -> FleetFaultPlan {
        match self {
            Severity::Disarmed => FleetFaultPlan::none(),
            Severity::ShardCrash => FleetFaultPlan::none()
                .with_fault(FAULT_AT_CYCLES, FleetFaultKind::ShardCrash { shard: 0 })
                .expect("valid crash event"),
            Severity::RegionBlackout => FleetFaultPlan::none()
                .with_fault(
                    FAULT_AT_CYCLES,
                    FleetFaultKind::LinkPartition {
                        hbm_group: 0,
                        window_cycles: PARTITION_WINDOW_CYCLES,
                    },
                )
                .expect("valid partition event")
                .with_fault(FAULT_AT_CYCLES, FleetFaultKind::RegionFail { hbm_group: 0 })
                .expect("valid region event"),
        }
    }
}

/// One (severity, shard count) measurement.
struct FaultPoint {
    severity: Severity,
    shards: usize,
    wall_median: Duration,
    placed: usize,
    rejected: usize,
    cores_failed: u64,
    evacuated: u64,
    shed_sessions: u64,
    completed_requests: usize,
    shed_requests: usize,
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
    evac_latency_mcycles_mean: f64,
    disarmed_identical: bool,
}

fn serve_once(
    pipeline: &ClusteringPipeline,
    severity: Severity,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
) -> (ClusterServeReport, FleetOutcome) {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    fleet_plane(pipeline, MESH_SIDE, shards, threads)
        .serve_faulted_observed(
            arrivals,
            Design::V10Full,
            &NpuConfig::table5(),
            &opts,
            &severity.plan(),
            &RecoveryPolicy::new(),
            &mut NullObserver,
        )
        .expect("valid faulted fleet serving run")
}

/// Mean cycles from the region failure to each evacuee's landing.
fn mean_evac_latency(report: &ClusterServeReport, outcome: &FleetOutcome) -> f64 {
    let Some(&(_, fail_at)) = outcome.regions_failed().first() else {
        return 0.0;
    };
    let requeued = report.requeued();
    if requeued.is_empty() {
        return 0.0;
    }
    let total: f64 = requeued.iter().map(|r| r.at_cycles - fail_at).sum();
    #[allow(clippy::cast_precision_loss)]
    let n = requeued.len() as f64;
    total / n
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    pipeline: &ClusteringPipeline,
    severity: Severity,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
    samples: usize,
    plain_baseline: &(ClusterServeReport, FleetOutcome),
    severity_baseline: Option<&(ClusterServeReport, FleetOutcome)>,
) -> (FaultPoint, (ClusterServeReport, FleetOutcome)) {
    let (report, outcome) = serve_once(pipeline, severity, shards, threads, arrivals);

    // The disarmed column is the CI bit-identity gate: an armed-but-empty
    // plan must reproduce the plain serve path exactly.
    let disarmed_identical = report == plain_baseline.0 && outcome == plain_baseline.1;
    if severity == Severity::Disarmed {
        assert!(
            disarmed_identical,
            "disarmed fault plan diverged from plain FleetPlane::serve at {shards} shards"
        );
    }
    // Region faults are shard-agnostic, so that severity must also be
    // byte-identical across shard counts.
    if severity != Severity::ShardCrash {
        if let Some((base_report, base_outcome)) = severity_baseline {
            assert_eq!(
                &report,
                base_report,
                "{} at {shards} shards diverged from the 1-shard run",
                severity.label()
            );
            assert_eq!(outcome.decisions(), base_outcome.decisions());
        }
    }

    let wall_median = median_wall(samples, || {
        let (r, _) = serve_once(pipeline, severity, shards, threads, arrivals);
        assert_eq!(r, report, "faulted fleet serve is not deterministic");
    });

    let (goodput, p99) = fleet_goodput_p99(&report, arrivals);
    let point = FaultPoint {
        severity,
        shards,
        wall_median,
        placed: outcome.placed(),
        rejected: outcome.rejected(),
        cores_failed: outcome.cores_failed(),
        evacuated: outcome.evacuated(),
        shed_sessions: outcome.shed_sessions(),
        completed_requests: report.completed_requests(),
        shed_requests: report.shed_requests(),
        goodput_per_mcycle: goodput,
        p99_mcycles: p99,
        evac_latency_mcycles_mean: mean_evac_latency(&report, &outcome) / 1.0e6,
        disarmed_identical,
    };
    (point, (report, outcome))
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

    let mut points: Vec<FaultPoint> = Vec::new();
    for &severity in &Severity::ALL {
        let mut severity_baseline: Option<(ClusterServeReport, FleetOutcome)> = None;
        for &shards in counts {
            // The plain-serve reference for the bit-identity gate, fresh
            // per shard count.
            let plain = {
                let opts = RunOptions::new(REQUESTS_PER_SESSION)
                    .expect("positive request count")
                    .with_seed(seed());
                fleet_plane(&pipeline, MESH_SIDE, shards, threads)
                    .serve(&arrivals, Design::V10Full, &NpuConfig::table5(), &opts)
                    .expect("valid plain fleet serving run")
            };
            let (point, run) = run_point(
                &pipeline,
                severity,
                shards,
                threads,
                &arrivals,
                samples,
                &plain,
                severity_baseline.as_ref(),
            );
            if severity_baseline.is_none() {
                severity_baseline = Some(run);
            }
            points.push(point);
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.severity.label().to_string(),
                format!("{}", p.shards),
                format!("{:.3}", p.wall_median.as_secs_f64()),
                format!("{}", p.placed),
                format!("{}", p.cores_failed),
                format!("{}", p.evacuated),
                format!("{}", p.shed_sessions),
                format!("{:.3}", p.goodput_per_mcycle),
                format!("{:.2}", p.p99_mcycles),
                format!("{:.2}", p.evac_latency_mcycles_mean),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet fault domains — {} cores, {} arrivals, {} worker thread(s); \
             severity × shard count",
            MESH_SIDE * MESH_SIDE,
            arrivals.len(),
            threads
        ),
        &[
            "Severity",
            "Shards",
            "Wall (s)",
            "Placed",
            "Dead cores",
            "Evacuated",
            "Shed",
            "Goodput/Mcyc",
            "p99 (Mcyc)",
            "Evac lat (Mc)",
        ],
        &rows,
    );
    println!(
        "Disarmed fault plans stayed byte-identical to the plain serve path at every \
         shard count; region blackouts displaced tenants through the partition window."
    );

    // Wall clock stays out of the artifact on purpose: every field is
    // deterministic, so ci.sh can gate the committed file with a git diff.
    let artifact = Artifact {
        header: vec![
            seed().into(),
            (MESH_SIDE * MESH_SIDE).into(),
            FLEET_HBM_GROUPS.into(),
            FLEET_SLOTS_PER_CORE.into(),
            FLEET_EPOCH_CYCLES.into(),
            FAULT_AT_CYCLES.into(),
            arrivals.len().into(),
            samples.into(),
        ],
        points: points
            .iter()
            .map(|p| {
                vec![
                    p.severity.label().into(),
                    p.shards.into(),
                    p.placed.into(),
                    p.rejected.into(),
                    p.cores_failed.into(),
                    p.evacuated.into(),
                    p.shed_sessions.into(),
                    p.completed_requests.into(),
                    p.shed_requests.into(),
                    p.goodput_per_mcycle.into(),
                    p.p99_mcycles.into(),
                    p.evac_latency_mcycles_mean.into(),
                    u64::from(p.disarmed_identical).into(),
                ]
            })
            .collect(),
        headline: Vec::new(),
    };
    artifact::FLEET_FAULTS.emit(&artifact);
}
