//! sim_throughput — measured simulator throughput (simulated cycles per
//! wall-second) over the serving configurations.
//!
//! Every scale-out direction in ROADMAP is gated on raw simulator speed,
//! so this bench makes throughput a first-class, regression-gated metric:
//! it drives the fig18/serving_openloop executor set (all four designs)
//! over an open-loop Poisson serving workload at several tenant counts,
//! wall-times each run through [`v10_bench::timing::measure`], and reports
//! simulated-cycles-per-wall-second per point. Simulated results stay
//! deterministic — wall timing never feeds the simulation.
//!
//! Machine-readable output: `BENCH_sim_throughput.json`, described and
//! written by [`v10_bench::artifact::SIM_THROUGHPUT`] (override the path
//! with `V10_BENCH_JSON_OUT`). When `V10_BENCH_BASELINE` names a
//! checked-in artifact, the bench validates that artifact against the
//! schema and fails (exit 1) if the fresh headline throughput regresses
//! below 0.9x of its checked-in value — this is the CI gate wired up in
//! `ci.sh`.
//!
//! Knobs: `V10_BENCH_SEED` (arrival stream seed), `V10_BENCH_SMOKE=1`
//! (headline tenant count only, fewer timing samples — used by CI).

use std::time::Duration;

use v10_bench::artifact::{self, Artifact};
use v10_bench::serving::{schedule_of, smoke};
use v10_bench::timing::{cycles_per_sec, fmt_cycles_per_sec, measure, median_wall};
use v10_bench::{fmt_x, print_table, seed};
use v10_core::{serve_design, AdmissionSchedule, Design, RunOptions, RunReport};
use v10_npu::NpuConfig;
use v10_workloads::{Model, OpenLoopProcess};

/// Tenant mix shared with serving_openloop: four light-footprint models
/// spanning SA- and VU-heavy behavior.
const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];

/// Tenant counts swept. The largest count is the headline multi-tenant
/// serving config: long runs with high session turnover are exactly where
/// per-step scans over every tenancy-ever dominate.
const TENANT_COUNTS: [usize; 4] = [8, 32, 96, 256];

/// Mean inter-arrival time in cycles — the near-saturation point of the
/// serving_openloop sweep, so the table stays contended.
const MEAN_INTERARRIVAL_CYCLES: f64 = 3.5e6;

/// Requests each tenant submits before departing.
const REQUESTS_PER_SESSION: usize = 3;

/// Mean think time between a tenant's requests, in cycles.
const MEAN_THINK_CYCLES: f64 = 2.5e5;

/// Decorrelates this bench's arrival stream from other benches.
const SEED_SALT: u64 = 0x7;

/// Timing samples per point (median reported); fewer in smoke mode.
const SAMPLES: usize = 5;
const SMOKE_SAMPLES: usize = 3;

/// Pre-refactor headline throughput (V10-Full at the largest tenant
/// count), measured on this container immediately before the event-spine
/// refactor landed; see OPTIMIZATION_LOG.md for the measurement. The
/// checked-in artifact reports its speedup against this anchor.
const PRE_REFACTOR_CYCLES_PER_SEC: f64 = 9.92e9;

/// One (design, tenant count) measurement.
struct ThroughputPoint {
    design: Design,
    tenants: usize,
    simulated_cycles: f64,
    completed_requests: usize,
    wall_median: Duration,
}

impl ThroughputPoint {
    fn rate(&self) -> f64 {
        cycles_per_sec(
            v10_sim::Cycles::new(self.simulated_cycles),
            self.wall_median,
        )
    }
}

fn schedule_for(tenants: usize) -> AdmissionSchedule {
    let process = OpenLoopProcess::new(&MODELS, MEAN_INTERARRIVAL_CYCLES, seed() ^ SEED_SALT)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(REQUESTS_PER_SESSION)
        .expect("positive session quota")
        .with_think_cycles(MEAN_THINK_CYCLES)
        .expect("non-negative think time");
    schedule_of(&process.sample(tenants).expect("non-zero arrival count"))
}

fn run_once(design: Design, schedule: &AdmissionSchedule) -> RunReport {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    serve_design(design, schedule, &NpuConfig::table5(), &opts).expect("valid serving run")
}

fn run_point(design: Design, tenants: usize, samples: usize) -> ThroughputPoint {
    let schedule = schedule_for(tenants);
    // One untimed run pins the deterministic simulated quantities; the
    // timed samples then measure wall cost of the identical run.
    let report = run_once(design, &schedule);
    let simulated_cycles = report.elapsed_cycles();
    let completed_requests = report
        .workloads()
        .iter()
        .map(|w| w.completed_requests())
        .sum();
    let wall_median = median_wall(samples, || {
        let (r, _) = measure(|| run_once(design, &schedule));
        assert_eq!(
            r.elapsed_cycles().to_bits(),
            simulated_cycles.to_bits(),
            "serving run is not deterministic across repetitions"
        );
        r
    });
    ThroughputPoint {
        design,
        tenants,
        simulated_cycles,
        completed_requests,
        wall_median,
    }
}

fn main() {
    let smoke = smoke();
    let samples = if smoke { SMOKE_SAMPLES } else { SAMPLES };
    let counts: &[usize] = if smoke {
        &TENANT_COUNTS[TENANT_COUNTS.len() - 1..]
    } else {
        &TENANT_COUNTS[..]
    };

    let mut points = Vec::new();
    for &tenants in counts {
        for &design in &Design::ALL {
            points.push(run_point(design, tenants, samples));
        }
    }

    let header = ["Tenants", "PMT", "V10-Base", "V10-Fair", "V10-Full"];
    let table = |metric: &dyn Fn(&ThroughputPoint) -> String| -> Vec<Vec<String>> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &tenants)| {
                std::iter::once(format!("{tenants}"))
                    .chain(
                        (0..Design::ALL.len()).map(|d| metric(&points[i * Design::ALL.len() + d])),
                    )
                    .collect()
            })
            .collect()
    };
    print_table(
        "Simulator throughput — simulated cycles per wall-second",
        &header,
        &table(&|p| fmt_cycles_per_sec(p.rate())),
    );
    print_table(
        "Simulator throughput — simulated Mcycles per run",
        &header,
        &table(&|p| format!("{:.0}", p.simulated_cycles / 1.0e6)),
    );

    let headline = points.last().expect("at least one point measured");
    assert_eq!(headline.design, Design::V10Full, "headline is V10-Full");
    println!(
        "Headline (multi-tenant serving config): {} x {} tenants at {} \
         ({} over the pre-refactor anchor of {}).",
        headline.design,
        headline.tenants,
        fmt_cycles_per_sec(headline.rate()),
        fmt_x(headline.rate() / PRE_REFACTOR_CYCLES_PER_SEC),
        fmt_cycles_per_sec(PRE_REFACTOR_CYCLES_PER_SEC),
    );

    let artifact = Artifact {
        header: vec![
            seed().into(),
            REQUESTS_PER_SESSION.into(),
            MEAN_INTERARRIVAL_CYCLES.into(),
            samples.into(),
        ],
        points: points
            .iter()
            .map(|p| {
                vec![
                    p.design.name().into(),
                    p.tenants.into(),
                    p.simulated_cycles.into(),
                    p.completed_requests.into(),
                    p.wall_median.as_secs_f64().into(),
                    p.rate().into(),
                ]
            })
            .collect(),
        headline: vec![
            headline.design.name().into(),
            headline.tenants.into(),
            headline.rate().into(),
            PRE_REFACTOR_CYCLES_PER_SEC.into(),
            (headline.rate() / PRE_REFACTOR_CYCLES_PER_SEC).into(),
        ],
    };
    if let Some(baseline) = artifact::SIM_THROUGHPUT.emit(&artifact) {
        let committed = artifact::headline_num(&baseline, "cycles_per_wall_second");
        let fresh = headline.rate();
        let floor = 0.9 * committed;
        println!(
            "Regression gate: fresh headline {} vs checked-in {} (floor 0.9x = {}).",
            fmt_cycles_per_sec(fresh),
            fmt_cycles_per_sec(committed),
            fmt_cycles_per_sec(floor),
        );
        if fresh < floor {
            eprintln!(
                "sim_throughput: FAIL: headline throughput {} fell below 0.9x of the \
                 checked-in baseline {}",
                fmt_cycles_per_sec(fresh),
                fmt_cycles_per_sec(committed),
            );
            std::process::exit(1);
        }
    }
}
