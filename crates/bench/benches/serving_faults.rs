//! serving_faults — graceful degradation under injected faults.
//!
//! A two-core V10-Full cluster serves a seeded open-loop tenant stream
//! through the `MultiCoreAdmission` controller while a per-core
//! [`FaultPlan`] injects transient operator corruption (recovered by
//! V10-style input-checkpoint replay) and, at the harshest level, a
//! permanent core retirement (recovered by backoff re-admission onto the
//! surviving core, with deadline-based load shedding). The sweep crosses
//! fault severity with offered load and prints goodput, p99 request
//! latency, checkpoint-replay overhead, and the shed fraction. Everything
//! is deterministic — the output is byte-identical across runs and
//! `V10_BENCH_THREADS` settings — and the tables show graceful
//! degradation: goodput falls and shedding rises smoothly with fault rate
//! instead of collapsing.
//!
//! Knobs: `V10_BENCH_SEED` (arrival and fault-stream seed).

use v10_bench::sweep::parallel_map;
use v10_bench::{fmt_pct, print_table, seed};
use v10_collocate::{
    build_dataset, ClusteringPipeline, MultiCoreAdmission, OnlinePlacer, PairPerfCache,
    RecoveryPolicy,
};
use v10_core::{Design, NullObserver, OverloadController, RunOptions};
use v10_npu::NpuConfig;
use v10_sim::{FaultKind, FaultPlan};
use v10_workloads::{Model, ServingScenario};

/// Serving cores and context-table slots per core.
const CORES: usize = 2;
const SLOTS_PER_CORE: usize = 4;

/// Tenant mix: three light-footprint models so sessions stay short.
const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// Base mean inter-arrival time; the load sweep divides it.
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 8.0e6;

/// Offered-load multipliers applied to the base arrival rate.
const LOAD_FACTORS: [f64; 3] = [1.0, 2.0, 4.0];

/// Tenants offered per run and requests each submits before departing.
const ARRIVALS: usize = 16;
const REQUESTS_PER_SESSION: usize = 3;

/// Mean think time between a tenant's requests, in cycles.
const MEAN_THINK_CYCLES: f64 = 2.5e5;

/// Fault streams stop arriving past this horizon (well beyond any run).
const FAULT_HORIZON_CYCLES: f64 = 5.0e8;

/// When the harshest level permanently retires core 0.
const RETIRE_AT_CYCLES: f64 = 8.0e6;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0x5;

/// Swept fault severities, mildest first.
#[derive(Clone, Copy)]
enum FaultLevel {
    /// No faults: the baseline every other column degrades from.
    None,
    /// Sparse transient operator corruption on both cores.
    TransientLight,
    /// Frequent transient corruption on both cores.
    TransientHeavy,
    /// Frequent transients plus a permanent retirement of core 0.
    HeavyPlusRetire,
}

impl FaultLevel {
    const ALL: [FaultLevel; 4] = [
        FaultLevel::None,
        FaultLevel::TransientLight,
        FaultLevel::TransientHeavy,
        FaultLevel::HeavyPlusRetire,
    ];

    fn label(self) -> &'static str {
        match self {
            FaultLevel::None => "no faults",
            FaultLevel::TransientLight => "transient (light)",
            FaultLevel::TransientHeavy => "transient (heavy)",
            FaultLevel::HeavyPlusRetire => "heavy + core retire",
        }
    }

    /// Mean transient-fault inter-arrival, or `None` for the fault-free
    /// level.
    fn transient_mean(self) -> Option<f64> {
        match self {
            FaultLevel::None => None,
            FaultLevel::TransientLight => Some(1.0e7),
            FaultLevel::TransientHeavy | FaultLevel::HeavyPlusRetire => Some(2.0e6),
        }
    }

    /// One fault plan per core for this severity.
    fn plans(self) -> Vec<FaultPlan> {
        let mut plans = Vec::with_capacity(CORES);
        for core in 0..CORES {
            let mut plan = FaultPlan::none();
            if let Some(mean) = self.transient_mean() {
                let salt = SEED_SALT.wrapping_add(core as u64);
                plan = plan
                    .with_poisson_transients(seed() ^ salt, mean, FAULT_HORIZON_CYCLES)
                    .expect("positive mean and horizon");
            }
            if matches!(self, FaultLevel::HeavyPlusRetire) && core == 0 {
                plan = plan
                    .with_fault(RETIRE_AT_CYCLES, FaultKind::CoreRetire)
                    .expect("finite retirement time");
            }
            plans.push(plan);
        }
        plans
    }
}

/// One (fault level, offered load) measurement.
struct FaultPoint {
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
    replay_overhead_mcycles: f64,
    shed_fraction: f64,
    faults_injected: u64,
    requeued: usize,
}

/// The trained placement advisor shared by every grid point. Fitting is
/// the expensive part, so it happens once; serving each point builds its
/// own admission controller on top.
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
    let mut cache = PairPerfCache::new(2, seed());
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, seed())
}

fn run_point(pipeline: &ClusteringPipeline, level: FaultLevel, load_factor: f64) -> FaultPoint {
    let scenario = ServingScenario::new(&MODELS, BASE_MEAN_INTERARRIVAL_CYCLES, seed() ^ SEED_SALT)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(REQUESTS_PER_SESSION)
        .expect("positive session quota")
        .with_think_cycles(MEAN_THINK_CYCLES)
        .expect("non-negative think time")
        .scaled_load(load_factor)
        .expect("positive load factor")
        .with_fault_plans(level.plans());
    let arrivals = scenario
        .sample_arrivals(ARRIVALS)
        .expect("non-zero arrival count");

    let placer = OnlinePlacer::new(pipeline)
        .with_threshold(0.01)
        .expect("positive threshold");
    let mut controller =
        MultiCoreAdmission::new(placer, CORES, SLOTS_PER_CORE).expect("non-degenerate cluster");
    for arrival in &arrivals {
        controller.offer(arrival).expect("valid arrival");
    }

    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    let report = controller
        .serve_stressed_observed(
            Design::V10Full,
            &NpuConfig::table5(),
            &opts,
            scenario.fault_plans(),
            &RecoveryPolicy::default(),
            &OverloadController::disarmed(),
            &mut NullObserver,
        )
        .expect("valid faulted serving run");

    let elapsed = report
        .per_core()
        .iter()
        .flatten()
        .map(v10_core::RunReport::elapsed_cycles)
        .fold(0.0_f64, f64::max);
    let completed = report.completed_requests();
    FaultPoint {
        goodput_per_mcycle: if elapsed > 0.0 {
            completed as f64 * 1.0e6 / elapsed
        } else {
            0.0
        },
        p99_mcycles: report.p99_latency_cycles() / 1.0e6,
        replay_overhead_mcycles: report.replay_overhead_cycles() / 1.0e6,
        shed_fraction: report.shed_fraction(),
        faults_injected: report.faults_injected(),
        requeued: report.requeued().len(),
    }
}

fn main() {
    let pipeline = fit_pipeline();
    let grid: Vec<(FaultLevel, f64)> = LOAD_FACTORS
        .iter()
        .flat_map(|&load| FaultLevel::ALL.iter().map(move |&lvl| (lvl, load)))
        .collect();
    let points = parallel_map(&grid, |&(level, load)| run_point(&pipeline, level, load));

    let header = [
        "Offered load (arrivals/Mcyc)",
        "no faults",
        "transient (light)",
        "transient (heavy)",
        "heavy + core retire",
    ];
    let row_label = |load: f64| format!("{:.2}", load * 1.0e6 / BASE_MEAN_INTERARRIVAL_CYCLES);
    let table = |metric: &dyn Fn(&FaultPoint) -> String| -> Vec<Vec<String>> {
        LOAD_FACTORS
            .iter()
            .enumerate()
            .map(|(i, &load)| {
                std::iter::once(row_label(load))
                    .chain(
                        (0..FaultLevel::ALL.len())
                            .map(|l| metric(&points[i * FaultLevel::ALL.len() + l])),
                    )
                    .collect()
            })
            .collect()
    };

    print_table(
        "Serving under faults — goodput (completed requests / Mcycle)",
        &header,
        &table(&|p| format!("{:.3}", p.goodput_per_mcycle)),
    );
    print_table(
        "Serving under faults — p99 request latency (Mcycles)",
        &header,
        &table(&|p| format!("{:.2}", p.p99_mcycles)),
    );
    print_table(
        "Serving under faults — checkpoint-replay overhead (kcycles)",
        &header,
        &table(&|p| format!("{:.1}", p.replay_overhead_mcycles * 1.0e3)),
    );
    print_table(
        "Serving under faults — shed fraction (shed / reached a decision)",
        &header,
        &table(&|p| fmt_pct(p.shed_fraction)),
    );
    print_table(
        "Serving under faults — injected faults / requeued tenants",
        &header,
        &table(&|p| format!("{} / {}", p.faults_injected, p.requeued)),
    );
    println!(
        "{ARRIVALS} tenants per run on a {CORES}x{SLOTS_PER_CORE}-slot V10-Full cluster, \
         {REQUESTS_PER_SESSION} requests per session; the harshest column retires core 0 at \
         {RETIRE_AT_CYCLES:.0} cycles, after which survivors re-admit with backoff and \
         late tenants are shed against their SLO deadline."
    );
    for lvl in FaultLevel::ALL {
        if let Some(mean) = lvl.transient_mean() {
            println!(
                "  {}: mean transient-fault gap {:.1} Mcycles per core",
                lvl.label(),
                mean / 1.0e6
            );
        }
    }
}
