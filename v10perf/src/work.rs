//! The four benchmark workloads: how each builds its inputs from the seed,
//! what one iteration calls, how its output is checked, and the simulated
//! figures and work counters read from it.
//!
//! Every call goes through the simulator's public API. Iterations run on
//! one thread (`FleetPlane::with_threads(1)`) so host time measures the
//! code, not the scheduler.

use v10_collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer,
    PairPerfCache, RecoveryPolicy, TopologyWeights,
};
use v10_core::{
    audit_serve_stressed, check_serve_invariants, run_design, run_digest, run_pmt_observed,
    run_single_tenant, serve_design, serve_design_stressed, serve_design_stressed_observed,
    Admission, AdmissionSchedule, CounterObserver, Design, FleetConservation, OverloadController,
    OverloadPolicy, Policy, RunOptions, RunReport, V10Engine, WorkloadSpec,
};
use v10_npu::{FleetTopology, NpuConfig};
use v10_sim::{Cycles, FaultPlan, FleetFaultPlan, LatencySummary, V10Result};
use v10_workloads::{MmppProcess, Model, OpenLoopProcess, TimedArrival, PAIRS_EVAL};

use crate::trace::{Layer, Tracer};

/// A request meets its SLO when its latency is at most this multiple of
/// the model's isolated request service demand.
const SLO_FACTOR: f64 = 4.0;

/// `pairs_closed`: requests each tenant completes per run (the paper
/// evaluation's default).
const PAIR_REQUESTS: usize = 12;

/// `serve_dense`: the simulator-throughput headline stream (Poisson
/// arrivals over four light models) run four times as long, 1024 tenants,
/// so its simulated figures vary little from seed to seed.
const DENSE_MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
const DENSE_TENANTS: usize = 1024;
const DENSE_MEAN_INTERARRIVAL_CYCLES: f64 = 3.5e6;
const DENSE_REQUESTS: usize = 3;
const DENSE_THINK_CYCLES: f64 = 2.5e5;
const DENSE_SALT: u64 = 0x7;

/// `fleet_flash`: a 32×32 mesh (1024 cores, 8 HBM groups, 4 slots per
/// core) at one shard, offered a ×4 MMPP flash crowd of 512
/// single-request tenants; each iteration serves two independent crowds
/// drawn from the seed. Phases dwell 0.5 Mcycle on average, so each crowd
/// crosses about fifty calm/burst cycles and the figures vary little
/// between seeds. One crowd of 1024 would do the same at about three times
/// the host time, since the plane's cost grows faster than its arrivals.
const FLEET_MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
const FIT_MODELS: [Model; 6] = [
    Model::Bert,
    Model::Ncf,
    Model::Dlrm,
    Model::ResNet,
    Model::Mnist,
    Model::RetinaNet,
];
const MESH_SIDE: usize = 32;
const HBM_GROUPS: usize = 8;
const LINK_BYTES_PER_CYCLE: f64 = 64.0;
const FLEET_SLOTS: usize = 4;
const FLEET_SHARDS: usize = 1;
const FLEET_REPLICAS: u64 = 2;
const FLEET_ARRIVALS: usize = 512;
const FLEET_BASE_INTERARRIVAL_CYCLES: f64 = 2.5e5;
const FLEET_EPOCH_CYCLES: f64 = 8.0e6;
const HOP_PENALTY: f64 = 0.02;
const SPREAD_PENALTY: f64 = 0.01;
const PLACEMENT_THRESHOLD: f64 = 0.01;
const FLEET_DWELL_CYCLES: f64 = 5.0e5;
const FLEET_SALT: u64 = 0x8;

/// `stressed_burst`: independent replicas of one V10-Full core with a
/// 4-slot table, a ×4 flash crowd of 96 tenants, an armed overload
/// controller, and Poisson transient faults whose horizon outlasts any
/// run. Each replica draws its own streams from the seed; sixteen of them
/// average out how hard one seed's bursts hit, so the work and the shed
/// share are steady across seeds while each core's admission queue stays
/// as short as a single 96-tenant crowd makes it.
const STRESS_REPLICAS: u64 = 16;
const STRESS_MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
const STRESS_TENANTS: usize = 96;
const STRESS_SLOTS: usize = 4;
const STRESS_BASE_INTERARRIVAL_CYCLES: f64 = 2.0e6;
const STRESS_DWELL_CYCLES: f64 = 5.0e6;
const STRESS_REQUESTS: usize = 3;
const STRESS_THINK_CYCLES: f64 = 2.5e5;
const STRESS_FAULT_MEAN_CYCLES: f64 = 1.0e7;
const STRESS_FAULT_HORIZON_CYCLES: f64 = 2.0e9;
const STRESS_SALT: u64 = 0x6;
const FAULT_SALT: u64 = 0x5;

/// Burst multiplier of the MMPP flash crowds: the burst phase's arrival
/// rate over the calm phase's.
const BURST_FACTOR: f64 = 4.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper evaluation: 11 pairs × (2 references + 4 designs).
    PairsClosed,
    /// One V10-Full core serving 256 open-loop tenants.
    ServeDense,
    /// The sharded fleet plane at one shard over 1024 cores.
    FleetFlash,
    /// Overload control, fault replay, and auditing on one core.
    StressedBurst,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PairsClosed,
        Workload::ServeDense,
        Workload::FleetFlash,
        Workload::StressedBurst,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairsClosed => "pairs_closed",
            Workload::ServeDense => "serve_dense",
            Workload::FleetFlash => "fleet_flash",
            Workload::StressedBurst => "stressed_burst",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One evaluation pair, ready to run.
pub struct Pair {
    models: [Model; 2],
    specs: [WorkloadSpec; 2],
}

/// A workload's generated inputs.
pub enum Inputs {
    /// The 11 evaluation pairs.
    Pairs(Vec<Pair>),
    /// An open-loop arrival stream and its compiled schedule.
    Serve {
        arrivals: Vec<TimedArrival>,
        schedule: AdmissionSchedule,
    },
    /// One flash-crowd stream per replica fleet, plus the fitted
    /// placement pipeline they share.
    Fleet {
        streams: Vec<Vec<TimedArrival>>,
        pipeline: ClusteringPipeline,
    },
    /// One flash-crowd schedule and fault plan per replica core.
    Stressed(Vec<Replica>),
}

/// One core's inputs in `stressed_burst`.
pub struct Replica {
    arrivals: Vec<TimedArrival>,
    schedule: AdmissionSchedule,
    plan: FaultPlan,
}

/// The reports of one pair: two single-tenant references, then the four
/// designs in [`Design::ALL`] order.
pub struct PairRun {
    singles: [RunReport; 2],
    designs: Vec<RunReport>,
}

/// What one iteration returned, before any checking.
pub enum Raw<'a> {
    /// One [`PairRun`] per evaluation pair.
    Pairs(Vec<PairRun>),
    /// The serving report.
    Serve(Box<RunReport>),
    /// One [`FleetRun`] per replica fleet.
    Fleet(Vec<FleetRun<'a>>),
    /// Per replica, the stressed report and the oracle's violations.
    Stressed(Vec<(RunReport, Vec<String>)>),
}

/// One fleet serve: the plane (kept for the post-serve placement probe),
/// its report, and its work counters.
pub struct FleetRun<'a> {
    plane: FleetPlane<'a>,
    report: ClusterServeReport,
    outcome: FleetOutcome,
}

/// Counts from a [`CounterObserver`] over one iteration's engine calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub ops_issued: u64,
    pub preemptions: u64,
    pub ctx_switches: u64,
    pub ticks: u64,
    /// Simulated cycles summed over the iteration's runs.
    pub sim_cycles: f64,
}

impl Counts {
    fn add(&mut self, c: &CounterObserver) {
        self.events += c.total();
        self.ops_issued += c.op_issued();
        self.preemptions += c.op_preempted();
        self.ctx_switches += c.ctx_switch_started();
        self.ticks += c.timer_tick();
    }
}

/// Deterministic work counters read from one iteration's reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub degradations: u64,
    pub shed: u64,
    pub boosts: u64,
    pub faults: u64,
    pub replays: u64,
    pub replay_cycles: f64,
    pub core_scans: u64,
    pub epochs: u64,
}

impl Work {
    fn add(&mut self, r: &RunReport) {
        let s = r.overload_stats();
        self.degradations += s.degradations();
        self.shed += s.shed_requests();
        self.boosts += s.boosts();
        self.faults += r.faults_injected();
        self.replays += r.workloads().iter().map(|w| w.replays()).sum::<u64>();
        self.replay_cycles += r.replay_overhead_cycles();
    }
}

/// The simulated end-to-end figures of one iteration.
#[derive(Debug, Clone, Copy)]
pub struct SimFigures {
    /// p99 request latency, Mcycles.
    pub p99_mcyc: f64,
    /// Requests within SLO per simulated Mcycle.
    pub goodput_per_mcyc: f64,
    /// Sessions boarded ÷ sessions offered.
    pub admitted_frac: f64,
}

/// Geomean V10-Full ÷ PMT gains over the evaluation pairs.
#[derive(Debug, Clone, Copy)]
pub struct PaperGains {
    /// System throughput (Fig. 18).
    pub stp: f64,
    /// Aggregate compute utilisation (Fig. 16).
    pub util: f64,
}

/// Positions of PMT and V10-Full in [`Design::ALL`] (and so in
/// [`PairRun`]'s design reports).
const PMT: usize = 0;
const V10_FULL: usize = 3;
const _: () = assert!(
    matches!(Design::ALL[PMT], Design::Pmt) && matches!(Design::ALL[V10_FULL], Design::V10Full)
);

fn spec_of(model: Model, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        model.abbrev(),
        model
            .default_profile()
            .synthesize(seed ^ model.abbrev().len() as u64),
    )
}

fn schedule_of(arrivals: &[TimedArrival]) -> V10Result<AdmissionSchedule> {
    let admissions = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace().clone()),
                a.at_cycles(),
                a.requests(),
            )
        })
        .collect::<V10Result<Vec<_>>>()?;
    AdmissionSchedule::new(admissions)
}

fn flash_crowd(
    models: &[Model],
    base_interarrival: f64,
    dwell: f64,
    seed: u64,
    requests: usize,
) -> V10Result<MmppProcess> {
    MmppProcess::flash_crowd(models, base_interarrival, BURST_FACTOR, dwell, seed)?
        .with_requests_per_session(requests)
}

fn dense_opts(seed: u64) -> V10Result<RunOptions> {
    Ok(RunOptions::new(DENSE_REQUESTS)?.with_seed(seed))
}

fn stress_opts(seed: u64) -> V10Result<RunOptions> {
    RunOptions::new(STRESS_REQUESTS)?
        .with_seed(seed)
        .with_table_capacity(STRESS_SLOTS)
}

fn fleet_plane(pipeline: &ClusteringPipeline) -> V10Result<FleetPlane<'_>> {
    let placer = OnlinePlacer::new(pipeline).with_threshold(PLACEMENT_THRESHOLD)?;
    let topology = FleetTopology::mesh(MESH_SIDE, MESH_SIDE, HBM_GROUPS, LINK_BYTES_PER_CYCLE)?;
    let weights = TopologyWeights::new(HOP_PENALTY, SPREAD_PENALTY)?;
    Ok(FleetPlane::new(
        placer,
        topology,
        FLEET_SLOTS,
        FLEET_SHARDS,
        Cycles::new(FLEET_EPOCH_CYCLES),
        weights,
    )?
    .with_threads(1))
}

fn design_call(d: Design) -> (Layer, &'static str) {
    match d {
        Design::Pmt => (Layer::CorePmt, "run_design/PMT"),
        Design::V10Base => (Layer::CoreEngine, "run_design/V10-Base"),
        Design::V10Fair => (Layer::CoreEngine, "run_design/V10-Fair"),
        Design::V10Full => (Layer::CoreEngine, "run_design/V10-Full"),
    }
}

/// Builds a workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64, t: &mut Tracer) -> V10Result<Inputs> {
    Ok(match w {
        Workload::PairsClosed => Inputs::Pairs(t.span(Layer::Workloads, "synthesize", |_| {
            PAIRS_EVAL
                .iter()
                .map(|&(a, b)| Pair {
                    models: [a, b],
                    specs: [spec_of(a, seed), spec_of(b, seed.wrapping_add(1))],
                })
                .collect()
        })),
        Workload::ServeDense => {
            let arrivals = t.span(Layer::Workloads, "OpenLoopProcess::sample", |_| {
                OpenLoopProcess::new(
                    &DENSE_MODELS,
                    DENSE_MEAN_INTERARRIVAL_CYCLES,
                    seed ^ DENSE_SALT,
                )?
                .with_requests_per_session(DENSE_REQUESTS)?
                .with_think_cycles(DENSE_THINK_CYCLES)?
                .sample(DENSE_TENANTS)
            })?;
            let schedule = t.span(Layer::Workloads, "compile_schedule", |_| {
                schedule_of(&arrivals)
            })?;
            Inputs::Serve { arrivals, schedule }
        }
        Workload::FleetFlash => {
            let streams = (0..FLEET_REPLICAS)
                .map(|r| {
                    t.span(Layer::Workloads, "MmppProcess::sample", |_| {
                        flash_crowd(
                            &FLEET_MODELS,
                            FLEET_BASE_INTERARRIVAL_CYCLES,
                            FLEET_DWELL_CYCLES,
                            replica_seed(seed, r) ^ FLEET_SALT,
                            1,
                        )?
                        .sample(FLEET_ARRIVALS)
                    })
                })
                .collect::<V10Result<_>>()?;
            let points = t.span(Layer::CollocatePipeline, "build_dataset", |_| {
                build_dataset(&FIT_MODELS, &[], seed)
            });
            let pipeline = t.span(Layer::CollocatePipeline, "ClusteringPipeline::fit", |_| {
                let mut cache = PairPerfCache::new(2, seed);
                ClusteringPipeline::fit(&points, 3, 3, &mut cache, seed)
            });
            Inputs::Fleet { streams, pipeline }
        }
        Workload::StressedBurst => Inputs::Stressed(
            (0..STRESS_REPLICAS)
                .map(|r| stressed_replica(replica_seed(seed, r), t))
                .collect::<V10Result<_>>()?,
        ),
    })
}

/// The seed of replica `r` of a replicated workload; replica 0 uses
/// `seed`.
fn replica_seed(seed: u64, r: u64) -> u64 {
    seed ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn stressed_replica(seed: u64, t: &mut Tracer) -> V10Result<Replica> {
    let arrivals = t.span(Layer::Workloads, "MmppProcess::sample", |_| {
        flash_crowd(
            &STRESS_MODELS,
            STRESS_BASE_INTERARRIVAL_CYCLES,
            STRESS_DWELL_CYCLES,
            seed ^ STRESS_SALT,
            STRESS_REQUESTS,
        )?
        .with_think_cycles(STRESS_THINK_CYCLES)?
        .sample(STRESS_TENANTS)
    })?;
    let schedule = t.span(Layer::Workloads, "compile_schedule", |_| {
        schedule_of(&arrivals)
    })?;
    let plan = t.span(
        Layer::CoreOverload,
        "FaultPlan::with_poisson_transients",
        |_| {
            FaultPlan::none().with_poisson_transients(
                seed ^ FAULT_SALT,
                STRESS_FAULT_MEAN_CYCLES,
                STRESS_FAULT_HORIZON_CYCLES,
            )
        },
    )?;
    Ok(Replica {
        arrivals,
        schedule,
        plan,
    })
}

/// Runs one iteration: the calls whose host time the benchmark measures.
pub fn iterate<'a>(
    inputs: &'a Inputs,
    cfg: &NpuConfig,
    seed: u64,
    t: &mut Tracer,
) -> V10Result<Raw<'a>> {
    Ok(match inputs {
        Inputs::Pairs(pairs) => {
            let opts = RunOptions::new(PAIR_REQUESTS)?.with_seed(seed);
            let mut runs = Vec::with_capacity(pairs.len());
            for pair in pairs {
                runs.push(t.span(Layer::Bench, "pair", |t| -> V10Result<PairRun> {
                    let single = |t: &mut Tracer, spec: &WorkloadSpec| {
                        t.span(Layer::CorePmt, "run_single_tenant", |_| {
                            run_single_tenant(spec, cfg, PAIR_REQUESTS)
                        })
                    };
                    let singles = [single(t, &pair.specs[0])?, single(t, &pair.specs[1])?];
                    let mut designs = Vec::with_capacity(Design::ALL.len());
                    for d in Design::ALL {
                        let (layer, name) = design_call(d);
                        designs
                            .push(t.span(layer, name, |_| run_design(d, &pair.specs, cfg, &opts))?);
                    }
                    Ok(PairRun { singles, designs })
                })?);
            }
            Raw::Pairs(runs)
        }
        Inputs::Serve { schedule, .. } => {
            let opts = dense_opts(seed)?;
            Raw::Serve(Box::new(t.span(
                Layer::CoreEngine,
                "serve_design/V10-Full",
                |_| serve_design(Design::V10Full, schedule, cfg, &opts),
            )?))
        }
        Inputs::Fleet { streams, pipeline } => {
            let opts = RunOptions::new(1)?.with_seed(seed);
            let mut runs = Vec::with_capacity(streams.len());
            for arrivals in streams {
                runs.push(t.span(Layer::CollocateFleet, "FleetPlane::serve", |_| {
                    let mut plane = fleet_plane(pipeline)?;
                    let (report, outcome) = plane.serve(arrivals, Design::V10Full, cfg, &opts)?;
                    Ok::<_, v10_sim::V10Error>(FleetRun {
                        plane,
                        report,
                        outcome,
                    })
                })?);
            }
            Raw::Fleet(runs)
        }
        Inputs::Stressed(replicas) => {
            let opts = stress_opts(seed)?;
            let mut out = Vec::with_capacity(replicas.len());
            for r in replicas {
                out.push(t.span(Layer::CoreOverload, "audit_serve_stressed", |_| {
                    audit_serve_stressed(
                        Design::V10Full,
                        &r.schedule,
                        cfg,
                        &opts,
                        &r.plan,
                        OverloadController::armed(OverloadPolicy::default()),
                    )
                })?);
            }
            Raw::Stressed(out)
        }
    })
}

/// Calls made only in traced runs, after each traced iteration, to probe
/// a layer from outside: the flat placement scan over the post-serve
/// fleet state, and the stressed serve without the auditor attached.
pub fn probe(
    inputs: &Inputs,
    raw: &Raw<'_>,
    cfg: &NpuConfig,
    seed: u64,
    t: &mut Tracer,
) -> V10Result<()> {
    match (inputs, raw) {
        (Inputs::Fleet { pipeline, .. }, Raw::Fleet(runs)) => {
            let placer = OnlinePlacer::new(pipeline).with_threshold(PLACEMENT_THRESHOLD)?;
            for run in runs {
                let weights = run.plane.weights();
                for class in 0..pipeline.clusters() {
                    for group in 0..HBM_GROUPS {
                        t.span(Layer::CollocateFleet, "place_class_topo", |_| {
                            placer.place_class_topo(class, run.plane.state(), group, &weights)
                        })?;
                    }
                }
            }
        }
        (Inputs::Stressed(replicas), Raw::Stressed(..)) => {
            let opts = stress_opts(seed)?;
            for r in replicas {
                t.span(Layer::CoreOverload, "serve_design_stressed/null", |_| {
                    serve_design_stressed(
                        Design::V10Full,
                        &r.schedule,
                        cfg,
                        &opts,
                        &r.plan,
                        OverloadController::armed(OverloadPolicy::default()),
                    )
                })?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Re-runs one iteration's engine calls through their observed entry
/// points with a [`CounterObserver`] per call, and returns the counts with
/// the run, so the caller can check it matches the unobserved digest.
pub fn count<'a>(inputs: &'a Inputs, cfg: &NpuConfig, seed: u64) -> V10Result<(Raw<'a>, Counts)> {
    let mut counts = Counts::default();
    let mut observe = |r: V10Result<RunReport>, c: &CounterObserver| {
        let r = r?;
        counts.add(c);
        counts.sim_cycles += r.elapsed_cycles();
        Ok::<_, v10_sim::V10Error>(r)
    };
    let raw = match inputs {
        Inputs::Pairs(pairs) => {
            let opts = RunOptions::new(PAIR_REQUESTS)?.with_seed(seed);
            let single_opts = RunOptions::new(PAIR_REQUESTS)?;
            let mut runs = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let mut single = |spec: &WorkloadSpec| {
                    let mut c = CounterObserver::new();
                    let r = run_pmt_observed(std::slice::from_ref(spec), cfg, &single_opts, &mut c);
                    observe(r, &c)
                };
                let singles = [single(&pair.specs[0])?, single(&pair.specs[1])?];
                let mut designs = Vec::with_capacity(Design::ALL.len());
                for d in Design::ALL {
                    let mut c = CounterObserver::new();
                    let r = match d {
                        Design::Pmt => run_pmt_observed(&pair.specs, cfg, &opts, &mut c),
                        Design::V10Base => V10Engine::new(*cfg, Policy::RoundRobin, false)
                            .run_observed(&pair.specs, &opts, &mut c),
                        Design::V10Fair => V10Engine::new(*cfg, Policy::Priority, false)
                            .run_observed(&pair.specs, &opts, &mut c),
                        Design::V10Full => V10Engine::new(*cfg, Policy::Priority, true)
                            .run_observed(&pair.specs, &opts, &mut c),
                    };
                    designs.push(observe(r, &c)?);
                }
                runs.push(PairRun { singles, designs });
            }
            Raw::Pairs(runs)
        }
        Inputs::Serve { schedule, .. } => {
            let mut c = CounterObserver::new();
            let r = V10Engine::new(*cfg, Policy::Priority, true).serve_observed(
                schedule,
                &dense_opts(seed)?,
                &mut c,
            );
            Raw::Serve(Box::new(observe(r, &c)?))
        }
        Inputs::Fleet { streams, pipeline } => {
            let opts = RunOptions::new(1)?.with_seed(seed);
            let mut runs = Vec::with_capacity(streams.len());
            for arrivals in streams {
                let mut plane = fleet_plane(pipeline)?;
                let mut c = CounterObserver::new();
                let (report, outcome) = plane.serve_faulted_observed(
                    arrivals,
                    Design::V10Full,
                    cfg,
                    &opts,
                    &FleetFaultPlan::none(),
                    &RecoveryPolicy::new(),
                    &mut c,
                )?;
                counts.add(&c);
                counts.sim_cycles += report
                    .per_core()
                    .iter()
                    .flatten()
                    .map(RunReport::elapsed_cycles)
                    .sum::<f64>();
                runs.push(FleetRun {
                    plane,
                    report,
                    outcome,
                });
            }
            Raw::Fleet(runs)
        }
        Inputs::Stressed(replicas) => {
            let opts = stress_opts(seed)?;
            let mut out = Vec::with_capacity(replicas.len());
            for r in replicas {
                let mut c = CounterObserver::new();
                let report = serve_design_stressed_observed(
                    Design::V10Full,
                    &r.schedule,
                    cfg,
                    &opts,
                    &r.plan,
                    OverloadController::armed(OverloadPolicy::default()),
                    &mut c,
                );
                // The oracle's verdict belongs to the audited iteration;
                // the counted run is checked against its digest instead.
                out.push((observe(report, &c)?, Vec::new()));
            }
            Raw::Stressed(out)
        }
    };
    Ok((raw, counts))
}

/// The digest words of an iteration: every simulated figure as raw bits,
/// via [`run_digest`] for each engine run. The fleet's layout-dependent
/// scan counter is left out, so a placement index keeps the digest.
pub fn digest(raw: &Raw<'_>) -> Vec<u64> {
    let mut words = Vec::new();
    match raw {
        Raw::Pairs(runs) => {
            for run in runs {
                for r in run.singles.iter().chain(&run.designs) {
                    words.extend(run_digest(r));
                }
            }
        }
        Raw::Serve(r) => words.extend(run_digest(r)),
        Raw::Stressed(runs) => {
            for (r, _) in runs {
                words.extend(run_digest(r));
            }
        }
        Raw::Fleet(runs) => {
            for FleetRun {
                report, outcome, ..
            } in runs
            {
                for (core, r) in report.per_core().iter().enumerate() {
                    if let Some(r) = r {
                        words.push(core as u64);
                        words.extend(run_digest(r));
                    }
                }
                words.extend([
                    outcome.offered() as u64,
                    outcome.placed() as u64,
                    outcome.rejected() as u64,
                    outcome.epochs(),
                    outcome.departures().len() as u64,
                ]);
            }
        }
    }
    words
}

/// The correctness checks beyond the digest; one line per violation.
pub fn violations(inputs: &Inputs, raw: &Raw<'_>) -> Vec<String> {
    let mut out = Vec::new();
    match (inputs, raw) {
        (Inputs::Pairs(_), Raw::Pairs(runs)) => {
            for r in runs
                .iter()
                .flat_map(|run| run.singles.iter().chain(&run.designs))
            {
                for wl in r.workloads() {
                    if wl.completed_requests() < PAIR_REQUESTS {
                        out.push(format!(
                            "{} completed {} requests, fewer than {PAIR_REQUESTS}",
                            wl.label(),
                            wl.completed_requests()
                        ));
                    }
                }
            }
        }
        (Inputs::Serve { arrivals, .. }, Raw::Serve(r)) => {
            out.extend(check_serve_invariants(r, arrivals.len()));
        }
        (Inputs::Fleet { .. }, Raw::Fleet(runs)) => {
            for FleetRun {
                plane,
                report,
                outcome,
            } in runs
            {
                out.extend(fleet_violations(plane, report, outcome));
            }
        }
        (Inputs::Stressed(_), Raw::Stressed(runs)) => {
            for (core, (_, v)) in runs.iter().enumerate() {
                out.extend(v.iter().map(|v| format!("replica {core}: {v}")));
            }
        }
        _ => out.push("iteration output does not match its inputs".to_string()),
    }
    out
}

/// [`FleetConservation`] over one fleet serve, plus the plane's promise
/// that the engine never rejects a tenant the plane admitted.
fn fleet_violations(
    plane: &FleetPlane<'_>,
    report: &ClusterServeReport,
    outcome: &FleetOutcome,
) -> Vec<String> {
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    auditor.record_departures(plane.state().cores(), outcome.departures());
    auditor.reconcile();
    let mut out = auditor.violations().to_vec();
    if outcome.engine_rejections() != 0 {
        out.push(format!(
            "engine rejected {} plane-admitted tenants",
            outcome.engine_rejections()
        ));
    }
    out
}

/// SLO bound of a model's requests, in cycles.
fn slo_cycles(model: Model) -> f64 {
    SLO_FACTOR * model.default_profile().request_cycles() as f64
}

/// Tallies latencies against per-label SLOs.
#[derive(Default)]
struct Tally {
    latencies: Vec<f64>,
    within_slo: usize,
}

impl Tally {
    fn add(&mut self, r: &RunReport, model_of: impl Fn(&str) -> Option<Model>) {
        for wl in r.workloads() {
            let bound = model_of(wl.label()).map_or(f64::INFINITY, slo_cycles);
            self.latencies.extend_from_slice(wl.latencies_cycles());
            self.within_slo += wl
                .latencies_cycles()
                .iter()
                .filter(|&&l| l <= bound)
                .count();
        }
    }

    fn p99_mcyc(&self) -> f64 {
        LatencySummary::from_samples(&self.latencies).map_or(0.0, |s| s.p99()) / 1.0e6
    }
}

fn arrival_model(arrivals: &[TimedArrival]) -> impl Fn(&str) -> Option<Model> + '_ {
    |label| {
        arrivals
            .iter()
            .find(|a| a.label() == label)
            .map(TimedArrival::model)
    }
}

/// The simulated end-to-end figures of an iteration. On `pairs_closed`
/// they describe the eleven V10-Full runs.
pub fn sim_figures(inputs: &Inputs, raw: &Raw<'_>) -> SimFigures {
    let mut tally = Tally::default();
    let (elapsed, boarded, offered) = match (inputs, raw) {
        (Inputs::Pairs(pairs), Raw::Pairs(runs)) => {
            let mut elapsed = 0.0;
            let mut boarded = 0;
            for (pair, run) in pairs.iter().zip(runs) {
                let full = &run.designs[V10_FULL];
                tally.add(full, |label| {
                    pair.models.into_iter().find(|m| m.abbrev() == label)
                });
                elapsed += full.elapsed_cycles();
                boarded += full.workloads().len();
            }
            (elapsed, boarded, 2 * pairs.len())
        }
        (Inputs::Serve { arrivals, .. }, Raw::Serve(r)) => {
            tally.add(r, arrival_model(arrivals));
            (r.elapsed_cycles(), r.workloads().len(), arrivals.len())
        }
        (Inputs::Stressed(replicas), Raw::Stressed(runs)) => {
            let (mut elapsed, mut boarded, mut offered) = (0.0, 0, 0);
            for (replica, (r, _)) in replicas.iter().zip(runs) {
                tally.add(r, arrival_model(&replica.arrivals));
                elapsed += r.elapsed_cycles();
                boarded += r.workloads().len();
                offered += replica.arrivals.len();
            }
            (elapsed, boarded, offered)
        }
        (Inputs::Fleet { streams, .. }, Raw::Fleet(runs)) => {
            // Each fleet's span is its makespan: the latest completion on
            // any of its cores.
            let (mut span, mut placed, mut offered) = (0.0, 0, 0);
            for (arrivals, run) in streams.iter().zip(runs) {
                let mut makespan = 0.0f64;
                for r in run.report.per_core().iter().flatten() {
                    tally.add(r, arrival_model(arrivals));
                    makespan = makespan.max(r.elapsed_cycles());
                }
                span += makespan;
                placed += run.outcome.placed();
                offered += run.outcome.offered();
            }
            (span, placed, offered)
        }
        _ => (0.0, 0, 0),
    };
    SimFigures {
        p99_mcyc: tally.p99_mcyc(),
        goodput_per_mcyc: if elapsed > 0.0 {
            tally.within_slo as f64 * 1.0e6 / elapsed
        } else {
            0.0
        },
        admitted_frac: if offered > 0 {
            boarded as f64 / offered as f64
        } else {
            0.0
        },
    }
}

/// The work counters of an iteration.
pub fn work(raw: &Raw<'_>) -> Work {
    let mut w = Work::default();
    match raw {
        Raw::Pairs(runs) => {
            for r in runs
                .iter()
                .flat_map(|run| run.singles.iter().chain(&run.designs))
            {
                w.add(r);
            }
        }
        Raw::Serve(r) => w.add(r),
        Raw::Stressed(runs) => runs.iter().for_each(|(r, _)| w.add(r)),
        Raw::Fleet(runs) => {
            for run in runs {
                run.report
                    .per_core()
                    .iter()
                    .flatten()
                    .for_each(|r| w.add(r));
                w.core_scans += run.outcome.rebuild_core_scans();
                w.epochs += run.outcome.epochs();
            }
        }
    }
    w
}

/// Geomean V10-Full ÷ PMT system throughput and aggregate compute
/// utilisation over a `pairs_closed` iteration.
pub fn paper_gains(raw: &Raw<'_>) -> Option<PaperGains> {
    let Raw::Pairs(runs) = raw else {
        return None;
    };
    let mut stp_log = 0.0;
    let mut util_log = 0.0;
    for run in runs {
        let singles: Vec<f64> = run
            .singles
            .iter()
            .map(|r| r.workloads()[0].avg_latency_cycles())
            .collect();
        let stp = |r: &RunReport| r.system_throughput(&singles);
        stp_log += (stp(&run.designs[V10_FULL]) / stp(&run.designs[PMT])).ln();
        util_log += (run.designs[V10_FULL].aggregate_compute_util()
            / run.designs[PMT].aggregate_compute_util())
        .ln();
    }
    let n = runs.len() as f64;
    Some(PaperGains {
        stp: (stp_log / n).exp(),
        util: (util_log / n).exp(),
    })
}
