//! Pinned golden-run digests for the event-spine determinism contract.
//!
//! The event-spine refactor (calendar-driven stepping, interned labels,
//! batched observer dispatch) is a pure restructuring: every run must
//! produce bit-identical results to the pre-refactor min-scan engines.
//! This test pins that contract. [`GOLDEN`] holds every `f64` a
//! representative evaluation can print — run lengths, busy/overlap
//! cycles, per-workload averages, switch overheads, and every raw
//! request latency — captured from the pre-refactor tree, `to_bits()`
//! exact. The jobs cover all four executors over collocation pairs
//! (fig18 path), an open-loop serving schedule (admission, parking,
//! shedding), and a faulted serving run (scripted + Poisson faults with
//! checkpoint-replay recovery), executed under 1-, 2-, and 4-thread
//! pools to prove the digests do not depend on the worker pool shape.
//!
//! Regenerate (after an *intentional* semantic change only) with:
//!
//! ```sh
//! V10_PRINT_GOLDEN=1 cargo test -p v10-bench --test golden_run -- --nocapture
//! ```

use v10_bench::sweep::parallel_map_with;
use v10_core::{
    run_design, serve_design, serve_design_stressed, Admission, AdmissionSchedule, Design,
    FaultKind, FaultPlan, OverloadController, RunOptions, RunReport, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_workloads::{Model, OpenLoopProcess};

/// Every `f64` a sweep can print, down to the last bit (the same digest
/// the parallel-sweep determinism test uses).
fn digest(r: &RunReport) -> Vec<u64> {
    let mut d = vec![
        r.elapsed_cycles().to_bits(),
        r.sa_busy_cycles().to_bits(),
        r.vu_busy_cycles().to_bits(),
        r.overlap().both.to_bits(),
    ];
    for w in r.workloads() {
        d.push(w.avg_latency_cycles().to_bits());
        d.push(w.switch_overhead_cycles().to_bits());
        d.extend(w.latencies_cycles().iter().map(|l| l.to_bits()));
    }
    d
}

/// The fig18-style collocation pairs: each job runs one design over one
/// two-tenant pair.
fn pair_specs() -> Vec<[WorkloadSpec; 2]> {
    [(Model::Bert, Model::Ncf), (Model::Dlrm, Model::Mnist)]
        .iter()
        .map(|&(a, b)| {
            [
                WorkloadSpec::new(a.abbrev(), a.default_profile().synthesize(11)),
                WorkloadSpec::new(b.abbrev(), b.default_profile().synthesize(12)),
            ]
        })
        .collect()
}

/// An open-loop serving schedule exercising admission, parking, and
/// SLO shedding: Poisson session arrivals over the four light models.
fn serving_schedule() -> AdmissionSchedule {
    let models = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
    let process = OpenLoopProcess::new(&models, 3.5e6, 2023 ^ 0x7)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(3)
        .expect("positive session quota")
        .with_think_cycles(2.5e5)
        .expect("non-negative think time");
    let arrivals = process.sample(12).expect("non-zero arrival count");
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

/// Scripted + stochastic faults over the serving horizon: one transient
/// operator corruption, one whole-core stall, and a Poisson transient
/// stream, each paying the design's own recovery cost.
fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .with_fault(2.0e6, FaultKind::TransientOp { victim_salt: 7 })
        .expect("valid scripted fault")
        .with_fault(
            4.0e6,
            FaultKind::CoreStall {
                stall_cycles: 5.0e4,
            },
        )
        .expect("valid scripted stall")
        .with_poisson_transients(11, 3.0e6, 2.0e7)
        .expect("valid transient stream")
}

/// One golden job: a design crossed with one of the run shapes.
enum Job {
    Pair(Design, [WorkloadSpec; 2]),
    Serve(Design),
    ServeFaulted(Design),
}

fn jobs() -> Vec<Job> {
    let pairs = pair_specs();
    let mut jobs = Vec::new();
    for &design in Design::ALL.iter() {
        for specs in &pairs {
            jobs.push(Job::Pair(design, specs.clone()));
        }
        jobs.push(Job::Serve(design));
        jobs.push(Job::ServeFaulted(design));
    }
    jobs
}

fn run_job(job: &Job) -> Vec<u64> {
    let cfg = NpuConfig::table5();
    match job {
        Job::Pair(design, specs) => {
            let opts = RunOptions::new(2).expect("non-zero requests").with_seed(7);
            digest(&run_design(*design, specs, &cfg, &opts).expect("valid pair run"))
        }
        Job::Serve(design) => {
            let opts = RunOptions::new(3)
                .expect("non-zero requests")
                .with_seed(2023);
            digest(&serve_design(*design, &serving_schedule(), &cfg, &opts).expect("valid run"))
        }
        Job::ServeFaulted(design) => {
            let opts = RunOptions::new(3)
                .expect("non-zero requests")
                .with_seed(2023);
            digest(
                &serve_design_stressed(
                    *design,
                    &serving_schedule(),
                    &cfg,
                    &opts,
                    &fault_plan(),
                    OverloadController::disarmed(),
                )
                .expect("valid faulted run"),
            )
        }
    }
}

fn all_digests(threads: usize) -> Vec<u64> {
    parallel_map_with(threads, &jobs(), run_job)
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn golden_digests_pinned_across_thread_pools() {
    if std::env::var("V10_PRINT_GOLDEN").is_ok() {
        let bits = all_digests(1);
        println!("GOLDEN ({} words):", bits.len());
        for chunk in bits.chunks(4) {
            let line: Vec<String> = chunk.iter().map(|b| format!("0x{b:016x},")).collect();
            println!("    {}", line.join(" "));
        }
        return;
    }
    for threads in [1usize, 2, 4] {
        let bits = all_digests(threads);
        assert_eq!(
            bits.len(),
            GOLDEN.len(),
            "{threads}-thread pool: digest length diverged from the pinned golden run"
        );
        for (i, (got, want)) in bits.iter().zip(GOLDEN).enumerate() {
            assert_eq!(
                got, want,
                "{threads}-thread pool: digest word {i} diverged from the pinned golden run \
                 (got 0x{got:016x}, want 0x{want:016x})"
            );
        }
    }
}

/// Captured from the pre-refactor (min-scan) tree; see the module docs
/// for the regeneration recipe.
const GOLDEN: &[u64] = &[
    0x4190939264000000,
    0x417f7a8b80000000,
    0x41745bb800000000,
    0x0000000000000000,
    0x4180939264000000,
    0x411f2aa800000000,
    0x41809540f8000000,
    0x418091e3d0000000,
    0x4155aae2d309d385,
    0x411ccc8400000000,
    0x41558d446475ea47,
    0x4155ad6480000001,
    0x4155b899c0000000,
    0x4155aafac0000000,
    0x4155a90d80000000,
    0x4155abe080000000,
    0x4155a40640000000,
    0x4155ab47c0000000,
    0x41559eb140000000,
    0x4155c667c0000000,
    0x4155b195c0000000,
    0x4155a979bffffff8,
    0x4152bd1ac0000000,
    0x412fcad000000000,
    0x41412aa200000000,
    0x0000000000000000,
    0x4140249880000000,
    0x40e0966000000000,
    0x41355c1800000000,
    0x41459b2500000000,
    0x4142bd1ac0000000,
    0x40d31b0000000000,
    0x41427d3d80000000,
    0x4142fcf800000000,
    0x419bc7f268562e83,
    0x4182716940000000,
    0x418531a3a0000000,
    0x0000000000000000,
    0x4135a12c00000000,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x4135a12bfffffffe,
    0x4150af9ad8783475,
    0x40df4c8000000000,
    0x414e4a664ef1e0c5,
    0x4147f82dbf9cb3f6,
    0x4156ed8682215300,
    0x417b17ee16489587,
    0x410ad8d000000000,
    0x4167006525b38128,
    0x41847e22d0000000,
    0x417ccb5210000000,
    0x417cb99740000000,
    0x410cfc2800000000,
    0x417c657c5fffffff,
    0x4180ebb270000000,
    0x4177efe480000000,
    0x41701467119f68d2,
    0x40f91b2000000000,
    0x415e71789378e9dc,
    0x4175ae9c7fffffff,
    0x4172f23a90000000,
    0x417c34574e439351,
    0x410c295800000000,
    0x41817d432d655cfa,
    0x417c708260000000,
    0x417531fd30000000,
    0x41600cdc503eeb00,
    0x40e5b02000000000,
    0x4143075a42f30408,
    0x4165b0b7bffffffe,
    0x4165b406a0000000,
    0x417bcab95abf7370,
    0x410bbfe800000000,
    0x4180e46ef81f2d29,
    0x417c71b8a0000000,
    0x4175259580000000,
    0x4160fd995588c987,
    0x40e83d0000000000,
    0x414e8a5102697258,
    0x4165ac255ffffffe,
    0x4165aa1260000000,
    0x417beadd7144ef75,
    0x410d438800000000,
    0x4181192571e7672f,
    0x417c71f650000000,
    0x41751c5720000000,
    0x419bd149d0562e83,
    0x4182716940000000,
    0x41853454c10e4266,
    0x0000000000000000,
    0x4135e246aaaaaaab,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x4136647bfffffffe,
    0x4150d168f38272d9,
    0x40dfd18000000000,
    0x414ede8a5f609af5,
    0x4147f82dbf9cb3f6,
    0x415708decb08b114,
    0x417b24cdd6489587,
    0x410c918800000000,
    0x416747074f09b8a6,
    0x41847ed70daa7220,
    0x417ccd37c0000000,
    0x417cc7ce80000000,
    0x410dd28000000000,
    0x417c6d7d3fffffff,
    0x4180ea2c10000000,
    0x4178159620000000,
    0x41701598719f68d2,
    0x40f9bed000000000,
    0x415e88e39378e9dc,
    0x4175b10a5fffffff,
    0x4172ed8610000000,
    0x417c40cbd8ee3dfc,
    0x4109488800000000,
    0x41817f82b5655cfa,
    0x417c71b8f0000000,
    0x417551a530000000,
    0x4160116a45944055,
    0x40e49d6000000000,
    0x4143410f42f30408,
    0x4165a9273ffffffe,
    0x4165bad3c0000000,
    0x417bd72de56a1e1b,
    0x410c763000000000,
    0x4180e66a881f2d29,
    0x417c707960000000,
    0x4175483b40000000,
    0x416101abaade1edc,
    0x40e51a4000000000,
    0x414ea4e182697258,
    0x4165b1585ffffffe,
    0x4165aa7240000000,
    0x417bf751fbef9a20,
    0x410dcf6800000000,
    0x41811b4d01e7672f,
    0x417c70b9d0000000,
    0x41753ea220000000,
    0x418281c1d2b2a8fb,
    0x417efbe34e64833a,
    0x4172e6e72d3ce1f9,
    0x416bd2d106d85822,
    0x417281c1d2b2a8fb,
    0x0000000000000000,
    0x4172aaf7c6cc4965,
    0x4172588bde990891,
    0x414adb9f33a37f16,
    0x0000000000000000,
    0x4145f99be980c698,
    0x4148f59400000000,
    0x414c052f80000000,
    0x4149d3a500000000,
    0x414e481580000000,
    0x414b70dd00000000,
    0x41465f3100000000,
    0x41486b2d80000008,
    0x414b529a00000008,
    0x414b5cb427628008,
    0x4151ba99d39197a0,
    0x415f41fbc0000000,
    0x4148bb6180000000,
    0x4151d930c0000000,
    0x411b725800000000,
    0x414f41fbc0000000,
    0x0000000000000000,
    0x414e651a80000000,
    0x41500f6e80000000,
    0x41300f2bb6db6db7,
    0x0000000000000000,
    0x41300be400000000,
    0x41301b0400000000,
    0x4130059000000000,
    0x4130114200000000,
    0x41300be400000000,
    0x41301b0400000000,
    0x4130059000000000,
    0x418f1089712c2270,
    0x4185c996c8ad2fea,
    0x41882687e8dc643c,
    0x4181a9c15f942ae4,
    0x4136ab8cf5c73778,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x4138c04ee155a666,
    0x414b615c2aaaaaab,
    0x0000000000000000,
    0x414a276b7fffffff,
    0x4147ecd600000000,
    0x415007e980000000,
    0x415ecdab9fcc9bc7,
    0x0000000000000000,
    0x41587b781665bc9e,
    0x415a45dc750145b2,
    0x4164d3d729ff6882,
    0x4165e4fdb3beab88,
    0x0000000000000000,
    0x415bfafc80000000,
    0x416ba3d7fa5ef6d2,
    0x41680da2e0dd0bc4,
    0x415e956ae4a451b5,
    0x0000000000000000,
    0x415431911378e9dc,
    0x415edb2939461f08,
    0x416459c33096f61e,
    0x4167158e48cccd23,
    0x0000000000000000,
    0x41642fd95a47a49e,
    0x416a80623cbac284,
    0x4166906f43640044,
    0x4167a9230beccee5,
    0x0000000000000000,
    0x417132605b3240e0,
    0x41663423215d200c,
    0x415cc50a980995c8,
    0x4166478a94a43c59,
    0x0000000000000000,
    0x4165bc3bd304e2e8,
    0x4168361f3ec15bb0,
    0x4164e444ac267674,
    0x4166a3d498a451b3,
    0x0000000000000000,
    0x416ffc71b671a7c0,
    0x416390b162b345fc,
    0x41605e5ab0c8075c,
    0x4164ae6fd5540843,
    0x0000000000000000,
    0x416799910f8081cc,
    0x416524ba53591d88,
    0x41614d041d227974,
    0x41634eb0f282e0c5,
    0x0000000000000000,
    0x41680f2f8a25e580,
    0x4163c0d975345014,
    0x415c3813b05cd978,
    0x418f7e3e4da2de43,
    0x4185cf2ab5895c44,
    0x41882a3a0543c3fd,
    0x418163b8561f94c8,
    0x413618444b1c8ccd,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x41370674e155a666,
    0x414ba5745febf7a9,
    0x0000000000000000,
    0x414af3b41fc3e6fb,
    0x4147ecd600000000,
    0x415007e980000000,
    0x415d7af4bcf4b85f,
    0x0000000000000000,
    0x4159133b30ed1528,
    0x415b2d35c701034c,
    0x416218369f780854,
    0x4165627b1fa5cad3,
    0x0000000000000000,
    0x415de01c2c871624,
    0x4167f95d93800b98,
    0x41693e05b52dc9cc,
    0x416081c915541dc7,
    0x0000000000000000,
    0x4155680ec0000000,
    0x4161110082503870,
    0x4165c0535dac20e4,
    0x4166d58c30be4fcb,
    0x0000000000000000,
    0x416492113638ad4a,
    0x41693745c758de5c,
    0x4166b74d94a963bc,
    0x41679dafe1a564ef,
    0x0000000000000000,
    0x4172503b10abc174,
    0x4167711cf82b6514,
    0x41558ef916da8da0,
    0x4165ae1515a4119c,
    0x0000000000000000,
    0x41684ba32b464f0c,
    0x41654828347ab058,
    0x41637673e12b3570,
    0x4166b4fbb17c2083,
    0x0000000000000000,
    0x4171c0083bcd65bc,
    0x41654276e8153730,
    0x4156b8d76988bdc0,
    0x4164f0b740d0bfcb,
    0x0000000000000000,
    0x4167a2d4c2a28fd8,
    0x41669a1f482b2654,
    0x41609531b7a48934,
    0x4163e0f76dcbdb34,
    0x0000000000000000,
    0x4169ace2e34ec1f4,
    0x41647e32d32f7be0,
    0x415aefa125caa790,
    0x4182820142b2a8fb,
    0x417efbe34e64833a,
    0x4172e6f5a2671e87,
    0x416bcf80512cd13e,
    0x4172820142b2a8fb,
    0x0000000000000000,
    0x4172ab76a6cc4965,
    0x4172588bde990891,
    0x414adbfb7974f373,
    0x0000000000000000,
    0x4145f99be980c698,
    0x4148f59400000000,
    0x414be20400000000,
    0x4149d3a500000000,
    0x414e3e5600000000,
    0x414ba1bf00000000,
    0x41465f3100000000,
    0x41486b2d80000008,
    0x414b529a00000008,
    0x414b5cb427628008,
    0x4151ba99d39197a0,
    0x415f41fbc0000000,
    0x4148bb6180000000,
    0x4151d930c0000000,
    0x411b725800000000,
    0x414f41fbc0000000,
    0x0000000000000000,
    0x414e651a80000000,
    0x41500f6e80000000,
    0x41300f2bb6db6db7,
    0x0000000000000000,
    0x41300be400000000,
    0x41301b0400000000,
    0x4130059000000000,
    0x4130114200000000,
    0x41300be400000000,
    0x41301b0400000000,
    0x4130059000000000,
    0x418c47577d8f4990,
    0x4182ac805ff2dae0,
    0x418557e9a46b9249,
    0x417cd4503b6ae41e,
    0x4136ab8cf5c73778,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x4138c04ee155a666,
    0x414b615c2aaaaaab,
    0x0000000000000000,
    0x414a276b7fffffff,
    0x4147ecd600000000,
    0x415007e980000000,
    0x4166fccde92dc98b,
    0x0000000000000000,
    0x41587b781665bc9e,
    0x415e456caa24f506,
    0x4174cafbada201e6,
    0x4165f093312e90b8,
    0x0000000000000000,
    0x415c0cdf3523af54,
    0x416f867b00e759c0,
    0x416444cef81280bc,
    0x415858e1f0f24be8,
    0x0000000000000000,
    0x41531fcbc89c9930,
    0x4157ae972795b368,
    0x415e3c42e2a49720,
    0x41649081230b0cb1,
    0x0000000000000000,
    0x4167489db50538b6,
    0x41662234b41bed5c,
    0x416046b100000000,
    0x415809ffcb2c7093,
    0x0000000000000000,
    0x4155c55e2babb738,
    0x4156416b0377ea88,
    0x415c17363261aff8,
    0x4163e1bb7c02ccef,
    0x0000000000000000,
    0x4166f5ba91d7253c,
    0x41652e33a2314190,
    0x415f028880000000,
    0x415796f85f685d83,
    0x0000000000000000,
    0x415558caa50ffa0c,
    0x415891f0c881688c,
    0x4158da2db0a7b5f0,
    0x416374fe73b86fa1,
    0x0000000000000000,
    0x4166f938175d8150,
    0x41653d3103cbcd94,
    0x415c512480000000,
    0x418c2c1fb8143c7e,
    0x4182ac4f6c0afdad,
    0x418557f7fe518950,
    0x417d1018ba9f98ac,
    0x4136eca7a071e223,
    0x0000000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x4139839ee155a666,
    0x414b86e08a96a254,
    0x0000000000000000,
    0x414a97f89fc3e6fb,
    0x4147ecd600000000,
    0x415007e980000000,
    0x4166f7e261bbbdcb,
    0x0000000000000000,
    0x4158b64b70ed1528,
    0x415e11863523af54,
    0x4174c1df29156b92,
    0x4165efc429dfd4a0,
    0x0000000000000000,
    0x415c13cc1aa9c22c,
    0x416fb5586734522c,
    0x4164100e09164a9c,
    0x415821466ffd718b,
    0x0000000000000000,
    0x415326b8ae22ac08,
    0x4157b511cd78b6d4,
    0x415d8808d45cf1c4,
    0x416474aea666fb43,
    0x0000000000000000,
    0x416760ba93d5294e,
    0x41662ce75f5fc87c,
    0x415fa0d400000000,
    0x4157c83c264515e8,
    0x0000000000000000,
    0x415535330cb8be50,
    0x4155ccf41a979df0,
    0x415c568d4b7ee578,
    0x4163bd711f5ebb81,
    0x0000000000000000,
    0x41675cc961490b88,
    0x4165362afcd326fc,
    0x415d4abe00000000,
    0x415879b214c5d833,
    0x0000000000000000,
    0x4154ac55ea924598,
    0x4157939773fe85c8,
    0x415d2d28dfc0bd38,
    0x416350b417145e34,
    0x0000000000000000,
    0x4166f2b1a4b5d92c,
    0x4165149d60874170,
    0x415bd59a80000000,
    0x41848770c9b1b0f3,
    0x4180398a80000000,
    0x41762fdadbb75078,
    0x416e4ad7e171af7f,
    0x41748770c9b1b0f3,
    0x40e8300000000000,
    0x4174ddb210000000,
    0x4174312f836361e6,
    0x4148a00b4ec4ec4f,
    0x40e4700000000000,
    0x4149a68500000000,
    0x4148fbe680000000,
    0x4149da9800000000,
    0x41486939a5d2447c,
    0x41485f45da2dbb84,
    0x4148bb0000000000,
    0x414824cd00000000,
    0x4147f2cf80000000,
    0x4149bd4ba1b6a4c0,
    0x4148f4bc80000000,
    0x414816e4de495b40,
    0x414751799830d5d0,
    0x4147ee0ce7cf2a30,
    0x4151248fc0000000,
    0x413b804657e42cd6,
    0x4147a2b000000000,
    0x412806a4afc859ab,
    0x4141248fc0000000,
    0x0000000000000000,
    0x4140891f80000000,
    0x4141c00000000000,
    0x41311aa700000000,
    0x40be800000000000,
    0x4130f94f00000000,
    0x413142fa00000000,
    0x413113ac00000000,
    0x418e27b2b8000000,
    0x4182add4d15a8282,
    0x41855b61b0d8b626,
    0x417926b9d583ce52,
    0x41372cf04b1c8ccd,
    0x4084000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x413a4478e155a666,
    0x414b82e8f5143e54,
    0x409b000000000000,
    0x4149c7307fffffff,
    0x4147ecd600000000,
    0x41506a5a2f9e5d7e,
    0x416931560bab59b0,
    0x40da200000000000,
    0x41588fdf86041a1c,
    0x416490b01c34e428,
    0x41755db121e58dec,
    0x41683cdeff1a2ea3,
    0x40e6000000000000,
    0x415f689b7a9d17cc,
    0x41718bd590000000,
    0x4165eaa420000000,
    0x415a79ffdd2a36f5,
    0x40c6000000000000,
    0x415031320e1601a8,
    0x415183aad23445a0,
    0x4166dc915b9a2ecc,
    0x4167074fa64bfff0,
    0x40e6c80000000000,
    0x416a0b82cd28e492,
    0x4167cf64e5bb1b40,
    0x41633b0740000000,
    0x414c52d8bd64668b,
    0x4060000000000000,
    0x414e388a382d33a0,
    0x414c000d655c6b80,
    0x414abff29aa39480,
    0x41664ac31f43c02f,
    0x40e8700000000000,
    0x4169f95bddcb408c,
    0x416746ed80000000,
    0x4161a00000000000,
    0x414ccdd6682044a0,
    0x4080000000000000,
    0x414ec2362d6582d8,
    0x414a3649ca3e1f18,
    0x414d710340bd2bf0,
    0x4165f57816f962e1,
    0x40e9280000000000,
    0x416981ba84ec28a4,
    0x416794f200000000,
    0x4160c9bbc0000000,
    0x418e159810000000,
    0x4182aeecfa52663c,
    0x418561975626e5b3,
    0x41796772d5da9190,
    0x41377df5a071e223,
    0x4086000000000000,
    0x4135a12c00000000,
    0x4135a12c00000000,
    0x413b3788e155a666,
    0x414b7e5275143e54,
    0x409a000000000000,
    0x414a2e5a9fc3e6fb,
    0x4147ecd600000000,
    0x41502fe35fbc6a00,
    0x41691d6a0bab59b0,
    0x40d9800000000000,
    0x4158b64b70ed1528,
    0x4163b940719674d0,
    0x4175a1ebfc7a86d5,
    0x416818f549c4d94d,
    0x40e5680000000000,
    0x415e2017ba9d17cc,
    0x4171a79ac0000000,
    0x4165eb9e80000000,
    0x415a70368d618058,
    0x40c6000000000000,
    0x414fa2641c2c0350,
    0x415124e440000000,
    0x41672d46ad073fb0,
    0x4166d90e7ba15545,
    0x40e5880000000000,
    0x4169c5f4f44b4d8a,
    0x4167d2cc3e98b248,
    0x4162f26a40000000,
    0x414bbebf3033df50,
    0x4080000000000000,
    0x414c7de1ec7a7210,
    0x414c79061653bad0,
    0x414a45558dcd7110,
    0x41662f471f43c02f,
    0x40e6600000000000,
    0x416996325dcb408c,
    0x4167496e40000000,
    0x4161ae34c0000000,
    0x414c7c6a962be4fb,
    0x4074000000000000,
    0x414d041ff7a3a1f0,
    0x414b3a1400000000,
    0x414d370bcae00d00,
    0x4165dd548c4eb837,
    0x40e9100000000000,
    0x41698bf464ec28a4,
    0x4166f00000000000,
    0x41611c0940000000,
];
