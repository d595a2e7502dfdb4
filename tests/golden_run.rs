//! Golden-run regression test: a fixed pair (BERT seed 5 + DLRM seed 6,
//! 4 requests, default engine seed) through single-tenant and all four
//! executors must reproduce bit-identical `RunReport`s across refactors.
//!
//! The constants were captured from the engine as of the event-loop
//! unification; every f64 is compared by exact bit pattern, so any change
//! to scheduling order, accounting order, or RNG consumption shows up as a
//! failure here rather than as a silent drift in the figures.

use v10::core::{
    run_design, run_single_tenant, serve_design, serve_design_stressed, Admission,
    AdmissionSchedule, Design, OverloadController, RunOptions, RunReport, WorkloadSpec,
};
use v10::npu::NpuConfig;
use v10::sim::{FaultKind, FaultPlan};
use v10::workloads::{Model, OpenLoopProcess};

fn digest(r: &RunReport) -> Vec<u64> {
    let mut d = vec![
        r.elapsed_cycles().to_bits(),
        r.sa_busy_cycles().to_bits(),
        r.vu_busy_cycles().to_bits(),
        r.switch_overhead_cycles().to_bits(),
        r.overlap().both.to_bits(),
        r.overlap().sa_only.to_bits(),
        r.overlap().vu_only.to_bits(),
        r.overlap().idle.to_bits(),
        r.hbm_util().to_bits(),
    ];
    for wl in r.workloads() {
        d.push(wl.completed_requests() as u64);
        d.push(wl.preemptions());
        d.push(wl.busy_sa_cycles().to_bits());
        d.push(wl.busy_vu_cycles().to_bits());
        d.push(wl.hbm_bytes().to_bits());
        d.push(wl.switch_overhead_cycles().to_bits());
        for &lat in wl.latencies_cycles() {
            d.push(lat.to_bits());
        }
    }
    d
}

const GOLDEN: [u64; 258] = [
    0x4190b33f30f83e10,
    0x418896df80000000,
    0x41557f3400000000,
    0x0000000000000000,
    0x0000000000000000,
    0x418896df80000000,
    0x41557f3400000000,
    0x41687ee187c1f080,
    0x3fd32fff3b7220b6,
    0x0000000000000004,
    0x0000000000000000,
    0x418896df80000000,
    0x41557f3400000000,
    0x420270b013000000,
    0x0000000000000000,
    0x4170b33f30f83e10,
    0x4170b33f30f83e10,
    0x4170b33f30f83e10,
    0x4170b33f30f83e10,
    0x41555c1800000000,
    0x41216e8000000000,
    0x4145633400000000,
    0x0000000000000000,
    0x0000000000000000,
    0x41216e8000000000,
    0x4145633400000000,
    0x4140f95c00000000,
    0x3fdedb3682116bd6,
    0x0000000000000004,
    0x0000000000000000,
    0x41216e8000000000,
    0x4145633400000000,
    0x41d2f6d976000000,
    0x0000000000000000,
    0x41355c1800000000,
    0x41355c1800000000,
    0x41355c1800000000,
    0x41355c1800000000,
    0x41a0bfeb513f9cb4,
    0x418bee0740000000,
    0x41830fda50000000,
    0x413f624500000000,
    0x0000000000000000,
    0x418bee0740000000,
    0x41830fda50000000,
    0x418401cbb4fe72d0,
    0x3fd8a1b4aab14511,
    0x0000000000000004,
    0x0000000000000031,
    0x418896df80000000,
    0x41557f3400000000,
    0x420270b013000000,
    0x413043cb00000000,
    0x41808fa158000000,
    0x418097b0acfe72d0,
    0x4181414ccb018d30,
    0x4180970e74fe72d0,
    0x0000000000000031,
    0x0000000000000031,
    0x415ab93e00000000,
    0x41805ff3d0000000,
    0x420d0b77f8abc05f,
    0x412e3cf400000000,
    0x41458dee80000000,
    0x4145a10800000000,
    0x4145af9d00000000,
    0x4145bd6a00000000,
    0x41459b2d00000000,
    0x414598f680000000,
    0x4145aac000000000,
    0x4145b76280000000,
    0x4145a76b00000000,
    0x41459c9b00000000,
    0x4145c30a80000000,
    0x4145c06400000000,
    0x4145acf600000000,
    0x4145ba0a00000000,
    0x4145b2f280000000,
    0x4145b38780000000,
    0x4145bce180000000,
    0x4145adad80000000,
    0x4145b69f00000000,
    0x4145a79400000000,
    0x4145a0b180000000,
    0x4145aeb000000000,
    0x4145abcb00000000,
    0x4145bdaa00000000,
    0x41459d6000000000,
    0x4145b0b600000000,
    0x4145aa7780000000,
    0x41459c0d00000000,
    0x4145b3e680000000,
    0x4145b0d580000000,
    0x4145a12300000000,
    0x4145b1dd80000000,
    0x4145acf080000000,
    0x4145b31c00000000,
    0x4145bda680000000,
    0x4145ab6880000000,
    0x4145a34c00000000,
    0x4145aaeb80000000,
    0x4145aee200000000,
    0x4145ad0880000000,
    0x4145ace200000000,
    0x4145a76400000000,
    0x4145bce900000000,
    0x4145bf5980000000,
    0x4145b46900000000,
    0x4145b55100000000,
    0x4145952500000000,
    0x4145b2d380000000,
    0x4145aa0a00000000,
    0x4190cc6bb2fe25b4,
    0x4189a2b275de1e62,
    0x416ee97f445934e3,
    0x0000000000000000,
    0x4150810e078a04a1,
    0x41879290b4ecddc1,
    0x4166a8f840943293,
    0x41525f36ffc90312,
    0x3fdbaac15249f1b5,
    0x0000000000000004,
    0x0000000000000000,
    0x418896df80000007,
    0x415632a3afe25aed,
    0x420270b012fffffa,
    0x0000000000000000,
    0x4170d15c596c4ad3,
    0x4170c77b0c900093,
    0x4170d15c596c4ae4,
    0x4170c77b0c900086,
    0x000000000000000e,
    0x0000000000000000,
    0x4140bd2f5de1e57a,
    0x4163d02d6c68076e,
    0x41f09c9674a00000,
    0x0000000000000000,
    0x415181ea4cadf2fc,
    0x415344d6595b284e,
    0x41552d2a8c9b4646,
    0x41514fe1ffcfeab8,
    0x4152ddb225ef7da0,
    0x4153a289bfd4e928,
    0x4154419bffb87a88,
    0x4151dfa2ccadf338,
    0x415344d6595b2838,
    0x41552d2a8c9b4668,
    0x41514fe1ffcfeab8,
    0x4152ddb225ef7da8,
    0x4153a289bfd4e920,
    0x4154419bffb87a50,
    0x4190cc6bb2fe25b4,
    0x4189a2b275de1e62,
    0x416ee97f445934e3,
    0x0000000000000000,
    0x4150810e078a04a1,
    0x41879290b4ecddc1,
    0x4166a8f840943293,
    0x41525f36ffc90312,
    0x3fdbaac15249f1b5,
    0x0000000000000004,
    0x0000000000000000,
    0x418896df80000007,
    0x415632a3afe25aed,
    0x420270b012fffffa,
    0x0000000000000000,
    0x4170d15c596c4ad3,
    0x4170c77b0c900093,
    0x4170d15c596c4ae4,
    0x4170c77b0c900086,
    0x000000000000000e,
    0x0000000000000000,
    0x4140bd2f5de1e57a,
    0x4163d02d6c68076e,
    0x41f09c9674a00000,
    0x0000000000000000,
    0x415181ea4cadf2fc,
    0x415344d6595b284e,
    0x41552d2a8c9b4646,
    0x41514fe1ffcfeab8,
    0x4152ddb225ef7da0,
    0x4153a289bfd4e928,
    0x4154419bffb87a88,
    0x4151dfa2ccadf338,
    0x415344d6595b2838,
    0x41552d2a8c9b4668,
    0x41514fe1ffcfeab8,
    0x4152ddb225ef7da8,
    0x4153a289bfd4e920,
    0x4154419bffb87a50,
    0x41920b69b76196ee,
    0x418ba0738e9a4b7a,
    0x418343b66e3e09b5,
    0x4103600000000000,
    0x417a77124ae8729f,
    0x417cc9d4d24c23c0,
    0x416820b523274111,
    0x41537194baf89126,
    0x3fe54dc711611593,
    0x0000000000000004,
    0x0000000000000226,
    0x418896df80000030,
    0x4156155df57d6a09,
    0x420270b012ffffe0,
    0x4103600000000000,
    0x4172124055ecb126,
    0x417208b3e8fe516c,
    0x41720fc88a20e1ea,
    0x417202ea147a773c,
    0x000000000000002b,
    0x0000000000000000,
    0x41584ca074d25a07,
    0x4180810aaf8e5c63,
    0x4209cdedc4b00001,
    0x0000000000000000,
    0x4139c1dadc641b71,
    0x413b3b929b8d82c9,
    0x4139c46d646f419e,
    0x413a0e402ad74554,
    0x413a11ed2f1448cc,
    0x413aa71d33035c98,
    0x413b38b5731324b8,
    0x413b0000000a4280,
    0x41397ffffff51e08,
    0x413a62ace6c7ca50,
    0x413ac068e67a2040,
    0x4139dcea32bfe110,
    0x413b076c37a15010,
    0x413af893c85b7460,
    0x413afffffffa2230,
    0x413a7ffffffab4e0,
    0x413b000000116060,
    0x413a62312398e8b0,
    0x41399dcedc6d31c0,
    0x413a1978b7cedc00,
    0x413ae68748294180,
    0x413a7ffffffc2ac0,
    0x413a80000002a180,
    0x413b7fffffef3c20,
    0x413a8000000d8840,
    0x413a7ffffffa2220,
    0x413afffffffab560,
    0x413b000000115fc0,
    0x413a800000076180,
    0x4139fffffffeb920,
    0x4139ffffffe0d180,
    0x413b000000174c00,
    0x413b7ffffffc2ac0,
    0x413a25f1611106c0,
    0x413b068ec28d7f40,
    0x4139f3c8e6ca54e0,
    0x413a99035d8bdee0,
    0x413a93ecd14c12e0,
    0x413a32c6c6c4d120,
    0x413a800000076100,
    0x413a73a5669af9c0,
    0x4139828b06507a00,
    0x413a89cf930b6240,
];

#[test]
fn bert_dlrm_runs_are_bit_identical_to_golden() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let bert = WorkloadSpec::new("BERT", Model::Bert.default_profile().synthesize(5));
    let dlrm = WorkloadSpec::new("DLRM", Model::Dlrm.default_profile().synthesize(6));
    let specs = [bert.clone(), dlrm.clone()];

    let mut all = Vec::new();
    all.extend(digest(&run_single_tenant(&bert, &cfg, 4).unwrap()));
    all.extend(digest(&run_single_tenant(&dlrm, &cfg, 4).unwrap()));
    for d in Design::ALL {
        all.extend(digest(&run_design(d, &specs, &cfg, &opts).unwrap()));
    }

    assert_eq!(all.len(), GOLDEN.len(), "digest layout changed");
    for (i, (got, want)) in all.iter().zip(GOLDEN.iter()).enumerate() {
        assert_eq!(
            got,
            want,
            "digest[{i}] drifted: got 0x{got:016x} ({}), want 0x{want:016x} ({})",
            f64::from_bits(*got),
            f64::from_bits(*want)
        );
    }
}

/// One open-loop serving schedule: a seeded Poisson tenant stream over four
/// light models, mirroring the `serving_openloop` bench at a single load
/// point.
fn openloop_schedule() -> AdmissionSchedule {
    const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
    let process = OpenLoopProcess::new(&MODELS, 5.0e6, 0xC0FFEE)
        .unwrap()
        .with_requests_per_session(3)
        .unwrap()
        .with_think_cycles(2.5e5)
        .unwrap();
    let admissions: Vec<Admission> = process
        .sample(12)
        .unwrap()
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .unwrap()
        })
        .collect();
    AdmissionSchedule::new(admissions).unwrap()
}

fn serve_digest(design: Design) -> Vec<u64> {
    let schedule = openloop_schedule();
    let opts = RunOptions::new(3).unwrap().with_seed(7);
    digest(&serve_design(design, &schedule, &NpuConfig::table5(), &opts).unwrap())
}

/// The open-loop serving path must be byte-identical no matter how many
/// threads the work is spread across — the property the bench harness's
/// `V10_BENCH_THREADS` knob relies on. Runs every design sequentially,
/// then fans the same runs out over 2- and 4-thread pools, and compares
/// every digest bit for bit.
#[test]
fn openloop_serving_is_bit_identical_across_thread_counts() {
    let sequential: Vec<Vec<u64>> = Design::ALL.iter().map(|&d| serve_digest(d)).collect();
    assert!(
        sequential.iter().any(|d| d.iter().any(|&b| b != 0)),
        "serving produced an all-zero digest; the schedule did nothing"
    );

    for threads in [2usize, 4] {
        let mut parallel: Vec<Option<Vec<u64>>> = vec![None; Design::ALL.len()];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk_start in (0..Design::ALL.len()).step_by(threads.max(1)) {
                let chunk: Vec<usize> =
                    (chunk_start..(chunk_start + threads).min(Design::ALL.len())).collect();
                handles.push(scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|i| (i, serve_digest(Design::ALL[i])))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                for (i, d) in h.join().expect("serving thread panicked") {
                    parallel[i] = Some(d);
                }
            }
        });
        for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
            let par = par.as_ref().expect("every design served");
            assert_eq!(
                seq,
                par,
                "{:?} digest diverged between sequential and {threads}-thread runs",
                Design::ALL[i]
            );
        }
    }
}

/// A fixed fault drill for the open-loop schedule: a seeded Poisson stream
/// of transient operator corruptions, one scripted whole-core stall early
/// on, and a permanent core retirement late enough that most tenants have
/// boarded first.
fn drill_plan() -> FaultPlan {
    FaultPlan::none()
        .with_poisson_transients(0xBAD_F00D, 6.0e6, 2.0e8)
        .unwrap()
        .with_fault(
            4.0e6,
            FaultKind::CoreStall {
                stall_cycles: 50_000.0,
            },
        )
        .unwrap()
        .with_fault(3.0e7, FaultKind::CoreRetire)
        .unwrap()
}

/// Digest of a faulted serving run: the plain report digest plus the
/// fault-specific accounting, so recovery bookkeeping is pinned bit for
/// bit too.
fn faulted_digest(design: Design, plan: &FaultPlan) -> Vec<u64> {
    let schedule = openloop_schedule();
    let opts = RunOptions::new(3).unwrap().with_seed(7);
    let report = serve_design_stressed(
        design,
        &schedule,
        &NpuConfig::table5(),
        &opts,
        plan,
        OverloadController::disarmed(),
    )
    .unwrap();
    let mut d = digest(&report);
    d.push(report.replay_overhead_cycles().to_bits());
    d.push(report.faults_injected());
    d.push(report.core_retired_at().unwrap_or(-1.0).to_bits());
    for wl in report.workloads() {
        d.push(wl.replays());
        d.push(wl.replay_overhead_cycles().to_bits());
    }
    d
}

/// Fault injection must be (a) inert when the plan is empty — bit-identical
/// to the plain serving path — and (b) deterministic when armed, with the
/// same digests no matter how many threads the designs are spread across.
#[test]
fn faulted_openloop_serving_is_bit_identical_across_thread_counts() {
    // (a) A zero-fault plan changes nothing, for every design.
    for &design in &Design::ALL {
        let faulted = faulted_digest(design, &FaultPlan::none());
        let plain = serve_digest(design);
        assert_eq!(
            faulted[..plain.len()],
            plain,
            "{design:?}: a disarmed injector perturbed the run"
        );
        assert_eq!(faulted[plain.len()], 0.0_f64.to_bits(), "replay overhead");
        assert_eq!(faulted[plain.len() + 1], 0, "faults injected");
    }

    // (b) The armed drill actually perturbs the runs...
    let plan = drill_plan();
    let sequential: Vec<Vec<u64>> = Design::ALL
        .iter()
        .map(|&d| faulted_digest(d, &plan))
        .collect();
    for (i, d) in sequential.iter().enumerate() {
        assert_ne!(
            d[..serve_digest(Design::ALL[i]).len()],
            serve_digest(Design::ALL[i]),
            "{:?}: the fault drill left the run untouched",
            Design::ALL[i]
        );
    }

    // ...and replays deterministically across thread counts.
    for threads in [2usize, 4] {
        let mut parallel: Vec<Option<Vec<u64>>> = vec![None; Design::ALL.len()];
        std::thread::scope(|scope| {
            let plan = &plan;
            let mut handles = Vec::new();
            for chunk_start in (0..Design::ALL.len()).step_by(threads.max(1)) {
                let chunk: Vec<usize> =
                    (chunk_start..(chunk_start + threads).min(Design::ALL.len())).collect();
                handles.push(scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|i| (i, faulted_digest(Design::ALL[i], plan)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                for (i, d) in h.join().expect("faulted serving thread panicked") {
                    parallel[i] = Some(d);
                }
            }
        });
        for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
            let par = par.as_ref().expect("every design served");
            assert_eq!(
                seq,
                par,
                "{:?} faulted digest diverged between sequential and {threads}-thread runs",
                Design::ALL[i]
            );
        }
    }
}
