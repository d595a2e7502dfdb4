//! Overload brownout: a flash crowd against the graceful-degradation
//! ladder.
//!
//! A Markov-modulated flash-crowd tenant stream (3× bursts over a calm
//! baseline) hits one V10-Full core whose context table is deliberately
//! small. Served plain, the bursts overflow the table and arrivals are
//! hard-rejected. Served under an armed [`OverloadController`], full-table
//! arrivals park in an admission queue while the controller walks the
//! brownout ladder — priority demotion, slice shrink, quota trim, deadline
//! shed — and a starvation watchdog boosts any tenant the demotions pinned
//! to the floor. The control-plane timeline is printed straight from the
//! JSON-lines observer stream, and a [`RuntimeAuditor`] replays the armed
//! run to prove the event stream kept every conservation invariant while
//! the ladder was active.
//!
//! ```sh
//! cargo run --release --example overload_brownout
//! ```

use v10::core::{
    serve_design_stressed, serve_design_stressed_observed, Admission, AdmissionSchedule, Design,
    FaultPlan, JsonLinesObserver, OverloadController, OverloadPolicy, RunOptions, RuntimeAuditor,
    WorkloadSpec,
};
use v10::npu::NpuConfig;
use v10::workloads::{MmppProcess, Model};

/// Control-plane events worth a line in the printout; the operator-level
/// chatter is elided.
const TIMELINE_EVENTS: [&str; 6] = [
    "overload_entered",
    "degradation_applied",
    "overload_cleared",
    "request_shed",
    "tenant_starved",
    "watchdog_boost",
];

/// Context-table slots: small on purpose so the burst overflows it.
const TABLE_SLOTS: usize = 4;

/// Drains the observer's sink, refusing to present a lossy timeline: any
/// dropped event line aborts the demo with a nonzero exit.
fn drain_checked(observer: JsonLinesObserver<Vec<u8>>) -> Vec<u8> {
    if observer.write_errors() > 0 {
        eprintln!(
            "overload_brownout: JSON-lines sink dropped {} event line(s); \
             refusing to print a lossy timeline",
            observer.write_errors()
        );
        std::process::exit(1);
    }
    observer.into_inner()
}

fn main() {
    // A 3x flash crowd over three light models; the same stream feeds both
    // the plain and the controlled run.
    let arrivals = MmppProcess::flash_crowd(
        &[Model::Mnist, Model::Dlrm, Model::Ncf],
        6.0e6,
        3.0,
        2.0e7,
        0xB00,
    )
    .expect("valid flash-crowd process")
    .with_requests_per_session(3)
    .expect("positive session quota")
    .with_think_cycles(2.5e5)
    .expect("non-negative think time")
    .sample(24)
    .expect("non-zero arrival count");
    let schedule = AdmissionSchedule::new(
        arrivals
            .iter()
            .map(|a| {
                Admission::new(
                    WorkloadSpec::new(a.label(), a.trace().clone()),
                    a.at_cycles(),
                    a.requests(),
                )
                .expect("valid admission")
            })
            .collect(),
    )
    .expect("non-empty schedule");
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(3)
        .expect("positive requests")
        .with_seed(7)
        .with_table_capacity(TABLE_SLOTS)
        .expect("positive table capacity");

    // Baseline: disarmed controller == plain serving, burst arrivals bounce
    // off the full table.
    let plain = serve_design_stressed(
        Design::V10Full,
        &schedule,
        &cfg,
        &opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
    )
    .expect("plain serving run");

    // Brownout: armed controller parks the overflow and degrades instead.
    let mut observer = JsonLinesObserver::new(Vec::new());
    let controlled = serve_design_stressed_observed(
        Design::V10Full,
        &schedule,
        &cfg,
        &opts,
        &FaultPlan::none(),
        OverloadController::armed(OverloadPolicy::default()),
        &mut observer,
    )
    .expect("controlled serving run");

    println!("== Brownout timeline (armed controller, JSON-lines stream) ==\n");
    let drained = drain_checked(observer);
    let text = String::from_utf8_lossy(&drained);
    let mut any = false;
    for line in text.lines() {
        if TIMELINE_EVENTS
            .iter()
            .any(|e| line.contains(&format!("\"event\":\"{e}\"")))
        {
            println!("  {line}");
            any = true;
        }
    }
    if !any {
        println!("  (the crowd never pushed the core into overload)");
    }

    // Replay the armed run through the invariant auditor: the ladder may
    // demote, trim, and shed, but the event stream must stay conserved.
    let mut auditor = RuntimeAuditor::new();
    let audited = serve_design_stressed_observed(
        Design::V10Full,
        &schedule,
        &cfg,
        &opts,
        &FaultPlan::none(),
        OverloadController::armed(OverloadPolicy::default()),
        &mut auditor,
    )
    .expect("audited serving run");
    auditor.reconcile(&audited);
    if !auditor.is_clean() {
        eprintln!(
            "overload_brownout: the runtime auditor flagged {} violation(s) \
             (+{} suppressed):",
            auditor.violations().len(),
            auditor.suppressed_violations()
        );
        for v in auditor.violations() {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "\nRuntime auditor: clean over {} events (admissions, completions, \
         sheds, and clocks all conserved)\n",
        auditor.events()
    );

    println!("== Plain vs controlled, same flash crowd ==\n");
    let completed = |r: &v10::core::RunReport| -> usize {
        r.workloads().iter().map(|w| w.completed_requests()).sum()
    };
    let stats = controlled.overload_stats();
    println!(
        "  plain:      {} request(s) served, {} arrival(s) hard-rejected",
        completed(&plain),
        plain.rejected_admissions()
    );
    println!(
        "  controlled: {} request(s) served, {} hard-rejected, {} shed by the ladder",
        completed(&controlled),
        controlled.rejected_admissions(),
        stats.shed_requests()
    );
    println!(
        "  ladder: {} demotion(s), {} slice shrink(s), {} quota trim(s); \
         watchdog boost(s): {}; {:.1}% of the run spent overloaded",
        stats.demotions(),
        stats.slice_shrinks(),
        stats.quota_trims(),
        stats.boosts(),
        100.0 * stats.overload_cycles() / controlled.elapsed_cycles()
    );
}
