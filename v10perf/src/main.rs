//! v10perf — the repository benchmark for the V10 simulator.
//!
//! ```text
//! v10perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run builds the workload's inputs from the seed (several times, to
//! time set-up), runs one pinned iteration whose digest every later
//! iteration must reproduce, then runs iterations back to back for the
//! given number of seconds. Untraced (`--trace 0`) it prints the
//! end-to-end metrics; traced (`--trace 1`) it alternates untraced and
//! traced iterations, prints the per-layer metrics, and writes the spans
//! to `v10perf/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed`, and `metrics`. Any failed check
//! makes the exit code 1. Every host time is taken between two samples of
//! a fixed calibration kernel and reported corrected for the host's speed
//! phase (see `calib`); the raw figures are printed beside them. See
//! README.md for what each workload and metric is for.

mod calib;
mod stats;
mod trace;
mod work;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use v10_npu::NpuConfig;
use v10_sim::V10Result;

use calib::Calibrator;
use trace::{Layer, Phase, Tracer};
use work::{Counts, Inputs, Raw, Workload};

const USAGE: &str =
    "usage: v10perf --workload <pairs_closed|serve_dense|fleet_flash|stressed_burst> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Timed iterations run past the window if needed until there are this
/// many, so the tail percentile always has ten samples beyond it.
const MIN_ITERATIONS: usize = stats::MIN_TAIL_SAMPLES;

/// Set-up repeats at least this many times and for at least this long;
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 400;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// The paper's geomean V10-Full ÷ PMT gains (Figs. 18 and 16).
const PAPER_STP_GAIN: f64 = 1.57;
const PAPER_UTIL_GAIN: f64 = 1.64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2023;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Tracks attempted and failed benchmark operations.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Ledger {
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("{what}: {}", problems.join("; ")));
            }
        }
    }
}

/// Checks one iteration against the pinned digest and the workload's own
/// oracle; returns every problem found.
fn problems(inputs: &Inputs, out: &V10Result<Raw<'_>>, pinned: &[u64]) -> Vec<String> {
    match out {
        Err(e) => vec![format!("error: {e}")],
        Ok(raw) => {
            let mut found = work::violations(inputs, raw);
            found.extend(stats::digest_mismatch(pinned, &work::digest(raw)));
            found
        }
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Mean duration in ms of the iteration-phase spans named one of `names`
/// (0 when there are none).
fn mean_span_ms(spans: &[trace::Span], names: &[&str]) -> f64 {
    let durs = span_ms(spans, names);
    if durs.is_empty() {
        0.0
    } else {
        durs.iter().sum::<f64>() / durs.len() as f64
    }
}

fn span_ms(spans: &[trace::Span], names: &[&str]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.phase == Phase::Iteration && names.contains(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

fn median0(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("v10perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("v10perf: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seed = args.seed;
    let cfg = NpuConfig::table5();
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut calib = Calibrator::default();
    let mut t = Samples::default();
    let err = |e: v10_sim::V10Error| e.to_string();
    println!(
        "v10perf: workload {} seed {seed} seconds {} trace {}",
        w.name(),
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up, repeated; the inputs of the last repetition are used.
    let setup_start = Instant::now();
    let inputs = loop {
        tracer.set_scope(Phase::Setup, t.setup_s.len() as u64);
        let (timed, inputs) = calib.time(|| work::setup(w, seed, &mut tracer));
        let inputs = inputs.map_err(err)?;
        t.setup_s.push(timed.corrected_ms / 1e3);
        t.raw_setup_s.push(timed.raw_ms / 1e3);
        let reps = t.setup_s.len();
        let enough =
            reps >= SETUP_MIN_REPS && setup_start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || reps >= SETUP_MAX_REPS {
            break inputs;
        }
    };

    // The pinned iteration: its digest is the reference for every other.
    let pinned_raw = work::iterate(&inputs, &cfg, seed, &mut off).map_err(err)?;
    let pinned = work::digest(&pinned_raw);
    let mut ledger = Ledger::default();
    ledger.record("pinned iteration", work::violations(&inputs, &pinned_raw));
    let sim = work::sim_figures(&inputs, &pinned_raw);
    let work_counts = work::work(&pinned_raw);
    let pinned_gains = work::paper_gains(&pinned_raw);
    drop(pinned_raw);

    // The timed window.
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut iteration = 0u64;
    while start.elapsed() < window || t.host_ms.len() < MIN_ITERATIONS {
        let (timed, out) = calib.time(|| work::iterate(&inputs, &cfg, seed, &mut off));
        ledger.record("timed iteration", problems(&inputs, &out, &pinned));
        drop(out);
        t.host_ms.push(timed.corrected_ms);
        t.raw_ms.push(timed.raw_ms);

        if args.trace {
            iteration += 1;
            tracer.set_scope(Phase::Iteration, iteration);
            let (timed, out) = calib.time(|| {
                tracer.span(Layer::Bench, "iteration", |tr| {
                    work::iterate(&inputs, &cfg, seed, tr)
                })
            });
            t.traced_ms.push(timed.corrected_ms);
            ledger.record("traced iteration", problems(&inputs, &out, &pinned));
            if let Ok(raw) = &out {
                let probed = work::probe(&inputs, raw, &cfg, seed, &mut tracer);
                ledger.record(
                    "probe",
                    probed.err().map(|e| e.to_string()).into_iter().collect(),
                );
            }
        }
    }
    let peak_rss = peak_rss_mb()?;

    let metrics = if args.trace {
        let (counted, counts) = work::count(&inputs, &cfg, seed).map_err(err)?;
        let mut found = work::violations(&inputs, &counted);
        found.extend(stats::digest_mismatch(&pinned, &work::digest(&counted)));
        ledger.record("counted iteration", found);
        drop(counted);
        write_spans(&tracer, w, seed)?;
        per_layer(&tracer, &t, calib.samples(), &counts, &work_counts)
    } else {
        // The paper gains come from the evaluation pairs; the serving
        // workloads run that evaluation once, untimed, at the same seed.
        let gains = match pinned_gains {
            Some(g) => g,
            None => {
                let pairs = work::setup(Workload::PairsClosed, seed, &mut off).map_err(err)?;
                let raw = work::iterate(&pairs, &cfg, seed, &mut off).map_err(err)?;
                work::paper_gains(&raw).ok_or("paper evaluation produced no pairs")?
            }
        };
        println!(
            "paper gains (V10-Full / PMT, geomean of 11 pairs): STP {:.3}x (paper {PAPER_STP_GAIN}x), \
             compute utilisation {:.3}x (paper {PAPER_UTIL_GAIN}x); the model is not validated \
             against hardware",
            gains.stp, gains.util
        );
        let tail = stats::tail(&t.host_ms).ok_or("too few timed iterations for a tail")?;
        println!(
            "host_ms_tail is p{:.1}: {} of {} samples lie beyond it",
            tail.percentile, tail.beyond, tail.samples
        );
        let raw_tail = stats::tail(&t.raw_ms).map_or(0.0, |r| r.value);
        println!(
            "raw (uncorrected) host time: median iteration {:.3} ms, tail {raw_tail:.3} ms, \
             median set-up {:.6} s",
            median0(&t.raw_ms),
            median0(&t.raw_setup_s)
        );
        vec![
            metric("host_ms_p50", median0(&t.host_ms), "ms"),
            metric("host_ms_tail", tail.value, "ms"),
            metric("setup_s", median0(&t.setup_s), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("sim_p99_mcyc", sim.p99_mcyc, "Mcyc"),
            metric("sim_goodput_per_mcyc", sim.goodput_per_mcyc, "1/Mcyc"),
            metric("sim_admitted_frac", sim.admitted_frac, "frac"),
            metric("stp_gain", gains.stp, "x"),
            metric("util_gain", gains.util, "x"),
        ]
    };

    let correct = ledger.failed == 0;
    println!(
        "iterations: {} timed{}; host.calib_ms {:.4} (median of {} calibration samples)",
        t.host_ms.len(),
        if args.trace {
            format!(", {} traced", t.traced_ms.len())
        } else {
            String::new()
        },
        median0(calib.samples()),
        calib.samples().len()
    );
    println!("sim_digest: {:016x}", stats::digest_hash(&pinned));
    println!(
        "failed_frac: {} ({} of {} operations failed)",
        stats::failed_frac(ledger.failed, ledger.attempted),
        ledger.failed,
        ledger.attempted
    );
    if let Some(f) = &ledger.first_failure {
        println!("first failure: {f}");
    }
    for m in &metrics {
        println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(correct, ledger.attempted, ledger.failed, &metrics)?
    );
    Ok(correct)
}

/// Host-time samples of one run, in ms except the set-up times; all are
/// phase-corrected except those named `raw_`.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    host_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

fn per_layer(
    tracer: &Tracer,
    t: &Samples,
    calib_ms: &[f64],
    counts: &Counts,
    work: &work::Work,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let untraced_ms = median0(&t.host_ms);
    let setups = t.setup_s.len();
    let per = |total: u64, n: usize| {
        if n == 0 {
            0.0
        } else {
            total as f64 / 1e6 / n as f64
        }
    };
    let setup_self = trace::self_by_layer(spans, Phase::Setup);
    let setup_layer = |layer: Layer| {
        setup_self
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, t)| per(t, setups))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = vec![
        metric(
            "core.v10_full_ms",
            mean_span_ms(spans, &["run_design/V10-Full", "serve_design/V10-Full"]),
            "ms",
        ),
        metric(
            "core.v10_fair_ms",
            mean_span_ms(spans, &["run_design/V10-Fair"]),
            "ms",
        ),
        metric(
            "core.v10_base_ms",
            mean_span_ms(spans, &["run_design/V10-Base"]),
            "ms",
        ),
        metric(
            "core.pmt_ms",
            mean_span_ms(spans, &["run_design/PMT"]),
            "ms",
        ),
        metric(
            "core.single_ms",
            mean_span_ms(spans, &["run_single_tenant"]),
            "ms",
        ),
        metric("core.events", counts.events as f64, "count"),
        metric("core.ops_issued", counts.ops_issued as f64, "count"),
        metric("core.preemptions", counts.preemptions as f64, "count"),
        metric("core.ctx_switches", counts.ctx_switches as f64, "count"),
        metric("core.ticks", counts.ticks as f64, "count"),
        metric(
            "core.tick_share",
            ratio(counts.ticks as f64, counts.events as f64),
            "frac",
        ),
        metric(
            "core.ns_per_event",
            ratio(untraced_ms * 1e6, counts.events as f64),
            "ns",
        ),
        metric(
            "core.mcyc_per_s",
            ratio(counts.sim_cycles / 1e6, untraced_ms / 1e3),
            "Mcyc/s",
        ),
        metric(
            "collocate.fleet_ms",
            mean_span_ms(spans, &["FleetPlane::serve"]),
            "ms",
        ),
        metric("collocate.core_scans", work.core_scans as f64, "count"),
        metric("collocate.epochs", work.epochs as f64, "count"),
        metric(
            "collocate.place_us",
            median0(&span_ms(spans, &["place_class_topo"])) * 1e3,
            "us",
        ),
        metric("core.degradations", work.degradations as f64, "count"),
        metric("core.shed", work.shed as f64, "count"),
        metric("core.boosts", work.boosts as f64, "count"),
        metric("sim.faults", work.faults as f64, "count"),
        metric("core.replays", work.replays as f64, "count"),
        metric("core.replay_mcyc", work.replay_cycles / 1e6, "Mcyc"),
        metric(
            "core.audit_ms",
            median0(&span_ms(spans, &["audit_serve_stressed"]))
                - median0(&span_ms(spans, &["serve_design_stressed/null"])),
            "ms",
        ),
        metric("workloads.gen_ms", setup_layer(Layer::Workloads), "ms"),
        metric(
            "collocate.fit_ms",
            setup_layer(Layer::CollocatePipeline),
            "ms",
        ),
        metric(
            "trace.overhead_pct",
            ratio(median0(&t.traced_ms) - untraced_ms, untraced_ms) * 100.0,
            "%",
        ),
        metric("host.calib_ms", median0(calib_ms), "ms"),
    ];
    for (layer, total) in trace::self_by_layer(spans, Phase::Iteration) {
        if let Some(name) = layer.self_metric() {
            out.push(metric(name, per(total, t.traced_ms.len()), "ms"));
        }
    }
    out
}

fn write_spans(tracer: &Tracer, w: Workload, seed: u64) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// The result line. Every value is printed with all its digits.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse(&["--workload", "serve_dense"]).unwrap();
        assert_eq!(a.workload, Workload::ServeDense);
        assert_eq!((a.seed, a.seconds, a.trace), (2023, 10, false));
        let a = parse(&[
            "--workload",
            "fleet_flash",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "serve_dense", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve_dense", "--seed"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("a_ms", 1.25, "ms"), metric("n", 7.0, "count")],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        assert!(result_json(true, 1, 0, &[metric("x", f64::NAN, "ms")]).is_err());
    }

    #[test]
    fn ledger_counts_each_failed_operation_once() {
        let mut l = Ledger::default();
        l.record("a", vec![]);
        l.record("b", vec!["x".into(), "y".into()]);
        l.record("c", vec!["z".into()]);
        assert_eq!((l.attempted, l.failed), (3, 2));
        assert_eq!(l.first_failure.as_deref(), Some("b: x; y"));
        assert!((stats::failed_frac(l.failed, l.attempted) - 2.0 / 3.0).abs() < 1e-12);
    }
}
