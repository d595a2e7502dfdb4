//! In-memory spans around the benchmark's calls into the simulator's
//! layers, and the per-layer self time computed from them.
//!
//! A disabled [`Tracer`] records nothing and only runs the wrapped
//! closure, so the untraced runs that produce the end-to-end metrics pay
//! one branch per call.

use std::io::Write;
use std::time::Instant;

/// The simulator layer a span's call enters (module names of the repo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own glue: iteration and pair scopes.
    Bench,
    /// `v10_workloads`: trace synthesis, arrival processes, and schedule
    /// compilation.
    Workloads,
    /// `v10_core` engine entry points of the V10 designs.
    CoreEngine,
    /// `v10_core::pmt`: the PMT baseline and single-tenant references.
    CorePmt,
    /// `v10_core::overload` plus `v10_sim::fault`: the stressed serve path
    /// (with the auditor attached when the call is `audit_serve_stressed`)
    /// and fault-plan construction.
    CoreOverload,
    /// `v10_collocate` dataset build and clustering fit.
    CollocatePipeline,
    /// `v10_collocate::fleet` serving and placement.
    CollocateFleet,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Workloads,
        Layer::CoreEngine,
        Layer::CorePmt,
        Layer::CoreOverload,
        Layer::CollocatePipeline,
        Layer::CollocateFleet,
    ];

    /// The layer's module name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Workloads => "workloads",
            Layer::CoreEngine => "core.engine",
            Layer::CorePmt => "core.pmt",
            Layer::CoreOverload => "core.overload",
            Layer::CollocatePipeline => "collocate.pipeline",
            Layer::CollocateFleet => "collocate.fleet",
        }
    }

    /// The per-layer metric carrying the layer's self time per traced
    /// iteration, or `None` for the layers only set-up calls enter (their
    /// self time is reported per set-up instead).
    pub fn self_metric(self) -> Option<&'static str> {
        match self {
            Layer::Bench => Some("self.bench_ms"),
            Layer::CoreEngine => Some("self.core_engine_ms"),
            Layer::CorePmt => Some("self.core_pmt_ms"),
            Layer::CoreOverload => Some("self.core_overload_ms"),
            Layer::CollocateFleet => Some("self.collocate_fleet_ms"),
            Layer::Workloads | Layer::CollocatePipeline => None,
        }
    }
}

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation and pipeline fitting; the id is the set-up
    /// repetition.
    Setup,
    /// A traced iteration and the probes that follow it; the id is the
    /// iteration number.
    Iteration,
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The call, e.g. `serve_design/V10-Full`.
    pub name: &'static str,
    /// The layer it enters.
    pub layer: Layer,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run phase.
    pub phase: Phase,
    /// Set-up repetition or iteration number.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: Phase,
    id: u64,
}

impl Tracer {
    /// A tracer that records only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Setup,
            id: 0,
        }
    }

    /// Stamps the spans that follow with `phase` and `id`.
    pub fn set_scope(&mut self, phase: Phase, id: u64) {
        self.phase = phase;
        self.id = id;
    }

    /// Runs `f` inside a span named `name` on `layer`; spans opened inside
    /// `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            phase: self.phase,
            id: self.id,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let phase = match s.phase {
                Phase::Setup => "setup",
                Phase::Iteration => "iteration",
            };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"phase\": \"{phase}\", \"id\": {}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.id
            )?;
        }
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in ns, over the spans of `phase`.
pub fn self_by_layer(spans: &[Span], phase: Phase) -> Vec<(Layer, u64)> {
    let own = self_times(spans);
    Layer::ALL
        .iter()
        .map(|&layer| {
            let total = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.layer == layer && s.phase == phase)
                .map(|(_, &t)| t)
                .sum();
            (layer, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns,
            end_ns,
            parent,
            phase: Phase::Iteration,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(Layer::Bench, 0, 100, None),
            span(Layer::CoreEngine, 10, 40, Some(0)),
            span(Layer::CorePmt, 50, 70, Some(0)),
            span(Layer::CoreOverload, 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(Layer::Bench, 100, 200, None),
            span(Layer::CoreEngine, 90, 130, Some(0)),
            span(Layer::CoreEngine, 120, 150, Some(0)),
            span(Layer::CoreEngine, 190, 260, Some(0)),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of the parent's 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layer_totals_filter_by_phase() {
        let mut spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::CoreEngine, 0, 60, Some(0)),
            span(Layer::Workloads, 0, 7, None),
        ];
        spans[2].phase = Phase::Setup;
        let iter = self_by_layer(&spans, Phase::Iteration);
        assert!(iter.contains(&(Layer::Bench, 40)));
        assert!(iter.contains(&(Layer::CoreEngine, 60)));
        assert!(iter.contains(&(Layer::Workloads, 0)));
        let setup = self_by_layer(&spans, Phase::Setup);
        assert!(setup.contains(&(Layer::Workloads, 7)));
        assert!(setup.contains(&(Layer::Bench, 0)));
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_scope(Phase::Iteration, 3);
        let v = t.span(Layer::Bench, "outer", |t| {
            t.span(Layer::CoreEngine, "inner", |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].id, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span(Layer::Bench, "x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        t.span(Layer::Bench, "a", |t| t.span(Layer::CorePmt, "b", |_| ()));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
        assert!(text.contains("\"layer\": \"core.pmt\""));
    }
}
