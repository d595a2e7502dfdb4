//! The machine-readable `BENCH_*.json` artifacts: one description per
//! artifact, one renderer, one structural validator, one write/gate tail.
//!
//! Each artifact is described once, as data ([`Schema`]): a marker field
//! naming the bench or schema, an optional `schema_version`, the numeric
//! header fields, the per-point columns and an optional headline object,
//! each field with its format. [`Schema::render`] writes an [`Artifact`]
//! (the values, in field order) from that description, and
//! [`Schema::validate`] checks a parsed document against the same
//! description, so the writer and the validator cannot drift. What a
//! bench checks beyond structure lives in its schema's `check` function.
//!
//! The rendered layout is fixed: one top-level field per line, one point
//! object per line, one headline field per line.
//!
//! ```text
//! {
//!   "bench": "serving_fleet",
//!   "schema_version": 2,
//!   "seed": 2023,
//!   "points": [
//!     {"shards": 1, "p99_mcycles": 6.889},
//!     {"shards": 4, "p99_mcycles": 6.889}
//!   ],
//!   "headline": {
//!     "shards": 4
//!   }
//! }
//! ```
//!
//! [`Schema::emit`] is the tail of every artifact-writing bench: it
//! self-validates, writes to `V10_BENCH_JSON_OUT` (default: the schema's
//! file at the workspace root) and, when `V10_BENCH_BASELINE` names a
//! checked-in artifact, reads and validates that too and returns it for
//! the bench's regression gate.

use crate::jsonio::{self, Json};
use Format::{Fixed, Int, Shortest, Text};

/// How a field's value is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// A JSON string.
    Text,
    /// An integer.
    Int,
    /// A fixed number of decimals (`{:.N}`).
    Fixed(usize),
    /// The shortest text that reads back as the same `f64` (`{}`).
    Shortest,
}

/// A field of an artifact: its key and its format.
pub type Field = (&'static str, Format);

/// One value of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string.
    Text(String),
    /// An exact integer.
    Int(u64),
    /// A double.
    Num(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Self {
        Cell::Num(x)
    }
}

/// The description of one artifact.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// File name written at the workspace root unless `V10_BENCH_JSON_OUT`
    /// names another path.
    pub file: &'static str,
    /// The marker field, `(key, value)`: `("bench", <name>)` or
    /// `("schema", <id>)`.
    pub marker: (&'static str, &'static str),
    /// The `schema_version` the artifact carries, if any.
    pub version: Option<u32>,
    /// Top-level fields between the marker and `points`.
    pub header: &'static [Field],
    /// The fields of every object in `points`.
    pub points: &'static [Field],
    /// The fields of the `headline` object; empty when there is none.
    pub headline: &'static [Field],
    /// The bench's semantic checks, run after the structural ones.
    pub check: fn(&Json) -> Result<(), String>,
}

/// The values of one artifact, each list in its schema's field order.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// One cell per [`Schema::header`] field.
    pub header: Vec<Cell>,
    /// One row per point, one cell per [`Schema::points`] field.
    pub points: Vec<Vec<Cell>>,
    /// One cell per [`Schema::headline`] field.
    pub headline: Vec<Cell>,
}

impl Schema {
    /// Renders `artifact` in the fixed layout.
    ///
    /// # Panics
    ///
    /// Panics if a list of cells does not match its fields in length.
    #[must_use]
    pub fn render(&self, artifact: &Artifact) -> String {
        let (key, value) = self.marker;
        let mut out = format!("{{\n  \"{key}\": \"{}\",\n", jsonio::escape(value));
        if let Some(version) = self.version {
            out.push_str(&format!("  \"schema_version\": {version},\n"));
        }
        for entry in entries(self.header, &artifact.header) {
            out.push_str(&format!("  {entry},\n"));
        }
        let rows: Vec<String> = artifact
            .points
            .iter()
            .map(|row| format!("    {{{}}}", entries(self.points, row).join(", ")))
            .collect();
        out.push_str(&format!("  \"points\": [\n{}\n  ]", rows.join(",\n")));
        if !self.headline.is_empty() {
            out.push_str(&format!(
                ",\n  \"headline\": {{\n    {}\n  }}",
                entries(self.headline, &artifact.headline).join(",\n    ")
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// Checks a parsed artifact: the marker, `schema_version`, every
    /// header, point and headline field present with its type (numbers
    /// non-negative and not NaN), at least one point, and then the
    /// bench's own `check`.
    pub fn validate(&self, doc: &Json) -> Result<(), String> {
        let (key, want) = self.marker;
        let got = doc
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))?;
        if got != want {
            return Err(format!("{key:?} is {got:?}, want {want:?}"));
        }
        if let Some(want) = self.version {
            let version = doc
                .get("schema_version")
                .and_then(Json::as_num)
                .ok_or("missing numeric field \"schema_version\"")?;
            if version != f64::from(want) {
                return Err(format!("schema_version {version} != {want}"));
            }
        }
        check_fields(doc, self.header, "")?;
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"points\"")?;
        if points.is_empty() {
            return Err("\"points\" is empty".to_string());
        }
        for (i, point) in points.iter().enumerate() {
            check_fields(point, self.points, &format!("points[{i}]: "))?;
        }
        if !self.headline.is_empty() {
            let headline = doc.get("headline").ok_or("missing object \"headline\"")?;
            check_fields(headline, self.headline, "headline: ")?;
        }
        (self.check)(doc)
    }

    /// The tail of an artifact-writing bench: renders `artifact`, checks
    /// it against this schema, and writes it (see [`Schema::write`]).
    /// When `V10_BENCH_BASELINE` names a checked-in artifact, that file
    /// is read, parsed and validated too, and returned for the bench's
    /// regression gate.
    ///
    /// # Panics
    ///
    /// Panics if the rendered artifact fails its own schema, if the write
    /// fails, or if the baseline cannot be read, is not JSON, or fails the
    /// schema.
    pub fn emit(&self, artifact: &Artifact) -> Option<Json> {
        let rendered = self.render(artifact);
        self.validate(&jsonio::parse(&rendered).expect("rendered artifact parses"))
            .expect("rendered artifact passes its own schema");
        self.write_rendered(&rendered);

        let path = std::env::var("V10_BENCH_BASELINE").ok()?;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let doc = jsonio::parse(&text)
            .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
        self.validate(&doc)
            .unwrap_or_else(|e| panic!("baseline {path} fails the schema: {e}"));
        println!("Baseline {path} passes the schema.");
        Some(doc)
    }

    /// Renders `artifact` and writes it, unchecked, to
    /// `V10_BENCH_JSON_OUT` (default: [`Schema::file`] at the workspace
    /// root). The adversary sweep takes this path when a cell violated the
    /// oracle: its artifact must still land on disk before the bench
    /// shrinks the violation and fails.
    ///
    /// # Panics
    ///
    /// Panics if the write fails.
    pub fn write(&self, artifact: &Artifact) {
        self.write_rendered(&self.render(artifact));
    }

    fn write_rendered(&self, rendered: &str) {
        // Default to the workspace root regardless of the harness CWD
        // (cargo bench runs the binary from the package directory).
        let path = std::env::var("V10_BENCH_JSON_OUT")
            .unwrap_or_else(|_| format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), self.file));
        std::fs::write(&path, rendered).expect("write artifact");
        println!("Wrote {path}.");
    }
}

/// The numeric headline field `key` of a validated artifact (0 if absent).
#[must_use]
pub fn headline_num(doc: &Json, key: &str) -> f64 {
    doc.get("headline").map_or(0.0, |h| num(h, key))
}

/// `"key": value` for each field, in order.
fn entries(fields: &[Field], cells: &[Cell]) -> Vec<String> {
    assert_eq!(fields.len(), cells.len(), "one cell per field");
    fields
        .iter()
        .zip(cells)
        .map(|(&(key, format), cell)| {
            let value = match (cell, format) {
                (Cell::Text(s), _) => format!("\"{}\"", jsonio::escape(s)),
                (Cell::Int(n), Format::Fixed(p)) => format!("{:.p$}", *n as f64),
                (Cell::Int(n), _) => n.to_string(),
                (Cell::Num(x), Format::Int) => format!("{x:.0}"),
                (Cell::Num(x), Format::Fixed(p)) => format!("{x:.p$}"),
                (Cell::Num(x), _) => x.to_string(),
            };
            format!("\"{key}\": {value}")
        })
        .collect()
}

/// Checks that `obj` has every field with its type; `at` prefixes errors.
fn check_fields(obj: &Json, fields: &[Field], at: &str) -> Result<(), String> {
    for &(key, format) in fields {
        let value = obj.get(key);
        if format == Format::Text {
            value
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{at}missing string {key:?}"))?;
            continue;
        }
        let v = value
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{at}missing numeric {key:?}"))?;
        if v.is_nan() || v < 0.0 {
            return Err(format!("{at}{key} = {v} is negative or NaN"));
        }
    }
    Ok(())
}

/// The numeric field `key` of `obj` (0 if absent).
fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// `BENCH_sim_throughput.json`: simulated cycles per wall-second for each
/// (design, tenant count), with the V10-Full headline at the largest
/// tenant count.
pub const SIM_THROUGHPUT: Schema = Schema {
    file: "BENCH_sim_throughput.json",
    marker: ("bench", "sim_throughput"),
    version: Some(1),
    header: &[
        ("seed", Int),
        ("requests_per_session", Int),
        ("mean_interarrival_cycles", Shortest),
        ("samples_per_point", Int),
    ],
    points: &[
        ("design", Text),
        ("tenants", Int),
        ("simulated_cycles", Shortest),
        ("completed_requests", Int),
        ("wall_seconds_median", Fixed(6)),
        ("cycles_per_wall_second", Fixed(1)),
    ],
    headline: &[
        ("design", Text),
        ("tenants", Int),
        ("cycles_per_wall_second", Fixed(1)),
        ("pre_refactor_cycles_per_wall_second", Fixed(1)),
        ("speedup_vs_pre_refactor", Fixed(2)),
    ],
    check: check_sim_throughput,
};

fn check_sim_throughput(doc: &Json) -> Result<(), String> {
    let rate = headline_num(doc, "cycles_per_wall_second");
    if rate <= 0.0 {
        return Err(format!("headline cycles_per_wall_second {rate} <= 0"));
    }
    Ok(())
}

/// `BENCH_serving_fleet.json`: the sharded fleet plane on a ≥1000-core
/// fleet at each shard count, with the 4-shard headline.
pub const SERVING_FLEET: Schema = Schema {
    file: "BENCH_serving_fleet.json",
    marker: ("bench", "serving_fleet"),
    version: Some(2),
    header: &[
        ("seed", Int),
        ("cores", Int),
        ("hbm_groups", Int),
        ("slots_per_core", Int),
        ("epoch_cycles", Shortest),
        ("arrivals", Int),
        ("samples_per_point", Int),
    ],
    points: &[
        ("shards", Int),
        ("wall_seconds_median", Fixed(6)),
        ("speedup_vs_1shard", Fixed(3)),
        ("rebuild_core_scans", Int),
        ("rescans_per_placement", Fixed(3)),
        ("epochs", Int),
        ("placed", Int),
        ("rejected", Int),
        ("completed_requests", Int),
        ("goodput_per_mcycle", Fixed(4)),
        ("p99_mcycles", Fixed(3)),
    ],
    headline: &[
        ("shards", Int),
        ("speedup_vs_1shard", Fixed(3)),
        ("rescans_per_placement", Fixed(3)),
    ],
    check: check_serving_fleet,
};

/// Placement-index re-scores beyond the initial build of a `cores`-core
/// fleet, per placed tenant (0 when nothing was placed). Each placement
/// touches one core and its release at most one more, so a working index
/// stays at or below 2.
#[must_use]
pub fn rescans_per_placement(rebuild_core_scans: f64, cores: f64, placed: f64) -> f64 {
    if placed > 0.0 {
        (rebuild_core_scans - cores).max(0.0) / placed
    } else {
        0.0
    }
}

fn check_serving_fleet(doc: &Json) -> Result<(), String> {
    let cores = num(doc, "cores");
    if cores < 1000.0 {
        return Err(format!("\"cores\" is {cores}, want a >=1000-core fleet"));
    }
    let shards = headline_num(doc, "shards");
    if shards != 4.0 {
        return Err(format!("headline shards {shards} != 4"));
    }
    let points = doc.get("points").and_then(Json::as_arr).unwrap_or_default();
    let first_scans = points.first().map_or(0.0, |p| num(p, "rebuild_core_scans"));
    for (i, p) in points.iter().enumerate() {
        let scans = num(p, "rebuild_core_scans");
        if scans != first_scans {
            return Err(format!(
                "points[{i}]: rebuild_core_scans {scans} != {first_scans} at points[0]: \
                 placement work must not depend on the shard count"
            ));
        }
        let rescans = num(p, "rescans_per_placement");
        let recount = rescans_per_placement(scans, cores, num(p, "placed"));
        if (rescans - recount).abs() > 5e-4 {
            return Err(format!(
                "points[{i}]: rescans_per_placement {rescans} != (rebuild_core_scans - cores) \
                 / placed = {recount:.3}"
            ));
        }
        if rescans > 2.0 {
            return Err(format!(
                "points[{i}]: rescans_per_placement {rescans} > 2: placement re-scores more \
                 than the cores its admits and releases touched"
            ));
        }
    }
    Ok(())
}

/// The fault severities `serving_fleet_faults` sweeps, mildest first.
pub const FAULT_SEVERITIES: [&str; 3] = ["disarmed", "shard-crash", "region-blackout"];

/// `BENCH_fleet_faults.json`: fleet fault domains per (severity, shard
/// count). Deterministic fields only, so the committed file is diff-gated.
pub const FLEET_FAULTS: Schema = Schema {
    file: "BENCH_fleet_faults.json",
    marker: ("bench", "serving_fleet_faults"),
    version: Some(1),
    header: &[
        ("seed", Int),
        ("cores", Int),
        ("hbm_groups", Int),
        ("slots_per_core", Int),
        ("epoch_cycles", Shortest),
        ("fault_at_cycles", Shortest),
        ("arrivals", Int),
        ("samples_per_point", Int),
    ],
    points: &[
        ("severity", Text),
        ("shards", Int),
        ("placed", Int),
        ("rejected", Int),
        ("cores_failed", Int),
        ("evacuated", Int),
        ("shed_sessions", Int),
        ("completed_requests", Int),
        ("shed_requests", Int),
        ("goodput_per_mcycle", Fixed(4)),
        ("p99_mcycles", Fixed(3)),
        ("evac_latency_mcycles_mean", Fixed(3)),
        ("disarmed_identical", Int),
    ],
    headline: &[],
    check: check_fleet_faults,
};

fn check_fleet_faults(doc: &Json) -> Result<(), String> {
    let mut saw_blackout_displacement = false;
    let points = doc.get("points").and_then(Json::as_arr).unwrap_or_default();
    for (i, p) in points.iter().enumerate() {
        let severity = p.get("severity").and_then(Json::as_str).unwrap_or_default();
        if !FAULT_SEVERITIES.contains(&severity) {
            return Err(format!("points[{i}]: unknown severity {severity:?}"));
        }
        if severity == "disarmed" && num(p, "disarmed_identical") != 1.0 {
            return Err(format!(
                "points[{i}]: disarmed run not byte-identical to the plain serve path"
            ));
        }
        if severity == "region-blackout" && num(p, "evacuated") + num(p, "shed_sessions") > 0.0 {
            saw_blackout_displacement = true;
        }
    }
    if !saw_blackout_displacement {
        return Err(
            "no region-blackout point displaced a single tenant: the blast radius is dark"
                .to_string(),
        );
    }
    Ok(())
}

/// `BENCH_adversary.json`: per-case control-plane activity and the oracle
/// verdict of the adversarial scenario sweep. Deterministic fields only.
pub const ADVERSARY: Schema = Schema {
    file: "BENCH_adversary.json",
    marker: ("schema", "v10-adversary/1"),
    version: None,
    header: &[
        ("master_seed", Int),
        ("designs", Int),
        ("cases", Int),
        ("cells", Int),
        ("clean_cells", Int),
    ],
    points: &[
        ("profile", Text),
        ("case", Text),
        ("design", Text),
        ("tenants", Int),
        ("overload_entries", Int),
        ("degradations", Int),
        ("starvations", Int),
        ("boost_requeues", Int),
        ("shed_requests", Int),
        ("faults_injected", Int),
        ("violations", Int),
    ],
    headline: &[],
    check: check_adversary,
};

fn check_adversary(doc: &Json) -> Result<(), String> {
    let cells = num(doc, "cells");
    let clean = num(doc, "clean_cells");
    if clean != cells {
        return Err(format!(
            "{} of {cells} cells violated the oracle",
            cells - clean
        ));
    }
    Ok(())
}
