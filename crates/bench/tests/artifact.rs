//! The `BENCH_*.json` schemas against the checked-in artifacts.
//!
//! Every checked-in artifact must validate and re-render byte-for-byte
//! through its schema. For the two wall-clock artifacts, which CI does
//! not diff, this is the only proof that the writer still produces their
//! format. Each structural rule and each bench's semantic check must also
//! reject a document that breaks it.

use std::collections::BTreeMap;
use std::path::Path;

use v10_bench::artifact::{
    Artifact, Cell, Field, Schema, ADVERSARY, FLEET_FAULTS, SERVING_FLEET, SIM_THROUGHPUT,
};
use v10_bench::jsonio::{self, Json};

const ALL: [Schema; 4] = [SIM_THROUGHPUT, SERVING_FLEET, FLEET_FAULTS, ADVERSARY];

fn checked_in_text(schema: &Schema) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(schema.file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn checked_in(schema: &Schema) -> Json {
    jsonio::parse(&checked_in_text(schema)).expect("checked-in artifact parses")
}

/// The cells of `obj`, one per field.
fn cells(obj: &Json, fields: &[Field]) -> Vec<Cell> {
    fields
        .iter()
        .map(|(key, _)| match obj.get(key) {
            Some(Json::Str(s)) => Cell::Text(s.clone()),
            Some(Json::Num(x)) => Cell::Num(*x),
            other => panic!("field {key:?} is {other:?}"),
        })
        .collect()
}

fn obj(value: &mut Json) -> &mut BTreeMap<String, Json> {
    match value {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn point(doc: &mut Json, i: usize) -> &mut BTreeMap<String, Json> {
    match obj(doc).get_mut("points") {
        Some(Json::Arr(points)) => obj(&mut points[i]),
        other => panic!("points is {other:?}"),
    }
}

fn headline(doc: &mut Json) -> &mut BTreeMap<String, Json> {
    obj(obj(doc).get_mut("headline").expect("headline"))
}

/// The error `schema` reports on its checked-in artifact after `edit`.
fn rejection<R>(schema: &Schema, edit: impl FnOnce(&mut Json) -> R) -> String {
    let mut doc = checked_in(schema);
    edit(&mut doc);
    schema
        .validate(&doc)
        .expect_err("the edit must be rejected")
}

#[test]
fn checked_in_artifacts_validate_and_re_render_byte_identically() {
    for schema in &ALL {
        let text = checked_in_text(schema);
        let doc = jsonio::parse(&text).expect("checked-in artifact parses");
        schema
            .validate(&doc)
            .unwrap_or_else(|e| panic!("{}: {e}", schema.file));
        let points = doc.get("points").and_then(Json::as_arr).expect("points");
        let artifact = Artifact {
            header: cells(&doc, schema.header),
            points: points.iter().map(|p| cells(p, schema.points)).collect(),
            headline: doc
                .get("headline")
                .map_or_else(Vec::new, |h| cells(h, schema.headline)),
        };
        assert_eq!(
            schema.render(&artifact),
            text,
            "{} re-rendered",
            schema.file
        );
    }
}

#[test]
fn rejects_a_wrong_marker_or_schema_version() {
    let err = rejection(&SIM_THROUGHPUT, |d| {
        obj(d).insert("bench".into(), Json::Str("serving_fleet".into()))
    });
    assert!(err.contains("want \"sim_throughput\""), "{err}");

    let err = rejection(&ADVERSARY, |d| {
        obj(d).insert("schema".into(), Json::Str("v10-adversary/2".into()))
    });
    assert!(err.contains("want \"v10-adversary/1\""), "{err}");

    let err = rejection(&SERVING_FLEET, |d| {
        obj(d).insert("schema_version".into(), Json::Num(1.0))
    });
    assert!(err.contains("schema_version 1 != 2"), "{err}");
}

#[test]
fn rejects_missing_mistyped_negative_or_empty_fields() {
    let err = rejection(&SIM_THROUGHPUT, |d| point(d, 0).remove("tenants"));
    assert_eq!(err, "points[0]: missing numeric \"tenants\"");

    let err = rejection(&FLEET_FAULTS, |d| {
        point(d, 2).insert("placed".into(), Json::Str("83".into()))
    });
    assert_eq!(err, "points[2]: missing numeric \"placed\"");

    let err = rejection(&ADVERSARY, |d| {
        point(d, 1).insert("design".into(), Json::Num(1.0))
    });
    assert_eq!(err, "points[1]: missing string \"design\"");

    let err = rejection(&SERVING_FLEET, |d| {
        point(d, 1).insert("p99_mcycles".into(), Json::Num(-6.889))
    });
    assert!(err.starts_with("points[1]: p99_mcycles = -6.889"), "{err}");

    let err = rejection(&SERVING_FLEET, |d| {
        point(d, 0).insert("epochs".into(), Json::Num(f64::NAN))
    });
    assert!(err.starts_with("points[0]: epochs = NaN"), "{err}");

    let err = rejection(&FLEET_FAULTS, |d| {
        obj(d).insert("points".into(), Json::Arr(Vec::new()))
    });
    assert_eq!(err, "\"points\" is empty");

    let err = rejection(&ADVERSARY, |d| obj(d).remove("master_seed"));
    assert_eq!(err, "missing numeric \"master_seed\"");

    let err = rejection(&SIM_THROUGHPUT, |d| obj(d).remove("headline"));
    assert_eq!(err, "missing object \"headline\"");
}

#[test]
fn each_bench_check_rejects_its_violation() {
    let set_headline =
        |d: &mut Json, key: &str, v: f64| headline(d).insert(key.into(), Json::Num(v));

    let err = rejection(&SIM_THROUGHPUT, |d| {
        set_headline(d, "cycles_per_wall_second", 0.0)
    });
    assert_eq!(err, "headline cycles_per_wall_second 0 <= 0");

    let err = rejection(&SERVING_FLEET, |d| {
        obj(d).insert("cores".into(), Json::Num(256.0))
    });
    assert!(err.contains(">=1000-core"), "{err}");
    let err = rejection(&SERVING_FLEET, |d| set_headline(d, "shards", 8.0));
    assert_eq!(err, "headline shards 8 != 4");
    let err = rejection(&SERVING_FLEET, |d| {
        point(d, 2).insert("rebuild_core_scans".into(), Json::Num(131_840.0))
    });
    assert!(
        err.starts_with("points[2]: rebuild_core_scans 131840 != "),
        "{err}"
    );
    let err = rejection(&SERVING_FLEET, |d| {
        point(d, 0).insert("rescans_per_placement".into(), Json::Num(0.5))
    });
    assert!(
        err.contains("points[0]: rescans_per_placement 0.5 != (rebuild_core_scans"),
        "{err}"
    );
    // A return to one full-fleet rescan per arrival: 1024 cores x 512
    // placements, the same at every shard count.
    let err = rejection(&SERVING_FLEET, |d| {
        for i in 0..4 {
            point(d, i).insert("rebuild_core_scans".into(), Json::Num(524_288.0));
            point(d, i).insert("rescans_per_placement".into(), Json::Num(1022.0));
        }
    });
    assert!(
        err.contains("points[0]: rescans_per_placement 1022 > 2"),
        "{err}"
    );

    let err = rejection(&FLEET_FAULTS, |d| {
        point(d, 3).insert("severity".into(), Json::Str("meltdown".into()))
    });
    assert_eq!(err, "points[3]: unknown severity \"meltdown\"");
    let err = rejection(&FLEET_FAULTS, |d| {
        point(d, 1).insert("disarmed_identical".into(), Json::Num(0.0))
    });
    assert!(
        err.contains("points[1]: disarmed run not byte-identical"),
        "{err}"
    );
    let err = rejection(&FLEET_FAULTS, |d| {
        for i in [4, 5] {
            point(d, i).insert("evacuated".into(), Json::Num(0.0));
            point(d, i).insert("shed_sessions".into(), Json::Num(0.0));
        }
    });
    assert!(err.contains("no region-blackout point displaced"), "{err}");

    let err = rejection(&ADVERSARY, |d| {
        obj(d).insert("clean_cells".into(), Json::Num(10.0))
    });
    assert_eq!(err, "1 of 11 cells violated the oracle");
}
