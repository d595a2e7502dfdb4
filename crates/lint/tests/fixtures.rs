//! Fixture self-tests: each rule family is driven against a source file
//! seeding exactly one violation, and the test asserts the rule id and the
//! span. Scanning the same fixture with that one rule disabled must come
//! back clean — so these tests fail if a rule is ever turned off or its
//! detection regresses.

use v10_lint::baseline::{self, Baseline};
use v10_lint::rules::{scan_source, Finding, RuleId, Scope};
use v10_lint::{check, Outcome};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Scans a fixture under the given scope.
fn scan(name: &str, scope: Scope) -> Vec<Finding> {
    scan_source(name, &fixture(name), scope)
}

/// Asserts the fixture yields exactly one finding of `rule` at `line`,
/// and none at all once `disabled` (the same scope minus that rule) is used.
fn assert_rule_fires(name: &str, rule: RuleId, line: u32, col: u32, disabled: Scope) {
    let findings = scan(name, Scope::all());
    assert_eq!(
        findings.len(),
        1,
        "{name}: expected exactly one finding, got {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, rule, "{name}: wrong rule: {f:?}");
    assert_eq!((f.line, f.col), (line, col), "{name}: wrong span: {f:?}");
    assert_eq!(f.file, name);

    let off = scan(name, disabled);
    assert!(
        off.is_empty(),
        "{name}: rule disabled but still fired: {off:#?}"
    );
}

#[test]
fn d1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d1 = false;
    assert_rule_fires("d1_hash_container.rs", RuleId::D1, 4, 38, disabled);
}

#[test]
fn d2_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d2 = false;
    assert_rule_fires("d2_wall_clock.rs", RuleId::D2, 4, 28, disabled);
}

#[test]
fn d3_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d3 = false;
    assert_rule_fires("d3_bare_cast.rs", RuleId::D3, 4, 7, disabled);
}

#[test]
fn p1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.p1 = false;
    assert_rule_fires("p1_panic_path.rs", RuleId::P1, 4, 25, disabled);
}

#[test]
fn u1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.u1 = false;
    assert_rule_fires("u1_raw_unit.rs", RuleId::U1, 11, 30, disabled);
}

#[test]
fn f1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.f1 = false;
    assert_rule_fires("f1_float_order.rs", RuleId::F1, 7, 36, disabled);
}

#[test]
fn o1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.o1 = false;
    assert_rule_fires("o1_observer_io.rs", RuleId::O1, 14, 13, disabled);
}

/// F1a: `.partial_cmp(` is flagged regardless of operand provenance, and
/// `total_cmp` never is.
#[test]
fn f1a_partial_cmp_fires() {
    let src = "pub fn order(xs: &mut Vec<f64>) {\n    \
               xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let scope = Scope {
        f1: true,
        ..Scope::default()
    };
    let findings = scan_source("pc.rs", src, scope);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::F1);
    assert!(findings[0].message.contains("partial_cmp"));
}

/// F1c: a float sum over a hash container's iteration order.
#[test]
fn f1c_hash_sum_fires() {
    let src = "pub fn total() -> f64 {\n    \
               let m: HashMap<u32, f64> = HashMap::new();\n    \
               m.values().copied().sum::<f64>()\n}\n";
    let scope = Scope {
        f1: true,
        ..Scope::default()
    };
    let findings = scan_source("hs.rs", src, scope);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::F1);
    assert!(findings[0].message.contains("hash"), "{findings:#?}");

    // The same reduction over a BTreeMap is deterministic: clean.
    let ok = "pub fn total() -> f64 {\n    \
              let m: BTreeMap<u32, f64> = BTreeMap::new();\n    \
              m.values().copied().sum::<f64>()\n}\n";
    assert!(scan_source("bs.rs", ok, scope).is_empty());
}

/// A multi-line block-comment directive applies at the comment's *end*;
/// the fixture's D2 site on the following line is suppressed and the
/// directive counts as used (no META).
#[test]
fn block_directive_suppresses_across_lines() {
    let findings = scan("block_directive.rs", Scope::all());
    assert!(
        findings.is_empty(),
        "block directive failed to suppress: {findings:#?}"
    );
}

/// The allow escape hatch suppresses the finding it covers; a directive
/// covering nothing is itself reported (META), so stale hatches cannot
/// accumulate.
#[test]
fn allow_directive_suppresses_and_unused_directive_is_meta() {
    let findings = scan("allow_escape_hatch.rs", Scope::all());
    assert_eq!(
        findings.len(),
        1,
        "expected only the unused-directive META finding, got {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::Meta, "{f:?}");
    assert_eq!(f.line, 10, "the unused allow(D1) directive: {f:?}");
    assert!(f.message.contains("unused"), "{f:?}");
}

/// A directive without a reason is rejected outright.
#[test]
fn allow_directive_without_reason_is_meta() {
    let src = "fn f(xs: &[u64]) -> u64 {\n    // v10-lint: allow(P1)\n    xs.first().copied().unwrap()\n}\n";
    let findings = scan_source("no_reason.rs", src, Scope::all());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == RuleId::Meta && f.message.contains("reason")),
        "missing-reason directive not reported: {findings:#?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == RuleId::P1),
        "a reasonless directive must not suppress the finding: {findings:#?}"
    );
}

fn outcome_of(name: &str) -> Outcome {
    let mut outcome = Outcome::default();
    let findings = scan(name, Scope::all());
    for f in &findings {
        if f.rule != RuleId::Meta {
            *outcome
                .counts
                .entry((f.file.clone(), f.rule.as_str().to_string()))
                .or_insert(0) += 1;
        }
    }
    outcome.findings = findings;
    outcome
}

/// A baseline entry matching the seeded violation count suppresses it; the
/// ratchet flags both growth (count above allowance) and staleness (count
/// below allowance).
#[test]
fn baseline_suppression_and_ratchet() {
    let outcome = outcome_of("p1_panic_path.rs");

    let toml = "[[entry]]\nfile = \"p1_panic_path.rs\"\nrule = \"P1\"\nallowed = 1\n";
    let exact = baseline::parse(toml).expect("valid baseline");
    let result = check(&outcome, &exact);
    assert!(
        result.is_clean(),
        "exact baseline must suppress: {result:?}"
    );

    let empty = Baseline::new();
    let result = check(&outcome, &empty);
    assert!(!result.is_clean());
    assert_eq!(
        result.exceeded.len(),
        1,
        "growth past 0 allowed: {result:?}"
    );

    let generous =
        baseline::parse("[[entry]]\nfile = \"p1_panic_path.rs\"\nrule = \"P1\"\nallowed = 5\n")
            .expect("valid baseline");
    let result = check(&outcome, &generous);
    assert!(!result.is_clean(), "stale allowance must fail the check");
    assert_eq!(result.stale.len(), 1, "{result:?}");
}

/// META findings can never be baselined away.
#[test]
fn meta_findings_ignore_the_baseline() {
    let outcome = outcome_of("allow_escape_hatch.rs");
    // Even a wildly generous baseline cannot absorb directive-hygiene
    // findings: they carry no (file, rule) count at all.
    let generous = baseline::parse(
        "[[entry]]\nfile = \"allow_escape_hatch.rs\"\nrule = \"P1\"\nallowed = 99\n",
    )
    .expect("valid baseline");
    let result = check(&outcome, &generous);
    assert!(
        result.violations.iter().any(|f| f.rule == RuleId::Meta),
        "META finding suppressed by baseline: {result:?}"
    );
}

/// Test code is out of scope: the same violations inside `#[cfg(test)]`
/// modules or `#[test]` functions are not reported.
#[test]
fn test_regions_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn helper(xs: &[u64]) -> u64 {\n        xs.first().copied().unwrap()\n    }\n}\n";
    let findings = scan_source("test_only.rs", src, Scope::all());
    assert!(
        findings.is_empty(),
        "test-region code reported: {findings:#?}"
    );
}
