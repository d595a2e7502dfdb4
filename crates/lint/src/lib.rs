//! `v10-lint`: the workspace determinism & panic-freedom static-analysis
//! pass.
//!
//! See [`rules`] for the rule families (D1–D3, P1, and the semantic
//! families U1/F1/O1), [`parser`] for the expression-level analysis
//! they run on, [`workspace`] for the scope policy, and [`baseline`] for
//! the ratchet. The binary front-end lives in `main.rs`; this library
//! exposes the scanning and comparison machinery so the fixture
//! self-tests in `tests/` can drive each rule directly.

pub mod baseline;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use baseline::Baseline;
use rules::{Finding, RuleId};
use std::collections::BTreeMap;
use std::path::Path;

/// Everything one scan of the workspace produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every finding, ordered by (file, line, col).
    pub findings: Vec<Finding>,
    /// Baselinable violation counts by `(file, rule)`. `META` findings are
    /// excluded: directive hygiene problems can never be baselined.
    pub counts: Baseline,
}

/// Scans every in-scope file under `root`.
pub fn scan_workspace(root: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    for f in &workspace::enumerate(root)? {
        let src = std::fs::read_to_string(&f.abs)
            .map_err(|e| format!("reading {}: {e}", f.abs.display()))?;
        let findings = rules::scan_source(&f.rel, &src, f.scope);
        for finding in &findings {
            if finding.rule != RuleId::Meta {
                *outcome
                    .counts
                    .entry((finding.file.clone(), finding.rule.as_str().to_string()))
                    .or_insert(0) += 1;
            }
        }
        outcome.findings.extend(findings);
    }
    Ok(outcome)
}

/// The verdict of comparing a scan against the committed baseline.
#[derive(Debug, Default)]
pub struct CheckResult {
    /// Findings in `(file, rule)` groups whose count exceeds the baseline,
    /// plus every `META` finding (never suppressible).
    pub violations: Vec<Finding>,
    /// Groups that exceeded: `(file, rule, allowed, actual)`.
    pub exceeded: Vec<(String, String, u32, u32)>,
    /// Stale groups where the baseline allows more than exists:
    /// `(file, rule, allowed, actual)` — the ratchet must click down.
    pub stale: Vec<(String, String, u32, u32)>,
}

impl CheckResult {
    /// Did the check pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.exceeded.is_empty() && self.stale.is_empty()
    }
}

/// Compares a scan outcome against the baseline with ratchet semantics.
#[must_use]
pub fn check(outcome: &Outcome, baseline: &Baseline) -> CheckResult {
    let mut result = CheckResult::default();
    let mut over: BTreeMap<(String, String), (u32, u32)> = BTreeMap::new();

    for (key, &actual) in &outcome.counts {
        let allowed = baseline.get(key).copied().unwrap_or(0);
        if actual > allowed {
            over.insert(key.clone(), (allowed, actual));
            result
                .exceeded
                .push((key.0.clone(), key.1.clone(), allowed, actual));
        } else if actual < allowed {
            result
                .stale
                .push((key.0.clone(), key.1.clone(), allowed, actual));
        }
    }
    // Baseline entries for files/rules with no findings at all are stale too.
    for (key, &allowed) in baseline {
        if allowed > 0 && !outcome.counts.contains_key(key) {
            result
                .stale
                .push((key.0.clone(), key.1.clone(), allowed, 0));
        }
    }

    for f in &outcome.findings {
        // META findings are never baselinable; others surface only when
        // their (file, rule) count exceeds its allowance.
        if f.rule == RuleId::Meta
            || over.contains_key(&(f.file.clone(), f.rule.as_str().to_string()))
        {
            result.violations.push(f.clone());
        }
    }
    result
}

/// Per-rule totals over an outcome's counts — the `--census` summary.
#[must_use]
pub fn census(outcome: &Outcome) -> BTreeMap<String, u32> {
    let mut by_rule: BTreeMap<String, u32> = BTreeMap::new();
    for ((_, rule), &n) in &outcome.counts {
        *by_rule.entry(rule.clone()).or_insert(0) += n;
    }
    by_rule
}

/// Renders the `--census --json` artifact: a single machine-readable JSON
/// object summarizing the scan (schema `v10-lint-census/1`). CI archives
/// this next to the BENCH files so the violation surface is diffable
/// across commits:
///
/// ```json
/// {"schema":"v10-lint-census/1","files_scanned":87,"total":0,
///  "rules":{"D1":0},"files":[{"file":"crates/...","rule":"D1","count":1}]}
/// ```
///
/// `rules` maps every rule id to its workspace-wide total (rules with zero
/// findings are omitted); `files` lists each `(file, rule)` group with a
/// non-zero count, in the stable `(file, rule)` order of the baseline.
/// META findings are excluded, matching what `--fix-baseline` would write.
#[must_use]
pub fn render_census_json(outcome: &Outcome, files_scanned: usize) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let total: u32 = outcome.counts.values().sum();
    let _ = write!(
        out,
        "{{\"schema\":\"v10-lint-census/1\",\"files_scanned\":{files_scanned},\"total\":{total},\"rules\":{{"
    );
    for (i, (rule, n)) in census(outcome).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", rules::json_escape(rule));
    }
    out.push_str("},\"files\":[");
    for (i, ((file, rule), n)) in outcome.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":\"{}\",\"rule\":\"{}\",\"count\":{n}}}",
            rules::json_escape(file),
            rules::json_escape(rule)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::Scope;

    fn outcome_from(src: &str, scope: Scope) -> Outcome {
        let findings = rules::scan_source("f.rs", src, scope);
        let mut counts = Baseline::new();
        for f in &findings {
            if f.rule != RuleId::Meta {
                *counts
                    .entry((f.file.clone(), f.rule.as_str().to_string()))
                    .or_insert(0) += 1;
            }
        }
        Outcome { findings, counts }
    }

    #[test]
    fn baseline_suppresses_exact_count() {
        let out = outcome_from("use std::collections::HashMap;", Scope::all());
        let mut b = Baseline::new();
        b.insert(("f.rs".into(), "D1".into()), 1);
        assert!(check(&out, &b).is_clean());
    }

    #[test]
    fn growth_fails() {
        let out = outcome_from(
            "use std::collections::HashMap;\ntype T = HashMap<u8, u8>;",
            Scope::all(),
        );
        let mut b = Baseline::new();
        b.insert(("f.rs".into(), "D1".into()), 1);
        let r = check(&out, &b);
        assert!(!r.is_clean());
        assert_eq!(r.exceeded, vec![("f.rs".into(), "D1".into(), 1, 2)]);
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn shrink_is_stale() {
        let out = outcome_from("fn f() {}", Scope::all());
        let mut b = Baseline::new();
        b.insert(("f.rs".into(), "D1".into()), 1);
        let r = check(&out, &b);
        assert!(!r.is_clean());
        assert_eq!(r.stale, vec![("f.rs".into(), "D1".into(), 1, 0)]);
    }

    #[test]
    fn meta_findings_cannot_be_baselined() {
        let out = outcome_from("// v10-lint: allow(D1)\nfn f() {}", Scope::all());
        let r = check(&out, &Baseline::new());
        assert!(!r.is_clean());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, RuleId::Meta);
    }

    #[test]
    fn census_json_is_stable_and_complete() {
        let out = outcome_from(
            "use std::collections::HashMap;\nlet t = std::time::Instant::now();",
            Scope::all(),
        );
        let json = render_census_json(&out, 2);
        assert_eq!(
            json,
            "{\"schema\":\"v10-lint-census/1\",\"files_scanned\":2,\"total\":2,\
             \"rules\":{\"D1\":1,\"D2\":1},\"files\":[\
             {\"file\":\"f.rs\",\"rule\":\"D1\",\"count\":1},\
             {\"file\":\"f.rs\",\"rule\":\"D2\",\"count\":1}]}"
        );
    }

    #[test]
    fn census_json_empty_outcome() {
        let out = outcome_from("fn f() {}", Scope::all());
        let json = render_census_json(&out, 87);
        assert_eq!(
            json,
            "{\"schema\":\"v10-lint-census/1\",\"files_scanned\":87,\"total\":0,\
             \"rules\":{},\"files\":[]}"
        );
    }
}
