//! `rsbt-analyze`: the workspace's static-analysis CI gate.
//!
//! Two layers, one verdict (see `DESIGN.md` §4.11 for the rule catalog):
//!
//! * **Layer 1 — source lints** ([`lints`]): token-level determinism
//!   rules over the scrubbed sources ([`lexer`]) — no std hash-map
//!   iteration feeding results, no ambient RNG, no wall-clock reads
//!   outside bench timing, count-width discipline in `rsbt-core`, an
//!   `unwrap`/`expect` ratchet, mandatory crate-root attributes, and a
//!   ratchet on the kernel's public entry points. Existing debt is pinned
//!   by a committed ratchet baseline (`ANALYZE_BASELINE.json`); only
//!   regressions fail.
//!
//! * **Layer 2 — domain-IR verifiers**: static proofs over the
//!   workspace's two intermediate representations and its committed
//!   artifacts, without executing a single sample —
//!   [`plan_check`] abstract-interprets every built-in
//!   [`VerdictPlan`](rsbt_tasks::VerdictPlan) (def-before-use, dead
//!   ops, bounds, and endpoint correctness under refinement
//!   monotonicity), [`choreo_check`] exhaustively projects every
//!   registered [`GlobalProtocol`](rsbt_protocols::choreo::GlobalProtocol)
//!   across both model classes, and [`baseline_audit`] re-validates the
//!   three committed `BENCH_*.json` baselines plus their cross-file
//!   invariants.
//!
//! The `rsbt-analyze` binary runs both layers and exits non-zero on any
//! finding; CI runs it right after the test suite.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use rsbt_bench::report::Json;

pub mod baseline_audit;
pub mod choreo_check;
pub mod lexer;
pub mod lints;
pub mod plan_check;

/// The rules whose occurrence counts are ratcheted against
/// `ANALYZE_BASELINE.json` instead of being outright bans.
pub const RATCHET_RULES: [&str; 3] = ["RSBT-L004", "RSBT-L005", "RSBT-L007"];

/// The committed ratchet baseline, relative to the workspace root.
pub const BASELINE_FILE: &str = "ANALYZE_BASELINE.json";

/// The schema tag of the ratchet baseline document.
pub const BASELINE_SCHEMA: &str = "rsbt-analyze-baseline/v1";

/// The schema tag of the findings artifact the binary writes.
pub const FINDINGS_SCHEMA: &str = "rsbt-analyze-findings/v1";

/// One finding: a rule violation anchored to a source line (Layer 1) or
/// to a domain object such as a plan, protocol, or baseline row
/// (Layer 2, `line == 0`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`RSBT-L*`, `RSBT-P*`, `RSBT-C*`, `RSBT-B*`).
    pub rule: &'static str,
    /// Repo-relative file path, or a domain locus like
    /// `plan:leader-election/n=5/identity`.
    pub file: String,
    /// 1-based source line; 0 for domain findings.
    pub line: usize,
    /// What went wrong, in one sentence.
    pub message: String,
}

impl Finding {
    /// A source-anchored finding.
    pub fn src(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }

    /// A domain-anchored finding (no source line).
    pub fn domain(rule: &'static str, locus: String, message: String) -> Finding {
        Finding {
            rule,
            file: locus,
            line: 0,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule, self.file, self.message)
        } else {
            write!(
                f,
                "{}: {}:{}: {}",
                self.rule, self.file, self.line, self.message
            )
        }
    }
}

/// Knobs for [`analyze`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Options {
    /// Rewrite `ANALYZE_BASELINE.json` with the measured ratchet counts
    /// instead of comparing against it.
    pub update_ratchet: bool,
}

/// Coverage counters, so "no findings" is distinguishable from "nothing
/// ran".
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Source files scrubbed and linted.
    pub files_scanned: usize,
    /// Occurrences suppressed by inline allow directives.
    pub suppressed: usize,
    /// Verdict plans statically verified.
    pub plans_verified: usize,
    /// `(task, n, layout)` grid points where lowering returned no plan.
    pub plans_skipped: usize,
    /// Global protocols checked.
    pub protocols_checked: usize,
    /// `(protocol, model, n)` projections exercised.
    pub projections_checked: usize,
    /// Committed bench baselines audited.
    pub baselines_audited: usize,
    /// Sweep rows audited across the baselines.
    pub rows_audited: usize,
}

/// The result of a full analysis run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by `(rule, file, line)`.
    pub findings: Vec<Finding>,
    /// Non-fatal observations (ratchet tightening hints).
    pub notes: Vec<String>,
    /// Coverage counters.
    pub stats: Stats,
}

/// Runs both layers over the workspace at `root`.
///
/// # Errors
///
/// I/O errors from walking the sources or reading/writing the ratchet
/// baseline. Rule violations are `findings`, never errors.
pub fn analyze(root: &Path, opts: Options) -> io::Result<Analysis> {
    let mut out = Analysis::default();

    // Layer 1: source lints + ratchet.
    let files = lints::scan_workspace(root)?;
    let lint = lints::run(&files);
    out.stats.files_scanned = lint.files_scanned;
    out.stats.suppressed = lint.suppressed;
    out.findings.extend(lint.findings);
    if opts.update_ratchet {
        fs::write(
            root.join(BASELINE_FILE),
            emit_baseline(&lint.ratchet).to_pretty_string(),
        )?;
        out.notes
            .push(format!("ratchet baseline rewritten: {BASELINE_FILE}"));
    } else {
        match fs::read_to_string(root.join(BASELINE_FILE)) {
            Ok(text) => match parse_baseline(&text) {
                Ok(baseline) => {
                    compare_ratchet(&lint.ratchet, &baseline, &mut out);
                }
                Err(e) => out.findings.push(Finding::domain(
                    "RSBT-L000",
                    BASELINE_FILE.to_string(),
                    format!("malformed ratchet baseline: {e}"),
                )),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                out.findings.push(Finding::domain(
                    "RSBT-L000",
                    BASELINE_FILE.to_string(),
                    "ratchet baseline missing: run `rsbt-analyze --update-ratchet` and commit it"
                        .to_string(),
                ));
            }
            Err(e) => return Err(e),
        }
    }

    // Layer 2: domain-IR verifiers.
    let plans = plan_check::run();
    out.stats.plans_verified = plans.plans_verified;
    out.stats.plans_skipped = plans.plans_skipped;
    out.findings.extend(plans.findings);

    let choreo = choreo_check::run();
    out.stats.protocols_checked = choreo.protocols_checked;
    out.stats.projections_checked = choreo.projections_checked;
    out.findings.extend(choreo.findings);

    let bench = baseline_audit::run(root)?;
    out.stats.baselines_audited = bench.baselines_audited;
    out.stats.rows_audited = bench.rows_audited;
    out.findings.extend(bench.findings);

    out.findings
        .sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(out)
}

/// Compares measured ratchet counts against the committed baseline:
/// regressions become findings, improvements become tightening notes.
fn compare_ratchet(
    measured: &lints::RatchetCounts,
    baseline: &lints::RatchetCounts,
    out: &mut Analysis,
) {
    for (rule, file, count) in &measured.counts {
        let allowed = baseline.get(rule, file);
        if *count > allowed {
            let rule_id = RATCHET_RULES
                .into_iter()
                .find(|r| *r == rule.as_str())
                .expect("measured counts carry ratcheted rules only");
            out.findings.push(Finding::domain(
                rule_id,
                file.clone(),
                format!(
                    "ratchet regression: {count} occurrences, baseline allows {allowed} \
                     (fix the new sites or justify with an inline allow)"
                ),
            ));
        } else if *count < allowed {
            out.notes.push(format!(
                "{rule}: {file} improved to {count} (baseline {allowed}); \
                 tighten with --update-ratchet"
            ));
        }
    }
    for (rule, file, allowed) in &baseline.counts {
        if measured.get(rule, file) == 0 && *allowed > 0 {
            out.notes.push(format!(
                "{rule}: {file} is clean (baseline {allowed}); tighten with --update-ratchet"
            ));
        }
    }
}

/// Serializes ratchet counts as the committed baseline document.
pub fn emit_baseline(counts: &lints::RatchetCounts) -> Json {
    Json::obj([
        ("schema", Json::Str(BASELINE_SCHEMA.to_string())),
        (
            "counts",
            Json::Arr(
                counts
                    .counts
                    .iter()
                    .map(|(rule, file, count)| {
                        Json::obj([
                            ("rule", Json::Str(rule.clone())),
                            ("file", Json::Str(file.clone())),
                            ("count", Json::Int(*count as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses a committed baseline document.
///
/// # Errors
///
/// A description of the first structural problem.
pub fn parse_baseline(text: &str) -> Result<lints::RatchetCounts, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == BASELINE_SCHEMA => {}
        _ => return Err(format!("schema must be '{BASELINE_SCHEMA}'")),
    }
    let entries = doc
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or("missing 'counts' array")?;
    let mut counts = lints::RatchetCounts::default();
    for entry in entries {
        let rule = entry
            .get("rule")
            .and_then(Json::as_str)
            .ok_or("entry missing string 'rule'")?;
        if !RATCHET_RULES.contains(&rule) {
            return Err(format!("'{rule}' is not a ratcheted rule"));
        }
        let file = entry
            .get("file")
            .and_then(Json::as_str)
            .ok_or("entry missing string 'file'")?;
        let count = match entry.get("count") {
            Some(Json::Int(c)) if *c >= 1 => *c as usize,
            _ => return Err("entry 'count' must be a positive integer".to_string()),
        };
        counts
            .counts
            .push((rule.to_string(), file.to_string(), count));
    }
    counts.sort();
    Ok(counts)
}

/// Serializes an analysis as the findings artifact CI uploads.
pub fn findings_json(analysis: &Analysis) -> Json {
    let stats = &analysis.stats;
    Json::obj([
        ("schema", Json::Str(FINDINGS_SCHEMA.to_string())),
        (
            "findings",
            Json::Arr(
                analysis
                    .findings
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("rule", Json::Str(f.rule.to_string())),
                            ("file", Json::Str(f.file.clone())),
                            ("line", Json::Int(f.line as i64)),
                            ("message", Json::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(
                analysis
                    .notes
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        (
            "stats",
            Json::obj([
                ("files_scanned", Json::Int(stats.files_scanned as i64)),
                ("suppressed", Json::Int(stats.suppressed as i64)),
                ("plans_verified", Json::Int(stats.plans_verified as i64)),
                ("plans_skipped", Json::Int(stats.plans_skipped as i64)),
                (
                    "protocols_checked",
                    Json::Int(stats.protocols_checked as i64),
                ),
                (
                    "projections_checked",
                    Json::Int(stats.projections_checked as i64),
                ),
                (
                    "baselines_audited",
                    Json::Int(stats.baselines_audited as i64),
                ),
                ("rows_audited", Json::Int(stats.rows_audited as i64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips() {
        let mut counts = lints::RatchetCounts::default();
        counts
            .counts
            .push(("RSBT-L005".into(), "crates/core/src/x.rs".into(), 3));
        counts
            .counts
            .push(("RSBT-L004".into(), "crates/core/src/y.rs".into(), 1));
        counts.sort();
        let parsed = parse_baseline(&emit_baseline(&counts).to_pretty_string()).unwrap();
        assert_eq!(parsed, counts);
    }

    #[test]
    fn baseline_rejects_unknown_rules() {
        let doc = Json::obj([
            ("schema", Json::Str(BASELINE_SCHEMA.into())),
            (
                "counts",
                Json::Arr(vec![Json::obj([
                    ("rule", Json::Str("RSBT-L001".into())),
                    ("file", Json::Str("x.rs".into())),
                    ("count", Json::Int(1)),
                ])]),
            ),
        ]);
        assert!(parse_baseline(&doc.to_pretty_string()).is_err());
    }

    #[test]
    fn ratchet_comparison_splits_regressions_from_improvements() {
        let mut measured = lints::RatchetCounts::default();
        measured.counts.push(("RSBT-L005".into(), "a.rs".into(), 5));
        measured.counts.push(("RSBT-L005".into(), "b.rs".into(), 1));
        let mut baseline = lints::RatchetCounts::default();
        baseline.counts.push(("RSBT-L005".into(), "a.rs".into(), 3));
        baseline.counts.push(("RSBT-L005".into(), "b.rs".into(), 2));
        baseline.counts.push(("RSBT-L005".into(), "c.rs".into(), 4));
        let mut out = Analysis::default();
        compare_ratchet(&measured, &baseline, &mut out);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("5 occurrences"));
        assert_eq!(out.notes.len(), 2, "b.rs improved, c.rs clean");
    }
}
