//! Layer 2c: auditing the committed `BENCH_*.json` baselines.
//!
//! The three committed baselines are the repo's regression memory for
//! the sweep, fault-injection and protocol-MC experiments; a silently
//! corrupted one would hide a changed answer. Each file is re-validated against the `rsbt-bench-report/v2`
//! schema and then checked against cross-file invariants the generating
//! experiments guarantee:
//!
//! | rule | what it checks |
//! |------|----------------|
//! | `RSBT-B001` | the file exists, parses, and satisfies the v2 schema |
//! | `RSBT-B002` | the document's `experiment` matches the file name, and the schema tag is exactly v2 (no silent v1 downgrades) |
//! | `RSBT-B003` | on every Monte-Carlo row, the Wilson bounds bracket the estimate pointwise (`ci_lo ≤ series ≤ ci_hi`) |
//! | `RSBT-B004` | every exact/exact-dp series is monotone non-decreasing in `t` (success-by-round-`t` is cumulative) |
//! | `RSBT-B005` | every faulted sweep row pairs with a fault-free base row — same `(model, task, n, k, sizes)` key — in its sweep |
//! | `RSBT-B006` | on the blackboard, each faulted series dominates its fault-free base pointwise (common-random-numbers coupling: faults only remove information, and earlier decisions win) |

use std::fs;
use std::io;
use std::path::Path;

use rsbt_bench::report::{validate, Json, SCHEMA};

use crate::Finding;

/// The committed baselines and the experiment each must contain.
pub const EXPECTED: [(&str, &str); 3] = [
    ("BENCH_faults.json", "faults"),
    ("BENCH_proto_mc.json", "proto_mc"),
    ("BENCH_sweep.json", "zero_one"),
];

/// Numeric slack for exact-series monotonicity (shortest-round-trip
/// floats; exact series are ratios of integer counts).
const EXACT_TOL: f64 = 1e-12;

/// Numeric slack for the CRN dominance comparison.
const DOMINANCE_TOL: f64 = 1e-9;

/// The result of the baseline-audit pass.
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Violations found.
    pub findings: Vec<Finding>,
    /// Baseline files audited.
    pub baselines_audited: usize,
    /// Sweep rows audited across all files.
    pub rows_audited: usize,
}

/// Audits all committed baselines under `root`.
///
/// # Errors
///
/// Unexpected I/O errors; a *missing* baseline is a finding, not an
/// error.
pub fn run(root: &Path) -> io::Result<BaselineOutcome> {
    let mut out = BaselineOutcome::default();
    for (file, experiment) in EXPECTED {
        out.baselines_audited += 1;
        let text = match fs::read_to_string(root.join(file)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                out.findings.push(Finding::domain(
                    "RSBT-B001",
                    file.to_string(),
                    "committed baseline is missing".to_string(),
                ));
                continue;
            }
            Err(e) => return Err(e),
        };
        let doc = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                out.findings.push(Finding::domain(
                    "RSBT-B001",
                    file.to_string(),
                    format!("does not parse: {e}"),
                ));
                continue;
            }
        };
        let (findings, rows) = audit_doc(file, experiment, &doc);
        out.findings.extend(findings);
        out.rows_audited += rows;
    }
    Ok(out)
}

/// Audits one parsed baseline document; returns findings and the number
/// of sweep rows inspected.
pub fn audit_doc(file: &str, experiment: &str, doc: &Json) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();

    // B001: schema validity.
    if let Err(e) = validate(doc) {
        findings.push(Finding::domain(
            "RSBT-B001",
            file.to_string(),
            format!("schema validation failed: {e}"),
        ));
        return (findings, 0);
    }

    // B002: identity.
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => findings.push(Finding::domain(
            "RSBT-B002",
            file.to_string(),
            format!("schema tag is '{s}', committed baselines must be '{SCHEMA}'"),
        )),
        None => unreachable!("validate() checked the schema tag"),
    }
    match doc.get("experiment").and_then(Json::as_str) {
        Some(e) if e == experiment => {}
        other => findings.push(Finding::domain(
            "RSBT-B002",
            file.to_string(),
            format!("experiment is {other:?}, expected '{experiment}'"),
        )),
    }

    // Per-row and per-sweep invariants.
    let mut rows_audited = 0;
    let empty = Vec::new();
    let sections = doc.get("sections").and_then(Json::as_arr).unwrap_or(&empty);
    for section in sections {
        let sweeps = section
            .get("sweeps")
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        for sweep in sweeps {
            let label = sweep.get("label").and_then(Json::as_str).unwrap_or("?");
            let rows = sweep.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
            rows_audited += rows.len();
            for row in rows {
                audit_row(file, label, row, &mut findings);
            }
            audit_fault_pairing(file, label, rows, &mut findings);
        }
    }
    (findings, rows_audited)
}

fn series_of(row: &Json) -> Vec<f64> {
    row.get("series")
        .and_then(Json::as_arr)
        .map(|s| s.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn row_locus(file: &str, label: &str, row: &Json) -> String {
    let field = |key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let n = row.get("n").and_then(Json::as_f64).unwrap_or(0.0);
    format!(
        "bench:{file}/{label}/{}/{}/n={n}",
        field("model"),
        field("task")
    )
}

/// B003 + B004 for one sweep row.
fn audit_row(file: &str, label: &str, row: &Json, findings: &mut Vec<Finding>) {
    let series = series_of(row);
    match row.get("mode").and_then(Json::as_str) {
        Some("mc") => {
            let bound = |key: &str| -> Vec<f64> {
                row.get(key)
                    .and_then(Json::as_arr)
                    .map(|b| b.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (lo, hi) = (bound("ci_lo"), bound("ci_hi"));
            for (t, &v) in series.iter().enumerate() {
                if lo[t] - EXACT_TOL > v || v > hi[t] + EXACT_TOL {
                    findings.push(Finding::domain(
                        "RSBT-B003",
                        row_locus(file, label, row),
                        format!(
                            "Wilson bounds do not bracket the estimate at t-index {t}: \
                             [{}, {}] vs {v}",
                            lo[t], hi[t]
                        ),
                    ));
                }
            }
        }
        Some("exact") | Some("exact-dp") => {
            for t in 1..series.len() {
                if series[t] + EXACT_TOL < series[t - 1] {
                    findings.push(Finding::domain(
                        "RSBT-B004",
                        row_locus(file, label, row),
                        format!(
                            "exact series decreases at t-index {t}: {} -> {} \
                             (success-by-t is cumulative)",
                            series[t - 1],
                            series[t]
                        ),
                    ));
                }
            }
        }
        _ => {}
    }
}

/// The fault-pairing key: sweeps pair base and faulted rows by
/// everything except the fault rates and the limit tag.
fn pair_key(row: &Json) -> String {
    let sizes = row
        .get("sizes")
        .and_then(Json::as_arr)
        .map(|s| {
            s.iter()
                .filter_map(Json::as_f64)
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default();
    format!(
        "{}|{}|{}|{}|[{sizes}]",
        row.get("model").and_then(Json::as_str).unwrap_or("?"),
        row.get("task").and_then(Json::as_str).unwrap_or("?"),
        row.get("n").and_then(Json::as_f64).unwrap_or(0.0),
        row.get("k").and_then(Json::as_f64).unwrap_or(0.0),
    )
}

fn fault_rate(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

/// B005 + B006 over one sweep's rows.
fn audit_fault_pairing(file: &str, label: &str, rows: &[Json], findings: &mut Vec<Finding>) {
    let is_base = |row: &Json| {
        fault_rate(row, "crash") == Some(0.0) && fault_rate(row, "omission") == Some(0.0)
    };
    let bases: Vec<(&Json, String)> = rows
        .iter()
        .filter(|r| is_base(r))
        .map(|r| (r, pair_key(r)))
        .collect();
    for row in rows {
        let (Some(crash), Some(omission)) = (fault_rate(row, "crash"), fault_rate(row, "omission"))
        else {
            continue;
        };
        if crash == 0.0 && omission == 0.0 {
            continue;
        }
        let key = pair_key(row);
        let Some((base, _)) = bases.iter().find(|(_, k)| *k == key) else {
            findings.push(Finding::domain(
                "RSBT-B005",
                row_locus(file, label, row),
                format!(
                    "faulted row (crash = {crash}, omission = {omission}) has no \
                     fault-free base row in its sweep"
                ),
            ));
            continue;
        };
        if row.get("model").and_then(Json::as_str) != Some("blackboard") {
            continue;
        }
        let (faulted, clean) = (series_of(row), series_of(base));
        if faulted.len() != clean.len() {
            findings.push(Finding::domain(
                "RSBT-B006",
                row_locus(file, label, row),
                "faulted and base series lengths differ".to_string(),
            ));
            continue;
        }
        for (t, (&f, &b)) in faulted.iter().zip(&clean).enumerate() {
            if f + DOMINANCE_TOL < b {
                findings.push(Finding::domain(
                    "RSBT-B006",
                    row_locus(file, label, row),
                    format!(
                        "faulted series drops below its fault-free base at t-index {t}: \
                         {f} < {b} (CRN coupling forbids this on the blackboard)"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    fn row(mode: &str, series: &[f64], faults: Option<(f64, f64)>) -> Json {
        let mut pairs = vec![
            ("model".to_string(), Json::Str("blackboard".into())),
            ("task".to_string(), Json::Str("leader-election".into())),
            (
                "sizes".to_string(),
                Json::Arr(vec![Json::Int(1), Json::Int(1)]),
            ),
            ("n".to_string(), Json::Int(2)),
            ("k".to_string(), Json::Int(2)),
            ("gcd".to_string(), Json::Int(1)),
            (
                "series".to_string(),
                Json::Arr(series.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("limit".to_string(), Json::Str("One".into())),
            ("mode".to_string(), Json::Str(mode.into())),
        ];
        if let Some((crash, omission)) = faults {
            pairs.push(("crash".to_string(), Json::Num(crash)));
            pairs.push(("omission".to_string(), Json::Num(omission)));
        }
        if mode == "mc" {
            pairs.push(("samples".to_string(), Json::Int(64)));
            pairs.push(("seed".to_string(), Json::Str("7".into())));
            let shift = |d: f64| Json::Arr(series.iter().map(|&v| Json::Num(v + d)).collect());
            pairs.push(("ci_lo".to_string(), shift(-0.01)));
            pairs.push(("ci_hi".to_string(), shift(0.01)));
        }
        Json::Obj(pairs)
    }

    fn doc(experiment: &str, rows: Vec<Json>) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("experiment", Json::Str(experiment.into())),
            ("title", Json::Str("t".into())),
            ("paper_ref", Json::Str("r".into())),
            ("threads", Json::Int(1)),
            (
                "sections",
                Json::Arr(vec![Json::obj([
                    ("title", Json::Str("s".into())),
                    ("tables", Json::Arr(vec![])),
                    (
                        "sweeps",
                        Json::Arr(vec![Json::obj([
                            ("label", Json::Str("sweep".into())),
                            ("rows", Json::Arr(rows)),
                        ])]),
                    ),
                    ("notes", Json::Arr(vec![])),
                ])]),
            ),
        ])
    }

    #[test]
    fn committed_baselines_are_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let out = run(&root).unwrap();
        assert!(out.findings.is_empty(), "{:#?}", out.findings);
        assert_eq!(out.baselines_audited, EXPECTED.len());
        assert!(out.rows_audited > 0);
    }

    #[test]
    fn clean_synthetic_document_audits_clean() {
        let d = doc(
            "faults",
            vec![
                row("exact", &[0.25, 0.5], Some((0.0, 0.0))),
                row("exact", &[0.3, 0.6], Some((0.1, 0.0))),
                row("mc", &[0.5, 0.75], None),
            ],
        );
        validate(&d).unwrap();
        let (findings, rows) = audit_doc("BENCH_faults.json", "faults", &d);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(rows, 3);
    }

    #[test]
    fn flags_experiment_mismatch_and_v1_downgrade() {
        let d = doc("wrong-name", vec![]);
        let (findings, _) = audit_doc("BENCH_faults.json", "faults", &d);
        assert!(rules(&findings).contains(&"RSBT-B002"), "{findings:#?}");
    }

    #[test]
    fn flags_unbracketed_mc_estimates() {
        let mut bad = row("mc", &[0.5], None);
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "ci_hi" {
                    *v = Json::Arr(vec![Json::Num(0.4)]);
                }
            }
        }
        let (findings, _) = audit_doc("BENCH_faults.json", "faults", &doc("faults", vec![bad]));
        assert!(rules(&findings).contains(&"RSBT-B003"), "{findings:#?}");
    }

    #[test]
    fn flags_decreasing_exact_series() {
        let d = doc("zero_one", vec![row("exact", &[0.5, 0.4], None)]);
        let (findings, _) = audit_doc("BENCH_sweep.json", "zero_one", &d);
        assert!(rules(&findings).contains(&"RSBT-B004"), "{findings:#?}");
    }

    #[test]
    fn flags_unpaired_and_dominance_breaking_fault_rows() {
        // Faulted row with no base at its key.
        let d = doc("faults", vec![row("exact", &[0.3], Some((0.1, 0.0)))]);
        let (findings, _) = audit_doc("BENCH_faults.json", "faults", &d);
        assert!(rules(&findings).contains(&"RSBT-B005"), "{findings:#?}");

        // Paired, but the faulted series dips below its base.
        let d = doc(
            "faults",
            vec![
                row("exact", &[0.5, 0.6], Some((0.0, 0.0))),
                row("exact", &[0.5, 0.55], Some((0.0, 0.2))),
            ],
        );
        let (findings, _) = audit_doc("BENCH_faults.json", "faults", &d);
        assert!(rules(&findings).contains(&"RSBT-B006"), "{findings:#?}");
    }
}
