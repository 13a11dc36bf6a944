//! Fixture tests for the Layer-1 lint scanner: every rule fires on a
//! positive fixture, every escape hatch (comments, strings, raw strings,
//! `#[cfg(test)]` regions, allow directives) suppresses it.

use rsbt_analyze::lexer;
use rsbt_analyze::lints::{self, SourceFile};

fn scan(rel: &str, src: &str) -> lints::LintOutcome {
    lints::run(&[SourceFile {
        rel: rel.to_string(),
        scrubbed: lexer::scrub(src),
    }])
}

fn fired(outcome: &lints::LintOutcome, rule: &str) -> Vec<usize> {
    outcome
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "use std::collections::HashMap;\n", // L001
            "let r = thread_rng();\n",          // L002
            "let t0 = Instant::now();\n",       // L003
            "let wall = SystemTime::now();\n",  // L003
        ),
    );
    assert_eq!(fired(&out, "RSBT-L001"), vec![1]);
    assert_eq!(fired(&out, "RSBT-L002"), vec![2]);
    assert_eq!(fired(&out, "RSBT-L003"), vec![3, 4]);
}

#[test]
fn line_comments_never_fire() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "// HashMap thread_rng Instant::now SystemTime\n",
            "/// doc: prefer thread_rng()-free code\n",
            "let x = 1;\n",
        ),
    );
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
}

#[test]
fn block_comments_never_fire_even_nested() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "/* HashMap /* nested thread_rng */ Instant::now */\n",
            "let y = 2; /* SystemTime */ let z = 3;\n",
        ),
    );
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
}

#[test]
fn strings_and_raw_strings_never_fire() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "let a = \"HashMap and thread_rng in a string\";\n",
            "let b = r#\"raw: Instant::now \"quoted\" SystemTime\"#;\n",
            "let c = \"multi-line \\\n",
            "          thread_rng continuation\";\n",
            "let line_five = thread_rng();\n",
        ),
    );
    // Only the real call on line 5 fires — and at the right line number
    // despite the escaped-newline string above it.
    assert_eq!(fired(&out, "RSBT-L002"), vec![5]);
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "fn live() { let h = HashMap::new(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashMap;\n",
            "    fn t() { let t0 = Instant::now(); let r = thread_rng(); }\n",
            "}\n",
        ),
    );
    assert_eq!(fired(&out, "RSBT-L001"), vec![1], "{:#?}", out.findings);
    assert!(fired(&out, "RSBT-L002").is_empty());
    assert!(fired(&out, "RSBT-L003").is_empty());
}

#[test]
fn allow_directives_suppress_inline_and_from_preceding_comment() {
    let out = scan(
        "crates/sim/src/fixture.rs",
        concat!(
            "let t0 = Instant::now(); // rsbt-analyze: allow(RSBT-L003): socket timeout\n",
            "// rsbt-analyze: allow(RSBT-L001, RSBT-L002)\n",
            "let m: HashMap<u32, u32> = seed(thread_rng());\n",
            "let unexcused = thread_rng();\n",
        ),
    );
    assert!(fired(&out, "RSBT-L003").is_empty());
    assert!(fired(&out, "RSBT-L001").is_empty());
    assert_eq!(fired(&out, "RSBT-L002"), vec![4], "{:#?}", out.findings);
    assert_eq!(out.suppressed, 3);
}

#[test]
fn allow_directive_for_the_wrong_rule_does_not_suppress() {
    let out = scan(
        "crates/sim/src/fixture.rs",
        "let t0 = Instant::now(); // rsbt-analyze: allow(RSBT-L001)\n",
    );
    assert_eq!(fired(&out, "RSBT-L003"), vec![1]);
}

#[test]
fn ratchet_rules_count_instead_of_firing() {
    let out = scan(
        "crates/core/src/fixture.rs",
        concat!(
            "let mask = (1u64 << k) - 1;\n",
            "let p = solved_count as f64 / runs as f64;\n",
            "let v = cfg.get(&k).unwrap();\n",
        ),
    );
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
    let entry = scan(
        "crates/core/src/probability.rs",
        "pub fn exact() {}\npub fn exact_series() {}\n",
    );
    assert!(entry.findings.is_empty(), "{:#?}", entry.findings);
    assert_eq!(
        entry
            .ratchet
            .get("RSBT-L007", "crates/core/src/probability.rs"),
        2
    );
    assert_eq!(
        out.ratchet.get("RSBT-L004", "crates/core/src/fixture.rs"),
        2
    );
    assert_eq!(
        out.ratchet.get("RSBT-L005", "crates/core/src/fixture.rs"),
        1
    );
}

#[test]
fn vendor_sources_only_answer_for_crate_root_attributes() {
    let out = scan(
        "vendor/rand/src/fixture.rs",
        "let r = thread_rng(); let m = HashMap::new(); let t = Instant::now();\n",
    );
    assert!(out.findings.is_empty(), "{:#?}", out.findings);

    let out = scan("vendor/rand/src/lib.rs", "pub fn noop() {}\n");
    let l006 = fired(&out, "RSBT-L006");
    assert_eq!(
        l006.len(),
        2,
        "both attributes missing: {:#?}",
        out.findings
    );
}

#[test]
fn non_kernel_crates_skip_kernel_only_rules() {
    // The analyze crate itself is neither kernel nor bench: HashMap and
    // unwrap are fine there, wall-clock reads are not.
    let out = scan(
        "crates/analyze/src/fixture.rs",
        concat!(
            "let m = HashMap::new();\n",
            "let v = m.get(&1).unwrap();\n",
            "let t = Instant::now();\n",
        ),
    );
    assert_eq!(fired(&out, "RSBT-L003"), vec![3]);
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    assert_eq!(out.ratchet.counts.len(), 0);
}
