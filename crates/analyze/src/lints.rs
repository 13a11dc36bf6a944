//! Layer 1: token-level determinism lints over the workspace sources.
//!
//! Eight rules, each with a stable ID, `file:line` findings, inline
//! `// rsbt-analyze: allow(RULE)` escapes, and — for the three rules whose
//! existing occurrences are audited rather than banned — a committed
//! ratchet baseline (`ANALYZE_BASELINE.json`):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `RSBT-L001` | no std `HashMap`/`HashSet` (SipHash `RandomState`: iteration order varies per process) in kernel or bench crates — use the deterministic `rsbt_sim::FxHashMap` or sorted adapters |
//! | `RSBT-L002` | no ambient `thread_rng` outside `vendor/` — randomness flows through seeded `StreamRng` streams |
//! | `RSBT-L003` | no `Instant::now`/`SystemTime` outside `crates/bench/src` — wall-clock reads stay in bench/report timing |
//! | `RSBT-L004` | count-width discipline in `rsbt-core`: `1u64 <<`/`1usize <<` and count→`f64` casts are ratcheted (PR 9's u128 width audit made permanent); `1u64 <<` is hard-banned in `probability.rs`, where shifts reach `k·t > 64` |
//! | `RSBT-L005` | `.unwrap()`/`.expect(` in library crates: ratcheted, no new occurrences |
//! | `RSBT-L006` | every crate root carries `#![forbid(unsafe_code)]` and `#![deny(deprecated)]` |
//! | `RSBT-L007` | top-level `pub fn` entry points in the kernel entry-point files ([`ENTRY_POINT_FILES`]: `probability`, `bitsliced`, `engine_dp` and `solvability` in `crates/core`, `runner` and `net` in `crates/sim`): ratcheted, so deleted entry points stay deleted |
//! | `RSBT-L008` | `impl … Protocol for` in `crates/protocols/src` outside `choreo/`: the choreography is the only implementation of each protocol, so hand-rolled nodes stay deleted |
//!
//! Rules exempt `#[cfg(test)]` items and `tests/` trees; ratchet rules
//! compare per-file counts against the committed baseline and fail only
//! on regressions (a drop prints a tightening hint instead).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Scrubbed};
use crate::Finding;

/// Crates whose results must be bit-identical across runs and thread
/// counts (the kernel crates of the determinism policy).
pub const KERNEL_CRATES: [&str; 6] = [
    "crates/complex",
    "crates/core",
    "crates/protocols",
    "crates/random",
    "crates/sim",
    "crates/tasks",
];

/// The exact, Monte-Carlo, verdict and lockstep-runner entry-point files
/// whose top-level `pub fn` count RSBT-L007 ratchets.
pub const ENTRY_POINT_FILES: [&str; 6] = [
    "crates/core/src/bitsliced.rs",
    "crates/core/src/engine_dp.rs",
    "crates/core/src/probability.rs",
    "crates/core/src/solvability.rs",
    "crates/sim/src/net.rs",
    "crates/sim/src/runner.rs",
];

/// One scrubbed workspace source file.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// The scrubbed view.
    pub scrubbed: Scrubbed,
}

/// Walks the workspace sources the lints care about: `src/`,
/// `crates/*/src/`, and `vendor/*/src/` (vendor roots are scanned only
/// by the crate-attribute rule). Test trees (`tests/`, `benches/`) and
/// `examples/` are out of scope.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    for parent in ["crates", "vendor"] {
        let parent = root.join(parent);
        let mut entries: Vec<_> = fs::read_dir(&parent)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            dirs.push(crate_dir.join("src"));
        }
    }
    for dir in dirs {
        collect_rs(&dir, root, &mut files)?;
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked under root")
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            out.push(SourceFile {
                rel,
                scrubbed: lexer::scrub(&src),
            });
        }
    }
    Ok(())
}

/// Per-rule per-file occurrence counts for the ratcheted rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RatchetCounts {
    /// `(rule, file, count)`, sorted by rule then file; zero counts
    /// omitted.
    pub counts: Vec<(String, String, usize)>,
}

impl RatchetCounts {
    fn bump(&mut self, rule: &str, file: &str, by: usize) {
        if by == 0 {
            return;
        }
        if let Some(entry) = self
            .counts
            .iter_mut()
            .find(|(r, f, _)| r == rule && f == file)
        {
            entry.2 += by;
        } else {
            self.counts.push((rule.to_string(), file.to_string(), by));
        }
    }

    /// The recorded count for `(rule, file)` (0 when absent).
    pub fn get(&self, rule: &str, file: &str) -> usize {
        self.counts
            .iter()
            .find(|(r, f, _)| r == rule && f == file)
            .map_or(0, |(_, _, c)| *c)
    }

    /// Canonical ordering for deterministic emission.
    pub fn sort(&mut self) {
        self.counts.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    }
}

/// The result of the Layer-1 pass: hard findings plus the measured
/// ratchet counts (compared against the baseline by the caller).
pub struct LintOutcome {
    /// Findings from non-ratcheted rules (and hard-ban zones of
    /// ratcheted rules).
    pub findings: Vec<Finding>,
    /// Measured counts for the ratcheted rules.
    pub ratchet: RatchetCounts,
    /// Files scanned.
    pub files_scanned: usize,
    /// Occurrences suppressed by allow directives.
    pub suppressed: usize,
}

/// Runs every Layer-1 rule over `files`.
pub fn run(files: &[SourceFile]) -> LintOutcome {
    let mut findings = Vec::new();
    let mut ratchet = RatchetCounts::default();
    let mut suppressed = 0usize;

    for file in files {
        let rel = file.rel.as_str();
        let vendor = rel.starts_with("vendor/");
        let kernel = KERNEL_CRATES.iter().any(|c| rel.starts_with(*c));
        let bench = rel.starts_with("crates/bench/");
        let core = rel.starts_with("crates/core/");
        let entry_points = ENTRY_POINT_FILES.contains(&rel);
        let hand_rolled_zone = rel.starts_with("crates/protocols/src/")
            && !rel.starts_with("crates/protocols/src/choreo/");

        rule_l006(rel, &file.scrubbed, &mut findings);
        if vendor {
            continue;
        }

        for (idx, line) in file.scrubbed.lines.iter().enumerate() {
            let lineno = idx + 1;
            if line.in_test || line.code.trim().is_empty() {
                continue;
            }
            let code = line.code.as_str();
            let mut emit = |rule: &'static str, msg: String| {
                if file.scrubbed.allows(lineno, rule) {
                    suppressed += 1;
                } else {
                    findings.push(Finding::src(rule, rel, lineno, msg));
                }
            };

            // RSBT-L001: unordered std hash containers in determinism-
            // critical crates (FxHashMap/FxHashSet tokens don't match).
            if (kernel || bench) && rel != "crates/sim/src/fxhash.rs" {
                for name in ["HashMap", "HashSet"] {
                    if lexer::contains_ident(code, name) {
                        emit(
                            "RSBT-L001",
                            format!(
                                "std `{name}` (randomly seeded SipHash) in a kernel/bench crate: \
                                 use `rsbt_sim::Fx{name}` or a sorted adapter so iteration order \
                                 cannot feed result order"
                            ),
                        );
                    }
                }
            }

            // RSBT-L002: ambient RNG.
            if lexer::contains_ident(code, "thread_rng") {
                emit(
                    "RSBT-L002",
                    "ambient `thread_rng`: randomness must flow through seeded \
                     `StreamRng`/`SplitMix64` streams (thread-count-invariant)"
                        .to_string(),
                );
            }

            // RSBT-L003: wall-clock reads outside bench timing.
            if !bench {
                if lexer::contains_path(code, "Instant", "now") {
                    emit(
                        "RSBT-L003",
                        "`Instant::now` outside `crates/bench/src`: wall-clock reads are \
                         confined to bench/report timing modules"
                            .to_string(),
                    );
                }
                if lexer::contains_ident(code, "SystemTime") {
                    emit(
                        "RSBT-L003",
                        "`SystemTime` outside `crates/bench/src`: wall-clock reads are \
                         confined to bench/report timing modules"
                            .to_string(),
                    );
                }
            }

            // RSBT-L008: protocol nodes outside the choreography layer.
            if hand_rolled_zone && implements_protocol(code) {
                emit(
                    "RSBT-L008",
                    "`impl Protocol for` outside `choreo/`: write the protocol as a \
                     choreography in `choreo/protocols.rs`, the one implementation of \
                     each protocol"
                        .to_string(),
                );
            }

            // RSBT-L004: count-width discipline in rsbt-core.
            if core {
                let shifts = count_narrow_shift(code);
                let casts = count_count_casts(code);
                let hard = rel.ends_with("/probability.rs") && shifts > 0;
                if hard {
                    // probability.rs computes `count / 2^(k·t)` with
                    // k·t up to 126: a 64-bit power-of-two there is the
                    // exact overflow PR 9's audit eliminated.
                    emit(
                        "RSBT-L004",
                        "`1u64 <<` in probability.rs: denominators reach 2^(k*t) with \
                         k*t > 64, widths must be u128 (hard ban, not ratcheted)"
                            .to_string(),
                    );
                } else if shifts + casts > 0 {
                    if file.scrubbed.allows(lineno, "RSBT-L004") {
                        suppressed += shifts + casts;
                    } else {
                        ratchet.bump("RSBT-L004", rel, shifts + casts);
                    }
                }
            }

            // RSBT-L007: top-level public entry points (no indentation:
            // inherent methods and nested items do not count).
            if entry_points && code.starts_with("pub fn ") {
                if file.scrubbed.allows(lineno, "RSBT-L007") {
                    suppressed += 1;
                } else {
                    ratchet.bump("RSBT-L007", rel, 1);
                }
            }

            // RSBT-L005: unwrap/expect ratchet for library crates.
            if kernel {
                let n = lexer::count_method_calls(code, "unwrap")
                    + lexer::count_method_calls(code, "expect");
                if n > 0 {
                    if file.scrubbed.allows(lineno, "RSBT-L005") {
                        suppressed += n;
                    } else {
                        ratchet.bump("RSBT-L005", rel, n);
                    }
                }
            }
        }
    }

    ratchet.sort();
    LintOutcome {
        findings,
        ratchet,
        files_scanned: files.len(),
        suppressed,
    }
}

/// RSBT-L006: crate roots must pin the two workspace-wide guarantees.
fn rule_l006(rel: &str, scrubbed: &Scrubbed, findings: &mut Vec<Finding>) {
    if !rel.ends_with("src/lib.rs") {
        return;
    }
    let stripped: String = scrubbed
        .lines
        .iter()
        .flat_map(|l| l.code.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    for attr in ["#![forbid(unsafe_code)]", "#![deny(deprecated)]"] {
        if !stripped.contains(attr) {
            findings.push(Finding::src(
                "RSBT-L006",
                rel,
                1,
                format!("crate root is missing `{attr}`"),
            ));
        }
    }
}

/// Whether a code line opens an `impl … Protocol for …` block: the trait
/// named right before the `for` keyword is `Protocol` (bare or by path).
/// A `Protocol` bound on a generic parameter does not count.
fn implements_protocol(code: &str) -> bool {
    if !code.trim_start().starts_with("impl") {
        return false;
    }
    let mut from = 0;
    while let Some(at) = lexer::find_ident(code, "for", from) {
        from = at + 3;
        let before = code[..at].trim_end();
        if let Some(head) = before.strip_suffix("Protocol") {
            if !head.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                return true;
            }
        }
    }
    false
}

/// Counts `1u64 <<` / `1usize <<` narrow power-of-two constructions.
fn count_narrow_shift(code: &str) -> usize {
    let mut count = 0;
    for lit in ["1u64", "1usize"] {
        let mut from = 0;
        while let Some(at) = lexer::find_ident(code, lit, from) {
            if code[at + lit.len()..].trim_start().starts_with("<<") {
                count += 1;
            }
            from = at + lit.len();
        }
    }
    count
}

/// Counts `<count-ish ident> as f64` and `<count-ish ident>[...] as f64`
/// casts — the float conversions of raw solved/total counters that the
/// u128 width audit tracks (precision silently degrades past 2^53).
fn count_count_casts(code: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(at) = lexer::find_ident(code, "as", from) {
        from = at + 2;
        let rest = code[at + 2..].trim_start();
        if !rest.starts_with("f64")
            || rest[3..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let mut before = code[..at].trim_end();
        if before.ends_with(']') {
            // Walk back over one (possibly nested) index expression.
            let mut depth = 0i32;
            let mut cut = None;
            for (i, c) in before.char_indices().rev() {
                match c {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match cut {
                Some(i) => before = before[..i].trim_end(),
                None => continue,
            }
        }
        let ident: String = before
            .chars()
            .rev()
            .take_while(|&c| c.is_alphanumeric() || c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let lower = ident.to_lowercase();
        if !ident.is_empty()
            && ["count", "solved", "hits", "total"]
                .iter()
                .any(|k| lower.contains(k))
        {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            scrubbed: lexer::scrub(src),
        }
    }

    #[test]
    fn hashmap_fires_in_kernel_and_respects_fx() {
        let out = run(&[file(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nlet m = FxHashMap::default();\n",
        )]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "RSBT-L001");
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn wall_clock_allowed_in_bench_banned_elsewhere() {
        let out = run(&[
            file("crates/bench/src/timing.rs", "let t = Instant::now();\n"),
            file("crates/sim/src/x.rs", "let t = Instant::now();\n"),
        ]);
        let rules: Vec<_> = out
            .findings
            .iter()
            .map(|f| (f.rule, f.file.clone()))
            .collect();
        assert_eq!(
            rules,
            vec![("RSBT-L003", "crates/sim/src/x.rs".to_string())]
        );
    }

    #[test]
    fn probability_shift_is_a_hard_finding_elsewhere_ratcheted() {
        let out = run(&[
            file(
                "crates/core/src/probability.rs",
                "let d = 1u64 << (k * t);\n",
            ),
            file("crates/core/src/engine_dp.rs", "let m = (1u64 << k) - 1;\n"),
        ]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "RSBT-L004");
        assert_eq!(
            out.ratchet.get("RSBT-L004", "crates/core/src/engine_dp.rs"),
            1
        );
    }

    #[test]
    fn count_casts_are_ratcheted_with_index_lookbehind() {
        let out = run(&[file(
            "crates/core/src/probability.rs",
            "let p = counts[t - 1] as f64 / total as f64;\nlet q = x as f64;\n",
        )]);
        assert!(out.findings.is_empty());
        assert_eq!(
            out.ratchet
                .get("RSBT-L004", "crates/core/src/probability.rs"),
            2
        );
    }

    #[test]
    fn unwrap_ratchet_skips_tests_and_allows() {
        let src = concat!(
            "fn a() { x.unwrap(); y.expect(\"m\"); }\n",
            "fn b() { z.unwrap(); } // rsbt-analyze: allow(RSBT-L005)\n",
            "#[cfg(test)]\nmod tests { fn t() { w.unwrap(); } }\n",
        );
        let out = run(&[file("crates/sim/src/x.rs", src)]);
        assert_eq!(out.ratchet.get("RSBT-L005", "crates/sim/src/x.rs"), 2);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn crate_roots_must_pin_attributes() {
        let out = run(&[
            file("vendor/rand/src/lib.rs", "#![forbid(unsafe_code)]\n"),
            file(
                "crates/sim/src/lib.rs",
                "#![forbid(unsafe_code)]\n#![deny(deprecated)]\n",
            ),
        ]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "RSBT-L006");
        assert!(out.findings[0].message.contains("deny(deprecated)"));
    }

    #[test]
    fn entry_points_are_counted_only_at_top_level_of_listed_files() {
        let src = concat!(
            "pub fn a() {}\n",
            "pub(crate) fn b() {}\n",
            "impl X {\n    pub fn c() {}\n}\n",
            "pub fn d() {} // rsbt-analyze: allow(RSBT-L007)\n",
            "#[cfg(test)]\nmod tests {\npub fn e() {}\n}\n",
        );
        let out = run(&[
            file("crates/core/src/engine_dp.rs", src),
            file("crates/core/src/eventual.rs", src),
        ]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(
            out.ratchet.get("RSBT-L007", "crates/core/src/engine_dp.rs"),
            1
        );
        assert_eq!(
            out.ratchet.get("RSBT-L007", "crates/core/src/eventual.rs"),
            0
        );
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn protocol_impls_outside_choreo_are_findings() {
        let src = concat!(
            "impl Protocol for Node {\n",
            "impl<L: Protocol<Output = Role>> rsbt_sim::runner::Protocol for Via<L> {\n",
            "impl<N: Protocol<Output = Role>> DualRole for Wrap<N> {\n",
            "impl MyProtocol for Node {\n",
            "// impl Protocol for Commented {\n",
            "impl Protocol for Allowed {} // rsbt-analyze: allow(RSBT-L008)\n",
            "#[cfg(test)]\nmod tests { impl Protocol for Mock {} }\n",
        );
        let out = run(&[
            file("crates/protocols/src/legacy.rs", src),
            file("crates/protocols/src/choreo/machine.rs", src),
            file("crates/sim/src/runner.rs", src),
        ]);
        let hits: Vec<_> = out
            .findings
            .iter()
            .map(|f| (f.rule, f.file.as_str(), f.line))
            .collect();
        assert_eq!(
            hits,
            vec![
                ("RSBT-L008", "crates/protocols/src/legacy.rs", 1),
                ("RSBT-L008", "crates/protocols/src/legacy.rs", 2),
            ]
        );
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn thread_rng_in_comments_and_strings_is_invisible() {
        let out = run(&[file(
            "crates/random/src/x.rs",
            "/// like rand::thread_rng()\nlet s = \"thread_rng\";\nlet r = thread_rng();\n",
        )]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 3);
    }
}
