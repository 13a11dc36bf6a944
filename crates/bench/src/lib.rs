//! Shared sweep engine and helpers for the experiment binaries.
//!
//! Every figure and theorem of the paper has a binary under `src/bin/`
//! (run with `cargo run -p rsbt-bench --bin <exp> --release`). See the
//! workspace `README.md` for the full experiment list; performance is
//! measured by the separate `perfbench/` package.
//!
//! All binaries are thin declarative wrappers over one harness:
//! [`run_experiment`] parses the shared CLI (`--json <path>`,
//! `--threads <n>`), hands the bin a [`SweepEngine`] (memoizing
//! probability cache plus parallel fan-out) and a [`Report`] (text
//! rendering plus `rsbt-bench-report/v1` JSON), prints the text form, and
//! writes the schema-validated JSON when requested.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod report;
pub mod sweep;

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

pub use crate::proto::{counters_table, ProtoMc, ProtoMcPoint};
pub use crate::report::{Json, Report, Section, SCHEMA, SCHEMA_V1};
pub use crate::sweep::{
    default_threads, standard_table, McRow, McSweep, ModelSpec, RowMode, SweepEngine, SweepRow,
    SweepSpec, TaskSpec,
};

/// A minimal fixed-width text table for experiment output.
///
/// # Example
///
/// ```
/// use rsbt_bench::Table;
///
/// let mut t = Table::new(vec!["config", "p(3)"]);
/// t.row(vec!["[1,2]".to_string(), "0.875".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("config"));
/// assert!(s.contains("0.875"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// The number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column headers (used by the JSON report serializer).
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows (used by the JSON report serializer).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a probability with fixed precision for table cells.
pub fn fmt_p(p: f64) -> String {
    format!("{p:.6}")
}

/// Formats a group-size profile like `[1, 2, 3]` compactly.
pub fn fmt_sizes(sizes: &[usize]) -> String {
    let inner: Vec<String> = sizes.iter().map(usize::to_string).collect();
    format!("[{}]", inner.join(","))
}

/// Prints an experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("=== {title} ===");
    println!("paper reference: {paper_ref}");
    println!();
}

/// Parsed command-line options shared by every `exp_*` binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpArgs {
    /// Write the machine-readable report here (`--json <path>`).
    pub json: Option<PathBuf>,
    /// Worker-thread override (`--threads <n>`).
    pub threads: Option<usize>,
    /// Monte-Carlo sample-count override (`--samples <n>`).
    pub samples: Option<usize>,
    /// Monte-Carlo base-seed override (`--seed <hex>`).
    pub seed: Option<u64>,
    /// `--help` was requested.
    pub help: bool,
}

/// Parses the shared experiment CLI from an argument iterator (exposed for
/// tests; binaries go through [`run_experiment`]).
///
/// # Errors
///
/// A usage message on unknown flags or malformed values.
pub fn parse_args<I: Iterator<Item = String>>(args: I) -> Result<ExpArgs, String> {
    let mut out = ExpArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let path = args.next().ok_or("--json needs a file path")?;
                out.json = Some(PathBuf::from(path));
            }
            "--threads" => {
                let n = args.next().ok_or("--threads needs a number")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--threads needs a number, got '{n}'"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                out.threads = Some(n);
            }
            "--samples" => {
                let n = args.next().ok_or("--samples needs a number")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--samples needs a number, got '{n}'"))?;
                if n == 0 {
                    return Err("--samples must be at least 1".into());
                }
                out.samples = Some(n);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a hex value")?;
                let digits = v.strip_prefix("0x").unwrap_or(&v);
                let seed = u64::from_str_radix(digits, 16)
                    .map_err(|_| format!("--seed needs a hex u64, got '{v}'"))?;
                out.seed = Some(seed);
            }
            "--help" | "-h" => out.help = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// The common entry point of every experiment binary: parses the shared
/// CLI, runs `body` with a [`SweepEngine`] and an empty [`Report`], prints
/// the report's text rendering, and — with `--json <path>` — writes the
/// schema-validated `rsbt-bench-report/v1` document.
pub fn run_experiment<F>(experiment: &str, title: &str, paper_ref: &str, body: F) -> ExitCode
where
    F: FnOnce(&mut SweepEngine, &mut Report),
{
    run_experiment_from(std::env::args().skip(1), experiment, title, paper_ref, body)
}

/// [`run_experiment`] over an explicit argument iterator: binaries with
/// extra flags of their own (e.g. `exp_proto_net --kill`) extract those
/// first and hand the remainder here for the shared CLI.
pub fn run_experiment_from<I, F>(
    raw_args: I,
    experiment: &str,
    title: &str,
    paper_ref: &str,
    body: F,
) -> ExitCode
where
    I: Iterator<Item = String>,
    F: FnOnce(&mut SweepEngine, &mut Report),
{
    let args = match parse_args(raw_args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: {experiment} [--json <path>] [--threads <n>] [--samples <n>] [--seed <hex>]"
            );
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{experiment} — {title}");
        println!(
            "usage: {experiment} [--json <path>] [--threads <n>] [--samples <n>] [--seed <hex>]"
        );
        println!("  --json <path>   also write the {SCHEMA} JSON report");
        println!("  --threads <n>   sweep worker threads (default: min(cores, 8))");
        println!("  --samples <n>   override the Monte-Carlo sample count per point");
        println!("  --seed <hex>    override the Monte-Carlo base seed (hex, 0x optional)");
        return ExitCode::SUCCESS;
    }
    let threads = args.threads.unwrap_or_else(default_threads);
    let mut engine = SweepEngine::new(threads);
    engine.set_mc_overrides(args.samples, args.seed);
    let mut rep = Report::new(experiment, title, paper_ref);
    rep.set_threads(threads);
    let start = std::time::Instant::now();
    body(&mut engine, &mut rep);
    rep.set_elapsed_ms(start.elapsed().as_millis() as u64);
    let (hits, misses, points) = engine.cache_stats();
    rep.set_cache_stats(hits, misses, points);
    print!("{}", rep.render_text());
    if let Some(path) = &args.json {
        if let Err(e) = rep.write_json(path) {
            eprintln!("error: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote JSON report to {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        t.row(vec!["y".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    "));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_p(0.5), "0.500000");
        assert_eq!(fmt_sizes(&[1, 2]), "[1,2]");
    }

    fn args(list: &[&str]) -> Result<ExpArgs, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_parsing() {
        assert_eq!(args(&[]), Ok(ExpArgs::default()));
        let parsed = args(&["--json", "out.json", "--threads", "3"]).unwrap();
        assert_eq!(parsed.json, Some(PathBuf::from("out.json")));
        assert_eq!(parsed.threads, Some(3));
        assert!(args(&["--help"]).unwrap().help);
        assert!(args(&["--threads"]).is_err());
        assert!(args(&["--threads", "0"]).is_err());
        assert!(args(&["--threads", "x"]).is_err());
        assert!(args(&["--nope"]).is_err());
    }

    #[test]
    fn mc_override_parsing() {
        let parsed = args(&["--samples", "5000", "--seed", "0xDEADbeef"]).unwrap();
        assert_eq!(parsed.samples, Some(5000));
        assert_eq!(parsed.seed, Some(0xdead_beef));
        assert_eq!(args(&["--seed", "7e5"]).unwrap().seed, Some(0x7e5));
        assert!(args(&["--samples"]).is_err());
        assert!(args(&["--samples", "0"]).is_err());
        assert!(args(&["--samples", "x"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "zz"]).is_err());
    }
}
