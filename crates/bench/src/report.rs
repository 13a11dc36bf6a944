//! Structured experiment reports: human-readable text and a stable,
//! machine-readable JSON schema (`rsbt-bench-report/v2`, with a
//! v1-compat validation path for pre-estimator baselines).
//!
//! Every `exp_*` binary builds a [`Report`] through the sweep-engine
//! harness ([`crate::run_experiment`]); `--json <path>` serializes it. The
//! JSON layer is self-contained (emitter, parser, and schema validator)
//! because the workspace is fully offline — no serde. The emitter is
//! deterministic: object keys keep insertion order and floats are written
//! in shortest round-trip form, so committed `BENCH_*.json` baselines diff
//! cleanly across PRs.
//!
//! **v2 over v1**: sweep rows carry a `mode` field (`"exact"`,
//! `"exact-dp"` for exact rows past the tree-engine wall that only the
//! quotient DP engine reaches, or `"mc"`), and Monte-Carlo rows add
//! `samples`, `seed`, `ci_lo`, and
//! `ci_hi` (per-`t` Wilson bounds parallel to `series`). v1 documents —
//! exact-only rows, no `mode` — still [`validate`] (the parser never
//! depended on the schema tag), so earlier committed baselines remain
//! readable.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::sweep::SweepRow;
use crate::Table;

/// The identifier every freshly-written report carries in its `schema`
/// field.
pub const SCHEMA: &str = "rsbt-bench-report/v2";

/// The pre-estimator schema identifier; [`validate`] still accepts it
/// (exact-only rows) so committed v1 baselines stay parseable.
pub const SCHEMA_V1: &str = "rsbt-bench-report/v1";

/// A JSON value with deterministic (insertion-ordered) objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float (emitted with a decimal point or exponent; non-finite
    /// values emit as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object literal.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.map(|(k, v)| (k.to_string(), v)).to_vec())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this value is a number (integer or float).
    pub fn is_number(&self) -> bool {
        matches!(self, Json::Int(_) | Json::Num(_))
    }

    /// The numeric payload as `f64` (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, 0);
        out.push('\n');
        out
    }

    fn emit(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else {
                    let s = format!("{v}");
                    out.push_str(&s);
                    // Keep floats distinguishable from integers so the
                    // emit→parse round trip is the identity.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                }
            }
            Json::Str(s) => emit_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.emit(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    emit_string(out, k);
                    out.push_str(": ");
                    v.emit(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, only whitespace after).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not produced by our
                            // emitter; reject rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so the run ends on a char
                    // boundary of the &str input.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Consumes one or more ASCII digits; errors otherwise.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit at byte {start}"));
        }
        Ok(())
    }

    /// Strict JSON number grammar: `-? int frac? exp?` — no leading `+`,
    /// no bare trailing `.`, a signed exponent needs digits.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        self.digits()
            .map_err(|_| format!("expected a value at byte {start}"))?;
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

/// One item of a report section.
#[derive(Clone, Debug)]
enum Item {
    Table(Table),
    Note(String),
    Sweep { label: String, rows: Vec<SweepRow> },
}

/// A titled group of tables, notes, and sweep results.
#[derive(Clone, Debug)]
pub struct Section {
    title: String,
    items: Vec<Item>,
}

impl Section {
    /// Appends a fixed-width table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.items.push(Item::Table(table));
        self
    }

    /// Appends a free-form note line (one paragraph of reading guidance).
    pub fn note<S: Into<String>>(&mut self, note: S) -> &mut Self {
        self.items.push(Item::Note(note.into()));
        self
    }

    /// Appends structured sweep rows. Rendered as the standard sweep table
    /// in text and as typed objects (not stringly cells) in JSON.
    pub fn sweep<S: Into<String>>(&mut self, label: S, rows: Vec<SweepRow>) -> &mut Self {
        self.items.push(Item::Sweep {
            label: label.into(),
            rows,
        });
        self
    }
}

/// A complete experiment report.
#[derive(Clone, Debug)]
pub struct Report {
    experiment: String,
    title: String,
    paper_ref: String,
    threads: usize,
    elapsed_ms: Option<u64>,
    cache: Option<(u64, u64, usize)>,
    sections: Vec<Section>,
}

impl Report {
    /// Creates an empty report for the named experiment.
    pub fn new<S1: Into<String>, S2: Into<String>, S3: Into<String>>(
        experiment: S1,
        title: S2,
        paper_ref: S3,
    ) -> Self {
        Report {
            experiment: experiment.into(),
            title: title.into(),
            paper_ref: paper_ref.into(),
            threads: 1,
            elapsed_ms: None,
            cache: None,
            sections: Vec::new(),
        }
    }

    /// Starts (and returns) a new section.
    pub fn section<S: Into<String>>(&mut self, title: S) -> &mut Section {
        self.sections.push(Section {
            title: title.into(),
            items: Vec::new(),
        });
        self.sections.last_mut().expect("just pushed")
    }

    /// Records the worker-thread count used (harness bookkeeping).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Records wall-clock duration (harness bookkeeping).
    pub fn set_elapsed_ms(&mut self, ms: u64) {
        self.elapsed_ms = Some(ms);
    }

    /// Records probability-cache statistics (harness bookkeeping).
    pub fn set_cache_stats(&mut self, hits: u64, misses: u64, points: usize) {
        self.cache = Some((hits, misses, points));
    }

    /// Renders the human-readable form (what the binary prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        let _ = writeln!(out, "paper reference: {}", self.paper_ref);
        for section in &self.sections {
            let _ = writeln!(out);
            if !section.title.is_empty() {
                let _ = writeln!(out, "-- {} --", section.title);
            }
            for item in &section.items {
                match item {
                    Item::Table(t) => {
                        let _ = write!(out, "{t}");
                    }
                    Item::Note(n) => {
                        let _ = writeln!(out, "{n}");
                    }
                    Item::Sweep { rows, .. } => {
                        let _ = write!(out, "{}", crate::sweep::standard_table(rows));
                    }
                }
            }
        }
        out
    }

    /// Serializes to the `rsbt-bench-report/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut top = vec![
            ("schema".to_string(), Json::Str(SCHEMA.into())),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("paper_ref".to_string(), Json::Str(self.paper_ref.clone())),
            ("threads".to_string(), Json::Int(self.threads as i64)),
        ];
        if let Some(ms) = self.elapsed_ms {
            top.push(("elapsed_ms".to_string(), Json::Int(ms as i64)));
        }
        if let Some((hits, misses, points)) = self.cache {
            top.push((
                "cache".to_string(),
                Json::obj([
                    ("hits", Json::Int(hits as i64)),
                    ("misses", Json::Int(misses as i64)),
                    ("points", Json::Int(points as i64)),
                ]),
            ));
        }
        let sections: Vec<Json> = self
            .sections
            .iter()
            .map(|s| {
                let mut tables = Vec::new();
                let mut notes = Vec::new();
                let mut sweeps = Vec::new();
                for item in &s.items {
                    match item {
                        Item::Table(t) => tables.push(table_json(t)),
                        Item::Note(n) => notes.push(Json::Str(n.clone())),
                        Item::Sweep { label, rows } => sweeps.push(Json::obj([
                            ("label", Json::Str(label.clone())),
                            (
                                "rows",
                                Json::Arr(rows.iter().map(SweepRow::to_json).collect()),
                            ),
                        ])),
                    }
                }
                Json::obj([
                    ("title", Json::Str(s.title.clone())),
                    ("tables", Json::Arr(tables)),
                    ("sweeps", Json::Arr(sweeps)),
                    ("notes", Json::Arr(notes)),
                ])
            })
            .collect();
        top.push(("sections".to_string(), Json::Arr(sections)));
        Json::Obj(top)
    }

    /// Validates and writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem.
    ///
    /// # Panics
    ///
    /// Panics if the generated document fails its own schema validation —
    /// that is a bug in the report builder, never a user error.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let json = self.to_json();
        validate(&json).expect("generated report must satisfy the v1 schema");
        std::fs::write(path, json.to_pretty_string())
    }
}

fn table_json(t: &Table) -> Json {
    Json::obj([
        (
            "columns",
            Json::Arr(t.headers().iter().map(|h| Json::Str(h.clone())).collect()),
        ),
        (
            "rows",
            Json::Arr(
                t.rows()
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Validates a document against the `rsbt-bench-report/v2` schema (or
/// the v1 schema, for pre-estimator baselines: v1 rows must be
/// exact-only and may not carry estimator fields).
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate(doc: &Json) -> Result<(), String> {
    let need_str = |key: &str| -> Result<(), String> {
        match doc.get(key) {
            Some(Json::Str(_)) => Ok(()),
            _ => Err(format!("top-level '{key}' must be a string")),
        }
    };
    let v1 = match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => false,
        Some(s) if s == SCHEMA_V1 => true,
        _ => {
            return Err(format!(
                "schema field must be '{SCHEMA}' (or '{SCHEMA_V1}')"
            ))
        }
    };
    need_str("experiment")?;
    need_str("title")?;
    need_str("paper_ref")?;
    match doc.get("threads") {
        Some(Json::Int(t)) if *t >= 1 => {}
        _ => return Err("top-level 'threads' must be a positive integer".into()),
    }
    let sections = doc
        .get("sections")
        .and_then(Json::as_arr)
        .ok_or("top-level 'sections' must be an array")?;
    for (si, section) in sections.iter().enumerate() {
        let at = |msg: &str| format!("section {si}: {msg}");
        if !matches!(section.get("title"), Some(Json::Str(_))) {
            return Err(at("missing string 'title'"));
        }
        let tables = section
            .get("tables")
            .and_then(Json::as_arr)
            .ok_or_else(|| at("missing array 'tables'"))?;
        for table in tables {
            let columns = table
                .get("columns")
                .and_then(Json::as_arr)
                .ok_or_else(|| at("table missing 'columns'"))?;
            if !columns.iter().all(|c| matches!(c, Json::Str(_))) {
                return Err(at("table columns must be strings"));
            }
            let rows = table
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| at("table missing 'rows'"))?;
            for row in rows {
                let cells = row.as_arr().ok_or_else(|| at("table row must be array"))?;
                if cells.len() != columns.len() {
                    return Err(at("table row width must match columns"));
                }
                if !cells.iter().all(|c| matches!(c, Json::Str(_))) {
                    return Err(at("table cells must be strings"));
                }
            }
        }
        let sweeps = section
            .get("sweeps")
            .and_then(Json::as_arr)
            .ok_or_else(|| at("missing array 'sweeps'"))?;
        for sweep in sweeps {
            if !matches!(sweep.get("label"), Some(Json::Str(_))) {
                return Err(at("sweep missing string 'label'"));
            }
            let rows = sweep
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| at("sweep missing 'rows'"))?;
            for row in rows {
                validate_sweep_row(row, v1).map_err(|e| at(&e))?;
            }
        }
        let notes = section
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or_else(|| at("missing array 'notes'"))?;
        if !notes.iter().all(|n| matches!(n, Json::Str(_))) {
            return Err(at("notes must be strings"));
        }
    }
    Ok(())
}

fn validate_sweep_row(row: &Json, v1: bool) -> Result<(), String> {
    for key in ["model", "task", "limit"] {
        if !matches!(row.get(key), Some(Json::Str(_))) {
            return Err(format!("sweep row missing string '{key}'"));
        }
    }
    let sizes = row
        .get("sizes")
        .and_then(Json::as_arr)
        .ok_or("sweep row missing 'sizes'")?;
    if !sizes.iter().all(|s| matches!(s, Json::Int(i) if *i >= 1)) {
        return Err("sweep row sizes must be positive integers".into());
    }
    for key in ["n", "k", "gcd"] {
        match row.get(key) {
            Some(Json::Int(i)) if *i >= 1 => {}
            _ => return Err(format!("sweep row '{key}' must be a positive integer")),
        }
    }
    let series = row
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("sweep row missing 'series'")?;
    if !series.iter().all(Json::is_number) {
        return Err("sweep row series must be numbers".into());
    }
    for key in ["predicted", "matches"] {
        if let Some(v) = row.get(key) {
            if !matches!(v, Json::Bool(_) | Json::Null) {
                return Err(format!("sweep row '{key}' must be a boolean"));
            }
        }
    }
    // Fault-dimension rates (optional, emitted pairwise by the sweep).
    for key in ["crash", "omission"] {
        if let Some(v) = row.get(key) {
            match v.as_f64() {
                Some(p) if (0.0..=1.0).contains(&p) => {}
                _ => return Err(format!("sweep row '{key}' must be a rate in [0, 1]")),
            }
        }
    }
    if row.get("crash").is_some() != row.get("omission").is_some() {
        return Err("sweep row fault rates must come as a crash/omission pair".into());
    }
    // Estimator fields (v2): a `mode` discriminator on every row, and the
    // Monte-Carlo companion fields on `"mc"` rows only. v1 rows are
    // exact-only and must not carry any of them.
    let estimator_keys = ["mode", "samples", "seed", "ci_lo", "ci_hi"];
    if v1 {
        for key in estimator_keys {
            if row.get(key).is_some() {
                return Err(format!("v1 sweep row must not carry '{key}'"));
            }
        }
        return Ok(());
    }
    // "exact-dp" rows are exact-like: integer-count series from the
    // quotient DP engine past the tree wall — a provenance tag, not an
    // estimator, so they must not carry the Monte-Carlo companions.
    let mc = match row.get("mode").and_then(Json::as_str) {
        Some("exact") | Some("exact-dp") => false,
        Some("mc") => true,
        _ => return Err("v2 sweep row 'mode' must be \"exact\", \"exact-dp\", or \"mc\"".into()),
    };
    if !mc {
        for key in ["samples", "seed", "ci_lo", "ci_hi"] {
            if row.get(key).is_some() {
                return Err(format!("exact sweep row must not carry '{key}'"));
            }
        }
        return Ok(());
    }
    match row.get("samples") {
        Some(Json::Int(s)) if *s >= 1 => {}
        _ => return Err("mc sweep row 'samples' must be a positive integer".into()),
    }
    match row.get("seed").and_then(Json::as_str) {
        Some(seed) if seed.parse::<u64>().is_ok() => {}
        _ => return Err("mc sweep row 'seed' must be a u64 decimal string".into()),
    }
    for key in ["ci_lo", "ci_hi"] {
        let bounds = row
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("mc sweep row missing '{key}'"))?;
        if bounds.len() != series.len() {
            return Err(format!("mc sweep row '{key}' must parallel 'series'"));
        }
        if !bounds.iter().all(Json::is_number) {
            return Err(format!("mc sweep row '{key}' must be numbers"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip_is_identity() {
        let doc = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("int", Json::Int(-42)),
            ("whole_float", Json::Num(3.0)),
            ("frac", Json::Num(0.875)),
            ("text", Json::Str("quote \" slash \\ newline \n α".into())),
            (
                "arr",
                Json::Arr(vec![Json::Int(1), Json::Num(0.5), Json::Str("x".into())]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn strings_round_trip_multibyte_and_control_characters() {
        // 2-, 3- and 4-byte UTF-8 next to escapes, at run boundaries.
        for text in [
            "é",
            "ααα",
            "€\u{1}€",
            "𝔽₂ ⊗ 𝔽₂",
            "\u{0}\u{1f}\t\r\n\"\\",
            "a\u{7}é\u{1b}€\u{c}𝄞\u{8}z",
            "",
        ] {
            let doc = Json::obj([(text, Json::Str(text.into()))]);
            let emitted = doc.to_pretty_string();
            assert_eq!(Json::parse(&emitted).unwrap(), doc, "{text:?}");
        }
        assert_eq!(
            Json::parse("\"\\u00e9\\/é\"").unwrap(),
            Json::Str("é/é".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"open",
            "+5",
            "5.",
            ".5",
            "1e",
            "1e+",
            "-",
            "--1",
            "1.e3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Spec-valid numbers still parse.
        assert_eq!(Json::parse("-0.5e+2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse("10").unwrap(), Json::Int(10));
    }

    #[test]
    fn floats_keep_their_type_through_round_trip() {
        let text = Json::Arr(vec![Json::Num(1.0), Json::Int(1)]).to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, Json::Arr(vec![Json::Num(1.0), Json::Int(1)]));
    }

    #[test]
    fn report_json_validates_and_round_trips() {
        let mut report = Report::new("demo", "Demo experiment", "paper §0");
        report.set_threads(4);
        report.set_elapsed_ms(12);
        report.set_cache_stats(3, 7, 7);
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "x".into()]);
        report
            .section("first")
            .table(t)
            .note("reading guidance line");
        let json = report.to_json();
        validate(&json).unwrap();
        let round = Json::parse(&json.to_pretty_string()).unwrap();
        assert_eq!(round, json);
        let text = report.render_text();
        assert!(text.contains("=== Demo experiment ==="));
        assert!(text.contains("reading guidance line"));
    }

    fn mc_row() -> Json {
        Json::obj([
            ("model", Json::Str("blackboard".into())),
            ("task", Json::Str("leader-election".into())),
            ("sizes", Json::Arr(vec![Json::Int(1), Json::Int(15)])),
            ("n", Json::Int(16)),
            ("k", Json::Int(2)),
            ("gcd", Json::Int(1)),
            ("series", Json::Arr(vec![Json::Num(0.5), Json::Num(0.75)])),
            ("limit", Json::Str("One".into())),
            ("mode", Json::Str("mc".into())),
            ("samples", Json::Int(4096)),
            ("seed", Json::Str("18446744073709551615".into())),
            ("ci_lo", Json::Arr(vec![Json::Num(0.48), Json::Num(0.73)])),
            ("ci_hi", Json::Arr(vec![Json::Num(0.52), Json::Num(0.77)])),
        ])
    }

    fn doc_with_row(schema: &str, row: Json) -> Json {
        Json::obj([
            ("schema", Json::Str(schema.into())),
            ("experiment", Json::Str("demo".into())),
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
                            ("label", Json::Str("l".into())),
                            ("rows", Json::Arr(vec![row])),
                        ])]),
                    ),
                    ("notes", Json::Arr(vec![])),
                ])]),
            ),
        ])
    }

    /// Strips the named keys from an object row.
    fn without(row: &Json, keys: &[&str]) -> Json {
        match row {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn v2_estimator_rows_validate() {
        validate(&doc_with_row(SCHEMA, mc_row())).unwrap();
        // Exact v2 rows: mode present, estimator companions absent.
        let exact = {
            let mut r = without(&mc_row(), &["samples", "seed", "ci_lo", "ci_hi"]);
            if let Json::Obj(pairs) = &mut r {
                for (k, v) in pairs.iter_mut() {
                    if k == "mode" {
                        *v = Json::Str("exact".into());
                    }
                }
            }
            r
        };
        validate(&doc_with_row(SCHEMA, exact)).unwrap();
    }

    #[test]
    fn v2_exact_dp_rows_are_exact_like() {
        // The quotient-engine tag: validates without estimator
        // companions, rejects them, and round-trips through the parser.
        let dp = {
            let mut r = without(&mc_row(), &["samples", "seed", "ci_lo", "ci_hi"]);
            if let Json::Obj(pairs) = &mut r {
                for (k, v) in pairs.iter_mut() {
                    if k == "mode" {
                        *v = Json::Str("exact-dp".into());
                    }
                }
            }
            r
        };
        let doc = doc_with_row(SCHEMA, dp);
        validate(&doc).unwrap();
        let round = Json::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(round, doc);
        validate(&round).unwrap();

        // exact-dp is a provenance tag, not an estimator: Monte-Carlo
        // companions are as illegal here as on plain exact rows.
        let mut bad = mc_row();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("exact-dp".into());
                }
            }
        }
        assert!(validate(&doc_with_row(SCHEMA, bad)).is_err());

        // Unknown mode strings are still rejected.
        let mut unknown = without(&mc_row(), &["samples", "seed", "ci_lo", "ci_hi"]);
        if let Json::Obj(pairs) = &mut unknown {
            for (k, v) in pairs.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("exact-quotient".into());
                }
            }
        }
        let e = validate(&doc_with_row(SCHEMA, unknown));
        assert!(e.unwrap_err().contains("exact-dp"));
    }

    #[test]
    fn v2_rejects_malformed_estimator_rows() {
        // Missing mode.
        let e = validate(&doc_with_row(SCHEMA, without(&mc_row(), &["mode"])));
        assert!(e.unwrap_err().contains("mode"));
        // mc row without samples.
        let e = validate(&doc_with_row(SCHEMA, without(&mc_row(), &["samples"])));
        assert!(e.unwrap_err().contains("samples"));
        // ci bounds not parallel to the series.
        let mut ragged = mc_row();
        if let Json::Obj(pairs) = &mut ragged {
            for (k, v) in pairs.iter_mut() {
                if k == "ci_lo" {
                    *v = Json::Arr(vec![Json::Num(0.5)]);
                }
            }
        }
        let e = validate(&doc_with_row(SCHEMA, ragged));
        assert!(e.unwrap_err().contains("parallel"));
        // Exact row carrying estimator fields.
        let mut bad_exact = mc_row();
        if let Json::Obj(pairs) = &mut bad_exact {
            for (k, v) in pairs.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("exact".into());
                }
            }
        }
        assert!(validate(&doc_with_row(SCHEMA, bad_exact)).is_err());
    }

    #[test]
    fn v1_documents_stay_valid_but_estimator_fields_are_rejected() {
        // A v1 row: no mode, no estimator fields — must validate.
        let v1_row = without(&mc_row(), &["mode", "samples", "seed", "ci_lo", "ci_hi"]);
        validate(&doc_with_row(SCHEMA_V1, v1_row.clone())).unwrap();
        // The same row under the v2 tag lacks `mode` — rejected.
        assert!(validate(&doc_with_row(SCHEMA, v1_row)).is_err());
        // A v1 document carrying v2 fields is rejected.
        let e = validate(&doc_with_row(SCHEMA_V1, mc_row()));
        assert!(e.unwrap_err().contains("v1"));
        // Unknown schema tags are rejected.
        assert!(validate(&doc_with_row("rsbt-bench-report/v3", mc_row())).is_err());
    }

    #[test]
    fn validate_flags_schema_violations() {
        let mut report = Report::new("demo", "t", "r");
        report.section("s").note("n");
        let good = report.to_json();
        validate(&good).unwrap();

        // Wrong schema tag.
        let mut bad = good.clone();
        if let Json::Obj(pairs) = &mut bad {
            pairs[0].1 = Json::Str("something-else".into());
        }
        assert!(validate(&bad).is_err());

        // Ragged table row.
        let mut report = Report::new("demo", "t", "r");
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
        // Table pads short rows itself, so build the raggedness at the
        // JSON level instead.
        report.section("s").table(t);
        let mut doc = report.to_json();
        if let Some(Json::Arr(sections)) = doc.get("sections").cloned() {
            let mut s0 = sections[0].clone();
            if let Json::Obj(pairs) = &mut s0 {
                for (k, v) in pairs.iter_mut() {
                    if k == "tables" {
                        if let Json::Arr(tables) = v {
                            if let Json::Obj(tp) = &mut tables[0] {
                                for (tk, tv) in tp.iter_mut() {
                                    if tk == "rows" {
                                        *tv = Json::Arr(vec![Json::Arr(vec![Json::Str(
                                            "ragged".into(),
                                        )])]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if let Json::Obj(pairs) = &mut doc {
                for (k, v) in pairs.iter_mut() {
                    if k == "sections" {
                        *v = Json::Arr(vec![s0.clone()]);
                    }
                }
            }
        }
        assert!(validate(&doc).is_err(), "ragged row must fail validation");
    }
}
