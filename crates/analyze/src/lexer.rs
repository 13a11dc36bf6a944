//! A comment/string/raw-string-aware scrubber for Rust sources.
//!
//! The Layer-1 lints match token patterns that `clippy` cannot express
//! (project-specific determinism rules), so they need a view of the
//! source in which comment bodies and string contents can never produce
//! false positives: a `thread_rng` mentioned in a doc comment, or an
//! `"Instant::now"` inside a string literal, must be invisible. This
//! module produces that view without a full parser (no `syn`, consistent
//! with the workspace's vendored-stubs discipline): a line-preserving
//! state machine that blanks comment and literal contents while keeping
//! everything else verbatim, plus three token-pattern helpers the rules
//! share.
//!
//! Three side channels survive scrubbing:
//!
//! * **allow directives** — `// rsbt-analyze: allow(RULE[, RULE])` in any
//!   comment suppresses the named rules on that line, or (for a
//!   comment-only line) on the next line carrying code;
//! * **`#[cfg(test)]` regions** — lines inside test-gated items, and
//!   the rest of a module gated by an inner `#![cfg(test)]`, are marked
//!   so rules can exempt test code;
//! * **line numbers** — findings report 1-based `file:line` positions.

/// One scrubbed source line.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// The line's code with comments removed and literal contents
    /// blanked (quotes are kept so strings still tokenize as opaque).
    pub code: String,
    /// Rules suppressed on this line (own directives plus directives
    /// propagated from immediately preceding comment-only lines).
    pub allows: Vec<String>,
    /// Whether the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// A whole scrubbed file.
#[derive(Clone, Debug, Default)]
pub struct Scrubbed {
    /// The scrubbed lines, index 0 = line 1.
    pub lines: Vec<Line>,
}

impl Scrubbed {
    /// Whether `rule` is suppressed on 1-based line `line`.
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        self.lines
            .get(line.checked_sub(1).unwrap_or(usize::MAX))
            .is_some_and(|l| l.allows.iter().any(|a| a == rule))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Scrubs `src` (see the module docs).
pub fn scrub(src: &str) -> Scrubbed {
    let chars: Vec<char> = src.chars().collect();
    let mut code: Vec<String> = vec![String::new()];
    let mut comment: Vec<String> = vec![String::new()];
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            code.push(String::new());
            comment.push(String::new());
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if let Some((hashes, skip)) = raw_string_start(&chars, i) {
                    // Keep a marker so the line still shows "a literal
                    // was here" without its contents.
                    code.last_mut().expect("line").push('"');
                    mode = Mode::RawStr(hashes);
                    i += skip;
                } else if c == '"' {
                    code.last_mut().expect("line").push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if c == '\'' {
                    i += consume_char_literal(&chars, i, code.last_mut().expect("line"));
                } else {
                    code.last_mut().expect("line").push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment.last_mut().expect("line").push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    comment.last_mut().expect("line").push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // An escaped newline continues the string on the next
                    // line; let the top-of-loop newline branch count it.
                    i += if next == Some('\n') { 1 } else { 2 };
                } else if c == '"' {
                    code.last_mut().expect("line").push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && has_hashes(&chars, i + 1, hashes) {
                    code.last_mut().expect("line").push('"');
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }

    let mut lines: Vec<Line> = code
        .into_iter()
        .zip(comment.iter())
        .map(|(code, comment)| Line {
            code,
            allows: parse_allows(comment),
            in_test: false,
        })
        .collect();
    propagate_allows(&mut lines);
    mark_test_regions(&mut lines);
    Scrubbed { lines }
}

/// Recognizes `r"`, `r#"`, `br##"`, … at position `i`; returns the hash
/// count and the prefix length to skip (through the opening quote).
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    // Don't fire inside identifiers ending in r/br (e.g. `for"x"` cannot
    // occur, but `var#` could confuse; require a non-ident predecessor).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

fn has_hashes(chars: &[char], from: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(from + k) == Some(&'#'))
}

/// Distinguishes char literals from lifetimes at a `'`; returns how many
/// chars to consume. Literal contents are blanked; lifetimes pass
/// through as code.
fn consume_char_literal(chars: &[char], i: usize, out: &mut String) -> usize {
    debug_assert_eq!(chars[i], '\'');
    if chars.get(i + 1) == Some(&'\\') {
        // Escaped literal: scan (bounded) for the closing quote.
        let window = &chars[i + 3..(i + 12).min(chars.len())];
        if let Some(off) = window.iter().position(|&c| c == '\'') {
            out.push_str("' '");
            return off + 4;
        }
    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
        out.push_str("' '");
        return 3;
    }
    // A lifetime (or stray quote): keep as code.
    out.push('\'');
    1
}

/// Extracts `rsbt-analyze: allow(...)` rule lists from a comment body.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("rsbt-analyze:") {
        rest = &rest[at + "rsbt-analyze:".len()..];
        let Some(open) = rest.find("allow(") else {
            break;
        };
        let inner = &rest[open + "allow(".len()..];
        let Some(close) = inner.find(')') else {
            break;
        };
        for rule in inner[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.push(rule.to_string());
            }
        }
        rest = &inner[close..];
    }
    allows
}

/// Directives on comment-only lines apply to the next line with code.
fn propagate_allows(lines: &mut [Line]) {
    let mut pending: Vec<String> = Vec::new();
    for line in lines.iter_mut() {
        if line.code.trim().is_empty() {
            pending.extend(line.allows.iter().cloned());
        } else {
            line.allows.append(&mut pending);
        }
    }
}

/// Marks lines inside `#[cfg(test)]`-gated items, and from an inner
/// `#![cfg(test)]` to the end of its module (the file, at the top level),
/// by brace tracking over the scrubbed code (string/comment braces are
/// already gone).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0i64;
    let mut armed = false;
    let mut test_base = 0i64;
    let mut in_test = false;
    for line in lines.iter_mut() {
        let stripped: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if stripped.contains("#[cfg(test)]") {
            armed = true;
        }
        if stripped.contains("#![cfg(test)]") && !in_test {
            in_test = true;
            test_base = depth - 1;
        }
        if armed || in_test {
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if armed {
                        armed = false;
                        in_test = true;
                        test_base = depth;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if in_test && depth <= test_base {
                        in_test = false;
                    }
                }
                _ => {}
            }
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` contains `name` as a whole identifier token.
pub fn contains_ident(code: &str, name: &str) -> bool {
    find_ident(code, name, 0).is_some()
}

/// The byte position of the next whole-identifier occurrence of `name`
/// at or after `from`.
pub fn find_ident(code: &str, name: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(at) = code[start..].find(name) {
        let at = start + at;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + name.len();
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + name.len().max(1);
    }
    None
}

/// Whether `code` contains the token sequence `first :: second`
/// (whitespace-tolerant), e.g. `Instant :: now`.
pub fn contains_path(code: &str, first: &str, second: &str) -> bool {
    let mut from = 0;
    while let Some(at) = find_ident(code, first, from) {
        let rest = code[at + first.len()..].trim_start();
        if let Some(rest) = rest.strip_prefix("::") {
            let rest = rest.trim_start();
            if rest.starts_with(second)
                && !rest[second.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            {
                return true;
            }
        }
        from = at + first.len();
    }
    false
}

/// Counts `.name(` method-call occurrences (whitespace-tolerant).
pub fn count_method_calls(code: &str, name: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(at) = find_ident(code, name, from) {
        let before = code[..at].trim_end();
        let after = code[at + name.len()..].trim_start();
        if before.ends_with('.') && after.starts_with('(') {
            count += 1;
        }
        from = at + name.len();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let s = scrub(concat!(
            "let x = \"thread_rng inside a string\"; // thread_rng in comment\n",
            "/* thread_rng in block */ let y = 1;\n",
            "let r = r#\"raw thread_rng \"quoted\" \"#; let done = 2;\n",
        ));
        for line in &s.lines {
            assert!(!contains_ident(&line.code, "thread_rng"), "{}", line.code);
        }
        assert!(contains_ident(&s.lines[1].code, "y"));
        assert!(contains_ident(&s.lines[2].code, "done"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let s = scrub("if c == '\"' { cnt += 1; } let q = '\\''; let l: &'static str = \"x\";\n");
        assert!(contains_ident(&s.lines[0].code, "cnt"));
        assert!(contains_ident(&s.lines[0].code, "static"), "lifetime kept");
    }

    #[test]
    fn allow_directives_attach_and_propagate() {
        let s = scrub(concat!(
            "let a = now(); // rsbt-analyze: allow(RSBT-L003)\n",
            "// rsbt-analyze: allow(RSBT-L001, RSBT-L002): reasoned\n",
            "let b = now();\n",
            "let c = now();\n",
        ));
        assert!(s.allows(1, "RSBT-L003"));
        assert!(s.allows(3, "RSBT-L001") && s.allows(3, "RSBT-L002"));
        assert!(!s.allows(4, "RSBT-L001"), "directive reaches one line only");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let s = scrub(concat!(
            "fn live() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn helper() {}\n",
            "}\n",
            "fn after() {}\n",
        ));
        assert!(!s.lines[0].in_test);
        assert!(s.lines[1].in_test && s.lines[2].in_test && s.lines[3].in_test);
        assert!(s.lines[4].in_test);
        assert!(!s.lines[5].in_test);
    }

    #[test]
    fn inner_cfg_test_marks_the_rest_of_its_module() {
        let s = scrub(concat!(
            "mod live {
",
            "    #![cfg(test)]
",
            "    fn helper() {}
",
            "}
",
            "fn after() {}
",
            "#![cfg(test)]
",
            "fn gated() {}
",
        ));
        assert!(!s.lines[0].in_test);
        assert!(s.lines[1].in_test && s.lines[2].in_test && s.lines[3].in_test);
        assert!(!s.lines[4].in_test);
        assert!(s.lines[5].in_test && s.lines[6].in_test);
    }

    #[test]
    fn token_helpers_respect_boundaries() {
        assert!(contains_ident("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_ident("FxHashMap::default()", "HashMap"));
        assert!(contains_path("let d = Instant :: now();", "Instant", "now"));
        assert!(!contains_path(
            "let d = Instant::nowish();",
            "Instant",
            "now"
        ));
        assert_eq!(count_method_calls("a.unwrap().b.unwrap ()", "unwrap"), 2);
        assert_eq!(count_method_calls("let unwrap = f(unwrap)", "unwrap"), 0);
    }
}
