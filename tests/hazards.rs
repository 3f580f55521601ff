//! Determinism and unit-safety hazards that clippy cannot see.
//!
//! The paper's evaluation (NSDI 2008, Figs 12–20) is only reproducible if
//! the same seed yields the same packet trace. Each hazard that breaks
//! that has one checker (DESIGN.md §10). clippy, configured by the root
//! `clippy.toml`, owns every hazard a resolved path names: hash-ordered
//! containers, wall-clock time, ad-hoc threads, environment reads, and
//! bare `unwrap` in the hot paths. This test owns the rest: it walks the
//! product code, `crates/*/src`, and fails on any finding.
//!
//! The scan is a per-file lexer enforcing three rules (DESIGN.md §10
//! records the retired R1, R2, R6 and R7–R10; no number is reused):
//!
//! * **R3 `float-cmp`** — `==`/`!=` against float literals, and NaN-prone
//!   `partial_cmp()` chains, in SINR/BER arithmetic. Use epsilon
//!   comparisons and `f64::total_cmp`. clippy's `float_cmp` exempts
//!   `x == 0.0`, and a `partial_cmp` ban would fire inside every
//!   `#[derive(PartialOrd)]`.
//! * **R4 `panic-budget`** — an `.expect("")` whose invariant is empty or
//!   whitespace in simulator hot paths (`core::mac`, `cmap-sim`): a
//!   laundered unwrap that `clippy::unwrap_used` does not see.
//! * **R5 `unit-cast`** — raw `as u64`/`as f64` casts on time/power values
//!   outside the sanctioned conversion modules (`phy::units`, `phy::rate`,
//!   `sim::time`, `sim::event`). Route through the unit helpers.
//!
//! There is no way to excuse a finding: no comment silences one. The
//! workspace's one exception idiom is clippy's reasoned `#[expect]`, which
//! `unfulfilled_lint_expectations` audits; a finding here is fixed in the
//! code.
//!
//! The lexer is not a type checker: it strips comments and string
//! literals and tracks `#[cfg(test)] mod` regions by brace depth. It is
//! deliberately conservative and cheap, with no dependencies beyond `std`.
//! The rules' fixtures are inline raw strings below, scanned under a
//! simulator path.

use std::fs;
use std::path::Path;

/// Hot paths with a panic budget (R4 scope).
const HOT_MARKERS: [&str; 2] = ["crates/core/src/mac.rs", "crates/sim/src"];

/// Sanctioned unit-conversion modules (R5 exempt).
const UNIT_CAST_ALLOWED: [&str; 4] = [
    "crates/phy/src/units.rs",
    "crates/phy/src/rate.rs",
    "crates/sim/src/time.rs",
    "crates/sim/src/event.rs",
];

/// The enforced invariants: three token rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rule {
    /// R3: float equality / NaN-prone comparison chains.
    FloatCmp,
    /// R4: an empty `.expect("")` in hot paths.
    PanicBudget,
    /// R5: raw unit-bearing casts outside conversion modules.
    UnitCast,
}

impl Rule {
    /// The diagnostic code for the rule.
    fn code(self) -> &'static str {
        match self {
            Rule::FloatCmp => "float-cmp",
            Rule::PanicBudget => "panic-budget",
            Rule::UnitCast => "unit-cast",
        }
    }
}

/// One finding.
struct Violation {
    /// Path relative to the repository root.
    path: String,
    /// 1-based line number.
    line: usize,
    rule: Rule,
    /// Human-readable explanation.
    message: String,
    /// The offending source line, trimmed.
    snippet: String,
}

/// `path:line: [rule] message`, then the snippet.
fn render(v: &Violation) -> String {
    format!(
        "{}:{}: [{}] {}\n    {}\n",
        v.path,
        v.line,
        v.rule.code(),
        v.message,
        v.snippet
    )
}

fn in_scope(markers: &[&str], path: &str) -> bool {
    markers.iter().any(|m| path.contains(m))
}

/// Every `.rs` file under `root/rel`, as sorted paths relative to `root`.
fn collect_rs_files(root: &Path, rel: &str, out: &mut Vec<String>) {
    let mut names: Vec<String> = fs::read_dir(root.join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
        .map(|e| {
            let name = e.unwrap_or_else(|e| panic!("{rel}: {e}")).file_name();
            name.into_string().expect("file names are UTF-8")
        })
        .collect();
    names.sort();
    for name in names {
        let path = format!("{rel}/{name}");
        if root.join(&path).is_dir() {
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Per-line lexed form of a file.
#[derive(Default)]
struct Lexed {
    /// Code with comments and literal contents blanked, one per line.
    code: Vec<String>,
    /// Raw lines (for snippets).
    raw: Vec<String>,
}

/// Scan a single file's source text, ordered by (line, rule). `path`
/// decides the R4 and R5 scope and is the findings' `path`.
fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let in_test = test_regions(&lexed.code);
    let hot = in_scope(&HOT_MARKERS, path);
    let unit_ok = in_scope(&UNIT_CAST_ALLOWED, path);

    let mut out = Vec::new();
    let mut report = |line: usize, rule: Rule, message: String| {
        out.push(Violation {
            path: path.to_string(),
            line,
            rule,
            message,
            snippet: lexed.raw[line - 1].trim().to_string(),
        });
    };

    // Every rule skips `#[cfg(test)] mod` regions; R3 runs on every
    // product line.
    for (idx, code) in lexed.code.iter().enumerate().filter(|&(i, _)| !in_test[i]) {
        let line = idx + 1;

        // R3 float discipline.
        if let Some(tok) = float_literal_eq(code) {
            let message = format!(
                "exact float comparison against `{tok}`; use an epsilon or restructure the sentinel"
            );
            report(line, Rule::FloatCmp, message);
        }
        if code.contains(".partial_cmp(") && !code.contains("fn partial_cmp") {
            let message = "NaN-prone `partial_cmp` chain in simulation arithmetic; use `f64::total_cmp` (or handle the None)";
            report(line, Rule::FloatCmp, message.to_string());
        }

        // R4 panic budget: hot paths. An `.expect` whose invariant text is
        // empty or whitespace-only is a laundered unwrap: it passes
        // `clippy::unwrap_used` while documenting nothing.
        if hot && has_empty_expect(code, &lexed.raw[idx]) {
            let message = "`.expect(\"\")` with an empty/whitespace invariant string documents nothing; state why the panic is unreachable (reason text is mandatory, as for `#[expect]`)";
            report(line, Rule::PanicBudget, message.to_string());
        }

        // R5 unit casts: outside the sanctioned conversion modules.
        if !unit_ok {
            if let Some((cast, unit)) = unit_cast(code) {
                let message = format!(
                    "raw `{cast}` on unit-bearing value `{unit}`; route through phy::units / sim::time helpers (or use `u64::from` for widening)"
                );
                report(line, Rule::UnitCast, message);
            }
        }
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Whether the line holds an `.expect("...")` whose string is empty or
/// whitespace-only.
fn has_empty_expect(code: &str, raw: &str) -> bool {
    for (at, call) in code.match_indices(".expect(") {
        // Columns line up between `code` and `raw` by construction: the
        // lexer blanks literal *contents* but preserves byte positions.
        let Some(rest) = raw.get(at + call.len()..) else {
            return false;
        };
        if let Some(body) = rest.strip_prefix('"') {
            let Some(close) = body.find('"') else {
                return false;
            };
            let content = &body[..close];
            if content.trim().is_empty() && !content.contains('\\') {
                return true;
            }
        }
    }
    false
}

// Lexing: blank comments and literal contents, preserve line structure.

fn lex(source: &str) -> Lexed {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }

    let mut lexed = Lexed::default();
    let (mut code, mut raw) = (String::new(), String::new());
    let mut state = State::Code;

    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lexed.code.push(std::mem::take(&mut code));
            lexed.raw.push(std::mem::take(&mut raw));
            continue;
        }
        raw.push(c);
        match state {
            State::Code => match c {
                '/' if matches!(chars.peek(), Some('/' | '*')) => {
                    let second = chars.next().expect("peeked");
                    raw.push(second);
                    state = if second == '/' {
                        State::LineComment
                    } else {
                        State::BlockComment(1)
                    };
                }
                '"' => {
                    code.push('"');
                    state = State::Str;
                }
                'r' if matches!(chars.peek(), Some('"' | '#')) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let hashes = chars.clone().take_while(|&h| h == '#').count();
                    code.push('r');
                    if chars.clone().nth(hashes) == Some('"') {
                        raw.extend(chars.by_ref().take(hashes + 1));
                        code.push('"');
                        state = State::RawStr(hashes);
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime is followed by an identifier
                    // and no closing quote.
                    let mut lookahead = chars.clone();
                    if matches!(
                        (lookahead.next(), lookahead.next()),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    ) {
                        state = State::Char;
                    }
                    code.push('\'');
                }
                _ => code.push(c),
            },
            State::LineComment => {}
            State::BlockComment(depth) => {
                if c == '*' && chars.peek() == Some(&'/') {
                    raw.extend(chars.next());
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && chars.peek() == Some(&'*') {
                    raw.extend(chars.next());
                    state = State::BlockComment(depth + 1);
                }
            }
            State::Str => match c {
                // A backslash-newline continuation still ends a line: left
                // to the newline arm above, or every later line of the file
                // is numbered one short.
                '\\' if chars.peek() == Some(&'\n') => {}
                '\\' => raw.extend(chars.next()),
                '"' => {
                    code.push('"');
                    state = State::Code;
                }
                _ => code.push(' '),
            },
            State::RawStr(hashes) => {
                let mut lookahead = chars.clone();
                if c == '"' && (0..hashes).all(|_| lookahead.next() == Some('#')) {
                    raw.extend(chars.by_ref().take(hashes));
                    code.push('"');
                    state = State::Code;
                } else {
                    code.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    raw.extend(chars.next());
                    code.push(' ');
                }
                '\'' => {
                    code.push('\'');
                    state = State::Code;
                }
                _ => code.push(' '),
            },
        }
    }
    lexed.code.push(code);
    lexed.raw.push(raw);
    lexed
}

/// `in_test[i]` is true when line `i+1` is inside a `#[cfg(test)] mod`
/// region (tracked by brace depth).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_depth: Option<i64> = None;

    for (i, line) in code.iter().enumerate() {
        let compact: String = line.split_whitespace().collect();
        if compact.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let starts_mod = test_depth.is_none()
            && pending_cfg_test
            && (compact.starts_with("mod") || compact.contains("]mod") || line.contains("mod "))
            && line.contains('{');
        if starts_mod {
            test_depth = Some(depth);
        }
        // The attribute carries over blank lines and further attributes
        // only: a `#[cfg(test)]` on a `fn`, `use` or `impl` opens no
        // region, or the file's next ordinary module would pass as test.
        let attribute_only = compact.starts_with("#[") && compact.ends_with(']');
        if starts_mod || !(compact.is_empty() || attribute_only) {
            pending_cfg_test = false;
        }
        if test_depth.is_some() {
            in_test[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if test_depth.is_some_and(|td| depth <= td) {
                        test_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

// R3: float comparisons.

/// A float literal adjacent to `==`/`!=`, if any.
fn float_literal_eq(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        if two == "==" || two == "!=" {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let next = bytes.get(i + 2).copied().unwrap_or(b' ');
            // Skip <=, >=, ===-like runs, pattern arms (=>), and != vs =!=.
            if !matches!(prev, b'<' | b'>' | b'=' | b'!') && next != b'=' && next != b'>' {
                let left = operand_before(code, i);
                let right = operand_after(code, i + 2);
                if let Some(tok) = [left, right]
                    .into_iter()
                    .flatten()
                    .find(|t| is_float_literal(t))
                {
                    return Some(tok);
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    None
}

fn operand_before(code: &str, op: usize) -> Option<String> {
    let text = code[..op].trim_end();
    let start = text
        .char_indices()
        .rev()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map_or(0, |(i, c)| i + c.len_utf8());
    let tok = &text[start..];
    (!tok.is_empty()).then(|| tok.to_string())
}

fn operand_after(code: &str, from: usize) -> Option<String> {
    let text = code[from..].trim_start();
    let tok: String = text
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.' || *c == '-')
        .collect();
    let tok = tok.trim_start_matches('-').to_string();
    (!tok.is_empty()).then_some(tok)
}

fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut has_digit = false;
    let mut has_dot = false;
    let mut has_exp = false;
    let mut prev_digit = false;
    for c in t.chars() {
        match c {
            '0'..='9' => {
                has_digit = true;
                prev_digit = true;
            }
            '.' => {
                has_dot |= prev_digit;
                prev_digit = false;
            }
            'e' | 'E' => {
                has_exp |= prev_digit;
                prev_digit = false;
            }
            '_' | '+' | '-' => prev_digit = false,
            _ => return false,
        }
    }
    has_digit && (has_dot || has_exp || tok.ends_with("f64") || tok.ends_with("f32"))
}

// R5: unit casts.

/// A raw numeric cast on a line that also mentions a unit-bearing
/// identifier: `(cast, unit_token)`. The leading space of each cast keeps
/// it from matching inside an identifier.
fn unit_cast(code: &str) -> Option<(&'static str, String)> {
    const CASTS: [&str; 5] = [" as u64", " as u32", " as f64", " as f32", " as Time"];
    const UNIT_SUFFIXES: [&str; 8] = ["_ns", "_us", "_ms", "_mw", "_dbm", "_db", "_mbps", "_hz"];
    const UNIT_WORDS: [&str; 3] = ["airtime", "tx_time", "duration"];

    let cast = CASTS.into_iter().find(|c| code.contains(c))?;
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .find(|id| {
            let lower = id.to_ascii_lowercase();
            UNIT_SUFFIXES.iter().any(|s| lower.ends_with(s))
                || UNIT_WORDS.iter().any(|w| lower.contains(w))
        })
        .map(|id| (cast.trim_start(), id.to_string()))
}

// The gate, the rules' fixtures, and the lexer's edge cases.

/// The product code must stay hazard-free, with nothing to filter the
/// findings through. The walk is every crate's `src/` under the manifest
/// directory, so a new crate is in scope without a list to edit, and the
/// verdict does not depend on the working directory.
#[test]
fn workspace_is_hazard_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs_files(root, "crates", &mut files);
    // Product code only: each crate's `src/`, not its integration tests.
    files.retain(|f| f.split('/').nth(2) == Some("src"));
    let mut findings = Vec::new();
    for path in &files {
        let text = fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        findings.extend(scan_source(path, &text));
    }
    let listing: String = findings.iter().map(render).collect();
    assert!(
        findings.is_empty(),
        "{} finding(s) in {} file(s) scanned:\n{listing}",
        findings.len(),
        files.len()
    );
    // The walk is all of the product code and nothing else: the medium
    // that charges the unit-bearing tail, and a file whose `#[cfg(test)]
    // mod` is skipped while the code above it is scanned.
    assert!(
        (60..100).contains(&files.len()),
        "walk is not crates/*/src: {files:?}"
    );
    for file in ["crates/sim/src/medium.rs", "crates/bench/src/figures.rs"] {
        assert!(files.iter().any(|f| f == file), "{file} not scanned");
    }
}

/// A product-shaped path in every rule's scope: hot, and no conversion
/// module.
const FIXTURE_PATH: &str = "crates/sim/src/fixture.rs";

/// `(rule, line)` of every finding in `source`, scanned at `FIXTURE_PATH`.
fn findings(source: &str) -> Vec<(Rule, usize)> {
    scan_source(FIXTURE_PATH, source)
        .iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

const BAD_EMPTY_EXPECT: &str = r#"//! R4 fixture: `.expect("")` and whitespace-only messages satisfy a
//! naive `.unwrap()` search while documenting no invariant at all.

fn first(values: &[u64]) -> u64 {
    *values.first().expect("")
}

fn second(values: &[u64]) -> u64 {
    *values.get(1).expect("   ")
}
"#;

const BAD_FLOAT_CMP: &str = r#"//! R3 fixture: float equality and NaN-prone comparisons.

pub fn is_zero(sigma: f64) -> bool {
    sigma == 0.0
}

pub fn sort_scores(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn not_one(x: f64) -> bool {
    x != 1.0f64
}
"#;

const BAD_UNIT_CAST: &str = r#"//! R5 fixture: raw unit casts.

pub fn widen(tx_time_us: u32) -> u64 {
    tx_time_us as u64
}

pub fn to_float(airtime_ns: u64) -> f64 {
    airtime_ns as f64
}

pub fn no_unit(count: u32) -> u64 {
    count as u64
}
"#;

const CLEAN: &str = r#"//! Clean fixture: determinism-safe idioms produce no findings.

use std::collections::BTreeMap;

pub fn sum(m: &BTreeMap<u32, u64>) -> u64 {
    m.values().sum()
}

pub fn compare(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

pub fn near(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

// Strings and comments must not trip token matching:
// "Instant::now" in a comment, and below in a string literal.
pub fn doc() -> &'static str {
    "call Instant::now and x == 0.0 and map.iter() for details"
}
"#;

const NO_ESCAPE: &str = r#"//! No-escape fixture: a comment excuses no finding, whatever it says.

pub fn sentinel(x: f64) -> bool {
    // cmap-lint: allow(float-cmp) — fixture: a reasoned allow above the line
    x == 0.5 // cmap-lint: allow(float-cmp) — fixture: and one on it
}
"#;

#[test]
fn float_cmp_fixture() {
    assert_eq!(
        findings(BAD_FLOAT_CMP),
        vec![
            (Rule::FloatCmp, 4),  // == 0.0
            (Rule::FloatCmp, 8),  // partial_cmp chain
            (Rule::FloatCmp, 12), // != 1.0f64
        ]
    );
}

#[test]
fn unit_cast_fixture() {
    // `count as u64` on line 12 has no unit-bearing identifier: clean.
    assert_eq!(
        findings(BAD_UNIT_CAST),
        vec![(Rule::UnitCast, 4), (Rule::UnitCast, 8)]
    );
}

#[test]
fn empty_and_whitespace_expect_are_flagged() {
    assert_eq!(
        findings(BAD_EMPTY_EXPECT),
        vec![(Rule::PanicBudget, 5), (Rule::PanicBudget, 9)]
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(findings(CLEAN), vec![]);
}

/// The lexer grants no exceptions: an allow comment, reasoned, on the
/// finding's line and above it, still leaves the finding reported.
#[test]
fn an_allow_comment_excuses_nothing() {
    assert_eq!(findings(NO_ESCAPE), vec![(Rule::FloatCmp, 5)]);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let listing: String = scan_source(FIXTURE_PATH, BAD_FLOAT_CMP)
        .iter()
        .map(render)
        .collect();
    assert!(
        listing.starts_with(
            "crates/sim/src/fixture.rs:4: [float-cmp] exact float comparison \
             against `0.0`; use an epsilon or restructure the sentinel\n    sigma == 0.0\n"
        ),
        "{listing}"
    );
    assert_eq!(listing.lines().count(), 6, "{listing}");
}

/// Raw-string contents and nested block comments are blanked.
#[test]
fn raw_strings_and_nested_comments_are_blanked() {
    let raw =
        "const S: &str = r#\"x == 0.0 \"quoted\" y as f64 * tx_ns\"#;\nconst T: &str = r\"a\";\n";
    assert_eq!(findings(raw), vec![]);
    let blanked: String = lex(raw).code[0].split_whitespace().collect();
    assert_eq!(blanked, "constS:&str=r\"\";");
    let nested = "fn f(x: f64) -> bool {\n    /* a /* x == 0.0 */ x == 0.25\n    */ x == 0.5\n}\n";
    let found = scan_source(FIXTURE_PATH, nested);
    let found: Vec<(usize, &str)> = found.iter().map(|v| (v.line, v.message.as_str())).collect();
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, 3);
    assert!(found[0].1.contains("`0.5`"), "{found:?}");
}

#[test]
fn cfg_test_on_an_item_that_is_no_module_opens_no_region() {
    let f = "mod inner {\n    pub fn f(x: f64) -> bool { x == 0.5 }\n}\n";
    assert_eq!(findings(f), vec![(Rule::FloatCmp, 2)]);
    for item in ["fn helper() {}", "use std::fmt;", "impl S {}", "mod tests;"] {
        let source = format!("#[cfg(test)]\n{item}\n{f}");
        assert_eq!(findings(&source), vec![(Rule::FloatCmp, 4)], "{item}");
        let source = format!("#[cfg(test)] {item}\n{f}");
        assert_eq!(findings(&source), vec![(Rule::FloatCmp, 3)], "{item}");
    }
    // Blank lines, comments and further attributes carry it over.
    let stacked = "#[cfg(test)]\n\n// note\n#[allow(clippy::float_cmp, reason = \"exact\")]\n\
                   mod tests {\n    fn g(x: f64) -> bool { x == 0.5 }\n}\n";
    assert_eq!(findings(stacked), vec![]);
    assert_eq!(
        findings(&format!("{stacked}{f}")),
        vec![(Rule::FloatCmp, 9)]
    );
}

#[test]
fn a_string_continuation_keeps_its_line_break() {
    let lexed = lex("const S: &str = \"a \\\n    b\";\nfn after() {}\n");
    assert_eq!(lexed.raw.len(), 4, "{:?}", lexed.raw);
    assert_eq!(lexed.raw[2], "fn after() {}");
    assert_eq!(lexed.code[2], "fn after() {}");
}

/// The hazards a resolved path names are clippy's, not this test's: the
/// config that bans them is pinned here as text (no TOML parser), and the
/// hot files' deny must be unindented, as a nested module's covers less.
#[test]
fn clippy_owns_the_path_hazards() {
    let read = |path: &str| {
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).expect(path)
    };
    let has_line = |text: &str, line: &str| text.lines().any(|l| l.trim() == line);
    let clippy = read("clippy.toml");
    let (types, methods) = clippy
        .split_once("disallowed-methods")
        .expect("clippy.toml bans methods");
    let types = types
        .split_once("disallowed-types")
        .expect("clippy.toml bans types")
        .1;
    for (section, path) in [
        (types, "std::collections::HashMap"),
        (types, "std::collections::HashSet"),
        (types, "std::hash::RandomState"),
        (types, "std::time::SystemTime"),
        (methods, "std::time::Instant::now"),
        (methods, "std::time::SystemTime::now"),
        (methods, "std::thread::spawn"),
        (methods, "std::thread::scope"),
        (methods, "std::thread::available_parallelism"),
        (methods, "std::thread::Builder::new"),
        (methods, "std::env::var"),
    ] {
        assert!(section.contains(&format!("path = \"{path}\"")), "{path}");
    }
    assert!(has_line(&clippy, "allow-unwrap-in-tests = true"));
    for hot in ["crates/sim/src/lib.rs", "crates/core/src/mac.rs"] {
        let deny = "#![deny(clippy::unwrap_used)]";
        assert!(read(hot).lines().any(|l| l == deny), "{hot} lacks {deny}");
    }
    let manifest = read("Cargo.toml");
    let lints = manifest
        .split_once("[workspace.lints.clippy]")
        .expect("workspace clippy lints")
        .1;
    let lints = lints.split("\n[").next().unwrap_or(lints);
    assert!(has_line(
        lints,
        "allow_attributes_without_reason = \"deny\""
    ));
}
