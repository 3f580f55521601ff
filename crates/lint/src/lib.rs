//! `cmap-analyze`: workspace-aware determinism & unit-safety static
//! analysis for the CMAP workspace.
//!
//! The paper's evaluation (NSDI 2008, Figs 12–20) is only reproducible if
//! the same seed yields the same packet trace. Each hazard that breaks
//! that has one checker (DESIGN.md §10). clippy, configured by the root
//! `clippy.toml`, owns every hazard a resolved path names: hash-ordered
//! containers, wall-clock time, ad-hoc threads, environment reads, and
//! bare `unwrap` in the hot paths. This tool owns the rest. There is one
//! pipeline, [`analyze::analyze`]: walk the roots, scan each file, audit
//! stale pragmas.
//!
//! The scan is a per-file lexer enforcing three rules (R1, R2 and R6 were
//! token rules for hazards clippy now owns; R7–R10 were interprocedural
//! flow rules that never found a defect and were retired; no number is
//! reused):
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
//! A justified exception is written as a pragma comment on the offending
//! line (or on a comment line directly above it), in this one spelling:
//!
//! ```text
//! // cmap-lint: allow(unit-cast) — `pairs` is a dimensionless pair count
//! ```
//!
//! The reason text after the dash is mandatory; an allow without a reason
//! is itself a violation. A pragma that suppresses zero findings, or names
//! a rule that does not exist, is reported (**`stale-pragma`**) — dead
//! suppressions rot the audit trail.
//!
//! The lexer is not a type checker: it strips comments and string
//! literals and tracks `#[cfg(test)] mod` regions by brace depth. It is
//! deliberately conservative and cheap, with no dependencies beyond `std`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use jsonv::{int, obj, s, Val};

pub mod analyze;
pub mod jsonv;
pub mod sarif;

/// The enforced invariants: three token rules and the pragma-hygiene rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R3: float equality / NaN-prone comparison chains.
    FloatCmp,
    /// R4: an empty `.expect("")` in hot paths.
    PanicBudget,
    /// R5: raw unit-bearing casts outside conversion modules.
    UnitCast,
    /// A justified pragma that suppresses zero findings or names an
    /// unknown rule.
    StalePragma,
}

impl Rule {
    /// All rules, in R-number + stale-pragma order.
    pub const ALL: [Rule; 4] = [
        Rule::FloatCmp,
        Rule::PanicBudget,
        Rule::UnitCast,
        Rule::StalePragma,
    ];

    /// The pragma / diagnostic code for the rule.
    pub fn code(self) -> &'static str {
        match self {
            Rule::FloatCmp => "float-cmp",
            Rule::PanicBudget => "panic-budget",
            Rule::UnitCast => "unit-cast",
            Rule::StalePragma => "stale-pragma",
        }
    }

    /// One-line rule description (SARIF rule metadata).
    pub fn description(self) -> &'static str {
        match self {
            Rule::FloatCmp => "exact float comparison or NaN-prone ordering",
            Rule::PanicBudget => "undocumented panic in a simulator hot path",
            Rule::UnitCast => "raw unit-bearing cast outside conversion modules",
            Rule::StalePragma => "suppression pragma that silences zero findings or names no rule",
        }
    }

    /// Parse a pragma code.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.code() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A machine-applicable suggested fix: replace the byte span
/// `[col_start, col_end)` (0-based, within the raw source line) with
/// `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// 0-based byte offset of the span start within the line.
    pub col_start: usize,
    /// 0-based byte offset one past the span end.
    pub col_end: usize,
    /// Replacement text (may contain `<placeholders>` for the author).
    pub replacement: String,
    /// What applying the fix does.
    pub description: String,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path as given on the command line.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Suggested fix span, when one is mechanical enough to propose.
    pub fix: Option<Fix>,
}

/// Serialize a finding for the `--json` report.
pub(crate) fn violation_to_val(v: &Violation) -> Val {
    let mut pairs = vec![
        ("path", s(&v.path)),
        ("line", int(v.line)),
        ("rule", s(v.rule.code())),
        ("message", s(&v.message)),
        ("snippet", s(&v.snippet)),
    ];
    if let Some(fix) = &v.fix {
        pairs.push((
            "fix",
            obj(vec![
                ("col_start", int(fix.col_start)),
                ("col_end", int(fix.col_end)),
                ("replacement", s(&fix.replacement)),
                ("description", s(&fix.description)),
            ]),
        ));
    }
    obj(pairs)
}

/// Scan scoping: which paths count as deterministic, hot, sanctioned or
/// skipped. All matching is by substring of the `/`-normalised path.
#[derive(Debug, Clone)]
pub struct Config {
    /// Paths whose code must be deterministic (R3/R5 scope).
    pub det_markers: Vec<String>,
    /// Hot paths with a panic budget (R4 scope).
    pub hot_markers: Vec<String>,
    /// Sanctioned unit-conversion modules (R5 exempt).
    pub unit_cast_allowed: Vec<String>,
    /// Never scanned when reached by directory walking (still scanned when
    /// named explicitly as a root — how the fixture self-tests run).
    pub skip_markers: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        let v = |items: &[&str]| items.iter().map(|s| s.to_string()).collect();
        Config {
            det_markers: v(&[
                "crates/core/src",
                "crates/sim/src",
                "crates/phy/src",
                "crates/wire/src",
                "crates/topo/src",
                "crates/stats/src",
                "crates/mac80211/src",
                "crates/experiments/src",
                "crates/obs/src",
                "tests/fixtures",
            ]),
            hot_markers: v(&["crates/core/src/mac.rs", "crates/sim/src", "tests/fixtures"]),
            unit_cast_allowed: v(&[
                "crates/phy/src/units.rs",
                "crates/phy/src/rate.rs",
                "crates/sim/src/time.rs",
                "crates/sim/src/event.rs",
            ]),
            skip_markers: v(&["/target/", "/vendor/", "crates/lint/tests/fixtures"]),
        }
    }
}

impl Config {
    fn matches(markers: &[String], path: &str) -> bool {
        markers.iter().any(|m| path.contains(m.as_str()))
    }
}

/// Whether `path` belongs to an integration-test or bench target: it has
/// a `tests` or `benches` directory *component*, so the answer does not
/// depend on how the root was spelled (`tests/a.rs`, `./tests/a.rs` and
/// `../../tests/a.rs` are one file). Such code is not simulation state.
/// The fixtures directory is exempt from this exemption so the self-tests
/// exercise every rule.
fn is_test_path(path: &str) -> bool {
    let has = |dir: &str| path.split('/').any(|c| c == dir);
    (has("tests") || has("benches")) && !has("fixtures")
}

fn collect_rs_files(dir: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let display = path.display().to_string().replace('\\', "/");
        if Config::matches(&cfg.skip_markers, &display) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, cfg, out)?;
        } else if display.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One pragma found in comments.
#[derive(Debug, Clone)]
struct Pragma {
    rules: Vec<Rule>,
    /// Names in the allow list that are no rule's code.
    unknown: Vec<String>,
    has_reason: bool,
    line: usize,
    /// The lines this pragma silences: its own and, when its line has no
    /// code of its own, the next code line.
    targets: Vec<usize>,
}

/// Per-line lexed form of a file.
struct Lexed {
    /// Code with comments and literal contents blanked, one per line.
    code: Vec<String>,
    /// Comment text per line (for pragma parsing).
    comments: Vec<String>,
    /// Raw lines (for snippets).
    raw: Vec<String>,
}

/// Scan a single file's source text, stale pragmas included. `path` is
/// used for scoping and for the `path` field of the produced violations.
pub fn scan_source(path: &str, source: &str, cfg: &Config) -> Vec<Violation> {
    let lexed = lex(source);
    let in_test = test_regions(&lexed.code);
    let pragmas = collect_pragmas(&lexed);

    let det = Config::matches(&cfg.det_markers, path);
    let hot = Config::matches(&cfg.hot_markers, path);
    let unit_ok = Config::matches(&cfg.unit_cast_allowed, path);
    let test_file = is_test_path(path);

    let mut out = Vec::new();
    let mut report = |line: usize, rule: Rule, message: String, fix: Option<Fix>| {
        out.push(Violation {
            path: path.to_string(),
            line,
            rule,
            message,
            snippet: lexed.raw[line - 1].trim().to_string(),
            fix,
        });
    };

    // Pragmas without a reason are violations of the rule they try to
    // silence, and a name that is no rule silences nothing (both reported
    // regardless of scope: an unjustified or inert allow is always wrong).
    for p in &pragmas {
        for name in &p.unknown {
            report(
                p.line,
                Rule::StalePragma,
                format!("unknown rule `{name}`"),
                None,
            );
        }
        if !p.has_reason {
            for &rule in &p.rules {
                let message = format!(
                    "allow({}) pragma without a justification; write \
                     `// cmap-lint: allow({}) — <reason>`",
                    rule.code(),
                    rule.code()
                );
                report(p.line, rule, message, None);
            }
        }
    }

    let justified: Vec<&Pragma> = pragmas.iter().filter(|p| p.has_reason).collect();
    let mut used: Vec<(usize, Rule)> = Vec::new();
    let mut emit = |line: usize, rule: Rule, message: String, fix: Option<Fix>| match justified
        .iter()
        .find(|p| p.rules.contains(&rule) && p.targets.contains(&line))
    {
        Some(pragma) => used.push((pragma.line, rule)),
        None => report(line, rule, message, fix),
    };

    for (idx, code) in lexed.code.iter().enumerate() {
        let line = idx + 1;
        let is_test = in_test[idx] || test_file;

        // R3 float discipline: deterministic scope, non-test code.
        if det && !is_test {
            if let Some(tok) = float_literal_eq(code) {
                emit(
                    line,
                    Rule::FloatCmp,
                    format!(
                        "exact float comparison against `{tok}`; use an epsilon \
                         or restructure the sentinel"
                    ),
                    None,
                );
            }
            if code.contains(".partial_cmp(") && !code.contains("fn partial_cmp") {
                emit(
                    line,
                    Rule::FloatCmp,
                    "NaN-prone `partial_cmp` chain in simulation arithmetic; \
                     use `f64::total_cmp` (or handle the None)"
                        .to_string(),
                    None,
                );
            }
        }

        // R4 panic budget: hot paths, non-test code. An `.expect` whose
        // invariant text is empty or whitespace-only is a laundered
        // unwrap: it passes `clippy::unwrap_used` while documenting
        // nothing (mirroring the mandatory pragma-reason rule).
        if hot && !is_test {
            if let Some((start, end)) = empty_expect_span(code, &lexed.raw[idx]) {
                emit(
                    line,
                    Rule::PanicBudget,
                    "`.expect(\"\")` with an empty/whitespace invariant string \
                     documents nothing; state why the panic is unreachable \
                     (reason text is mandatory, as for pragmas)"
                        .to_string(),
                    Some(Fix {
                        col_start: start,
                        col_end: end,
                        replacement: "\"<why this cannot fail>\"".to_string(),
                        description: "fill in the invariant text".to_string(),
                    }),
                );
            }
        }

        // R5 unit casts: deterministic scope, non-test, outside the
        // sanctioned conversion modules.
        if det && !is_test && !unit_ok {
            if let Some((cast, unit)) = unit_cast(code) {
                emit(
                    line,
                    Rule::UnitCast,
                    format!(
                        "raw `{cast}` on unit-bearing value `{unit}`; route \
                         through phy::units / sim::time helpers (or use \
                         `u64::from` for widening)"
                    ),
                    None,
                );
            }
        }
    }

    // A justified pragma that silenced nothing is stale.
    for p in justified {
        for &rule in &p.rules {
            if rule != Rule::StalePragma && !used.contains(&(p.line, rule)) {
                let message = format!(
                    "allow({}) suppresses zero findings; remove the stale \
                     pragma (dead suppressions rot the audit trail)",
                    rule.code()
                );
                report(p.line, Rule::StalePragma, message, None);
            }
        }
    }
    out
}

/// The span of an `.expect("...")` whose string is empty or
/// whitespace-only, as `(col_start, col_end)` byte offsets of the string
/// literal (quotes included) within the raw line.
fn empty_expect_span(code: &str, raw: &str) -> Option<(usize, usize)> {
    let mut search = 0;
    while let Some(pos) = code[search..].find(".expect(") {
        let at = search + pos;
        search = at + ".expect(".len();
        // Columns line up between `code` and `raw` by construction: the
        // lexer blanks literal *contents* but preserves byte positions.
        let open = at + ".expect(".len();
        let rest = raw.get(open..)?;
        if !rest.starts_with('"') {
            continue;
        }
        let close_rel = rest[1..].find('"')?;
        let content = &rest[1..1 + close_rel];
        if content.trim().is_empty() && !content.contains('\\') {
            return Some((open, open + close_rel + 2));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Lexing: blank comments and literal contents, preserve line structure.
// ---------------------------------------------------------------------------

fn lex(source: &str) -> Lexed {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }

    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut raw_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut raw = String::new();
    let mut state = State::Code;

    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            raw_lines.push(std::mem::take(&mut raw));
            continue;
        }
        raw.push(c);
        match state {
            State::Code => match c {
                '/' if chars.peek() == Some(&'/') => {
                    chars.next();
                    raw.push('/');
                    state = State::LineComment;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    raw.push('*');
                    state = State::BlockComment(1);
                }
                '"' => {
                    code.push('"');
                    state = State::Str;
                }
                'r' if matches!(chars.peek(), Some('"') | Some('#')) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0u32;
                    let mut lookahead = chars.clone();
                    while lookahead.peek() == Some(&'#') {
                        lookahead.next();
                        hashes += 1;
                    }
                    if lookahead.peek() == Some(&'"') {
                        for _ in 0..hashes {
                            let h = chars.next().expect("lookahead saw it");
                            raw.push(h);
                        }
                        let q = chars.next().expect("lookahead saw it");
                        raw.push(q);
                        code.push('r');
                        code.push('"');
                        state = State::RawStr(hashes);
                    } else {
                        code.push('r');
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime is followed by an identifier
                    // and no closing quote.
                    let mut lookahead = chars.clone();
                    let mut is_char = false;
                    match lookahead.next() {
                        Some('\\') => is_char = true,
                        Some(_) if lookahead.next() == Some('\'') => is_char = true,
                        _ => {}
                    }
                    if is_char {
                        code.push('\'');
                        state = State::Char;
                    } else {
                        code.push('\'');
                    }
                }
                _ => code.push(c),
            },
            State::LineComment => comment.push(c),
            State::BlockComment(depth) => {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    raw.push('/');
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && chars.peek() == Some(&'*') {
                    chars.next();
                    raw.push('*');
                    state = State::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                }
            }
            State::Str => match c {
                // A backslash-newline continuation still ends a line: left
                // to the newline arm above, or every later line of the file
                // is numbered one short.
                '\\' if chars.peek() == Some(&'\n') => {}
                '\\' => {
                    if let Some(&esc) = chars.peek() {
                        chars.next();
                        raw.push(esc);
                    }
                }
                '"' => {
                    code.push('"');
                    state = State::Code;
                }
                _ => code.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut lookahead = chars.clone();
                    let mut matched = 0u32;
                    while matched < hashes && lookahead.peek() == Some(&'#') {
                        lookahead.next();
                        matched += 1;
                    }
                    if matched == hashes {
                        for _ in 0..hashes {
                            let h = chars.next().expect("lookahead saw it");
                            raw.push(h);
                        }
                        code.push('"');
                        state = State::Code;
                    } else {
                        code.push(' ');
                    }
                } else {
                    code.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    if let Some(&esc) = chars.peek() {
                        chars.next();
                        raw.push(esc);
                    }
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
    code_lines.push(code);
    comment_lines.push(comment);
    raw_lines.push(raw);

    Lexed {
        code: code_lines,
        comments: comment_lines,
        raw: raw_lines,
    }
}

// ---------------------------------------------------------------------------
// Test-region tracking.
// ---------------------------------------------------------------------------

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
                    if let Some(td) = test_depth {
                        if depth <= td {
                            test_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

// ---------------------------------------------------------------------------
// Pragmas.
// ---------------------------------------------------------------------------

fn collect_pragmas(lexed: &Lexed) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (i, comment) in lexed.comments.iter().enumerate() {
        // Doc comments (`///`, `//!`) are documentation, not directives —
        // a pragma quoted in rustdoc must not suppress (or count as stale).
        if comment.starts_with('/') || comment.starts_with('!') {
            continue;
        }
        // One spelling: any other tag is an ordinary comment and
        // suppresses nothing.
        const TAG: &str = "cmap-lint:";
        let Some(pos) = comment.find(TAG) else {
            continue;
        };
        let rest = comment[pos + TAG.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let (mut rules, mut unknown) = (Vec::new(), Vec::new());
        for name in rest[..close].split(',').map(str::trim) {
            match Rule::parse(name) {
                Some(rule) => rules.push(rule),
                None => unknown.push(name.to_string()),
            }
        }
        // Reason: anything substantive after the closing paren and a dash
        // or colon separator.
        let after = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':', ' '])
            .trim();
        let has_reason = after.len() >= 3;
        let mut targets = vec![i + 1];
        if lexed.code[i].trim().is_empty() {
            // A standalone pragma applies to the next line with code.
            let mut rest = lexed.code.iter().skip(i + 1);
            if let Some(j) = rest.position(|c| !c.trim().is_empty()) {
                targets.push(i + j + 2);
            }
        }
        out.push(Pragma {
            rules,
            unknown,
            has_reason,
            line: i + 1,
            targets,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// R3: float comparisons.
// ---------------------------------------------------------------------------

/// A float literal adjacent to `==`/`!=`, if any.
fn float_literal_eq(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        let is_eq = two == "==" || two == "!=";
        if is_eq {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let next = if i + 2 < bytes.len() {
                bytes[i + 2]
            } else {
                b' '
            };
            // Skip <=, >=, ===-like runs, pattern arms (=>), and != vs =!=.
            if !matches!(prev, b'<' | b'>' | b'=' | b'!') && next != b'=' && next != b'>' {
                let left = operand_before(code, i);
                let right = operand_after(code, i + 2);
                for tok in [left, right].into_iter().flatten() {
                    if is_float_literal(&tok) {
                        return Some(tok);
                    }
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
    let end = text.len();
    let start = text
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map_or(0, |i| i + c_len(text, i));
    let tok = &text[start..end];
    (!tok.is_empty()).then(|| tok.to_string())
}

fn c_len(s: &str, i: usize) -> usize {
    s[i..].chars().next().map_or(1, |c| c.len_utf8())
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
                if prev_digit {
                    has_dot = true;
                }
                prev_digit = false;
            }
            'e' | 'E' => {
                if prev_digit {
                    has_exp = true;
                }
                prev_digit = false;
            }
            '_' | '+' | '-' => prev_digit = false,
            _ => return false,
        }
    }
    has_digit && (has_dot || has_exp || tok.ends_with("f64") || tok.ends_with("f32"))
}

// ---------------------------------------------------------------------------
// R5: unit casts.
// ---------------------------------------------------------------------------

/// A raw numeric cast on a line that also mentions a unit-bearing
/// identifier: `(cast, unit_token)`.
fn unit_cast(code: &str) -> Option<(&'static str, String)> {
    const CASTS: [&str; 5] = [" as u64", " as u32", " as f64", " as f32", " as Time"];
    const UNIT_SUFFIXES: [&str; 8] = ["_ns", "_us", "_ms", "_mw", "_dbm", "_db", "_mbps", "_hz"];
    const UNIT_WORDS: [&str; 3] = ["airtime", "tx_time", "duration"];

    let cast = CASTS.into_iter().find(|c| {
        code.contains(c)
        // `as u64;`-style trailing or mid-expression both match; avoid
        // matching inside identifiers (the leading space handles it).
    })?;

    // Tokenise identifiers and look for a unit-bearing one.
    let mut ident = String::new();
    let mut idents = Vec::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            ident.push(c);
        } else if !ident.is_empty() {
            idents.push(std::mem::take(&mut ident));
        }
    }
    if !ident.is_empty() {
        idents.push(ident);
    }
    for id in idents {
        let lower = id.to_ascii_lowercase();
        if UNIT_SUFFIXES.iter().any(|s| lower.ends_with(s))
            || UNIT_WORDS.iter().any(|w| lower.contains(w))
        {
            return Some((cast.trim_start(), id));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::{is_test_path, lex, scan_source, Config, Rule};

    /// `(rule, line)` of every finding in `source`, scanned as a file of
    /// the simulator.
    fn sim_findings(source: &str) -> Vec<(Rule, usize)> {
        scan_source("crates/sim/src/x.rs", source, &Config::default())
            .iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn cfg_test_on_an_item_that_is_no_module_opens_no_region() {
        let f = "mod inner {\n    pub fn f(x: f64) -> bool { x == 0.5 }\n}\n";
        assert_eq!(sim_findings(f), vec![(Rule::FloatCmp, 2)]);
        for item in ["fn helper() {}", "use std::fmt;", "impl S {}", "mod tests;"] {
            let source = format!("#[cfg(test)]\n{item}\n{f}");
            assert_eq!(sim_findings(&source), vec![(Rule::FloatCmp, 4)], "{item}");
            let source = format!("#[cfg(test)] {item}\n{f}");
            assert_eq!(sim_findings(&source), vec![(Rule::FloatCmp, 3)], "{item}");
        }
        // Blank lines, comments and further attributes carry it over.
        let stacked = "#[cfg(test)]\n\n// note\n#[allow(clippy::float_cmp, reason = \"exact\")]\n\
                       mod tests {\n    fn g(x: f64) -> bool { x == 0.5 }\n}\n";
        assert_eq!(sim_findings(stacked), vec![]);
        assert_eq!(
            sim_findings(&format!("{stacked}{f}")),
            vec![(Rule::FloatCmp, 9)]
        );
    }

    #[test]
    fn only_the_cmap_lint_spelling_suppresses() {
        let pragma = |tag: &str| {
            format!("fn f(x: f64) -> bool {{\n    x == 0.5 // {tag} allow(float-cmp) — exact sentinel\n}}\n")
        };
        assert_eq!(sim_findings(&pragma("cmap-lint:")), vec![]);
        assert_eq!(
            sim_findings(&pragma("cmap-analyze:")),
            vec![(Rule::FloatCmp, 2)]
        );
    }

    #[test]
    fn a_string_continuation_keeps_its_line_break() {
        let lexed = lex("const S: &str = \"a \\\n    b\";\nfn after() {}\n");
        assert_eq!(lexed.raw.len(), 4, "{:?}", lexed.raw);
        assert_eq!(lexed.raw[2], "fn after() {}");
        assert_eq!(lexed.code[2], "fn after() {}");
    }

    #[test]
    fn test_paths_match_by_component_however_the_root_is_spelled() {
        for path in [
            "tests/a.rs",
            "./tests/a.rs",
            "../../tests/a.rs",
            "crates/x/tests/a.rs",
            "crates/x/benches/b.rs",
        ] {
            assert!(is_test_path(path), "{path} is a test/bench target");
        }
        for path in [
            "crates/lint/tests/fixtures/bad_float_cmp.rs",
            "tests/fixtures/bad_float_cmp.rs",
            "crates/sim/src/tests_util.rs",
            "crates/sim/src/world.rs",
        ] {
            assert!(!is_test_path(path), "{path} is product (or fixture) code");
        }
    }
}
