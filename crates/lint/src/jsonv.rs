//! A minimal std-only JSON value type with a parser and renderer.
//!
//! The `--json` report and the SARIF writer render through it; the tests
//! read both back through [`parse`]. Numbers are kept as `i64`/`f64`; object keys keep insertion
//! order (a `Vec` of pairs) so rendered output is deterministic and
//! diff-friendly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// Non-integer number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Val>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content (ints only; floats are not coerced).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Val::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (pad, pad_in) = ("  ".repeat(depth), "  ".repeat(depth + 1));
        match self {
            Val::Null => out.push_str("null"),
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Val::Float(f) => {
                // JSON has no NaN/Inf; clamp to null like serde_json does.
                if f.is_finite() {
                    // Exact integral check so whole floats render with a
                    // decimal point and round-trip as floats. This is a
                    // representation test, not arithmetic — an epsilon
                    // margin would mis-render values near integers.
                    #[allow(clippy::float_cmp, reason = "representation test, not arithmetic")]
                    let integral = *f == f.trunc();
                    if integral && f.abs() < 1e15 {
                        let _ = write!(out, "{f:.1}");
                    } else {
                        let _ = write!(out, "{f}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Val::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Val::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad_in);
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Val::Obj(pairs) => {
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
                    out.push_str(&pad_in);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Val, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        text,
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

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'n') => self.literal("null", Val::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, val: Val) -> Result<Val, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let tok = &self.text[start..self.pos];
        if float {
            tok.parse::<f64>()
                .map(Val::Float)
                .map_err(|e| format!("bad number `{tok}`: {e}"))
        } else {
            tok.parse::<i64>()
                .map(Val::Int)
                .map_err(|e| format!("bad number `{tok}`: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.bytes.get(self.pos), Some(&b'"'));
        self.pos += 1;
        // Fast path: scan to the terminator and slice once. Byte scanning
        // is UTF-8-safe because `"` and `\` never occur inside a
        // multi-byte sequence.
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    let s = self.text[start..self.pos].to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs: read the low half if present.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                let rest = &self.text[self.pos..];
                                if let Some(low_hex) =
                                    rest.strip_prefix("\\u").and_then(|r| r.get(..4))
                                {
                                    let low = u32::from_str_radix(low_hex, 16)
                                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                                    self.pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 scalar.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or("bad utf8 boundary")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?} at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Val::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected : at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(pairs));
                }
                other => return Err(format!("expected , or }} got {other:?} at {}", self.pos)),
            }
        }
    }
}

/// Convenience constructors.
pub fn obj(pairs: Vec<(&str, Val)>) -> Val {
    Val::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// String value.
pub fn s(text: &str) -> Val {
    Val::Str(text.to_string())
}

/// Integer value.
pub fn int(i: usize) -> Val {
    Val::Int(i as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let doc = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Val::as_int),
            Some(-3)
        );
        let rendered = v.render_pretty();
        let v2 = parse(&rendered).expect("reparses");
        assert_eq!(v, v2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }
}
