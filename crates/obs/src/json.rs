//! Minimal deterministic JSON encoding.
//!
//! The trace dump here and `cmap_bench`'s run reports emit JSON by hand
//! rather than through a serialization framework: the build has no
//! external dependencies, the structures are small, and determinism is the
//! contract — fixed field order, `BTreeMap`-sorted keys, and a single float
//! formatting rule.

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render an `f64` deterministically: Rust's shortest round-trip repr for
/// finite values, `null` for NaN/infinities (JSON has no spelling for them).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append a `"key":` prefix (no leading comma) to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_str_lit(out, key);
    out.push(':');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_lit(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_are_shortest_or_null() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Integral floats keep their integral repr (stable across runs).
        assert_eq!(fmt_f64(3.0), "3");
    }
}
