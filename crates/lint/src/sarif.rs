//! SARIF 2.1.0 output.
//!
//! One run, one driver (`cmap-analyze`), all four rules in the driver
//! metadata. Suggested fixes map to `fixes[].artifactChanges` with
//! 1-based SARIF columns.
//! The document contains no timestamps or absolute paths — it is
//! byte-stable for a given analysis, which is what the golden snapshot
//! test pins.

use crate::jsonv::{int, obj, s, Val};
use crate::{Rule, Violation};

/// Render a SARIF 2.1.0 document from the findings.
pub fn render(violations: &[Violation]) -> String {
    let rules: Vec<Val> = Rule::ALL
        .into_iter()
        .map(|r| {
            obj(vec![
                ("id", s(r.code())),
                ("shortDescription", obj(vec![("text", s(r.description()))])),
                ("defaultConfiguration", obj(vec![("level", s("error"))])),
            ])
        })
        .collect();

    let results: Vec<Val> = violations.iter().map(result).collect();

    let driver = obj(vec![
        ("name", s("cmap-analyze")),
        ("version", s(env!("CARGO_PKG_VERSION"))),
        (
            "informationUri",
            s("https://github.com/cmap-repro/cmap#static-analysis"),
        ),
        ("rules", Val::Arr(rules)),
    ]);

    obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Val::Arr(vec![obj(vec![
                ("tool", obj(vec![("driver", driver)])),
                ("columnKind", s("utf16CodeUnits")),
                ("results", Val::Arr(results)),
            ])]),
        ),
    ])
    .render_pretty()
}

fn result(v: &Violation) -> Val {
    let location = obj(vec![(
        "physicalLocation",
        obj(vec![
            ("artifactLocation", obj(vec![("uri", s(&v.path))])),
            (
                "region",
                obj(vec![
                    ("startLine", int(v.line)),
                    ("snippet", obj(vec![("text", s(&v.snippet))])),
                ]),
            ),
        ]),
    )]);

    let mut pairs = vec![
        ("ruleId", s(v.rule.code())),
        ("level", s("error")),
        ("message", obj(vec![("text", s(&v.message))])),
        ("locations", Val::Arr(vec![location])),
    ];

    if let Some(fix) = &v.fix {
        pairs.push((
            "fixes",
            Val::Arr(vec![obj(vec![
                ("description", obj(vec![("text", s(&fix.description))])),
                (
                    "artifactChanges",
                    Val::Arr(vec![obj(vec![
                        ("artifactLocation", obj(vec![("uri", s(&v.path))])),
                        (
                            "replacements",
                            Val::Arr(vec![obj(vec![
                                (
                                    "deletedRegion",
                                    obj(vec![
                                        ("startLine", int(v.line)),
                                        // SARIF columns are 1-based.
                                        ("startColumn", int(fix.col_start + 1)),
                                        ("endColumn", int(fix.col_end + 1)),
                                    ]),
                                ),
                                ("insertedContent", obj(vec![("text", s(&fix.replacement))])),
                            ])]),
                        ),
                    ])]),
                ),
            ])]),
        ));
    }

    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv;
    use crate::Fix;

    #[test]
    fn valid_json_with_fixes() {
        let v = Violation {
            path: "crates/sim/src/a.rs".to_string(),
            line: 7,
            rule: Rule::PanicBudget,
            message: "empty expect".to_string(),
            snippet: "x.expect(\"\")".to_string(),
            fix: Some(Fix {
                col_start: 1,
                col_end: 10,
                replacement: "\"why\"".to_string(),
                description: "document the invariant".to_string(),
            }),
        };
        let doc = render(&[v]);
        let parsed = jsonv::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("version").and_then(Val::as_str), Some("2.1.0"));
        let runs = parsed.get("runs").and_then(Val::as_arr).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Val::as_arr)
            .expect("results");
        assert_eq!(results.len(), 1);
        // Fix columns are 1-based.
        let fixes = results[0]
            .get("fixes")
            .and_then(Val::as_arr)
            .expect("fixes");
        let region = fixes[0]
            .get("artifactChanges")
            .and_then(Val::as_arr)
            .and_then(|c| c[0].get("replacements"))
            .and_then(Val::as_arr)
            .and_then(|r| r[0].get("deletedRegion"))
            .cloned()
            .expect("region");
        assert_eq!(region.get("startColumn").and_then(Val::as_int), Some(2));
    }
}
