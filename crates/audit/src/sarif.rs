//! SARIF 2.1.0 export of the audit report, so CI can surface findings
//! as code-scanning annotations.
//!
//! The vendored serializer has no field-renaming support, and SARIF
//! needs keys like `$schema` and `ruleId`, so the document is built as
//! an explicit [`serde_json::Value`] tree. Key order is fixed by
//! construction, which keeps the output byte-stable across runs.

use serde::Serialize;
use serde_json::Value;

use crate::report::Report;

/// The vendored serializer takes `impl Serialize`, and `Value` is the
/// serializer's own content type — this wrapper hands it back as-is.
struct Doc(Value);

impl Serialize for Doc {
    fn serialize_content(&self) -> Value {
        self.0.clone()
    }
}

const SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Renders the report as a SARIF 2.1.0 document (pretty-printed, with a
/// trailing newline; byte-identical for identical reports).
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Value> = report
        .rules
        .iter()
        .map(|r| {
            map(vec![
                ("id", s(r.id)),
                ("shortDescription", map(vec![("text", s(r.description))])),
                ("helpUri", s(r.help_uri)),
            ])
        })
        .collect();
    let results: Vec<Value> = report
        .violations
        .iter()
        .map(|v| {
            map(vec![
                ("ruleId", s(&v.rule)),
                ("level", s("error")),
                ("message", map(vec![("text", s(&v.message))])),
                (
                    "locations",
                    Value::Seq(vec![map(vec![(
                        "physicalLocation",
                        map(vec![
                            ("artifactLocation", map(vec![("uri", s(&v.path))])),
                            ("region", map(vec![("startLine", Value::U64(v.line.max(1) as u64))])),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = map(vec![
        ("$schema", s(SCHEMA)),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Seq(vec![map(vec![
                (
                    "tool",
                    map(vec![(
                        "driver",
                        map(vec![("name", s(report.tool)), ("rules", Value::Seq(rules))]),
                    )]),
                ),
                ("results", Value::Seq(results)),
            ])]),
        ),
    ]);
    #[expect(
        clippy::panic,
        reason = "the SARIF tree contains only strings and integers; serialization cannot fail"
    )]
    let mut out =
        serde_json::to_string_pretty(&Doc(doc)).unwrap_or_else(|e| panic!("sarif serializes: {e}"));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RuleSummary;
    use crate::rules::Violation;

    fn sample() -> Report {
        Report {
            schema_version: 2,
            tool: "rein-audit",
            files_scanned: 3,
            suppressed: 1,
            rules: vec![RuleSummary {
                id: "seed-provenance",
                description: "seeds trace to parameters",
                help_uri: "DESIGN.md#6c",
                violations: 1,
            }],
            violations: vec![Violation {
                path: "crates/core/src/x.rs".into(),
                line: 7,
                rule: "seed-provenance".into(),
                message: "RNG construction `seed_from_u64` does not trace its seed".into(),
            }],
        }
    }

    #[test]
    fn sarif_has_required_keys() {
        let doc = to_sarif(&sample());
        for key in ["\"$schema\"", "\"2.1.0\"", "\"ruleId\"", "\"startLine\"", "\"rein-audit\""] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
        assert_eq!(doc.matches("\"level\": \"error\"").count(), 1);
    }

    #[test]
    fn sarif_is_byte_stable() {
        assert_eq!(to_sarif(&sample()), to_sarif(&sample()));
    }

    /// The SARIF rule table and the catalog stay in sync: every catalog
    /// rule appears exactly once with its description and helpUri.
    #[test]
    fn sarif_rule_table_matches_catalog() {
        let report = crate::report::audit_sources(vec![(
            "crates/core/src/lib.rs".to_string(),
            "pub fn ok() {}\n".to_string(),
        )]);
        let doc = to_sarif(&report);
        assert_eq!(report.rules.len(), crate::rules::RULES.len());
        for r in &crate::rules::RULES {
            assert!(!r.description.is_empty(), "{} needs a description", r.id);
            assert!(r.help_uri.starts_with("DESIGN.md#"), "{} needs a doc anchor", r.id);
            assert_eq!(doc.matches(&format!("\"id\": \"{}\"", r.id)).count(), 1, "{}", r.id);
            assert!(doc.contains(&format!("\"helpUri\": \"{}\"", r.help_uri)), "{}", r.id);
        }
        assert_eq!(doc.matches("\"helpUri\"").count(), crate::rules::RULES.len());
    }

    #[test]
    fn sarif_parses_back() {
        struct Raw(Value);
        impl serde::Deserialize for Raw {
            fn deserialize_content(content: &Value) -> Result<Self, serde::DeError> {
                Ok(Raw(content.clone()))
            }
        }
        let doc = to_sarif(&sample());
        let Raw(v) = serde_json::from_str(&doc).expect("valid JSON");
        match v {
            Value::Map(entries) => {
                assert!(entries.iter().any(|(k, _)| k == "runs"));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
