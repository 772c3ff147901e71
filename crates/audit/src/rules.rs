//! The audit rule catalog, the `audit:allow` suppression table and the
//! per-file annotation check.
//!
//! Every rule is a named, individually-suppressible invariant. A finding
//! is suppressed with a `// audit:allow(rule, reason)` comment on the
//! offending line or the line directly above it, or for a whole file with
//! `// audit:allow-file(rule, reason)` anywhere in the file. A reason is
//! mandatory — a file-level allow without one is itself a violation.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::lexer::{lex, SourceLine};

/// One confirmed rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number (`1` for file-level rules).
    pub line: usize,
    /// Rule identifier from [`RULES`].
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Static description of one rule, for the report catalog.
#[derive(Debug, Clone, Serialize)]
pub struct RuleInfo {
    pub id: &'static str,
    pub description: &'static str,
    /// Documentation anchor for the rule (SARIF `helpUri`).
    pub help_uri: &'static str,
}

/// DESIGN.md section anchors the `help_uri` fields point into.
const DOC_AUDIT: &str = "DESIGN.md#6b-determinism-invariants-and-the-audit-rein-audit";
const DOC_SEMANTIC: &str = "DESIGN.md#6c-semantic-rules-ast--call-graph";
const DOC_CONCURRENCY: &str =
    "DESIGN.md#6g-concurrency-determinism-rules-parallel-grid-certification";
const DOC_TRACE: &str = "DESIGN.md#6i-causal-cell-level-tracing-trace-context-propagation";

/// The audit rule catalog: the rules that need the workspace call graph.
/// Per-site rules (wall clock, environment reads, raw writes, hash
/// containers, prints, panics, discarded results) are clippy lints; see
/// DESIGN.md §6b.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        id: "seed-provenance",
        help_uri: DOC_SEMANTIC,
        description: "Every RNG construction in library code must trace \
                      its seed to a function parameter (interprocedurally), \
                      never a literal or re-derived constant; only tests, \
                      benches and binaries may supply concrete seeds.",
    },
    RuleInfo {
        id: "split-leakage",
        help_uri: DOC_SEMANTIC,
        description: "Functions in rein-detect/rein-repair/rein-ml that \
                      receive a train/test split must not pass the test \
                      partition into fit-like callees (fit/fit_*/train_*).",
    },
    RuleInfo {
        id: "par-shared-mutable",
        help_uri: DOC_CONCURRENCY,
        description: "No `static mut`, `RefCell` or `Cell` in code \
                      reachable from a rayon parallel region — \
                      unsynchronized interior mutability observed from \
                      worker threads makes grid output depend on \
                      scheduling; use atomics, a Mutex, or thread_local! \
                      storage.",
    },
    RuleInfo {
        id: "par-seed-derivation",
        help_uri: DOC_CONCURRENCY,
        description: "Every RNG (or seed-consuming call) inside a \
                      parallel closure must derive its seed from the \
                      closure's own per-cell parameter (derive_seed(seed, \
                      i)) — a literal or loop-shared seed gives every \
                      worker the same stream and silently correlates \
                      cells.",
    },
    RuleInfo {
        id: "par-merge-registered",
        help_uri: DOC_CONCURRENCY,
        description: "A parallel fold/reduce/sum that combines worker \
                      results must route through a registered \
                      deterministic merge (merge_shards/merge_entries) or \
                      collect() into an order-preserving container — ad \
                      hoc reductions over floats depend on worker \
                      interleaving.",
    },
    RuleInfo {
        id: "par-atomic-ordering",
        help_uri: DOC_CONCURRENCY,
        description: "`Ordering::Relaxed` is allowed only at the \
                      allowlisted rein-telemetry counter sites — relaxed \
                      atomics elsewhere let cross-thread reads observe \
                      scheduling-dependent values.",
    },
    RuleInfo {
        id: "par-lock-discipline",
        help_uri: DOC_CONCURRENCY,
        description: "Locks must be acquired in one consistent global \
                      order across parallel call paths — an A→B order in \
                      one function and B→A in another is a potential \
                      deadlock and a scheduling-dependent execution \
                      order.",
    },
    RuleInfo {
        id: "trace-context",
        help_uri: DOC_TRACE,
        description: "Spans opened directly inside a parallel closure \
                      must carry a cell-derived TraceContext \
                      (span_traced(name, parent, trace_id) keyed on the \
                      CellKey digest) — a plain span()/span_under() on a \
                      worker thread starts with an empty ambient parent \
                      stack, so its subtree becomes an unattributable \
                      ambient root outside every causal cell trace.",
    },
    RuleInfo {
        id: "float-reduce-order",
        help_uri: DOC_CONCURRENCY,
        description: "`.sum()`/`.product()` downstream of a parallel \
                      iterator must collect() into an ordered container \
                      first or route through a registered deterministic \
                      merge — float accumulation order is not \
                      associative, so scheduling leaks into result bytes.",
    },
    RuleInfo {
        id: "stale-allow",
        help_uri: DOC_AUDIT,
        description: "An audit:allow annotation that no longer suppresses \
                      any finding — remove it so dead suppressions \
                      cannot mask a future regression.",
    },
];

/// How a file participates in rule scoping, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Under a `tests/`, `benches/` or `examples/` directory.
    pub is_test_support: bool,
    /// A binary root (`src/bin/*` or `src/main.rs`).
    pub is_bin: bool,
}

/// Classifies a workspace-relative path.
pub fn classify(path: &str) -> FileClass {
    let is_test_support = path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/");
    let is_bin = path.contains("/src/bin/") || path.ends_with("/src/main.rs");
    FileClass { is_test_support, is_bin }
}

/// Whether a comment *is* an annotation, as opposed to prose that merely
/// mentions one (doc comments quoting the syntax, test names): the
/// content must start with the marker once doc-comment punctuation is
/// stripped. Backtick-quoted mentions never qualify.
fn is_annotation_comment(comment: &str) -> bool {
    comment.trim_start_matches(['/', '!', ' ', '\t']).starts_with("audit:allow")
}

/// Extracts `audit:allow(rule, reason)` annotations from a comment.
/// Returns the rules allowed on the annotated line; `malformed` collects
/// annotations without a reason.
fn parse_allows(comment: &str, marker: &str, malformed: &mut Vec<String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if !is_annotation_comment(comment) {
        return out;
    }
    let mut from = 0;
    while let Some(pos) = comment[from..].find(marker) {
        let after = from + pos + marker.len();
        let rest = &comment[after..];
        if let Some(open) = rest.strip_prefix('(') {
            if let Some(close) = open.find(')') {
                let inner = &open[..close];
                let (rule, reason) = match inner.split_once(',') {
                    Some((r, why)) => (r.trim(), why.trim()),
                    None => (inner.trim(), ""),
                };
                if rule.is_empty() || reason.is_empty() {
                    malformed.push(rule.to_string());
                } else {
                    out.insert(rule.to_string());
                }
            }
        }
        from = after;
    }
    out
}

/// One well-formed `audit:allow` / `audit:allow-file` annotation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllowEntry {
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// Rule id the annotation names (may be `all`).
    pub rule: String,
    /// `true` for `audit:allow-file`.
    pub file_level: bool,
}

impl AllowEntry {
    /// Stable identity for consumption tracking.
    pub fn key(&self) -> (usize, String, bool) {
        (self.line, self.rule.clone(), self.file_level)
    }
}

/// Per-file suppression lookup for the semantic rules: the effective
/// `audit:allow` set of every line (own comment plus the line directly
/// above) and the file-wide `audit:allow-file` set. Malformed allows are
/// ignored here — [`audit_source`] already reports them as `annotation`
/// violations.
#[derive(Debug, Default)]
pub struct AllowTable {
    line_allows: Vec<BTreeSet<String>>,
    file_allows: BTreeSet<String>,
    entries: Vec<AllowEntry>,
}

impl AllowTable {
    /// Builds the table from the file's source text.
    pub fn build(source: &str) -> AllowTable {
        let lines = lex(source);
        let mut ignored = Vec::new();
        let own: Vec<BTreeSet<String>> =
            lines.iter().map(|l| parse_allows(&l.comment, "audit:allow", &mut ignored)).collect();
        let mut t = AllowTable::default();
        for (i, rules) in own.iter().enumerate() {
            for r in rules {
                t.entries.push(AllowEntry { line: i + 1, rule: r.clone(), file_level: false });
            }
        }
        for (i, line) in lines.iter().enumerate() {
            let file = parse_allows(&line.comment, "audit:allow-file", &mut ignored);
            for r in &file {
                t.entries.push(AllowEntry { line: i + 1, rule: r.clone(), file_level: true });
            }
            t.file_allows.extend(file);
        }
        t.line_allows = (0..own.len())
            .map(|i| {
                let mut s = own[i].clone();
                if i > 0 {
                    s.extend(own[i - 1].iter().cloned());
                }
                s
            })
            .collect();
        t
    }

    /// Whether `rule` is suppressed at 1-based `line`.
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        if self.file_allows.contains(rule) || self.file_allows.contains("all") {
            return true;
        }
        line.checked_sub(1)
            .and_then(|i| self.line_allows.get(i))
            .is_some_and(|s| s.contains(rule) || s.contains("all"))
    }

    /// Every well-formed annotation in the file.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// The annotation keys that justify suppressing `rule` at `line`:
    /// line-level entries on the line or the line directly above, plus
    /// matching file-level entries. Consumption tracking marks all of
    /// them live (a redundant second annotation is not "stale").
    pub fn match_keys(&self, line: usize, rule: &str) -> Vec<(usize, String, bool)> {
        self.entries
            .iter()
            .filter(|e| {
                (e.rule == rule || e.rule == "all")
                    && (e.file_level || e.line == line || e.line + 1 == line)
            })
            .map(AllowEntry::key)
            .collect()
    }
}

/// Per-line test-region mask: `true` for lines inside `#[cfg(test)]` /
/// `#[test]` items, tracked by brace depth.
pub(crate) fn test_region_mask(lines: &[SourceLine]) -> Vec<bool> {
    let mut mask = Vec::with_capacity(lines.len());
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut stack: Vec<i64> = Vec::new();
    for line in lines {
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[test]") {
            pending = true;
        }
        let mut in_test = !stack.is_empty();
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        stack.push(depth);
                        pending = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if stack.last() == Some(&depth) {
                        stack.pop();
                    }
                }
                // An attribute that decorated a braceless item
                // (e.g. `#[cfg(test)] use …;`) is spent.
                ';' if pending && stack.is_empty() => pending = false,
                _ => {}
            }
        }
        mask.push(in_test || !stack.is_empty());
    }
    mask
}

/// The per-file pass: reports every `audit:allow` and `audit:allow-file`
/// annotation without a reason as an `annotation` violation, a line-level
/// one at its own line and a file-level one at line 1. Such an annotation
/// suppresses nothing ([`AllowTable::build`] drops it), so the finding it
/// meant to silence is reported by its own rule as well.
pub fn audit_source(path: &str, source: &str) -> Vec<Violation> {
    let mut malformed: Vec<(usize, String)> = Vec::new();
    let mut found = Vec::new();
    for (i, line) in lex(source).iter().enumerate() {
        for (marker, at) in [("audit:allow-file", 1), ("audit:allow", i + 1)] {
            parse_allows(&line.comment, marker, &mut found);
            malformed.extend(found.drain(..).map(|rule| (at, rule)));
        }
    }
    malformed.sort();
    malformed
        .into_iter()
        .map(|(line, rule)| Violation {
            path: path.to_string(),
            line,
            rule: "annotation".into(),
            message: format!(
                "audit:allow for `{rule}` is missing a reason — write \
                 audit:allow({rule}, why it is sound)",
                rule = if rule.is_empty() { "<rule>" } else { &rule }
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doc prose *quoting* the annotation syntax must not create a
    /// suppression (it would then be reported as stale); only comments
    /// that start with the marker are annotations.
    #[test]
    fn prose_mentions_are_not_annotations() {
        let prose = AllowTable::build(
            "//! suppressed with a `// audit:allow(rule, reason)` comment\n\
             /// see `audit:allow-file(rule, reason)` for whole files\nfn f() {}\n",
        );
        assert!(prose.entries().is_empty());
        assert!(!prose.allows(1, "rule"));
        let real = AllowTable::build("// audit:allow(split-leakage, why)\nfn f() {}\n");
        assert_eq!(real.entries().len(), 1);
        assert!(real.allows(2, "split-leakage"));
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let bad = audit_source(
            "crates/detect/src/x.rs",
            "let t = 1; // audit:allow-file(seed-provenance)\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "annotation");
        // A line-level allow without a reason suppresses nothing either:
        // it is reported at its own line, and only it.
        let bad = audit_source(
            "crates/detect/src/x.rs",
            "fn f() {}\n// audit:allow(seed-provenance)\nlet t = 1; // audit:allow(panic, why)\n",
        );
        let at: Vec<(usize, &str)> = bad.iter().map(|v| (v.line, v.rule.as_str())).collect();
        assert_eq!(at, [(2, "annotation")], "{bad:?}");
        assert!(bad[0].message.contains("`seed-provenance`"), "{}", bad[0].message);
        assert!(!AllowTable::build("// audit:allow(seed-provenance)\nfn f() {}\n")
            .allows(2, "seed-provenance"));
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let ok = audit_source(
            "crates/core/src/x.rs",
            "// a reason-less `audit:allow-file(seed-provenance)` is prose here\n\
             let s = \"// audit:allow-file(seed-provenance)\";\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}
