//! The audit rule catalog and the per-file rule engine.
//!
//! Every rule is a named, individually-suppressible invariant. Line-level
//! rules are suppressed with a `// audit:allow(rule, reason)` comment on
//! the offending line or the line directly above it; file-level rules
//! (and whole files) with `// audit:allow-file(rule, reason)` anywhere in
//! the file. A reason is mandatory — an allow without one is itself a
//! violation.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::lexer::{count_token, has_token, lex, SourceLine};

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
const DOC_TOKEN: &str = "DESIGN.md#6b-determinism-invariants-and-the-audit-rein-audit";
const DOC_SEMANTIC: &str = "DESIGN.md#6c-semantic-rules-ast--call-graph";
const DOC_GUARD: &str = "DESIGN.md#6e-fault-tolerance-and-chaos-testing-rein-guard";
const DOC_CONCURRENCY: &str =
    "DESIGN.md#6g-concurrency-determinism-rules-parallel-grid-certification";
const DOC_DATAFLOW: &str = "DESIGN.md#6h-cache-key-purity-certification-taint-dataflow";
const DOC_TRACE: &str = "DESIGN.md#6i-causal-cell-level-tracing-trace-context-propagation";
const DOC_STORE: &str =
    "DESIGN.md#6j-crash-safe-incremental-grid-the-durable-cell-store-rein-store";

/// The audit rule catalog.
pub const RULES: [RuleInfo; 25] = [
    RuleInfo {
        id: "wallclock",
        help_uri: DOC_TOKEN,
        description: "No Instant::now/SystemTime outside \
                      rein-telemetry::perf — wall-clock reads make runs \
                      irreproducible; every timer flows through the one \
                      sanctioned perf module (perf::now / perf::Stopwatch).",
    },
    RuleInfo {
        id: "hash-iter",
        help_uri: DOC_TOKEN,
        description: "No HashMap/HashSet in result-producing code — their \
                      iteration order varies across runs; use \
                      BTreeMap/BTreeSet or sort before iterating.",
    },
    RuleInfo {
        id: "unseeded-rng",
        help_uri: DOC_TOKEN,
        description: "No unseeded randomness (thread_rng, from_entropy, \
                      rand::random) anywhere — every RNG must derive from an \
                      explicit seed.",
    },
    RuleInfo {
        id: "panic",
        help_uri: DOC_TOKEN,
        description: "unwrap()/expect()/panic! in library code must carry an \
                      audit:allow(panic, reason) annotation or be replaced \
                      with Result propagation.",
    },
    RuleInfo {
        id: "telemetry-phases",
        help_uri: DOC_TOKEN,
        description: "Every benchmark binary must mark at least 3 phases and \
                      write a RunManifest.",
    },
    RuleInfo {
        id: "telemetry-span",
        help_uri: DOC_TOKEN,
        description: "Every detector/repair module must open a telemetry \
                      span.",
    },
    RuleInfo {
        id: "print",
        help_uri: DOC_TOKEN,
        description: "No bare println!/eprintln! outside the telemetry \
                      emitter and bench result emission.",
    },
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
        id: "toolbox-parity",
        help_uri: DOC_SEMANTIC,
        description: "Every module declared in crates/detect and \
                      crates/repair is registered through its crate's \
                      lib.rs, wired into rein-core::toolbox, and reachable \
                      from at least one bench binary and one test — the \
                      implementation stays honest against the paper's \
                      19x19 grid.",
    },
    RuleInfo {
        id: "panic-reachability",
        help_uri: DOC_SEMANTIC,
        description: "No public library API may transitively reach an \
                      unannotated panic site through the call graph \
                      (supersedes the per-site `panic` rule for API \
                      surfaces).",
    },
    RuleInfo {
        id: "result-discard",
        help_uri: DOC_SEMANTIC,
        description: "`let _ =` must not discard a Result returned by a \
                      first-party call outside tests — handle it or match \
                      on it explicitly.",
    },
    RuleInfo {
        id: "guard-coverage",
        help_uri: DOC_GUARD,
        description: "Every toolbox dispatch (`.detect(` / `.repair(`) in \
                      rein-core and the bench binaries must run under \
                      rein-guard supervision: the file either calls \
                      rein_guard::run itself or goes through the guarded \
                      wrappers (DetectorHarness::run, run_repair*, \
                      detect_with_context) — an unguarded dispatch lets one \
                      crashing strategy abort the whole grid.",
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
        id: "cache-key-completeness",
        help_uri: DOC_DATAFLOW,
        description: "No ambient read (environment, filesystem, \
                      wall-clock, static/thread_local state) may reach \
                      the cell-compute region without flowing through \
                      the declared cache key \
                      (rein_core::cache_key::CellKey) — an input the \
                      key cannot see makes every incremental cache hit \
                      a potential stale replay.",
    },
    RuleInfo {
        id: "env-read-confinement",
        help_uri: DOC_DATAFLOW,
        description: "std::env::var and friends are confined to \
                      rein-bench's config layer (crates/bench/src/lib.rs) \
                      and binaries — everywhere else the value must be \
                      snapshotted once and passed down as a parameter.",
    },
    RuleInfo {
        id: "float-reduce-order",
        help_uri: DOC_DATAFLOW,
        description: "`.sum()`/`.product()` downstream of a parallel \
                      iterator must collect() into an ordered container \
                      first or route through a registered deterministic \
                      merge — float accumulation order is not \
                      associative, so scheduling leaks into result bytes.",
    },
    RuleInfo {
        id: "store-atomic-write",
        help_uri: DOC_STORE,
        description: "Store artifacts (journal segments, quarantine \
                      blobs, the recovery report) must be written through \
                      rein-store's atomic commit path \
                      (atomic_write/commit_staged) — a raw fs::write or \
                      File::create to a store file outside crates/store \
                      can tear under a crash and defeats the write-ahead \
                      journal's recovery guarantees.",
    },
    RuleInfo {
        id: "hot-loop-alloc",
        help_uri: DOC_DATAFLOW,
        description: "Advisory (non-blocking): allocation calls \
                      (Vec::new, clone, to_string, format!, collect) \
                      inside detector/repair kernel loops — the ranked \
                      worklist for the columnar rewrite.",
    },
    RuleInfo {
        id: "stale-allow",
        help_uri: DOC_DATAFLOW,
        description: "Advisory (blocking under --deny-stale): an \
                      audit:allow annotation that no longer suppresses \
                      any finding — remove it so dead suppressions \
                      cannot mask a future regression.",
    },
];

/// Where wall-clock reads are legitimate: exactly the perf module of the
/// telemetry crate. Everything else — including the rest of
/// `rein-telemetry` and the ml instrumentation shim — times through
/// `perf::now`/`perf::Stopwatch`. The dogfood test in
/// `tests/workspace_clean.rs` pins this list so it cannot silently widen.
const WALLCLOCK_ALLOWED: [&str; 1] = ["crates/telemetry/src/perf.rs"];

/// The wallclock carve-out, exposed so the workspace dogfood test can
/// assert it stays exactly one file.
pub fn wallclock_allowlist() -> &'static [&'static str] {
    &WALLCLOCK_ALLOWED
}

/// Where bare prints are legitimate: the telemetry emitter and the bench
/// crate's report-emission helpers.
const PRINT_ALLOWED: [&str; 2] = ["crates/telemetry/src/log.rs", "crates/bench/src/lib.rs"];

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

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path == *p || path.starts_with(p))
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

    /// Whether a *file-level* annotation suppresses `rule` (line-level
    /// allows do not count — used by whole-file rules).
    pub fn file_allowed(&self, rule: &str) -> bool {
        self.file_allows.contains(rule) || self.file_allows.contains("all")
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

    /// The annotation keys that justify a *file-level* suppression.
    pub fn match_keys_file(&self, rule: &str) -> Vec<(usize, String, bool)> {
        self.entries
            .iter()
            .filter(|e| e.file_level && (e.rule == rule || e.rule == "all"))
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

/// Result of auditing one file.
#[derive(Debug, Default)]
pub struct FileAudit {
    pub violations: Vec<Violation>,
    /// Number of would-be violations silenced by a valid `audit:allow`.
    pub suppressed: usize,
    /// Annotation keys ([`AllowEntry::key`]) that suppressed at least
    /// one token-level finding — input to the stale-allow pass.
    pub consumed: BTreeSet<(usize, String, bool)>,
}

/// Line-level checks: token → rule, with a scope predicate.
struct LineRule {
    rule: &'static str,
    tokens: &'static [&'static str],
    applies: fn(&str, FileClass) -> bool,
}

const LINE_RULES: [LineRule; 4] = [
    LineRule {
        rule: "wallclock",
        tokens: &["Instant::now", "SystemTime"],
        applies: |path, class| !class.is_test_support && !starts_with_any(path, &WALLCLOCK_ALLOWED),
    },
    LineRule {
        rule: "hash-iter",
        tokens: &["HashMap", "HashSet"],
        applies: |_, class| !class.is_test_support,
    },
    LineRule {
        rule: "unseeded-rng",
        tokens: &["thread_rng", "from_entropy", "rand::random"],
        applies: |_, _| true,
    },
    LineRule {
        rule: "print",
        tokens: &["println!", "eprintln!"],
        applies: |path, class| {
            !class.is_test_support && !class.is_bin && !starts_with_any(path, &PRINT_ALLOWED)
        },
    },
];

/// Tokens the panic-hygiene rule flags in library code.
const PANIC_TOKENS: [&str; 4] = [".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Audits one source file given its workspace-relative `path` and text.
pub fn audit_source(path: &str, source: &str) -> FileAudit {
    let class = classify(path);
    let lines = lex(source);
    let tests = test_region_mask(&lines);
    let table = AllowTable::build(source);
    let mut out = FileAudit::default();
    let mut malformed: Vec<String> = Vec::new();

    // File-wide allows (re-parsed here to surface malformed ones;
    // `AllowTable::build` silently drops them).
    for line in &lines {
        parse_allows(&line.comment, "audit:allow-file", &mut malformed);
    }
    for rule in &malformed {
        out.violations.push(Violation {
            path: path.to_string(),
            line: 1,
            rule: "annotation".into(),
            message: format!(
                "audit:allow for `{rule}` is missing a reason — write \
                 audit:allow({rule}, why it is sound)",
                rule = if rule.is_empty() { "<rule>" } else { rule }
            ),
        });
    }
    let file_allowed = |rule: &str| table.file_allowed(rule);

    // Line-level rules.
    for (idx, line) in lines.iter().enumerate() {
        if line.code.is_empty() {
            continue;
        }
        let allowed = |rule: &str| table.allows(idx + 1, rule);

        for lr in &LINE_RULES {
            if !(lr.applies)(path, class) {
                continue;
            }
            for token in lr.tokens {
                if has_token(&line.code, token) {
                    if allowed(lr.rule) {
                        out.suppressed += 1;
                        out.consumed.extend(table.match_keys(idx + 1, lr.rule));
                    } else {
                        out.violations.push(Violation {
                            path: path.to_string(),
                            line: idx + 1,
                            rule: lr.rule.into(),
                            message: format!("`{token}` is forbidden here"),
                        });
                    }
                    break; // one violation per rule per line
                }
            }
        }

        // Panic hygiene: library (non-bin, non-test) code only, and never
        // inside #[cfg(test)] regions.
        if !class.is_test_support && !class.is_bin && !tests[idx] {
            for token in PANIC_TOKENS {
                if has_token(&line.code, token) {
                    if allowed("panic") {
                        out.suppressed += 1;
                        out.consumed.extend(table.match_keys(idx + 1, "panic"));
                    } else {
                        out.violations.push(Violation {
                            path: path.to_string(),
                            line: idx + 1,
                            rule: "panic".into(),
                            message: format!(
                                "`{token}` in library code needs \
                                 audit:allow(panic, reason) or Result propagation"
                            ),
                        });
                    }
                    break;
                }
            }
        }
    }

    // File-level rules.
    if path.starts_with("crates/bench/src/bin/") {
        let code: String = lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
        let phases = count_token(&code, "phase");
        let manifests = has_token(&code, "write_run_manifest")
            || has_token(&code, "RunManifest")
            || has_token(&code, "conclude");
        if phases < 3 || !manifests {
            if file_allowed("telemetry-phases") {
                out.suppressed += 1;
                out.consumed.extend(table.match_keys_file("telemetry-phases"));
            } else {
                out.violations.push(Violation {
                    path: path.to_string(),
                    line: 1,
                    rule: "telemetry-phases".into(),
                    message: format!(
                        "benchmark binary marks {phases} phase(s) (need >= 3) \
                         and {} a RunManifest",
                        if manifests { "writes" } else { "does not write" }
                    ),
                });
            }
        }
    }
    // Guard coverage: every toolbox dispatch in rein-core and the bench
    // crate must run under rein-guard supervision. Files that call
    // rein_guard::run are the sanctioned dispatchers; everywhere else a
    // direct `.detect(`/`.repair(` call bypasses panic isolation and
    // deadline budgets, so one crashing strategy would abort the grid.
    let guard_scoped = (path.starts_with("crates/core/src/")
        || path.starts_with("crates/bench/src/"))
        && !class.is_test_support;
    if guard_scoped {
        let code: String = lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
        if !has_token(&code, "rein_guard::run") {
            for (idx, line) in lines.iter().enumerate() {
                if tests[idx] {
                    continue;
                }
                for token in [".detect(", ".repair("] {
                    if has_token(&line.code, token) {
                        if file_allowed("guard-coverage") {
                            out.suppressed += 1;
                            out.consumed.extend(table.match_keys_file("guard-coverage"));
                        } else {
                            out.violations.push(Violation {
                                path: path.to_string(),
                                line: idx + 1,
                                rule: "guard-coverage".into(),
                                message: format!(
                                    "`{token}` dispatch outside rein_guard::run — route \
                                     it through DetectorHarness::run, run_repair_guarded \
                                     or detect_with_context"
                                ),
                            });
                        }
                        break;
                    }
                }
            }
        }
    }

    // Store write discipline: outside the store crate itself (which owns
    // the fsync'd temp-file + rename machinery), any raw filesystem write
    // aimed at a store artifact — a journal segment, a quarantine blob,
    // the recovery report — bypasses the write-ahead journal's atomicity
    // and can leave a torn file that recovery then quarantines as
    // corruption. String literals are stripped from lexed code, so the
    // artifact side matches the identifiers such code necessarily binds
    // (`journal`, `quarantine`, `segment`, `store_root`).
    let store_scoped = !class.is_test_support && !path.starts_with("crates/store/src/");
    if store_scoped {
        const STORE_WRITE_TOKENS: [&str; 2] = ["fs::write(", "File::create("];
        const STORE_ARTIFACT_TOKENS: [&str; 4] = ["journal", "quarantine", "segment", "store_root"];
        for (idx, line) in lines.iter().enumerate() {
            if tests[idx] {
                continue;
            }
            let raw_write = STORE_WRITE_TOKENS.iter().any(|t| has_token(&line.code, t));
            let store_artifact = STORE_ARTIFACT_TOKENS.iter().any(|t| has_token(&line.code, t));
            if raw_write && store_artifact {
                if table.allows(idx + 1, "store-atomic-write") {
                    out.suppressed += 1;
                    out.consumed.extend(table.match_keys(idx + 1, "store-atomic-write"));
                } else {
                    out.violations.push(Violation {
                        path: path.to_string(),
                        line: idx + 1,
                        rule: "store-atomic-write".into(),
                        message: "raw filesystem write to a store artifact — route it \
                                  through rein_store::atomic_write or Store::commit_staged"
                            .into(),
                    });
                }
            }
        }
    }

    let span_scoped = (path.starts_with("crates/detect/src/")
        || path.starts_with("crates/repair/src/"))
        && !path.ends_with("/lib.rs")
        && !class.is_test_support;
    if span_scoped {
        let opens_span = lines.iter().any(|l| l.code.contains("span("));
        if !opens_span {
            if file_allowed("telemetry-span") {
                out.suppressed += 1;
                out.consumed.extend(table.match_keys_file("telemetry-span"));
            } else {
                out.violations.push(Violation {
                    path: path.to_string(),
                    line: 1,
                    rule: "telemetry-span".into(),
                    message: "detector/repair module never opens a telemetry span".into(),
                });
            }
        }
    }

    out.violations.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(audit: &FileAudit) -> Vec<&str> {
        audit.violations.iter().map(|v| v.rule.as_str()).collect()
    }

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
        let real = AllowTable::build("// audit:allow(panic, why)\nfn f() {}\n");
        assert_eq!(real.entries().len(), 1);
        assert!(real.allows(2, "panic"));
    }

    #[test]
    fn hash_iter_fires_and_suppresses() {
        let bad = audit_source("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(rules_of(&bad), ["hash-iter"]);
        let ok = audit_source(
            "crates/core/src/x.rs",
            "// audit:allow(hash-iter, counting only, never iterated)\n\
             use std::collections::HashMap;\n",
        );
        assert!(ok.violations.is_empty());
        assert_eq!(ok.suppressed, 1);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let bad = audit_source(
            "crates/detect/src/x.rs",
            "let t = SystemTime::now(); // audit:allow-file(wallclock)\n",
        );
        assert!(rules_of(&bad).contains(&"annotation"));
    }

    #[test]
    fn panic_rule_ignores_tests_and_bins() {
        let lib = audit_source("crates/data/src/x.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_of(&lib), ["panic"]);
        let tests = audit_source(
            "crates/data/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n",
        );
        assert!(tests.violations.is_empty());
        let bin = audit_source("crates/bench/src/bin/b.rs", "fn f() { x.unwrap(); }\n");
        assert!(!rules_of(&bin).contains(&"panic"));
    }

    #[test]
    fn wallclock_allowed_in_perf_module_only() {
        let bad = audit_source("crates/core/src/x.rs", "let t = Instant::now();\n");
        assert_eq!(rules_of(&bad), ["wallclock"]);
        let ok = audit_source("crates/telemetry/src/perf.rs", "let t = Instant::now();\n");
        assert!(ok.violations.is_empty());
        // The carve-out covers the perf module only: the rest of the
        // telemetry crate and the ml shim must go through perf::now.
        let span = audit_source("crates/telemetry/src/span.rs", "let t = Instant::now();\n");
        assert_eq!(rules_of(&span), ["wallclock"]);
        let ml = audit_source("crates/ml/src/instrument.rs", "let t = Instant::now();\n");
        assert_eq!(rules_of(&ml), ["wallclock"]);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let ok = audit_source(
            "crates/core/src/x.rs",
            "// a HashMap would be wrong here\nlet s = \"thread_rng\";\n",
        );
        assert!(ok.violations.is_empty());
    }

    #[test]
    fn bench_bin_phase_coverage() {
        let bad = audit_source("crates/bench/src/bin/fig.rs", "fn main() { phase(\"a\"); }\n");
        assert_eq!(rules_of(&bad), ["telemetry-phases"]);
        let ok = audit_source(
            "crates/bench/src/bin/fig.rs",
            "fn main() { phase(\"a\"); phase(\"b\"); phase(\"c\"); \
             write_run_manifest(\"fig\", 1, 0); }\n",
        );
        assert!(ok.violations.is_empty());
    }

    #[test]
    fn detector_module_needs_span() {
        let bad = audit_source("crates/detect/src/k.rs", "fn detect() {}\n");
        assert_eq!(rules_of(&bad), ["telemetry-span"]);
        let ok = audit_source(
            "crates/detect/src/k.rs",
            "fn detect() { let _s = rein_telemetry::span(\"detect:k\"); }\n",
        );
        assert!(ok.violations.is_empty());
    }

    #[test]
    fn print_scope() {
        let bad = audit_source("crates/core/src/x.rs", "println!(\"hi\");\n");
        assert_eq!(rules_of(&bad), ["print"]);
        for ok_path in ["crates/telemetry/src/log.rs", "crates/bench/src/lib.rs"] {
            assert!(audit_source(ok_path, "println!(\"hi\");\n").violations.is_empty());
        }
        // Binaries may print: they are the report surface.
        let bin = audit_source("crates/audit/src/main.rs", "println!(\"hi\");\n");
        assert!(bin.violations.is_empty());
    }

    #[test]
    fn unseeded_rng_fires_even_in_tests() {
        let bad = audit_source("crates/core/tests/t.rs", "let mut r = thread_rng();\n");
        assert_eq!(rules_of(&bad), ["unseeded-rng"]);
    }
}
