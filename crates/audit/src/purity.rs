//! Key-purity certification: every cell-compute entry point is proven
//! **key-pure** — all value-influencing inputs trace to the declared
//! cache-key tuple (`rein_core::cache_key::CellKey`) — or the audit
//! fails with the concrete taint source and call path named.
//!
//! Purity lattice: a region function is `KeyPure` unless it (or
//! anything it transitively calls inside the region) reads an ambient
//! channel — environment, filesystem, wall-clock, global state — in
//! which case it is `Tainted`. Entry-point parameters are key-derived
//! by construction (dataset/version, strategy, seed, scale and guard
//! policy all arrive as arguments), so "no ambient reads" is exactly
//! "all inputs flow through the key". A reasoned `audit:allow`
//! *cleanses* a taint: the annotation is the human proof that the read
//! does not influence the cell's value (e.g. a telemetry toggle), and
//! the certificate is computed over unsuppressed taints only.
//!
//! Four rules live here (catalog in DESIGN.md §6h):
//! `cache-key-completeness` and `env-read-confinement` (blocking),
//! plus the dataflow module's `hot-loop-alloc` (advisory) and
//! `float-reduce-order` (blocking), orchestrated from one pass.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::dataflow::{
    call_path, compute_region, compute_region_from, display_name, entry_nodes, env_read,
    float_reduce_order, hot_loop_alloc, taint_sources, workspace_statics,
};
use crate::lexer::{lex, SourceLine};
use crate::parser::ParsedFile;
use crate::rules::AllowTable;
use crate::semantic::{Sink, WorkspaceModel};

/// The declared cache-key tuple, in [`CellKey`] field order. The
/// `cache-key-completeness` rule flags any `CellKey` literal that
/// initializes a field outside this list, so adding a key component
/// forces this table (and the §6h docs) to move in lockstep with the
/// struct — the certificate is always relative to the real key.
///
/// [`CellKey`]: https://docs.rs/rein-core (crates/core/src/cache_key.rs)
pub const CACHE_KEY_FIELDS: [&str; 7] =
    ["dataset", "dataset_version", "strategy", "inputs", "seed", "scale", "guard_policy"];

/// The declared key tuple, exposed for docs and the dogfood tests.
pub fn cache_key_fields() -> &'static [&'static str] {
    &CACHE_KEY_FIELDS
}

/// The one module allowed to read environment variables in library
/// code: rein-bench's config layer, which snapshots `REIN_SCALE` &co.
/// once into `OnceLock` statics. Everywhere else a `std::env::var`
/// couples behavior to ambient process state the cache key cannot see.
/// Binaries stay exempt (they are the CLI surface).
pub const ENV_READ_ALLOWED: [&str; 1] = ["crates/bench/src/lib.rs"];

/// The env-read allowlist, exposed so the dogfood test pins its size.
pub fn env_read_allowlist() -> &'static [&'static str] {
    &ENV_READ_ALLOWED
}

/// Purity verdict for one entry point, for the public certificate API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryCertificate {
    /// Entry-point display name (`Controller::run_grid`).
    pub entry: String,
    /// File and line of the entry-point definition.
    pub file: String,
    pub line: usize,
    /// `true` when no unsuppressed ambient read is reachable.
    pub key_pure: bool,
    /// Human-readable descriptions of the unsuppressed taints
    /// (empty when key-pure), sorted.
    pub taints: Vec<String>,
}

/// Certifies every entry point against the declared cache key:
/// recomputes the per-entry compute region and lists the ambient reads
/// that survive suppression. The workspace dogfood test asserts every
/// certificate comes back `key_pure` — which, combined with zero
/// unsuppressed `cache-key-completeness` findings, is the proof the
/// incremental store's replay is sound.
pub fn certify(model: &WorkspaceModel) -> Vec<EntryCertificate> {
    let parsed: Vec<(String, &ParsedFile)> =
        model.files.iter().map(|f| (f.path.clone(), &f.parsed)).collect();
    let g = CallGraph::build(&parsed);
    let statics = workspace_statics(model);
    let allows: BTreeMap<&str, &AllowTable> =
        model.files.iter().map(|f| (f.path.as_str(), &f.allows)).collect();
    let lines: BTreeMap<&str, Vec<SourceLine>> =
        model.files.iter().map(|f| (f.path.as_str(), lex(&f.source))).collect();
    let mut out = Vec::new();
    for entry in entry_nodes(&g) {
        let region = compute_region_from(&g, &[entry]);
        let mut taints = Vec::new();
        for (ix, n) in g.nodes.iter().enumerate() {
            if !region.member[ix] {
                continue;
            }
            let Some(ls) = lines.get(n.file.as_str()) else { continue };
            for t in taint_sources(n, &statics, ls) {
                let suppressed = allows
                    .get(n.file.as_str())
                    .is_some_and(|a| a.allows(t.line, "cache-key-completeness"));
                if suppressed {
                    continue;
                }
                taints.push(format!(
                    "{} read of {} at {}:{} via {}",
                    t.kind,
                    t.what,
                    n.file,
                    t.line,
                    call_path(&g, &region, ix)
                ));
            }
        }
        taints.sort();
        taints.dedup();
        let n = &g.nodes[entry];
        out.push(EntryCertificate {
            entry: display_name(n),
            file: n.file.clone(),
            line: n.func.line,
            key_pure: taints.is_empty(),
            taints,
        });
    }
    out
}

/// Runs the purity rules. Called from `semantic::analyze`.
pub(crate) fn analyze_purity(model: &WorkspaceModel, g: &CallGraph, sink: &mut Sink) {
    let region = compute_region(g);
    let statics = workspace_statics(model);
    let lines: BTreeMap<&str, Vec<SourceLine>> =
        model.files.iter().map(|f| (f.path.as_str(), lex(&f.source))).collect();

    // cache-key-completeness: ambient reads inside the compute region.
    for (ix, n) in g.nodes.iter().enumerate() {
        if !region.member[ix] {
            continue;
        }
        let Some(ls) = lines.get(n.file.as_str()) else { continue };
        for t in taint_sources(n, &statics, ls) {
            sink.emit(
                &n.file,
                t.line,
                "cache-key-completeness",
                format!(
                    "{} read of {} reaches the cell computation without \
                     flowing through the declared cache key \
                     (CellKey: {}) — call path: {}; thread the value \
                     through the key or cleanse with a reasoned audit:allow",
                    t.kind,
                    t.what,
                    CACHE_KEY_FIELDS.join("/"),
                    call_path(g, &region, ix),
                ),
            );
        }
    }

    // Key drift: a CellKey literal initializing a field the audit does
    // not know about means the struct grew and the certificate is
    // stale.
    for n in &g.nodes {
        for sl in &n.func.struct_lits {
            if sl.name != "CellKey" {
                continue;
            }
            for (field, _) in &sl.fields {
                if !CACHE_KEY_FIELDS.contains(&field.as_str()) {
                    sink.emit(
                        &n.file,
                        sl.line,
                        "cache-key-completeness",
                        format!(
                            "CellKey literal initializes field `{field}` that \
                             is not in the audit's declared key tuple — update \
                             purity::CACHE_KEY_FIELDS (and DESIGN.md §6h) so \
                             the certificate covers the new component"
                        ),
                    );
                }
            }
        }
    }

    // env-read-confinement: every env read in library code outside the
    // config allowlist module, region or not.
    for n in &g.nodes {
        if !n.lib_scope() || ENV_READ_ALLOWED.contains(&n.file.as_str()) {
            continue;
        }
        for call in &n.func.calls {
            if let Some(what) = env_read(call) {
                sink.emit(
                    &n.file,
                    call.line,
                    "env-read-confinement",
                    format!(
                        "`{what}` outside the config allowlist module \
                         ({}) — snapshot the value once in rein-bench's \
                         config layer and pass it down as a parameter",
                        ENV_READ_ALLOWED.join(", "),
                    ),
                );
            }
        }
    }

    hot_loop_alloc(model, sink);
    float_reduce_order(g, sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        WorkspaceModel::build(&owned)
    }

    #[test]
    fn certify_names_taint_and_path() {
        let m = model(&[(
            "crates/core/src/controller.rs",
            "impl Controller { pub fn run_grid(&self) { helper(); } }\n\
             fn helper() { let v = std::env::var(\"REIN_X\"); }\n",
        )]);
        let certs = certify(&m);
        assert_eq!(certs.len(), 1);
        let c = &certs[0];
        assert_eq!(c.entry, "Controller::run_grid");
        assert!(!c.key_pure);
        assert_eq!(c.taints.len(), 1);
        assert!(c.taints[0].contains("environment read of env::var"));
        assert!(c.taints[0].contains("Controller::run_grid -> helper"), "{}", c.taints[0]);
    }

    #[test]
    fn allow_cleanses_the_certificate() {
        let m = model(&[(
            "crates/core/src/controller.rs",
            "impl Controller { pub fn run_grid(&self) { helper(); } }\n\
             // audit:allow(cache-key-completeness, toggle is render-only, never a value input)\n\
             fn helper() { let v = std::env::var(\"REIN_X\"); }\n",
        )]);
        let certs = certify(&m);
        assert!(certs[0].key_pure, "{:?}", certs[0].taints);
    }

    #[test]
    fn pure_entry_certifies_clean() {
        let m = model(&[(
            "crates/core/src/evaluate.rs",
            "pub fn detect_with_context(seed: u64, scale: f64) -> u64 { seed + scale as u64 }\n",
        )]);
        let certs = certify(&m);
        assert_eq!(certs.len(), 1);
        assert!(certs[0].key_pure);
        assert_eq!(certs[0].entry, "detect_with_context");
    }
}
