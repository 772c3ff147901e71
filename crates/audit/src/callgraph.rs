//! Workspace call graph: one node per parsed function, edges resolved
//! by name with path-qualifier and impl-type heuristics, plus forward
//! reachability.
//!
//! Resolution leans toward *over-approximation*: a method call resolves
//! to every same-name function (this is how dynamic dispatch through
//! `Box<dyn Detector>` stays visible), an unqualified call prefers
//! same-file, then same-crate, then any match, and a `rein_<crate>::`
//! path matches that crate's same-name functions. The parallel region
//! of §6g wants that direction of error: a spurious edge at worst costs
//! an annotation. It is not a proof of "never too little": a call the
//! parser does not see (inside a macro body, through a function pointer
//! or a renamed import) has no edge, and code reached only that way is
//! outside the region.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{Call, Callee, Function, ParsedFile};
use crate::rules::{classify, FileClass};

/// One function node with the file context the rules need.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// Crate short name: `crates/<name>/…` → `<name>`, else `root`.
    pub crate_name: String,
    /// File stem (`katara.rs` → `katara`; `lib.rs` → `lib`).
    pub module: String,
    pub class: FileClass,
    pub func: Function,
}

impl FnNode {
    /// Library scope: code that ships in a crate's lib target and is
    /// not test-only.
    pub fn lib_scope(&self) -> bool {
        !self.class.is_test_support && !self.class.is_bin && !self.func.in_test
    }
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Function name → node indices.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Forward adjacency (caller → callees).
    pub edges: Vec<BTreeSet<usize>>,
}

/// Crate short name for a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(c) = parts.next() {
            return c.to_string();
        }
    }
    "root".to_string()
}

/// File stem for a workspace-relative path.
pub fn module_of(path: &str) -> String {
    path.rsplit('/').next().and_then(|f| f.strip_suffix(".rs")).unwrap_or("").to_string()
}

impl CallGraph {
    /// Builds the graph from parsed files `(path, parsed)`.
    pub fn build(files: &[(String, &ParsedFile)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (path, parsed) in files {
            let crate_name = crate_of(path);
            let module = module_of(path);
            let class = classify(path);
            for func in &parsed.functions {
                if func.name.is_empty() {
                    continue;
                }
                let ix = g.nodes.len();
                g.by_name.entry(func.name.clone()).or_default().push(ix);
                g.nodes.push(FnNode {
                    file: path.clone(),
                    crate_name: crate_name.clone(),
                    module: module.clone(),
                    class,
                    func: func.clone(),
                });
            }
        }
        g.edges = vec![BTreeSet::new(); g.nodes.len()];
        for caller in 0..g.nodes.len() {
            let calls = g.nodes[caller].func.calls.clone();
            for call in &calls {
                for callee in g.resolve(caller, call) {
                    g.edges[caller].insert(callee);
                }
            }
        }
        g
    }

    /// Resolves one call from `caller` to candidate node indices.
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        let name = call.callee.name();
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        match &call.callee {
            Callee::Method(_) => {
                // Dynamic dispatch over-approximation: every same-name
                // fn, preferring inherent/impl methods when any exist.
                let with_self: Vec<usize> =
                    cands.iter().copied().filter(|&i| self.nodes[i].func.has_self).collect();
                if with_self.is_empty() {
                    cands.clone()
                } else {
                    with_self
                }
            }
            Callee::Path(_) => {
                let qual =
                    call.callee.qualifier().filter(|q| !matches!(*q, "crate" | "self" | "super"));
                if let Some(q) = qual {
                    let q_owned = if q == "Self" {
                        self.nodes[caller].func.impl_type.clone().unwrap_or_default()
                    } else {
                        q.to_string()
                    };
                    if q_owned.chars().next().is_some_and(char::is_uppercase) {
                        // Type-qualified: match the impl type.
                        let typed: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&i| self.nodes[i].func.impl_type.as_deref() == Some(&q_owned))
                            .collect();
                        return typed;
                    }
                    if let Some(krate) = q_owned.strip_prefix("rein_") {
                        // Crate-qualified (`rein_guard::checkpoint`): that
                        // crate's same-name functions.
                        return cands
                            .iter()
                            .copied()
                            .filter(|&i| self.nodes[i].crate_name == krate)
                            .collect();
                    }
                    // Module-qualified: match the file stem, preferring
                    // the caller's crate.
                    let in_mod: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| self.nodes[i].module == q_owned)
                        .collect();
                    let same_crate: Vec<usize> = in_mod
                        .iter()
                        .copied()
                        .filter(|&i| self.nodes[i].crate_name == self.nodes[caller].crate_name)
                        .collect();
                    return if same_crate.is_empty() { in_mod } else { same_crate };
                }
                // Unqualified: same file, then same crate, then any.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.nodes[i].file == self.nodes[caller].file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.nodes[i].crate_name == self.nodes[caller].crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                cands.clone()
            }
        }
    }

    /// Forward BFS: every node reachable from `roots` (roots included).
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in roots {
            if s < seen.len() && !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        while let Some(n) = queue.pop() {
            for &m in &self.edges[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push(m);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> (CallGraph, Vec<ParsedFile>) {
        let parsed: Vec<ParsedFile> = files.iter().map(|(_, s)| parse_file(s)).collect();
        let refs: Vec<(String, &ParsedFile)> =
            files.iter().zip(&parsed).map(|((p, _), pf)| (p.to_string(), pf)).collect();
        (CallGraph::build(&refs), parsed)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.by_name.get(name).and_then(|v| v.first().copied()).expect("node")
    }

    #[test]
    fn module_qualified_resolution() {
        let (g, _) = graph(&[
            ("crates/detect/src/lib.rs", "pub fn build() { katara::run(); }\n"),
            ("crates/detect/src/katara.rs", "pub fn run() {}\n"),
            ("crates/repair/src/katara.rs", "pub fn run() {}\n"),
        ]);
        let b = node(&g, "build");
        let detect_run = g
            .by_name
            .get("run")
            .map(|v| {
                v.iter().copied().find(|&i| g.nodes[i].crate_name == "detect").expect("detect run")
            })
            .expect("run nodes");
        assert!(g.edges[b].contains(&detect_run), "prefers the caller's crate");
        assert_eq!(g.edges[b].len(), 1);
    }

    #[test]
    fn crate_qualified_resolution() {
        let (g, _) = graph(&[
            ("crates/detect/src/dboost.rs", "pub fn detect() { rein_guard::checkpoint(1); }\n"),
            ("crates/guard/src/budget.rs", "pub fn checkpoint(n: u64) {}\n"),
            ("crates/ml/src/budget.rs", "pub fn checkpoint(n: u64) {}\n"),
        ]);
        let d = node(&g, "detect");
        let targets: Vec<&str> = g.edges[d].iter().map(|&i| g.nodes[i].file.as_str()).collect();
        assert_eq!(targets, ["crates/guard/src/budget.rs"], "the named crate's fn only");
    }

    #[test]
    fn type_qualified_resolution() {
        let (g, _) = graph(&[
            (
                "crates/ml/src/model.rs",
                "impl Model { pub fn new() -> Model { Model } }\n\
                 pub fn build() { Model::new(); }\n",
            ),
            ("crates/ml/src/other.rs", "impl Other { pub fn new() -> Other { Other } }\n"),
        ]);
        let b = node(&g, "build");
        assert_eq!(g.edges[b].len(), 1);
        let target = *g.edges[b].iter().next().expect("edge");
        assert_eq!(g.nodes[target].func.impl_type.as_deref(), Some("Model"));
    }

    #[test]
    fn method_calls_over_approximate() {
        let (g, _) = graph(&[
            ("crates/detect/src/a.rs", "impl A { pub fn detect(&self) {} }\n"),
            ("crates/detect/src/b.rs", "impl B { pub fn detect(&self) {} }\n"),
            ("crates/core/src/run.rs", "pub fn run(d: &dyn D) { d.detect(); }\n"),
        ]);
        let r = node(&g, "run");
        assert_eq!(g.edges[r].len(), 2, "dyn dispatch reaches every impl");
    }

    #[test]
    fn reachability_follows_call_edges() {
        let (g, _) = graph(&[(
            "crates/core/src/x.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() {}\n",
        )]);
        let a = node(&g, "a");
        let c = node(&g, "c");
        let island = node(&g, "island");
        let fwd = g.reachable_from(&[a]);
        assert!(fwd[c] && !fwd[island]);
        let from_leaf = g.reachable_from(&[c]);
        assert!(!from_leaf[a], "edges run caller to callee only");
    }
}
