//! The ledger index: `artifacts/ledger/index.json`.
//!
//! One deterministic, byte-stable record of every artifact the
//! benchmark has produced, keyed by content hash of the run identity
//! (see [`crate::hash`]). Ingesting the same artifacts twice is a
//! no-op: entries already present by key are skipped, the generation
//! counter only advances when something actually changed, and the
//! serialized index is byte-identical. A full rescan also forgets the
//! entries whose artifact was deleted.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Schema version stamped into the index.
pub const INDEX_SCHEMA: u32 = 1;

/// Directory ledger artifacts live in, relative to the repo root.
pub fn ledger_dir(root: &Path) -> PathBuf {
    root.join("artifacts").join("ledger")
}

/// The index file path under `root`.
pub fn index_path(root: &Path) -> PathBuf {
    ledger_dir(root).join("index.json")
}

/// Guard-failure taxonomy counts, classified from rendered causes:
/// `panic:` → panics, `budget exhausted` → deadlines, `transient
/// failure persisted` → retries, `invalid output` → corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureTaxonomy {
    /// Strategy panicked (caught and recorded by rein-guard).
    pub panics: u64,
    /// Cooperative deadline budget exhausted.
    pub deadlines: u64,
    /// Transient failure persisted through the retry allowance.
    pub retries: u64,
    /// Output failed validation (corrupt / invalid shape).
    pub corrupt: u64,
}

impl FailureTaxonomy {
    /// Classifies one rendered failure cause into the taxonomy.
    pub fn count(&mut self, cause: &str) {
        if cause.starts_with("panic:") {
            self.panics += 1;
        } else if cause.starts_with("budget exhausted") {
            self.deadlines += 1;
        } else if cause.starts_with("transient failure persisted") {
            self.retries += 1;
        } else {
            // `invalid output:` plus anything a future guard adds —
            // an unknown cause is still a corrupt result, never silent.
            self.corrupt += 1;
        }
    }

    /// Total failures across the taxonomy.
    pub fn total(&self) -> u64 {
        self.panics + self.deadlines + self.retries + self.corrupt
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &FailureTaxonomy) {
        self.panics += other.panics;
        self.deadlines += other.deadlines;
        self.retries += other.retries;
        self.corrupt += other.corrupt;
    }
}

/// Deterministic per-artifact aggregates, flat across entry kinds
/// (fields that do not apply to a kind stay zero).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntrySummary {
    /// Spans recorded (full count — from the rollup in summary mode).
    pub spans: u64,
    /// Distinct span names.
    pub span_names: u64,
    /// Guard-failure taxonomy of the run.
    pub failures: FailureTaxonomy,
    /// `cells_scanned` counter, when present.
    pub cells_scanned: u64,
    /// Violations in an audit report.
    pub violations: u64,
}

/// One ledger entry: a content-addressed pointer to an ingested
/// artifact plus its deterministic aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Content key: FNV-1a 64 of the run identity, 16 hex digits.
    pub key: String,
    /// Artifact class: `run_manifest`, `audit_report` or `trace_export`.
    pub kind: String,
    /// Repo-relative source path, forward slashes.
    pub source: String,
    /// Producing binary (`binary` / `created_by` / `tool`).
    pub bin: String,
    /// Run seed (0 for artifacts without one, e.g. audit reports).
    pub seed: u64,
    /// Dataset scale factor (0 when not applicable).
    pub scale: f64,
    /// Worker threads echoed by the artifact (0 = unrecorded).
    pub threads: u32,
    /// Manifest mode (`full`, `summary`, or empty for non-manifests).
    pub mode: String,
    /// Sorted strategy set the run exercised (`phase:strategy` names).
    pub strategies: Vec<String>,
    /// Ledger generation that first saw this key.
    pub generation: u32,
    /// Deterministic aggregates.
    pub summary: EntrySummary,
}

/// The whole index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerIndex {
    /// [`INDEX_SCHEMA`].
    pub schema: u32,
    /// Generation of the last ingest pass that changed the index; bumped
    /// only when a pass actually adds, replaces or drops entries.
    pub generation: u32,
    /// Entries sorted by (kind, source, key) — the byte-stable order.
    pub entries: Vec<LedgerEntry>,
}

impl Default for LedgerIndex {
    fn default() -> Self {
        LedgerIndex { schema: INDEX_SCHEMA, generation: 0, entries: Vec::new() }
    }
}

/// Outcome of ingesting one artifact into the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The key was new: the entry was added.
    Added,
    /// An entry for the same (kind, source) existed under a different
    /// key — the artifact changed identity and the entry was replaced.
    Replaced,
    /// The key was already present: nothing changed.
    AlreadyKnown,
}

impl LedgerIndex {
    /// Loads the index from `path`; a missing file is an empty index.
    pub fn load(path: &Path) -> Result<LedgerIndex, String> {
        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(LedgerIndex::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
            Ok(text) => {
                serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
            }
        }
    }

    /// Serializes to pretty JSON with a trailing newline — the on-disk
    /// format. Entries are kept sorted by [`LedgerIndex::normalize`],
    /// so the bytes depend only on the content.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).unwrap_or_else(|e|
            // audit:allow(panic, serializing plain owned data cannot fail)
            panic!("index serializes: {e}"));
        text.push('\n');
        text
    }

    /// Writes the index to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Restores the canonical entry order.
    pub fn normalize(&mut self) {
        self.entries
            .sort_by(|a, b| (&a.kind, &a.source, &a.key).cmp(&(&b.kind, &b.source, &b.key)));
    }

    /// Whether `key` is already present.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// Ingests one entry (its `generation` field is overwritten):
    /// same-key entries are no-ops, a (kind, source) match under a
    /// different key is replaced, everything else is added. The caller
    /// stamps the generation via [`LedgerIndex::apply`].
    fn ingest_at(&mut self, mut entry: LedgerEntry, generation: u32) -> IngestOutcome {
        if self.contains(&entry.key) {
            return IngestOutcome::AlreadyKnown;
        }
        entry.generation = generation;
        let existing =
            self.entries.iter().position(|e| e.kind == entry.kind && e.source == entry.source);
        match existing {
            Some(i) => {
                self.entries[i] = entry;
                IngestOutcome::Replaced
            }
            None => {
                self.entries.push(entry);
                IngestOutcome::Added
            }
        }
    }

    /// Applies a batch of candidate entries as one ingest pass: if any
    /// of them is new, the generation advances once and all new entries
    /// are stamped with it. Never drops an entry. Returns `true` when
    /// the index changed.
    pub fn apply(&mut self, candidates: Vec<LedgerEntry>) -> bool {
        self.pass(candidates, |_| true)
    }

    /// Applies a full rescan of the artifacts under `root` as one ingest
    /// pass: [`LedgerIndex::apply`] plus dropping every entry whose
    /// source file no longer exists. Additions and drops share one
    /// generation bump. Returns `true` when the index changed.
    pub fn apply_rescan(&mut self, candidates: Vec<LedgerEntry>, root: &Path) -> bool {
        self.pass(candidates, |e| root.join(&e.source).exists())
    }

    /// One ingest pass: drops the entries `keep` rejects, then ingests
    /// `candidates`, advancing the generation once if anything changed.
    fn pass(&mut self, candidates: Vec<LedgerEntry>, keep: impl Fn(&LedgerEntry) -> bool) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| keep(e));
        let generation = self.generation + 1;
        let mut changed = self.entries.len() != before;
        for c in candidates {
            if self.ingest_at(c, generation) != IngestOutcome::AlreadyKnown {
                changed = true;
            }
        }
        if changed {
            self.generation = generation;
            self.normalize();
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, source: &str) -> LedgerEntry {
        LedgerEntry {
            key: key.to_string(),
            kind: "run_manifest".to_string(),
            source: source.to_string(),
            bin: "fig2".to_string(),
            seed: 11,
            scale: 0.05,
            threads: 1,
            mode: "full".to_string(),
            strategies: vec!["detect:raha".to_string()],
            generation: 0,
            summary: EntrySummary::default(),
        }
    }

    #[test]
    fn double_apply_is_a_noop_byte_identically() {
        let mut index = LedgerIndex::default();
        assert!(index.apply(vec![entry("aa", "artifacts/telemetry/fig2-11.json")]));
        assert_eq!(index.generation, 1);
        let bytes = index.to_json();
        assert!(!index.apply(vec![entry("aa", "artifacts/telemetry/fig2-11.json")]));
        assert_eq!(index.generation, 1, "no-op ingest must not advance the generation");
        assert_eq!(index.to_json(), bytes, "no-op ingest must not change a single byte");
    }

    #[test]
    fn changed_source_replaces_instead_of_duplicating() {
        let mut index = LedgerIndex::default();
        assert!(index.apply(vec![entry("aa", "artifacts/audit/report.json")]));
        assert!(index.apply(vec![entry("bb", "artifacts/audit/report.json")]));
        assert_eq!(index.entries.len(), 1, "same (kind, source) must replace, not accumulate");
        assert_eq!(index.entries[0].key, "bb");
        assert_eq!(index.entries[0].generation, 2);
    }

    #[test]
    fn generations_advance_once_per_changing_pass() {
        let mut index = LedgerIndex::default();
        assert!(index.apply(vec![entry("aa", "a.json"), entry("bb", "b.json")]));
        assert_eq!(index.generation, 1);
        assert_eq!(index.entries.iter().filter(|e| e.generation == 1).count(), 2);
        assert!(index.apply(vec![entry("aa", "a.json"), entry("cc", "c.json")]));
        assert_eq!(index.generation, 2);
        let gen_of = |key: &str| index.entries.iter().find(|e| e.key == key).map(|e| e.generation);
        assert_eq!(gen_of("aa"), Some(1), "existing entries keep their first generation");
        assert_eq!(gen_of("cc"), Some(2));
    }

    #[test]
    fn taxonomy_classifies_guard_causes() {
        let mut t = FailureTaxonomy::default();
        t.count("panic: chaos: injected panic for detect:raha");
        t.count("budget exhausted: 15 of 10 ticks");
        t.count("transient failure persisted: still down");
        t.count("invalid output: nonzero 7");
        t.count("something new");
        assert_eq!(t.panics, 1);
        assert_eq!(t.deadlines, 1);
        assert_eq!(t.retries, 1);
        assert_eq!(t.corrupt, 2);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn index_roundtrips_and_orders_deterministically() {
        let mut index = LedgerIndex::default();
        assert!(index.apply(vec![entry("zz", "z.json"), entry("aa", "a.json")]));
        let back: LedgerIndex = serde_json::from_str(&index.to_json()).expect("parses back");
        assert_eq!(back, index);
        let sources: Vec<&str> = index.entries.iter().map(|e| e.source.as_str()).collect();
        assert_eq!(sources, ["a.json", "z.json"], "entries sort by (kind, source, key)");
    }
}
