//! The data repository — the PostgreSQL substitute.
//!
//! Stores every data version (ground truth, dirty, one repaired version
//! per cleaning strategy) in memory, optionally persisting each version as
//! CSV under a root directory, which is all the original uses its
//! database for.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rein_data::{csv, Table};

/// Key of a stored data version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VersionKey {
    /// The clean ground truth.
    GroundTruth,
    /// The dirty version.
    Dirty,
    /// A repaired version, keyed by `(detector, repairer)` names.
    Repaired {
        /// Detector name.
        detector: String,
        /// Repairer name.
        repairer: String,
    },
}

impl VersionKey {
    fn file_stem(&self) -> String {
        match self {
            VersionKey::GroundTruth => "ground_truth".to_string(),
            VersionKey::Dirty => "dirty".to_string(),
            VersionKey::Repaired { detector, repairer } => {
                format!("repaired__{detector}__{repairer}")
            }
        }
    }
}

/// In-memory (optionally file-backed) repository of dataset versions.
#[derive(Debug, Default)]
pub struct Repository {
    versions: BTreeMap<(String, VersionKey), Table>,
    root: Option<PathBuf>,
}

impl Repository {
    /// Pure in-memory repository.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Repository persisting every stored version as CSV under `root`.
    pub fn with_root(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { versions: BTreeMap::new(), root: Some(root) })
    }

    /// Stores a version (overwrites an existing one).
    ///
    /// On-disk persistence goes through [`rein_store::atomic_write`] —
    /// the same hardened temp-file + fsync + rename + parent-directory
    /// fsync path the durable cell store's segment writer uses — so a
    /// crash (or power loss) mid-write leaves either the old version or
    /// the new one durably on disk, never a torn file and never a
    /// rename that an unsynced directory entry forgets.
    pub fn store(&mut self, dataset: &str, key: VersionKey, table: Table) -> std::io::Result<()> {
        if let Some(root) = &self.root {
            let dir = root.join(dataset);
            let target = dir.join(format!("{}.csv", key.file_stem()));
            rein_store::atomic_write(&target, csv::write_str(&table).as_bytes())?;
        }
        self.versions.insert((dataset.to_string(), key), table);
        Ok(())
    }

    /// Fetches a version from memory (or from disk on a cold start).
    pub fn load(&self, dataset: &str, key: &VersionKey) -> Option<Table> {
        if let Some(t) = self.versions.get(&(dataset.to_string(), key.clone())) {
            return Some(t.clone());
        }
        let root = self.root.as_ref()?;
        let path = root.join(dataset).join(format!("{}.csv", key.file_stem()));
        csv::read_file(&path).ok()
    }

    /// Lists the stored version keys of a dataset (in-memory only).
    pub fn versions_of(&self, dataset: &str) -> Vec<VersionKey> {
        let mut keys: Vec<VersionKey> =
            self.versions.keys().filter(|(d, _)| d == dataset).map(|(_, k)| k.clone()).collect();
        keys.sort_by_key(|k| k.file_stem());
        keys
    }

    /// Number of stored versions across all datasets.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::let_underscore_must_use,
        reason = "scratch directories are removed best-effort"
    )]
    #![expect(
        clippy::disallowed_methods,
        reason = "tests simulate a torn write from a non-atomic writer"
    )]

    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema, Value};

    fn table(v: i64) -> Table {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Int)]);
        Table::from_rows(schema, vec![vec![Value::Int(v)]])
    }

    #[test]
    fn memory_roundtrip() {
        let mut repo = Repository::in_memory();
        repo.store("beers", VersionKey::GroundTruth, table(1)).unwrap();
        repo.store("beers", VersionKey::Dirty, table(2)).unwrap();
        assert_eq!(
            repo.load("beers", &VersionKey::GroundTruth).unwrap().cell(0, 0),
            &Value::Int(1)
        );
        assert_eq!(repo.load("beers", &VersionKey::Dirty).unwrap().cell(0, 0), &Value::Int(2));
        assert!(repo
            .load(
                "beers",
                &VersionKey::Repaired { detector: "sd".into(), repairer: "delete".into() }
            )
            .is_none());
        assert_eq!(repo.versions_of("beers").len(), 2);
        assert_eq!(repo.len(), 2);
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rein_repo_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut repo = Repository::with_root(&dir).unwrap();
            let key = VersionKey::Repaired { detector: "sd".into(), repairer: "baran".into() };
            repo.store("nasa", key, table(7)).unwrap();
        }
        // Cold start reads from disk.
        let repo = Repository::with_root(&dir).unwrap();
        let key = VersionKey::Repaired { detector: "sd".into(), repairer: "baran".into() };
        let t = repo.load("nasa", &key).unwrap();
        assert_eq!(t.cell(0, 0), &Value::Int(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_leaves_no_temp_files_and_survives_torn_target() {
        let dir = std::env::temp_dir().join(format!("rein_repo_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut repo = Repository::with_root(&dir).unwrap();
        repo.store("flights", VersionKey::Dirty, table(3)).unwrap();

        let target = dir.join("flights").join("dirty.csv");
        // Simulate a torn write from a crashed non-atomic writer: truncate
        // the target mid-record and drop a stale temp file beside it.
        std::fs::write(&target, "x\n\"torn").unwrap();
        std::fs::write(dir.join("flights").join("dirty.csv.tmp-999"), "garbage").unwrap();

        // A cold-started repository must treat the torn file as absent,
        // not return a partial table.
        let cold = Repository::with_root(&dir).unwrap();
        assert!(cold.load("flights", &VersionKey::Dirty).is_none());

        // Re-storing replaces the torn file atomically and cleans up after
        // itself: afterwards the version reads back whole and no temp file
        // from this process remains.
        repo.store("flights", VersionKey::Dirty, table(4)).unwrap();
        let cold = Repository::with_root(&dir).unwrap();
        assert_eq!(cold.load("flights", &VersionKey::Dirty).unwrap().cell(0, 0), &Value::Int(4));
        let own_tmp = dir.join("flights").join(format!("dirty.csv.tmp-{}", std::process::id()));
        assert!(!own_tmp.exists(), "temp file must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
