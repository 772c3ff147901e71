//! The generated-dataset container and the finishing step shared by all
//! fourteen generators.

use rein_constraints::fd::FunctionalDependency;
use rein_data::rng::derive_seed;
use rein_data::{CellMask, DatasetInfo, ErrorProfile, MlTask, Table};
use rein_errors::compose::{compose_with_target_rate, ErrorSpec};

/// A fully prepared benchmark dataset: ground truth, dirty version, exact
/// error mask, and the cleaning signals the tools need.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Static description (one row of Table 4).
    pub info: DatasetInfo,
    /// Ground-truth table.
    pub clean: Table,
    /// Dirty table (may have extra rows when duplicates were injected).
    pub dirty: Table,
    /// Exact error mask, sized to `dirty`.
    pub mask: CellMask,
    /// Ground-truth duplicate pairs `(original, injected)`.
    pub duplicate_pairs: Vec<(usize, usize)>,
    /// Functional dependencies that hold on the clean data (NADEEF /
    /// HoloClean signals).
    pub fds: Vec<FunctionalDependency>,
    /// Indices of key columns assumed unique (duplicate detection signal).
    pub key_columns: Vec<usize>,
}

impl GeneratedDataset {
    /// Realised cell error rate of the dirty version.
    pub fn error_rate(&self) -> f64 {
        if self.dirty.n_cells() == 0 {
            0.0
        } else {
            self.mask.count() as f64 / self.dirty.n_cells() as f64
        }
    }
}

/// Applies the error profile and packages the dataset.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per component of a generated dataset's definition"
)]
pub fn finish(
    name: &str,
    domain: &str,
    task: MlTask,
    clean: Table,
    specs: &[ErrorSpec],
    target_rate: f64,
    seed: u64,
    fds: Vec<FunctionalDependency>,
    key_columns: Vec<usize>,
) -> GeneratedDataset {
    let dirty = compose_with_target_rate(&clean, specs, target_rate, derive_seed(seed, 0xD17));
    let error_types = dirty.error_types.clone();
    let info = DatasetInfo {
        name: name.to_string(),
        domain: domain.to_string(),
        task,
        errors: ErrorProfile { types: error_types, rate: target_rate },
        key_columns: key_columns.iter().map(|&c| clean.schema().column(c).name.clone()).collect(),
    };
    GeneratedDataset {
        info,
        clean,
        dirty: dirty.dirty,
        mask: dirty.mask,
        duplicate_pairs: dirty.duplicate_pairs,
        fds,
        key_columns,
    }
}
