//! Error-profile composition: chains individual injectors to produce a
//! dirty dataset with a controlled mix of error types, the way the paper
//! prepares its 12 synthetic-error datasets offline with BART + the
//! error-generator library.

use rein_constraints::fd::FunctionalDependency;
use rein_data::rng::derive_seed;
use rein_data::{diff::diff_mask, CellMask, ErrorType, Table};

use crate::duplicates::inject_duplicates;
use crate::inconsistencies::inject_inconsistencies;
use crate::mislabels::inject_mislabels;
use crate::missing::{inject_disguised_missing, inject_explicit_missing, inject_implicit_missing};
use crate::outliers::{inject_gaussian_noise, inject_outliers};
use crate::rules::inject_fd_violations;
use crate::swaps::inject_value_swaps;
use crate::typos::inject_typos;

/// One step of an error profile.
#[derive(Debug, Clone)]
pub enum ErrorSpec {
    /// Explicit NULLs at `rate` of the cells of `cols`.
    ExplicitMissing { cols: Vec<usize>, rate: f64 },
    /// Implicit placeholders ("?", "unknown") at `rate` of `cols`.
    ImplicitMissing { cols: Vec<usize>, rate: f64 },
    /// Disguised sentinels (999999, -1) in numeric `cols`.
    DisguisedMissing { cols: Vec<usize>, rate: f64 },
    /// Outliers `degree` standard deviations out.
    Outliers { cols: Vec<usize>, rate: f64, degree: f64 },
    /// Additive Gaussian noise scaled by `sigma_scale · σ`.
    GaussianNoise { cols: Vec<usize>, rate: f64, sigma_scale: f64 },
    /// Keyboard typos.
    Typos { cols: Vec<usize>, rate: f64 },
    /// Value swaps within attributes.
    ValueSwaps { cols: Vec<usize>, rate: f64 },
    /// FD violations for a dependency holding on the clean data.
    FdViolations { fd: FunctionalDependency, rate: f64 },
    /// Variant spellings in string columns.
    Inconsistencies { cols: Vec<usize>, rate: f64 },
    /// Label flips in `label_col`.
    Mislabels { label_col: usize, rate: f64 },
    /// Fuzzy duplicate rows (always applied last).
    Duplicates { rate: f64, fuzz: f64 },
}

impl ErrorSpec {
    /// The error type this spec injects (for controller capability checks).
    pub fn error_type(&self) -> ErrorType {
        match self {
            ErrorSpec::ExplicitMissing { .. } => ErrorType::MissingValue,
            ErrorSpec::ImplicitMissing { .. } | ErrorSpec::DisguisedMissing { .. } => {
                ErrorType::ImplicitMissingValue
            }
            ErrorSpec::Outliers { .. } => ErrorType::Outlier,
            ErrorSpec::GaussianNoise { .. } => ErrorType::GaussianNoise,
            ErrorSpec::Typos { .. } => ErrorType::Typo,
            ErrorSpec::ValueSwaps { .. } => ErrorType::ValueSwap,
            ErrorSpec::FdViolations { .. } => ErrorType::RuleViolation,
            ErrorSpec::Inconsistencies { .. } => ErrorType::Inconsistency,
            ErrorSpec::Mislabels { .. } => ErrorType::Mislabel,
            ErrorSpec::Duplicates { .. } => ErrorType::Duplicate,
        }
    }

    fn scale_rate(&mut self, factor: f64) {
        let rate = match self {
            ErrorSpec::ExplicitMissing { rate, .. }
            | ErrorSpec::ImplicitMissing { rate, .. }
            | ErrorSpec::DisguisedMissing { rate, .. }
            | ErrorSpec::Outliers { rate, .. }
            | ErrorSpec::GaussianNoise { rate, .. }
            | ErrorSpec::Typos { rate, .. }
            | ErrorSpec::ValueSwaps { rate, .. }
            | ErrorSpec::FdViolations { rate, .. }
            | ErrorSpec::Inconsistencies { rate, .. }
            | ErrorSpec::Mislabels { rate, .. }
            | ErrorSpec::Duplicates { rate, .. } => rate,
        };
        *rate = (*rate * factor).clamp(0.0, 1.0);
    }
}

/// A corrupted dataset with its ground truth and error bookkeeping.
#[derive(Debug, Clone)]
pub struct DirtyDataset {
    /// The clean ground truth.
    pub clean: Table,
    /// The corrupted version (may have more rows than `clean` when
    /// duplicates were injected).
    pub dirty: Table,
    /// Exact mask of erroneous cells, sized to `dirty`.
    pub mask: CellMask,
    /// Ground-truth duplicate pairs (original, injected).
    pub duplicate_pairs: Vec<(usize, usize)>,
    /// Error types present.
    pub error_types: Vec<ErrorType>,
}

impl DirtyDataset {
    /// Realised overall cell error rate.
    pub fn error_rate(&self) -> f64 {
        if self.dirty.n_cells() == 0 {
            0.0
        } else {
            self.mask.count() as f64 / self.dirty.n_cells() as f64
        }
    }
}

/// Applies an error profile to a clean table.
///
/// Specs are applied in order, each on the output of the previous one;
/// duplicate injection is deferred to the end so cell masks keep a single
/// geometry. The final error mask is the exact diff against the clean
/// table, so overlapping injections are never double-counted.
pub fn compose(clean: &Table, specs: &[ErrorSpec], seed: u64) -> DirtyDataset {
    let mut dirty = clean.clone();
    let mut duplicate_pairs = Vec::new();
    let mut error_types: Vec<ErrorType> = Vec::new();

    let (dup_specs, cell_specs): (Vec<&ErrorSpec>, Vec<&ErrorSpec>) =
        specs.iter().partition(|s| matches!(s, ErrorSpec::Duplicates { .. }));

    for (i, spec) in cell_specs.iter().enumerate() {
        let s = derive_seed(seed, i as u64);
        dirty = match spec {
            ErrorSpec::ExplicitMissing { cols, rate } => {
                inject_explicit_missing(&dirty, cols, *rate, s).table
            }
            ErrorSpec::ImplicitMissing { cols, rate } => {
                inject_implicit_missing(&dirty, cols, *rate, s).table
            }
            ErrorSpec::DisguisedMissing { cols, rate } => {
                inject_disguised_missing(&dirty, cols, *rate, s).table
            }
            ErrorSpec::Outliers { cols, rate, degree } => {
                inject_outliers(&dirty, cols, *rate, *degree, s).table
            }
            ErrorSpec::GaussianNoise { cols, rate, sigma_scale } => {
                inject_gaussian_noise(&dirty, cols, *rate, *sigma_scale, s).table
            }
            ErrorSpec::Typos { cols, rate } => inject_typos(&dirty, cols, *rate, s).table,
            ErrorSpec::ValueSwaps { cols, rate } => {
                inject_value_swaps(&dirty, cols, *rate, s).table
            }
            ErrorSpec::FdViolations { fd, rate } => {
                inject_fd_violations(&dirty, fd, *rate, s).table
            }
            ErrorSpec::Inconsistencies { cols, rate } => {
                inject_inconsistencies(&dirty, cols, *rate, s).table
            }
            ErrorSpec::Mislabels { label_col, rate } => {
                inject_mislabels(&dirty, *label_col, *rate, s).table
            }
            #[expect(
                clippy::unreachable,
                reason = "duplicates are partitioned out by the caller above"
            )]
            ErrorSpec::Duplicates { .. } => unreachable!("partitioned"),
        };
        error_types.push(spec.error_type());
    }

    for (i, spec) in dup_specs.iter().enumerate() {
        if let ErrorSpec::Duplicates { rate, fuzz } = spec {
            let s = derive_seed(seed, 1000 + i as u64);
            let inj = inject_duplicates(&dirty, *rate, *fuzz, s);
            dirty = inj.table;
            duplicate_pairs.extend(inj.pairs);
            error_types.push(ErrorType::Duplicate);
        }
    }

    error_types.sort();
    error_types.dedup();
    let mask = diff_mask(clean, &dirty);
    DirtyDataset { clean: clean.clone(), dirty, mask, duplicate_pairs, error_types }
}

/// Composes a profile, then rescales all spec rates once so the realised
/// cell error rate lands near `target_rate` (±20% relative) when feasible.
///
/// Matching Table 4's per-dataset error rates exactly is impossible in one
/// shot because injectors overlap and skip infeasible cells; one corrective
/// iteration is what the original offline preparation does.
pub fn compose_with_target_rate(
    clean: &Table,
    specs: &[ErrorSpec],
    target_rate: f64,
    seed: u64,
) -> DirtyDataset {
    let first = compose(clean, specs, seed);
    let realised = first.error_rate();
    if realised <= 0.0 || target_rate <= 0.0 {
        return first;
    }
    let ratio = target_rate / realised;
    if (0.8..=1.25).contains(&ratio) {
        return first;
    }
    let mut scaled: Vec<ErrorSpec> = specs.to_vec();
    for s in &mut scaled {
        s.scale_rate(ratio);
    }
    compose(clean, &scaled, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema, Value};

    fn clean() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("num", ColumnType::Float),
            ColumnMeta::new("cat", ColumnType::Str),
            ColumnMeta::new("label", ColumnType::Str).label(),
        ]);
        let cats = ["alpha", "beta", "gamma"];
        Table::from_rows(
            schema,
            (0..120)
                .map(|i| {
                    vec![
                        Value::Float(50.0 + (i % 10) as f64),
                        Value::str(cats[i % 3]),
                        Value::str(if i % 2 == 0 { "yes" } else { "no" }),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn composed_mask_is_exact_diff() {
        let c = clean();
        let d = compose(
            &c,
            &[
                ErrorSpec::ExplicitMissing { cols: vec![0], rate: 0.1 },
                ErrorSpec::Typos { cols: vec![1], rate: 0.1 },
                ErrorSpec::Mislabels { label_col: 2, rate: 0.05 },
            ],
            7,
        );
        assert_eq!(d.mask, diff_mask(&c, &d.dirty));
        assert!(d.error_rate() > 0.0);
        assert_eq!(
            d.error_types,
            vec![ErrorType::MissingValue, ErrorType::Typo, ErrorType::Mislabel]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicates_enlarge_table_and_mask() {
        let c = clean();
        let d = compose(
            &c,
            &[
                ErrorSpec::Outliers { cols: vec![0], rate: 0.05, degree: 4.0 },
                ErrorSpec::Duplicates { rate: 0.1, fuzz: 0.2 },
            ],
            3,
        );
        assert_eq!(d.dirty.n_rows(), 132);
        assert_eq!(d.mask.rows(), 132);
        assert_eq!(d.duplicate_pairs.len(), 12);
        // Injected rows are fully dirty in the mask.
        for &(_, dup) in &d.duplicate_pairs {
            assert!((0..d.dirty.n_cols()).all(|c2| d.mask.get(dup, c2)));
        }
    }

    #[test]
    fn compose_is_deterministic() {
        let c = clean();
        let specs = [
            ErrorSpec::ExplicitMissing { cols: vec![0], rate: 0.1 },
            ErrorSpec::Inconsistencies { cols: vec![1], rate: 0.1 },
        ];
        let a = compose(&c, &specs, 99);
        let b = compose(&c, &specs, 99);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.mask, b.mask);
    }

    #[test]
    fn target_rate_rescaling_moves_towards_target() {
        let c = clean();
        let specs = [ErrorSpec::ExplicitMissing { cols: vec![0, 1], rate: 0.02 }];
        let d = compose_with_target_rate(&c, &specs, 0.10, 5);
        // 2 of 3 columns injectable: ceiling is 2/3; target 0.10 reachable.
        assert!(d.error_rate() > 0.05, "rate = {}", d.error_rate());
    }

    #[test]
    fn error_rate_close_to_requested_simple_case() {
        let c = clean();
        let d = compose(&c, &[ErrorSpec::ExplicitMissing { cols: vec![0, 1, 2], rate: 0.15 }], 2);
        assert!((d.error_rate() - 0.15).abs() < 0.02, "rate = {}", d.error_rate());
    }
}
