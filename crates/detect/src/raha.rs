//! RAHA (Mahdavi et al.): configuration-free detection. A large ensemble
//! of cheap *strategies* (outlier rules at several tightnesses, pattern
//! checks, null checks, rare-value checks, rule checks) produces a feature
//! vector per cell; cells of each column are clustered by feature
//! similarity, a few labels are acquired per cluster from the oracle, and
//! the labels propagate cluster-wide.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_constraints::fd;
use rein_constraints::pattern;
use rein_data::{CellMask, CellRef, Table};
use rein_stats::descriptive;

use crate::context::{DetectContext, Detector};

/// RAHA detector.
#[derive(Debug, Clone)]
pub struct Raha {
    /// Label budget per column (clusters per column).
    pub labels_per_column: usize,
}

impl Default for Raha {
    fn default() -> Self {
        Self { labels_per_column: 6 }
    }
}

/// Strategy verdict bitstrings for one column: `verdicts[cell_row]` is the
/// per-strategy flag vector packed into a u64.
fn column_strategy_verdicts(t: &Table, col: usize, fds: &[fd::FunctionalDependency]) -> Vec<u64> {
    let n = t.n_rows();
    let mut verdicts = vec![0u64; n];
    let mut strategy = 0u32;
    let mark = |verdicts: &mut Vec<u64>, rows: &[usize], strategy: u32| {
        for &r in rows {
            verdicts[r] |= 1 << strategy;
        }
    };

    // Null / empty checks.
    let null_rows: Vec<usize> = (0..n).filter(|&r| t.cell(r, col).is_null()).collect();
    mark(&mut verdicts, &null_rows, strategy);
    strategy += 1;

    // Outlier strategies at several tightnesses (SD and IQR).
    let xs = t.numeric_values(col);
    if xs.len() >= 8 {
        let mean = descriptive::mean(&xs);
        let std = descriptive::std_dev(&xs).max(1e-12);
        for n_std in [2.0, 3.0, 4.5] {
            let rows: Vec<usize> = (0..n)
                .filter(|&r| {
                    t.cell(r, col).as_f64().is_some_and(|x| (x - mean).abs() > n_std * std)
                })
                .collect();
            mark(&mut verdicts, &rows, strategy);
            strategy += 1;
        }
        let q1 = descriptive::quantile(&xs, 0.25);
        let q3 = descriptive::quantile(&xs, 0.75);
        let iqr = (q3 - q1).max(1e-12);
        for k in [1.5, 3.0] {
            let rows: Vec<usize> = (0..n)
                .filter(|&r| {
                    t.cell(r, col).as_f64().is_some_and(|x| x < q1 - k * iqr || x > q3 + k * iqr)
                })
                .collect();
            mark(&mut verdicts, &rows, strategy);
            strategy += 1;
        }
        // Non-numeric cell in a numeric column.
        let rows: Vec<usize> = (0..n)
            .filter(|&r| !t.cell(r, col).is_null() && t.cell(r, col).as_f64().is_none())
            .collect();
        mark(&mut verdicts, &rows, strategy);
        strategy += 1;
    }

    // Pattern strategies at two supports.
    for support in [0.7, 0.9] {
        let rows = pattern::pattern_outliers(t, col, support);
        mark(&mut verdicts, &rows, strategy);
        strategy += 1;
    }

    // Rare-value strategies.
    let counts = t.value_counts(col);
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    for share in [0.002, 0.01] {
        let rare: std::collections::BTreeSet<String> = counts
            .iter()
            .filter(|(_, c)| (*c as f64) < total.max(1) as f64 * share)
            .map(|(v, _)| v.as_key().into_owned())
            .collect();
        if !rare.is_empty() {
            let rows: Vec<usize> = (0..n)
                .filter(|&r| {
                    let v = t.cell(r, col);
                    !v.is_null() && rare.contains(v.as_key().as_ref())
                })
                .collect();
            mark(&mut verdicts, &rows, strategy);
        }
        strategy += 1;
    }

    // FD strategies touching this column.
    for f in fds {
        if f.rhs == col || f.lhs.contains(&col) {
            let viol = fd::fd_violations(t, f);
            let rows: Vec<usize> = (0..n)
                .filter(|&r| {
                    viol.get(r, col.min(viol.cols() - 1)) && viol.get(r, f.rhs) || viol.get(r, col)
                })
                .collect();
            mark(&mut verdicts, &rows, strategy);
        }
        strategy += 1;
        if strategy >= 63 {
            break;
        }
    }
    verdicts
}

impl Detector for Raha {
    fn name(&self) -> &'static str {
        "raha"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:raha");
        let t = ctx.dirty;
        let mut mask = CellMask::new(t.n_rows(), t.n_cols());
        let Some(oracle) = ctx.oracle else { return mask };
        let mut rng = StdRng::seed_from_u64(ctx.seed);

        for col in 0..t.n_cols() {
            rein_guard::checkpoint(t.n_rows() as u64);
            let verdicts = column_strategy_verdicts(t, col, ctx.fds);
            // Group cells by identical strategy signatures.
            let mut groups: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
            for (r, &v) in verdicts.iter().enumerate() {
                groups.entry(v).or_default().push(r);
            }
            let mut groups: Vec<(u64, Vec<usize>)> = groups.into_iter().collect();
            // Largest groups first get their own label; small leftover
            // groups inherit from the nearest labelled signature.
            groups.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
            let budget = self.labels_per_column.max(2);
            let mut labelled: Vec<(u64, bool)> = Vec::new();
            for (sig, rows) in groups.iter().take(budget) {
                #[expect(
                    clippy::expect_used,
                    reason = "signature groups are built from at least one row each"
                )]
                let &probe = rows.choose(&mut rng).expect("non-empty group");
                let dirty = oracle.is_dirty(CellRef::new(probe, col));
                labelled.push((*sig, dirty));
                if dirty {
                    for &r in rows {
                        mask.set(r, col, true);
                    }
                }
            }
            for (sig, rows) in groups.iter().skip(budget) {
                // Propagate from nearest labelled signature (Hamming).
                let nearest = labelled
                    .iter()
                    .min_by_key(|(ls, _)| (ls ^ sig).count_ones())
                    .map(|&(_, dirty)| dirty)
                    .unwrap_or(false);
                if nearest {
                    for &r in rows {
                        mask.set(r, col, true);
                    }
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Oracle;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema, Value};
    use rein_stats::evaluate_detection;

    fn dataset() -> (Table, Table) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..300)
                .map(|i| {
                    vec![Value::Float(10.0 + (i % 8) as f64), Value::str(["red", "blue"][i % 2])]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        for i in 0..15 {
            dirty.set_cell(i * 19, 0, Value::Float(900.0 + i as f64));
        }
        for i in 0..10 {
            dirty.set_cell(i * 29 + 2, 1, Value::str("r3d"));
        }
        (clean, dirty)
    }

    #[test]
    fn raha_detects_with_few_labels() {
        let (clean, dirty) = dataset();
        let actual = diff_mask(&clean, &dirty);
        let oracle = Oracle::new(actual.clone());
        let ctx = DetectContext { oracle: Some(&oracle), seed: 3, ..DetectContext::bare(&dirty) };
        let m = Raha::default().detect(&ctx);
        let q = evaluate_detection(&m, &actual);
        assert!(q.f1 > 0.8, "f1 {}", q.f1);
        // Label budget: at most labels_per_column × columns oracle queries.
        assert!(oracle.queries_used() <= 6 * 2);
    }

    #[test]
    fn without_oracle_raha_is_silent() {
        let (_, dirty) = dataset();
        assert!(Raha::default().detect(&DetectContext::bare(&dirty)).is_empty());
    }

    #[test]
    fn strategy_signatures_separate_clean_from_dirty() {
        let (_, dirty) = dataset();
        let verdicts = column_strategy_verdicts(&dirty, 0, &[]);
        // The planted outlier rows (0, 19, …) must have different
        // signatures from a typical clean row.
        assert_ne!(verdicts[1], verdicts[19]);
    }

    #[test]
    fn deterministic_per_seed() {
        let (clean, dirty) = dataset();
        let actual = diff_mask(&clean, &dirty);
        let run = || {
            let oracle = Oracle::new(actual.clone());
            let ctx =
                DetectContext { oracle: Some(&oracle), seed: 9, ..DetectContext::bare(&dirty) };
            Raha::default().detect(&ctx)
        };
        assert_eq!(run(), run());
    }
}
