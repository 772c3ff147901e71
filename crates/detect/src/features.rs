//! Shared per-cell feature extraction for the ML-supported detectors
//! (metadata-driven, RAHA, ED2, Picket).

use rein_constraints::pattern::{push_pattern, Tally};
use rein_data::Table;
use rein_stats::descriptive;

use crate::context::{DetectContext, Detector};

/// Number of content features per cell produced by [`CellFeaturizer`].
pub const N_CONTENT_FEATURES: usize = 7;

/// Column-profile-based featurizer: computes, per cell, value frequency,
/// pattern frequency, normalised length, |z|-score, null flag, type
/// mismatch flag and row null fraction.
pub struct CellFeaturizer {
    /// Per cell, row-major: its value frequency, pattern frequency and
    /// normalised length, the features that read its display text.
    rendered: Vec<[f64; 3]>,
    n_cols: usize,
    col_stats: Vec<Option<(f64, f64)>>,
    majority_numeric: Vec<bool>,
    row_null_frac: Vec<f64>,
}

impl CellFeaturizer {
    /// Profiles a table. Each cell renders once, into its display text
    /// ([`rein_data::Value::key_into`], the value's key): its value
    /// frequency, pattern frequency and length come from that one
    /// rendering, and a key or pattern is copied only the first time its
    /// column sees it.
    pub fn fit(t: &Table) -> Self {
        let _span = rein_telemetry::span("detect:features:fit");
        let (n, d) = (t.n_rows(), t.n_cols());
        let mut rendered = vec![[0.0; 3]; n * d];
        let mut col_stats = Vec::with_capacity(d);
        let mut majority_numeric = Vec::with_capacity(d);
        let mut max_len = 1.0f64;
        let (mut key, mut pattern) = (String::new(), String::new());
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(n);
        for c in 0..d {
            let (mut keys, mut patterns) = (Tally::default(), Tally::default());
            slots.clear();
            for (r, v) in t.column(c).iter().enumerate() {
                let text = v.key_into(&mut key);
                max_len = max_len.max(text.len() as f64);
                rendered[r * d + c][2] = text.len() as f64;
                pattern.clear();
                push_pattern(text, &mut pattern);
                slots.push((keys.add(text), patterns.add(&pattern)));
            }
            let denom = n.max(1) as f64;
            for (r, &(k, p)) in slots.iter().enumerate() {
                let cell = &mut rendered[r * d + c];
                cell[0] = keys.count(k) as f64 / denom;
                cell[1] = patterns.count(p) as f64 / denom;
            }
            let xs = t.numeric_values(c);
            if xs.len() * 2 >= n.max(1) && xs.len() >= 2 {
                // Robust location/scale (median, IQR) so a single gross
                // outlier cannot mask its own z-score.
                let median = descriptive::median(&xs);
                let scale = (descriptive::iqr(&xs) / 1.349).max(1e-9);
                col_stats.push(Some((median, scale)));
                majority_numeric.push(true);
            } else {
                col_stats.push(None);
                majority_numeric.push(false);
            }
        }
        for cell in &mut rendered {
            cell[2] /= max_len;
        }
        let row_null_frac = (0..n)
            .map(|r| (0..d).filter(|&c| t.cell(r, c).is_null()).count() as f64 / d.max(1) as f64)
            .collect();
        Self { rendered, n_cols: d, col_stats, majority_numeric, row_null_frac }
    }

    /// Features of cell `(row, col)` of the fitted table `t`, written into
    /// `out` (length [`N_CONTENT_FEATURES`]).
    pub fn features_into(&self, t: &Table, row: usize, col: usize, out: &mut [f64]) {
        let v = t.cell(row, col);
        out[..3].copy_from_slice(&self.rendered[row * self.n_cols + col]);
        out[3] = match (self.col_stats[col], v.as_f64()) {
            (Some((mean, std)), Some(x)) => ((x - mean).abs() / std).min(10.0) / 10.0,
            (Some(_), None) => 1.0, // numeric column, non-numeric cell
            _ => 0.0,
        };
        out[4] = f64::from(v.is_null());
        let is_numeric_cell = v.as_f64().is_some();
        out[5] = f64::from(self.majority_numeric[col] != is_numeric_cell && !v.is_null());
        out[6] = self.row_null_frac[row];
    }

    /// Features of cell `(row, col)` as a fresh vector.
    pub fn features(&self, t: &Table, row: usize, col: usize) -> Vec<f64> {
        let mut out = vec![0.0; N_CONTENT_FEATURES];
        self.features_into(t, row, col, &mut out);
        out
    }
}

/// Per-cell binary features from a pool of base detectors (the
/// metadata-driven method's representation): feature `i` is 1 iff detector
/// `i` flagged the cell.
pub fn detector_features(
    ctx: &DetectContext<'_>,
    pool: &[Box<dyn Detector>],
) -> Vec<rein_data::CellMask> {
    pool.iter().map(|d| d.detect(ctx)).collect()
}

/// The featurizer as it was before each cell rendered once: a display
/// clone per cell for its key, its pattern and its length in `fit`, and
/// again in every `features_into`. The kept features must match it bit
/// for bit.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use rein_constraints::pattern::{pattern_of, ValuePattern};
    use rein_data::{Table, Value};

    pub(super) struct Rendered {
        value_freq: Vec<BTreeMap<String, f64>>,
        pattern_freq: Vec<BTreeMap<ValuePattern, f64>>,
        max_len: f64,
    }

    fn value_pattern(v: &Value) -> ValuePattern {
        pattern_of(&v.to_string())
    }

    impl Rendered {
        pub(super) fn fit(t: &Table) -> Self {
            let n = t.n_rows();
            let mut value_freq = Vec::with_capacity(t.n_cols());
            let mut pattern_freq = Vec::with_capacity(t.n_cols());
            let mut max_len = 1.0f64;
            for c in 0..t.n_cols() {
                let mut vf: BTreeMap<String, f64> = BTreeMap::new();
                let mut pf: BTreeMap<ValuePattern, f64> = BTreeMap::new();
                for v in t.column(c) {
                    *vf.entry(v.as_key().into_owned()).or_insert(0.0) += 1.0;
                    *pf.entry(value_pattern(v)).or_insert(0.0) += 1.0;
                    max_len = max_len.max(v.to_string().len() as f64);
                }
                let denom = n.max(1) as f64;
                vf.values_mut().for_each(|x| *x /= denom);
                pf.values_mut().for_each(|x| *x /= denom);
                value_freq.push(vf);
                pattern_freq.push(pf);
            }
            Self { value_freq, pattern_freq, max_len }
        }

        /// Content features 0–2 of cell `(row, col)`.
        pub(super) fn features(&self, t: &Table, row: usize, col: usize) -> [f64; 3] {
            let v = t.cell(row, col);
            let key = v.as_key();
            [
                self.value_freq[col].get(key.as_ref()).copied().unwrap_or(0.0),
                self.pattern_freq[col].get(&value_pattern(v)).copied().unwrap_or(0.0),
                v.to_string().len() as f64 / self.max_len,
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::mixed_table;
    use proptest::prelude::*;
    use rein_data::{ColumnMeta, ColumnType, Schema, Value};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Rendering each cell once in `fit` gives every cell the same
        /// content-feature bits as rendering it in `fit` and again per
        /// feature query.
        #[test]
        fn rendered_features_match_the_reference(seed in 0u64..1_000_000) {
            let t = mixed_table(seed);
            let (fitted, want) = (CellFeaturizer::fit(&t), reference::Rendered::fit(&t));
            let mut out = [0.0; N_CONTENT_FEATURES];
            for r in 0..t.n_rows() {
                for c in 0..t.n_cols() {
                    fitted.features_into(&t, r, c, &mut out);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&out[..3]), bits(&want.features(&t, r, c)), "({}, {})", r, c);
                }
            }
        }
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let mut rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Float(10.0 + (i % 5) as f64), Value::str(["a", "b"][i % 2])])
            .collect();
        rows[7][0] = Value::Float(999.0); // outlier
        rows[9][0] = Value::str("1o.0"); // type shift
        rows[11][1] = Value::Null;
        rows[13][1] = Value::str("zzz"); // rare value
        Table::from_rows(schema, rows)
    }

    #[test]
    fn outlier_cells_have_high_z_feature() {
        let t = table();
        let f = CellFeaturizer::fit(&t);
        let normal = f.features(&t, 0, 0);
        let outlier = f.features(&t, 7, 0);
        assert!(outlier[3] > normal[3]);
        assert!(outlier[3] > 0.9);
    }

    #[test]
    fn rare_values_have_low_frequency_feature() {
        let t = table();
        let f = CellFeaturizer::fit(&t);
        let common = f.features(&t, 0, 1);
        let rare = f.features(&t, 13, 1);
        assert!(rare[0] < common[0]);
    }

    #[test]
    fn null_and_type_mismatch_flags() {
        let t = table();
        let f = CellFeaturizer::fit(&t);
        assert_eq!(f.features(&t, 11, 1)[4], 1.0);
        assert_eq!(f.features(&t, 0, 1)[4], 0.0);
        assert_eq!(f.features(&t, 9, 0)[5], 1.0, "string in numeric column");
        assert_eq!(f.features(&t, 0, 0)[5], 0.0);
    }

    #[test]
    fn features_are_bounded() {
        let t = table();
        let f = CellFeaturizer::fit(&t);
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                for (i, v) in f.features(&t, r, c).iter().enumerate() {
                    assert!((0.0..=1.0).contains(v), "feature {i} = {v} at ({r},{c})");
                }
            }
        }
    }
}
