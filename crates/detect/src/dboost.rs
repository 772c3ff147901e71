//! dBoost (Mariet & Madden): per-column statistical models — histogram,
//! Gaussian, and a two-component Gaussian mixture — with a random search
//! over model choice and tightness hyperparameters, keeping the
//! configuration whose flag rate looks most outlier-like (closest to a
//! small target rate), as the original tunes itself without labels.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::rng::derive_seed;
use rein_data::{CellMask, Table, Value};

use crate::context::{DetectContext, Detector};

/// Per-column model family.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelKind {
    Gaussian,
    Mixture,
    Histogram,
}

/// dBoost detector.
#[derive(Debug, Clone)]
pub struct DBoost {
    /// Random-search trials per column.
    pub n_trials: usize,
    /// Target flag rate the search steers toward (outliers are rare).
    pub target_rate: f64,
}

impl Default for DBoost {
    fn default() -> Self {
        Self { n_trials: 12, target_rate: 0.02 }
    }
}

/// Estimated contamination: the weight of the minor component of a
/// two-component mixture fit, clamped to a plausible outlier range. Lets
/// the hyperparameter search target the column's *actual* outlier mass
/// instead of a fixed guess.
fn estimate_contamination(xs: &[f64]) -> f64 {
    const FALLBACK: f64 = 0.02;
    if xs.len() < 16 {
        return FALLBACK;
    }
    // Fraction of cells more than 3 robust standard deviations from the
    // median (median/IQR resist the contamination itself). On a clean
    // Gaussian column this is ~0.3%, well under the fallback floor.
    let median = {
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    };
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(|a, b| a.total_cmp(b));
    // MAD-based scale stays anchored in the clean bulk for contamination
    // up to ~50%.
    let scale = (dev[dev.len() / 2] / 0.6745).max(1e-12);
    let far = xs.iter().filter(|x| ((**x) - median).abs() > 3.0 * scale).count();
    (far as f64 / xs.len() as f64).clamp(FALLBACK, 0.45)
}

/// Two-component 1-D Gaussian mixture via a few EM steps.
fn fit_mixture(xs: &[f64]) -> ((f64, f64), (f64, f64)) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let half = sorted.len() / 2;
    let mut m1 = sorted[..half.max(1)].iter().sum::<f64>() / half.max(1) as f64;
    let mut m2 = sorted[half..].iter().sum::<f64>() / (sorted.len() - half).max(1) as f64;
    let mut s1 = 1.0f64;
    let mut s2 = 1.0f64;
    for _ in 0..10 {
        let (mut sum1, mut sum2, mut w1, mut w2, mut v1, mut v2) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for &x in xs {
            let p1 = (-(x - m1).powi(2) / (2.0 * s1 * s1)).exp() / s1.max(1e-9);
            let p2 = (-(x - m2).powi(2) / (2.0 * s2 * s2)).exp() / s2.max(1e-9);
            let r1 = p1 / (p1 + p2).max(1e-300);
            let r2 = 1.0 - r1;
            sum1 += r1 * x;
            sum2 += r2 * x;
            w1 += r1;
            w2 += r2;
            v1 += r1 * (x - m1).powi(2);
            v2 += r2 * (x - m2).powi(2);
        }
        m1 = sum1 / w1.max(1e-12);
        m2 = sum2 / w2.max(1e-12);
        s1 = (v1 / w1.max(1e-12)).sqrt().max(1e-6);
        s2 = (v2 / w2.max(1e-12)).sqrt().max(1e-6);
    }
    ((m1, s1), (m2, s2))
}

/// Equal-width bins of the histogram model.
const BINS: usize = 20;

/// One numeric column's models, built once and shared by every trial of
/// the search: its numeric view per row, Gaussian moments and histogram,
/// and the mixture, fitted on the first trial that draws it. A trial then
/// only applies its threshold.
struct ColumnModels {
    /// Each row's numeric view ([`rein_data::Value::as_f64`]).
    view: Vec<Option<f64>>,
    /// The numeric cells in row order; `None` when fewer than 8, for which
    /// every configuration flags nothing.
    xs: Option<Vec<f64>>,
    /// Mean and standard deviation.
    gaussian: (f64, f64),
    /// `lo`, bin width and bin counts; `None` when every value is equal.
    histogram: Option<(f64, f64, [usize; BINS])>,
    mixture: Option<((f64, f64), (f64, f64))>,
}

/// What one (model, tightness) configuration flags in its column.
enum Rule {
    Nothing,
    Gaussian { mean: f64, bound: f64 },
    Mixture { m1: f64, bound1: f64, m2: f64, bound2: f64 },
    Histogram { lo: f64, width: f64, counts: [usize; BINS], min_count: usize },
}

impl Rule {
    fn flags(&self, x: f64) -> bool {
        match *self {
            Rule::Nothing => false,
            Rule::Gaussian { mean, bound } => (x - mean).abs() > bound,
            Rule::Mixture { m1, bound1, m2, bound2 } => {
                (x - m1).abs() > bound1 && (x - m2).abs() > bound2
            }
            Rule::Histogram { lo, width, counts, min_count } => {
                let b = (((x - lo) / width) as usize).min(BINS - 1);
                counts[b] < min_count
            }
        }
    }
}

impl ColumnModels {
    fn new(t: &Table, col: usize) -> Self {
        let view: Vec<Option<f64>> = t.column(col).iter().map(Value::as_f64).collect();
        let xs: Vec<f64> = view.iter().flatten().copied().collect();
        let mut models =
            ColumnModels { view, xs: None, gaussian: (0.0, 0.0), histogram: None, mixture: None };
        if xs.len() < 8 {
            return models;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64)
            .sqrt()
            .max(1e-12);
        models.gaussian = (mean, std);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi > lo {
            let width = (hi - lo) / BINS as f64;
            let mut counts = [0usize; BINS];
            for &x in &xs {
                counts[(((x - lo) / width) as usize).min(BINS - 1)] += 1;
            }
            models.histogram = Some((lo, width, counts));
        }
        models.xs = Some(xs);
        models
    }

    /// The rule of one configuration. Values in histogram bins rarer than
    /// `1/tightness²·n` are flagged.
    fn rule(&mut self, kind: ModelKind, tightness: f64) -> Rule {
        let Some(xs) = &self.xs else { return Rule::Nothing };
        match kind {
            ModelKind::Gaussian => {
                let (mean, std) = self.gaussian;
                Rule::Gaussian { mean, bound: tightness * std }
            }
            ModelKind::Mixture => {
                let ((m1, s1), (m2, s2)) = *self.mixture.get_or_insert_with(|| fit_mixture(xs));
                Rule::Mixture { m1, bound1: tightness * s1, m2, bound2: tightness * s2 }
            }
            ModelKind::Histogram => match self.histogram {
                None => Rule::Nothing,
                Some((lo, width, counts)) => {
                    let min_count =
                        (xs.len() as f64 / (tightness * tightness).max(1.0) / BINS as f64).max(1.0)
                            as usize;
                    Rule::Histogram { lo, width, counts, min_count }
                }
            },
        }
    }

    /// Rows the configuration flags, ascending.
    fn flagged(&mut self, kind: ModelKind, tightness: f64) -> impl Iterator<Item = usize> + '_ {
        let rule = self.rule(kind, tightness);
        self.view
            .iter()
            .enumerate()
            .filter(move |(_, x)| x.is_some_and(|x| rule.flags(x)))
            .map(|(r, _)| r)
    }
}

impl Detector for DBoost {
    fn name(&self) -> &'static str {
        "dboost"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:dboost");
        let t = ctx.dirty;
        let mut mask = CellMask::new(t.n_rows(), t.n_cols());
        for col in ctx.numeric_columns() {
            let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, col as u64));
            let mut models = ColumnModels::new(t, col);
            // Adapt the flag-rate target to the column's estimated
            // contamination (bimodal columns carry large outlier mass).
            let xs = models.xs.as_deref().unwrap_or_default();
            let target = estimate_contamination(xs).max(self.target_rate);
            let mut best: Option<(f64, ModelKind, f64)> = None;
            for _ in 0..self.n_trials {
                let kind = match rng.random_range(0..3u8) {
                    0 => ModelKind::Gaussian,
                    1 => ModelKind::Mixture,
                    _ => ModelKind::Histogram,
                };
                let tightness = rng.random_range(1.2..6.0);
                // Each trial scores every row of the column.
                rein_guard::checkpoint(t.n_rows() as u64);
                let flagged = models.flagged(kind, tightness).count();
                let rate = flagged as f64 / t.n_rows().max(1) as f64;
                // Score: distance of the flag rate to the expected outlier
                // rate; a configuration flagging half the column is useless.
                let score = (rate - target).abs();
                if best.is_none_or(|(s, _, _)| score < s) {
                    best = Some((score, kind, tightness));
                }
            }
            if let Some((_, kind, tightness)) = best {
                for r in models.flagged(kind, tightness) {
                    mask.set(r, col, true);
                }
            }
        }
        // Rare-category histogram for categorical columns.
        for col in ctx.categorical_columns() {
            let counts = t.value_counts(col);
            let total: usize = counts.iter().map(|(_, n)| n).sum();
            if total < 20 || counts.len() < 2 {
                continue;
            }
            let rare: std::collections::BTreeSet<String> = counts
                .iter()
                .filter(|(_, n)| (*n as f64) < total as f64 * 0.005)
                .map(|(v, _)| v.as_key().into_owned())
                .collect();
            if rare.is_empty() {
                continue;
            }
            for r in 0..t.n_rows() {
                rein_guard::checkpoint(1);
                let v = t.cell(r, col);
                if !v.is_null() && rare.contains(v.as_key().as_ref()) {
                    mask.set(r, col, true);
                }
            }
        }
        mask
    }
}

/// The search's flags as they were before [`ColumnModels`]: every trial
/// rebuilt the column's numeric view and models.
#[cfg(test)]
mod reference {
    use super::*;

    /// Flags for one column under one (model, tightness) configuration.
    pub(super) fn flags_for(t: &Table, col: usize, kind: ModelKind, tightness: f64) -> Vec<usize> {
        let xs = t.numeric_values(col);
        if xs.len() < 8 {
            return Vec::new();
        }
        match kind {
            ModelKind::Gaussian => {
                let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64)
                    .sqrt()
                    .max(1e-12);
                (0..t.n_rows())
                    .filter(|&r| {
                        t.cell(r, col).as_f64().is_some_and(|x| (x - mean).abs() > tightness * std)
                    })
                    .collect()
            }
            ModelKind::Mixture => {
                let ((m1, s1), (m2, s2)) = fit_mixture(&xs);
                (0..t.n_rows())
                    .filter(|&r| {
                        t.cell(r, col).as_f64().is_some_and(|x| {
                            (x - m1).abs() > tightness * s1 && (x - m2).abs() > tightness * s2
                        })
                    })
                    .collect()
            }
            ModelKind::Histogram => {
                let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if hi <= lo {
                    return Vec::new();
                }
                let bins = 20usize;
                let width = (hi - lo) / bins as f64;
                let mut counts = vec![0usize; bins];
                for &x in &xs {
                    let b = (((x - lo) / width) as usize).min(bins - 1);
                    counts[b] += 1;
                }
                let min_count = (xs.len() as f64 / (tightness * tightness).max(1.0) / bins as f64)
                    .max(1.0) as usize;
                (0..t.n_rows())
                    .filter(|&r| {
                        t.cell(r, col).as_f64().is_some_and(|x| {
                            let b = (((x - lo) / width) as usize).min(bins - 1);
                            counts[b] < min_count
                        })
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::mixed_table;
    use proptest::prelude::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Models built once per column flag the same rows as models
        /// rebuilt per trial, for every model and a spread of tightnesses
        /// drawn in any order, the mixture's lazy fit included.
        #[test]
        fn column_models_flag_the_reference_rows(seed in 0u64..1_000_000) {
            let t = mixed_table(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for col in 0..t.n_cols() {
                let mut models = ColumnModels::new(&t, col);
                for _ in 0..12 {
                    let kind = [ModelKind::Gaussian, ModelKind::Mixture, ModelKind::Histogram]
                        [rng.random_range(0..3usize)];
                    let tightness = rng.random_range(0.5..7.0);
                    let got: Vec<usize> = models.flagged(kind, tightness).collect();
                    let want = reference::flags_for(&t, col, kind, tightness);
                    prop_assert_eq!(got, want, "col {} {:?} {}", col, kind, tightness);
                }
            }
        }
    }

    fn table() -> Table {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Float)]);
        let mut rows: Vec<Vec<Value>> =
            (0..300).map(|i| vec![Value::Float(50.0 + (i % 11) as f64)]).collect();
        rows[5][0] = Value::Float(900.0);
        rows[200][0] = Value::Float(-800.0);
        Table::from_rows(schema, rows)
    }

    #[test]
    fn finds_planted_outliers() {
        let t = table();
        let ctx = DetectContext { seed: 3, ..DetectContext::bare(&t) };
        let m = DBoost::default().detect(&ctx);
        assert!(m.get(5, 0));
        assert!(m.get(200, 0));
        assert!(m.count() <= 10, "flag count {}", m.count());
    }

    #[test]
    fn mixture_fit_separates_two_modes() {
        let xs: Vec<f64> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    0.0 + (i % 10) as f64 * 0.01
                } else {
                    10.0 + (i % 10) as f64 * 0.01
                }
            })
            .collect();
        let ((m1, _), (m2, _)) = fit_mixture(&xs);
        let (lo, hi) = if m1 < m2 { (m1, m2) } else { (m2, m1) };
        assert!(lo < 1.0, "lo {lo}");
        assert!(hi > 9.0, "hi {hi}");
    }

    #[test]
    fn rare_categories_are_flagged() {
        let schema = Schema::new(vec![ColumnMeta::new("c", ColumnType::Str)]);
        let mut rows: Vec<Vec<Value>> =
            (0..500).map(|i| vec![Value::str(if i % 2 == 0 { "a" } else { "b" })]).collect();
        rows[17][0] = Value::str("zzz-rare");
        let t = Table::from_rows(schema, rows);
        let m = DBoost::default().detect(&DetectContext::bare(&t));
        assert!(m.get(17, 0));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = table();
        let ctx = DetectContext { seed: 5, ..DetectContext::bare(&t) };
        assert_eq!(DBoost::default().detect(&ctx), DBoost::default().detect(&ctx));
    }
}
