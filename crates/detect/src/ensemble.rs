//! Ensembles of non-learning detectors (Abedjan et al., "Detecting data
//! errors: where are we and what needs to be done?"): **Min-K** flags
//! cells reported by at least `k` base detectors; **Max Entropy** orders
//! the detectors greedily by the information (new evidence) each adds and
//! unions their output until the marginal gain vanishes.

use rein_data::CellMask;

use crate::context::{DetectContext, Detector};
use crate::dboost::DBoost;
use crate::fahes::Fahes;
use crate::holoclean::HoloCleanDetect;
use crate::isolation_forest::IsolationForest;
use crate::katara::Katara;
use crate::nadeef::Nadeef;
use crate::openrefine::OpenRefine;
use crate::simple::{IqrDetector, MvDetector, SdDetector};

/// The default base pool: every non-learning single-purpose detector.
/// Signal-dependent members (NADEEF, HoloClean, KATARA) degrade to no-ops
/// when their signals are absent from the context.
pub fn default_base_pool() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(MvDetector),
        Box::new(SdDetector::default()),
        Box::new(IqrDetector::default()),
        Box::new(IsolationForest::default()),
        Box::new(DBoost::default()),
        Box::new(Fahes::default()),
        Box::new(Nadeef::default()),
        Box::new(HoloCleanDetect),
        Box::new(Katara::default()),
        Box::new(OpenRefine),
    ]
}

/// Min-K voting ensemble.
pub struct MinK {
    /// Minimum number of agreeing detectors.
    pub k: usize,
    base: Vec<Box<dyn Detector>>,
}

impl MinK {
    /// Min-K over the default pool.
    pub fn new(k: usize) -> Self {
        Self { k: k.max(1), base: default_base_pool() }
    }

    /// Min-K over a custom pool.
    pub fn with_pool(k: usize, base: Vec<Box<dyn Detector>>) -> Self {
        Self { k: k.max(1), base }
    }
}

impl Detector for MinK {
    fn name(&self) -> &'static str {
        "min_k"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:ensemble");
        let t = ctx.dirty;
        let mut votes = vec![0u16; t.n_rows() * t.n_cols()];
        for d in &self.base {
            for cell in d.detect(ctx).iter() {
                votes[cell.row * t.n_cols() + cell.col] += 1;
            }
        }
        let mut mask = CellMask::new(t.n_rows(), t.n_cols());
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                if votes[r * t.n_cols() + c] as usize >= self.k {
                    mask.set(r, c, true);
                }
            }
        }
        mask
    }
}

/// Max-Entropy ordered ensemble.
pub struct MaxEntropy {
    /// Stop when a detector's marginal contribution (new cells / its total
    /// detections) falls below this fraction.
    pub min_gain: f64,
    base: Vec<Box<dyn Detector>>,
}

impl Default for MaxEntropy {
    fn default() -> Self {
        Self { min_gain: 0.05, base: default_base_pool() }
    }
}

impl MaxEntropy {
    /// Max Entropy over a custom pool.
    pub fn with_pool(min_gain: f64, base: Vec<Box<dyn Detector>>) -> Self {
        Self { min_gain, base }
    }
}

impl Detector for MaxEntropy {
    fn name(&self) -> &'static str {
        "max_entropy"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:ensemble");
        let t = ctx.dirty;
        // Precompute every detector's output (the original runs detectors
        // lazily; at our scale precomputation matches the semantics and the
        // orderly greedy selection below reproduces the entropy ordering).
        let mut outputs: Vec<(usize, CellMask)> = self
            .base
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.detect(ctx)))
            .filter(|(_, m)| !m.is_empty())
            .collect();

        let mut union = CellMask::new(t.n_rows(), t.n_cols());
        while !outputs.is_empty() {
            // Detector adding the most new cells = highest-entropy pick.
            #[expect(
                clippy::expect_used,
                reason = "outputs checked non-empty by the loop condition"
            )]
            let (best_pos, gain) = outputs
                .iter()
                .enumerate()
                .map(|(pos, (_, m))| (pos, m.difference(&union).count()))
                .max_by_key(|&(_, gain)| gain)
                .expect("non-empty");
            let (_, mask) = outputs.swap_remove(best_pos);
            let total = mask.count().max(1);
            if (gain as f64) / (total as f64) < self.min_gain || gain == 0 {
                break;
            }
            union.union_with(&mask);
        }
        union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};

    /// Table with a numeric outlier (caught by SD/IQR/IF/dBoost) and a
    /// missing value (caught only by MVD/HoloClean).
    fn table() -> Table {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Float)]);
        let mut rows: Vec<Vec<Value>> =
            (0..100).map(|i| vec![Value::Float(5.0 + (i % 9) as f64 * 0.1)]).collect();
        rows[11][0] = Value::Float(800.0);
        rows[23][0] = Value::Null;
        Table::from_rows(schema, rows)
    }

    #[test]
    fn min_k_with_k1_is_the_union() {
        let t = table();
        let m = MinK::new(1).detect(&DetectContext::bare(&t));
        assert!(m.get(11, 0));
        assert!(m.get(23, 0));
    }

    #[test]
    fn higher_k_is_stricter() {
        let t = table();
        let k1 = MinK::new(1).detect(&DetectContext::bare(&t)).count();
        let k3 = MinK::new(3).detect(&DetectContext::bare(&t)).count();
        let k9 = MinK::new(9).detect(&DetectContext::bare(&t)).count();
        assert!(k1 >= k3);
        assert!(k3 >= k9);
        // The outlier is caught by at least 3 outlier detectors.
        assert!(MinK::new(3).detect(&DetectContext::bare(&t)).get(11, 0));
    }

    #[test]
    fn max_entropy_covers_both_error_kinds() {
        let t = table();
        let m = MaxEntropy::default().detect(&DetectContext::bare(&t));
        assert!(m.get(11, 0), "outlier covered");
        assert!(m.get(23, 0), "missing value covered");
    }

    #[test]
    fn max_entropy_on_clean_data_is_quiet() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Float)]);
        let t = Table::from_rows(
            schema,
            (0..100).map(|i| vec![Value::Float(5.0 + (i % 9) as f64 * 0.1)]).collect(),
        );
        let m = MaxEntropy::default().detect(&DetectContext::bare(&t));
        assert!(m.count() <= 3, "count {}", m.count());
    }

    #[test]
    fn custom_pool_is_respected() {
        let t = table();
        let m = MinK::with_pool(1, vec![Box::new(MvDetector)]).detect(&DetectContext::bare(&t));
        assert_eq!(m.count(), 1);
        assert!(m.get(23, 0));
    }
}
