//! Intersection-over-union between detector outputs (§6.1).
//!
//! REIN quantifies how similar two detectors' findings are via
//! `IoU(a, b) = |Nₐ ∩ N_b| / (|Nₐ| + |N_b| - |Nₐ ∩ N_b|)`, computed **over
//! true positives only** — false positives "may lead to misleading results".

use rein_data::CellMask;

/// IoU of two raw cell sets.
pub fn iou(a: &CellMask, b: &CellMask) -> f64 {
    let inter = a.intersect(b).count();
    let union = a.count() + b.count() - inter;
    if union == 0 {
        // Two empty detections are identical by convention.
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// IoU restricted to true positives: each detection mask is intersected with
/// the ground-truth error mask first (the paper's definition).
pub fn iou_true_positives(a: &CellMask, b: &CellMask, actual: &CellMask) -> f64 {
    iou(&a.intersect(actual), &b.intersect(actual))
}

/// Pairwise IoU matrix over a set of named detections (Figures 2b/2e/2g/…).
///
/// Returns a symmetric `n × n` matrix with ones on the diagonal.
pub fn iou_matrix(detections: &[(&str, &CellMask)], actual: &CellMask) -> Vec<Vec<f64>> {
    let tps: Vec<CellMask> = detections.iter().map(|(_, m)| m.intersect(actual)).collect();
    let n = tps.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        out[i][i] = 1.0;
        for j in i + 1..n {
            let v = iou(&tps[i], &tps[j]);
            out[i][j] = v;
            out[j][i] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::CellRef;

    fn mask(cells: &[(usize, usize)]) -> CellMask {
        CellMask::from_cells(8, 3, cells.iter().map(|&(r, c)| CellRef::new(r, c)))
    }

    #[test]
    fn identical_masks_have_iou_one() {
        let m = mask(&[(0, 0), (1, 1)]);
        assert_eq!(iou(&m, &m), 1.0);
    }

    #[test]
    fn disjoint_masks_have_iou_zero() {
        assert_eq!(iou(&mask(&[(0, 0)]), &mask(&[(1, 1)])), 0.0);
    }

    #[test]
    fn half_overlap() {
        let a = mask(&[(0, 0), (1, 1)]);
        let b = mask(&[(1, 1), (2, 2)]);
        // inter 1, union 3
        assert!((iou(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn both_empty_is_one() {
        assert_eq!(iou(&mask(&[]), &mask(&[])), 1.0);
    }

    #[test]
    fn true_positive_restriction_ignores_false_positives() {
        let actual = mask(&[(0, 0)]);
        // Both detectors found the real error but disagree wildly on FPs.
        let a = mask(&[(0, 0), (3, 0), (4, 0)]);
        let b = mask(&[(0, 0), (5, 1), (6, 2)]);
        assert!(iou(&a, &b) < 0.5);
        assert_eq!(iou_true_positives(&a, &b, &actual), 1.0);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let actual = mask(&[(0, 0), (1, 1), (2, 2)]);
        let a = mask(&[(0, 0), (1, 1)]);
        let b = mask(&[(1, 1), (2, 2)]);
        let c = mask(&[(0, 0)]);
        let m = iou_matrix(&[("a", &a), ("b", &b), ("c", &c)], &actual);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, m[j][i]);
            }
        }
        assert!((m[0][1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((m[0][2] - 0.5).abs() < 1e-12);
    }
}
