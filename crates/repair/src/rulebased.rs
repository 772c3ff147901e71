//! Rule/cluster-driven repairers: HoloClean's repair stage and the
//! OpenRefine canonicalisation transform.

use std::collections::BTreeMap;

use rein_data::{CellMask, Table, Value};

use crate::context::{RepairContext, RepairOutcome, Repairer};

/// HoloClean repair (Rekatsinas et al.), reduced to its inference core:
/// candidate values for each detected cell come from (a) FD-group majority
/// voting and (b) co-occurrence statistics with the row's other attributes;
/// candidates are scored by a pseudo-likelihood (weighted vote mass) and
/// the argmax wins. Numeric cells without rule evidence fall back to the
/// trusted-column mean, NULL-safe.
#[derive(Debug, Default, Clone)]
pub struct HoloCleanRepair;

impl HoloCleanRepair {
    /// Co-occurrence score of candidate `cand` for cell `(row, col)`:
    /// how often `cand` appears in `col` among rows agreeing with `row` on
    /// another attribute, aggregated over attributes.
    fn cooccurrence_votes(
        t: &Table,
        detections: &CellMask,
        row: usize,
        col: usize,
    ) -> BTreeMap<String, f64> {
        let mut votes: BTreeMap<String, f64> = BTreeMap::new();
        for other in 0..t.n_cols() {
            if other == col || detections.get(row, other) {
                continue;
            }
            let anchor = t.cell(row, other);
            if anchor.is_null() {
                continue;
            }
            let mut local: BTreeMap<String, usize> = BTreeMap::new();
            let mut group = 0usize;
            for r in 0..t.n_rows() {
                if r == row || detections.get(r, col) {
                    continue;
                }
                if t.cell(r, other) == anchor {
                    group += 1;
                    let v = t.cell(r, col);
                    if !v.is_null() {
                        *local.entry(v.as_key().into_owned()).or_insert(0) += 1;
                    }
                }
            }
            if group == 0 {
                continue;
            }
            // Attribute weight: discriminative anchors (small groups) count
            // more, mirroring HoloClean's learned feature weights.
            let weight = 1.0 / (group as f64).sqrt();
            for (cand, n) in local {
                *votes.entry(cand).or_insert(0.0) += weight * n as f64;
            }
        }
        votes
    }
}

impl Repairer for HoloCleanRepair {
    fn name(&self) -> &'static str {
        "holoclean"
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:rulebased");
        let dirty = ctx.dirty;
        let det = ctx.detections;
        let mut table = dirty.clone();
        let mut repaired = CellMask::new(dirty.n_rows(), dirty.n_cols());

        // Pass 1 — FD-majority candidates under the minimal-repair
        // principle: when several detected cells of one row carry FD
        // candidates (e.g. inverse FDs zip→city and city→zip both firing),
        // only the best-supported one is applied — repairing one side
        // usually resolves the sibling violation, and changing both would
        // overshoot. Candidates whose determinant cells are themselves
        // suspect rank below trusted ones.
        // (column, value, (lhs_trusted, support, support_ratio)) per row.
        type RowCandidates = Vec<(usize, Value, (bool, usize, f64))>;
        let mut per_row: BTreeMap<usize, RowCandidates> = BTreeMap::new();
        for f in ctx.fds {
            for cand in rein_constraints::fd::repair_candidates_with_support(dirty, f) {
                if !det.get(cand.row, f.rhs) {
                    continue;
                }
                let lhs_trusted = !f.lhs.iter().any(|&c| det.get(cand.row, c));
                let ratio = cand.support as f64 / cand.group_size.max(1) as f64;
                per_row.entry(cand.row).or_default().push((
                    f.rhs,
                    cand.value,
                    (lhs_trusted, cand.support, ratio),
                ));
            }
        }
        for (row, mut cands) in per_row {
            cands.sort_by(|a, b| {
                b.2 .0
                    .cmp(&a.2 .0)
                    .then(b.2 .1.cmp(&a.2 .1))
                    .then(b.2 .2.total_cmp(&a.2 .2))
                    .then(a.0.cmp(&b.0))
            });
            #[expect(clippy::expect_used, reason = "cands checked non-empty above")]
            let (col, value, _) = cands.into_iter().next().expect("non-empty");
            table.set_cell(row, col, value);
            repaired.set(row, col, true);
        }

        // Recompute FD candidates on the partially repaired table: repairs
        // from pass 1 resolve violations, so stale candidates (derived from
        // now-fixed determinants) vanish — the sequential counterpart of
        // HoloClean's joint inference over the factor graph.
        let mut fd_candidates: BTreeMap<(usize, usize), Value> = BTreeMap::new();
        for f in ctx.fds {
            for (row, value) in rein_constraints::fd::repair_candidates(&table, f) {
                fd_candidates.insert((row, f.rhs), value);
            }
        }

        // Pass 2 — remaining cells: fresh FD candidates, then co-occurrence
        // voting, then the continuous-column mean fallback.
        let remaining: Vec<rein_data::CellRef> =
            det.iter().filter(|c| !repaired.get(c.row, c.col)).collect();
        for cell in remaining {
            if let Some(v) = fd_candidates.get(&(cell.row, cell.col)) {
                table.set_cell(cell.row, cell.col, v.clone());
                repaired.set(cell.row, cell.col, true);
                continue;
            }
            let votes = Self::cooccurrence_votes(&table, det, cell.row, cell.col);
            let best = votes
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(v, _)| v.clone());
            match best {
                Some(v) => {
                    table.set_cell(cell.row, cell.col, Value::parse(&v));
                    repaired.set(cell.row, cell.col, true);
                }
                None => {
                    // Numeric fallback (continuous columns only — means are
                    // meaningless for id-like integer codes): trusted mean.
                    if dirty.observed_type(cell.col) != rein_data::ColumnType::Float {
                        continue;
                    }
                    let trusted: Vec<f64> = (0..dirty.n_rows())
                        .filter(|&r| !det.get(r, cell.col))
                        .filter_map(|r| dirty.cell(r, cell.col).as_f64())
                        .collect();
                    if !trusted.is_empty() {
                        let mean = trusted.iter().sum::<f64>() / trusted.len() as f64;
                        table.set_cell(cell.row, cell.col, Value::float(mean));
                        repaired.set(cell.row, cell.col, true);
                    }
                }
            }
        }
        RepairOutcome::repaired(table, repaired)
    }
}

/// OpenRefine repair: replaces detected cells whose cluster has a canonical
/// spelling with that spelling (GREL-style transform).
#[derive(Debug, Default, Clone)]
pub struct OpenRefineRepair;

impl Repairer for OpenRefineRepair {
    fn name(&self) -> &'static str {
        "openrefine"
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:rulebased");
        let dirty = ctx.dirty;
        let det = ctx.detections;
        let mut table = dirty.clone();
        let mut repaired = CellMask::new(dirty.n_rows(), dirty.n_cols());
        for c in 0..dirty.n_cols() {
            if det.count_col(c) == 0 {
                continue;
            }
            let map = rein_detect::openrefine::canonical_map(dirty, c);
            if map.is_empty() {
                continue;
            }
            for r in 0..dirty.n_rows() {
                rein_guard::checkpoint(1);
                if !det.get(r, c) {
                    continue;
                }
                if let Value::Str(s) = dirty.cell(r, c) {
                    let fp = rein_constraints::pattern::fingerprint(s);
                    if let Some(canon) = map.get(&fp) {
                        if canon != s {
                            table.set_cell(r, c, Value::str(canon.clone()));
                            repaired.set(r, c, true);
                        }
                    }
                }
            }
        }
        RepairOutcome::repaired(table, repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_constraints::fd::FunctionalDependency;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn fd_dataset() -> (Table, Table, CellMask) {
        let schema = Schema::new(vec![
            ColumnMeta::new("zip", ColumnType::Str),
            ColumnMeta::new("city", ColumnType::Str),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..40)
                .map(|i| {
                    vec![
                        Value::str(["10115", "80331"][i % 2]),
                        Value::str(["Berlin", "Munich"][i % 2]),
                    ]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        dirty.set_cell(4, 1, Value::str("Hamburg"));
        dirty.set_cell(9, 1, Value::str("Potsdam"));
        let det = diff_mask(&clean, &dirty);
        (clean, dirty, det)
    }

    #[test]
    fn holoclean_repairs_fd_violations_correctly() {
        let (clean, dirty, det) = fd_dataset();
        let fds = [FunctionalDependency::new([0], 1)];
        let ctx = RepairContext { fds: &fds, ..RepairContext::new(&dirty, &det) };
        let out = HoloCleanRepair.repair(&ctx);
        let t = out.table().unwrap();
        assert_eq!(t.cell(4, 1), clean.cell(4, 1));
        assert_eq!(t.cell(9, 1), clean.cell(9, 1));
    }

    #[test]
    fn holoclean_uses_cooccurrence_without_fds() {
        let (clean, dirty, det) = fd_dataset();
        let out = HoloCleanRepair.repair(&RepairContext::new(&dirty, &det));
        let t = out.table().unwrap();
        // zip co-occurrence still votes for the right city.
        assert_eq!(t.cell(4, 1), clean.cell(4, 1));
    }

    #[test]
    fn holoclean_numeric_fallback() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Float)]);
        let mut dirty =
            Table::from_rows(schema, (0..20).map(|i| vec![Value::Float((i % 5) as f64)]).collect());
        dirty.set_cell(3, 0, Value::Float(900.0));
        let mut det = CellMask::new(20, 1);
        det.set(3, 0, true);
        let out = HoloCleanRepair.repair(&RepairContext::new(&dirty, &det));
        let v = out.table().unwrap().cell(3, 0).as_f64().unwrap();
        assert!(v < 10.0, "fallback {v}");
    }

    #[test]
    fn openrefine_canonicalises_detected_variants() {
        let schema = Schema::new(vec![ColumnMeta::new("style", ColumnType::Str)]);
        let mut dirty =
            Table::from_rows(schema, (0..20).map(|_| vec![Value::str("pale ale")]).collect());
        dirty.set_cell(3, 0, Value::str("PALE ALE"));
        dirty.set_cell(7, 0, Value::str(" pale ale"));
        let mut det = CellMask::new(20, 1);
        det.set(3, 0, true);
        det.set(7, 0, true);
        let out = OpenRefineRepair.repair(&RepairContext::new(&dirty, &det));
        let t = out.table().unwrap();
        assert_eq!(t.cell(3, 0), &Value::str("pale ale"));
        assert_eq!(t.cell(7, 0), &Value::str("pale ale"));
    }

    #[test]
    fn openrefine_leaves_unclustered_cells_alone() {
        let schema = Schema::new(vec![ColumnMeta::new("c", ColumnType::Str)]);
        let dirty =
            Table::from_rows(schema, (0..10).map(|i| vec![Value::str(format!("v{i}"))]).collect());
        let mut det = CellMask::new(10, 1);
        det.set(2, 0, true);
        let out = OpenRefineRepair.repair(&RepairContext::new(&dirty, &det));
        match out {
            RepairOutcome::Repaired { table, repaired_cells, .. } => {
                assert_eq!(&table, &dirty);
                assert!(repaired_cells.is_empty());
            }
            _ => panic!(),
        }
    }
}
