//! Functional dependencies and their violation scan.
//!
//! An FD `LHS → RHS` states that rows agreeing on all LHS attributes must
//! agree on the RHS attribute. NADEEF-style detection flags, for each group
//! of rows sharing an LHS value, every RHS cell that deviates from the
//! group's majority value (and, when the group is evenly split, the whole
//! group).

use std::collections::BTreeMap;

use rein_data::{CellMask, Table, Value};
use serde::{Deserialize, Serialize};

/// A functional dependency over column indices: `lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalDependency {
    /// Determinant column indices.
    pub lhs: Vec<usize>,
    /// Dependent column index.
    pub rhs: usize,
}

impl FunctionalDependency {
    /// Builds an FD.
    pub fn new(lhs: impl Into<Vec<usize>>, rhs: usize) -> Self {
        Self { lhs: lhs.into(), rhs }
    }

    /// Human-readable form using the table's column names.
    pub fn describe(&self, table: &Table) -> String {
        let lhs: Vec<&str> =
            self.lhs.iter().map(|&c| table.schema().column(c).name.as_str()).collect();
        format!("{} -> {}", lhs.join(","), table.schema().column(self.rhs).name)
    }
}

/// Groups row indices by their LHS key. Rows with a NULL in any LHS column
/// are skipped (they determine nothing).
fn lhs_groups(table: &Table, fd: &FunctionalDependency) -> BTreeMap<String, Vec<usize>> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    'rows: for r in 0..table.n_rows() {
        let mut key = String::new();
        for &c in &fd.lhs {
            let v = table.cell(r, c);
            if v.is_null() {
                continue 'rows;
            }
            key.push_str(&v.as_key());
            key.push('\u{1f}'); // unit separator avoids key collisions
        }
        groups.entry(key).or_default().push(r);
    }
    groups
}

/// Cells violating the FD, using majority voting within each LHS group.
///
/// The returned mask marks RHS cells that disagree with their group's
/// majority RHS value; when no strict majority exists every RHS cell of the
/// conflicting group is flagged (the conservative NADEEF behaviour).
pub fn fd_violations(table: &Table, fd: &FunctionalDependency) -> CellMask {
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for rows in lhs_groups(table, fd).values() {
        if rows.len() < 2 {
            continue;
        }
        // Count RHS values within the group.
        let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
        for &r in rows {
            *counts.entry(table.cell(r, fd.rhs)).or_insert(0) += 1;
        }
        if counts.len() <= 1 {
            continue; // group is consistent
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let majority_unique = counts.values().filter(|&&c| c == max).count() == 1;
        if majority_unique {
            #[expect(
                clippy::unwrap_used,
                reason = "majority_unique guarantees a count equal to max exists"
            )]
            let majority: &Value = counts.iter().find(|(_, &c)| c == max).map(|(v, _)| *v).unwrap();
            let majority = majority.clone();
            for &r in rows {
                if table.cell(r, fd.rhs) != &majority {
                    mask.set(r, fd.rhs, true);
                }
            }
        } else {
            // No majority: all group members are suspect.
            for &r in rows {
                mask.set(r, fd.rhs, true);
            }
        }
    }
    mask
}

/// Violations of several FDs, unioned.
pub fn all_fd_violations(table: &Table, fds: &[FunctionalDependency]) -> CellMask {
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for fd in fds {
        mask.union_with(&fd_violations(table, fd));
    }
    mask
}

/// Whether the table satisfies the FD exactly (no two LHS-equal rows with
/// different RHS values).
pub fn holds(table: &Table, fd: &FunctionalDependency) -> bool {
    for rows in lhs_groups(table, fd).values() {
        let first = table.cell(rows[0], fd.rhs);
        if rows.iter().any(|&r| table.cell(r, fd.rhs) != first) {
            return false;
        }
    }
    true
}

/// A repair candidate with its evidence strength.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairCandidate {
    /// Row whose RHS cell should change.
    pub row: usize,
    /// Proposed value (the group majority).
    pub value: Value,
    /// Number of group members supporting the majority value.
    pub support: usize,
    /// Total group size.
    pub group_size: usize,
}

/// Like [`repair_candidates`] but annotated with majority support and
/// group size, so repairers can arbitrate between conflicting FDs.
pub fn repair_candidates_with_support(
    table: &Table,
    fd: &FunctionalDependency,
) -> Vec<RepairCandidate> {
    let mut out = Vec::new();
    for rows in lhs_groups(table, fd).values() {
        if rows.len() < 2 {
            continue;
        }
        let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
        for &r in rows {
            *counts.entry(table.cell(r, fd.rhs)).or_insert(0) += 1;
        }
        if counts.len() <= 1 {
            continue;
        }
        #[expect(clippy::unwrap_used, reason = "counts checked non-empty above")]
        let max = counts.values().copied().max().unwrap();
        if counts.values().filter(|&&c| c == max).count() != 1 {
            continue;
        }
        #[expect(
            clippy::unwrap_used,
            reason = "a key with the max count always exists in a non-empty map"
        )]
        let majority = counts.iter().find(|(_, &c)| c == max).map(|(v, _)| (*v).clone()).unwrap();
        for &r in rows {
            if table.cell(r, fd.rhs) != &majority {
                out.push(RepairCandidate {
                    row: r,
                    value: majority.clone(),
                    support: max,
                    group_size: rows.len(),
                });
            }
        }
    }
    out.sort_by_key(|c| c.row);
    out
}

/// For each violating LHS group, the majority RHS value — the natural FD
/// repair candidate used by rule-based repairers.
pub fn repair_candidates(table: &Table, fd: &FunctionalDependency) -> Vec<(usize, Value)> {
    let mut out = Vec::new();
    for rows in lhs_groups(table, fd).values() {
        if rows.len() < 2 {
            continue;
        }
        let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
        for &r in rows {
            *counts.entry(table.cell(r, fd.rhs)).or_insert(0) += 1;
        }
        if counts.len() <= 1 {
            continue;
        }
        #[expect(clippy::unwrap_used, reason = "counts checked non-empty above")]
        let max = counts.values().copied().max().unwrap();
        if counts.values().filter(|&&c| c == max).count() != 1 {
            continue; // ambiguous, no candidate
        }
        #[expect(
            clippy::unwrap_used,
            reason = "a key with the max count always exists in a non-empty map"
        )]
        let majority = counts.iter().find(|(_, &c)| c == max).map(|(v, _)| (*v).clone()).unwrap();
        for &r in rows {
            if table.cell(r, fd.rhs) != &majority {
                out.push((r, majority.clone()));
            }
        }
    }
    out.sort_by_key(|(r, _)| *r);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table(rows: Vec<(&str, &str)>) -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("zip", ColumnType::Str),
            ColumnMeta::new("city", ColumnType::Str),
        ]);
        Table::from_rows(
            schema,
            rows.into_iter().map(|(z, c)| vec![Value::str(z), Value::str(c)]).collect(),
        )
    }

    #[test]
    fn consistent_table_has_no_violations() {
        let t = table(vec![("1", "A"), ("1", "A"), ("2", "B")]);
        let fd = FunctionalDependency::new([0], 1);
        assert!(holds(&t, &fd));
        assert!(fd_violations(&t, &fd).is_empty());
    }

    #[test]
    fn minority_cell_is_flagged() {
        let t = table(vec![("1", "A"), ("1", "A"), ("1", "X"), ("2", "B")]);
        let fd = FunctionalDependency::new([0], 1);
        assert!(!holds(&t, &fd));
        let m = fd_violations(&t, &fd);
        assert_eq!(m.count(), 1);
        assert!(m.get(2, 1));
    }

    #[test]
    fn even_split_flags_whole_group() {
        let t = table(vec![("1", "A"), ("1", "X")]);
        let fd = FunctionalDependency::new([0], 1);
        let m = fd_violations(&t, &fd);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn null_lhs_rows_are_skipped() {
        let mut t = table(vec![("1", "A"), ("1", "X"), ("1", "A")]);
        t.set_cell(1, 0, Value::Null);
        let fd = FunctionalDependency::new([0], 1);
        assert!(fd_violations(&t, &fd).is_empty());
    }

    #[test]
    fn composite_lhs() {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Str),
            ColumnMeta::new("b", ColumnType::Str),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::str("x"), Value::str("1"), Value::str("p")],
                vec![Value::str("x"), Value::str("1"), Value::str("p")],
                vec![Value::str("x"), Value::str("1"), Value::str("q")],
                vec![Value::str("x"), Value::str("2"), Value::str("r")],
            ],
        );
        let fd = FunctionalDependency::new([0, 1], 2);
        let m = fd_violations(&t, &fd);
        assert_eq!(m.count(), 1);
        assert!(m.get(2, 2));
    }

    #[test]
    fn repair_candidates_propose_majority() {
        let t = table(vec![("1", "A"), ("1", "A"), ("1", "X")]);
        let fd = FunctionalDependency::new([0], 1);
        let cands = repair_candidates(&t, &fd);
        assert_eq!(cands, vec![(2, Value::str("A"))]);
    }

    #[test]
    fn ambiguous_groups_yield_no_candidates() {
        let t = table(vec![("1", "A"), ("1", "X")]);
        let fd = FunctionalDependency::new([0], 1);
        assert!(repair_candidates(&t, &fd).is_empty());
    }

    #[test]
    fn union_of_multiple_fds() {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Str),
            ColumnMeta::new("b", ColumnType::Str),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::str("x"), Value::str("1"), Value::str("p")],
                vec![Value::str("x"), Value::str("1"), Value::str("p")],
                vec![Value::str("x"), Value::str("9"), Value::str("p")],
            ],
        );
        let fds = vec![FunctionalDependency::new([0], 1), FunctionalDependency::new([0], 2)];
        let m = all_fd_violations(&t, &fds);
        assert_eq!(m.count(), 1);
        assert!(m.get(2, 1));
    }

    #[test]
    fn describe_uses_column_names() {
        let t = table(vec![("1", "A")]);
        let fd = FunctionalDependency::new([0], 1);
        assert_eq!(fd.describe(&t), "zip -> city");
    }
}
