//! Denial constraints.
//!
//! A denial constraint (DC) forbids a conjunction of predicates: no single
//! tuple (unary DC) or pair of tuples (binary DC) may satisfy all predicates
//! simultaneously. This is the constraint language HoloClean and BART speak;
//! FDs compile into binary DCs.

use rein_data::{CellMask, Table, Value};
use serde::{Deserialize, Serialize};

/// Comparison operator of a DC predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Neq,
    /// Less than (numeric).
    Lt,
    /// Less or equal (numeric).
    Leq,
    /// Greater than (numeric).
    Gt,
    /// Greater or equal (numeric).
    Geq,
}

impl CmpOp {
    fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => match self {
                    CmpOp::Lt => x < y,
                    CmpOp::Leq => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Geq => x >= y,
                    #[expect(
                        clippy::unreachable,
                        reason = "Eq/Neq are handled in the outer match; only order ops reach here"
                    )]
                    _ => unreachable!(),
                },
                // Non-numeric operands never satisfy an order predicate.
                _ => false,
            },
        }
    }

    /// Textual operator, for `describe`.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Leq => "<=",
            CmpOp::Gt => ">",
            CmpOp::Geq => ">=",
        }
    }
}

/// One side of a predicate: a column of tuple `t1`/`t2`, or a constant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Column `col` of the first tuple.
    First(usize),
    /// Column `col` of the second tuple (binary DCs only).
    Second(usize),
    /// A literal constant.
    Const(Value),
}

impl Operand {
    fn resolve<'a>(&'a self, t1: &'a [Value], t2: &'a [Value]) -> &'a Value {
        match self {
            Operand::First(c) => &t1[*c],
            Operand::Second(c) => &t2[*c],
            Operand::Const(v) => v,
        }
    }

    fn touched_col(&self, first: bool) -> Option<usize> {
        match self {
            Operand::First(c) if first => Some(*c),
            Operand::Second(c) if !first => Some(*c),
            _ => None,
        }
    }
}

/// A single predicate `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Predicate {
    /// Builds a predicate.
    pub fn new(lhs: Operand, op: CmpOp, rhs: Operand) -> Self {
        Self { lhs, op, rhs }
    }

    fn eval(&self, t1: &[Value], t2: &[Value]) -> bool {
        let a = self.lhs.resolve(t1, t2);
        let b = self.rhs.resolve(t1, t2);
        // NULLs never satisfy a predicate (SQL three-valued logic collapsed
        // to false), so DCs do not fire on missing data.
        if a.is_null() || b.is_null() {
            return false;
        }
        self.op.eval(a, b)
    }
}

/// A denial constraint: `¬(p1 ∧ p2 ∧ …)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenialConstraint {
    /// The forbidden conjunction.
    pub predicates: Vec<Predicate>,
    /// Whether the DC ranges over tuple pairs (`true`) or single tuples.
    pub binary: bool,
    /// Optional human-readable name.
    pub name: String,
}

impl DenialConstraint {
    /// A unary DC over single tuples.
    pub fn unary(name: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        Self { predicates, binary: false, name: name.into() }
    }

    /// A binary DC over tuple pairs.
    pub fn binary(name: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        Self { predicates, binary: true, name: name.into() }
    }

    /// Compiles an FD `lhs → rhs` into the equivalent binary DC:
    /// `¬(t1.lhs = t2.lhs ∧ t1.rhs ≠ t2.rhs)`.
    pub fn from_fd(fd: &crate::fd::FunctionalDependency) -> Self {
        let mut predicates: Vec<Predicate> = fd
            .lhs
            .iter()
            .map(|&c| Predicate::new(Operand::First(c), CmpOp::Eq, Operand::Second(c)))
            .collect();
        predicates.push(Predicate::new(
            Operand::First(fd.rhs),
            CmpOp::Neq,
            Operand::Second(fd.rhs),
        ));
        Self { predicates, binary: true, name: format!("fd_{:?}_to_{}", fd.lhs, fd.rhs) }
    }

    /// Columns this DC constrains (used to attribute violations to cells).
    pub fn touched_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .predicates
            .iter()
            .flat_map(|p| {
                [
                    p.lhs.touched_col(true),
                    p.lhs.touched_col(false),
                    p.rhs.touched_col(true),
                    p.rhs.touched_col(false),
                ]
            })
            .flatten()
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn violates_pair(&self, t1: &[Value], t2: &[Value]) -> bool {
        self.predicates.iter().all(|p| p.eval(t1, t2))
    }

    /// Marks cells participating in violations of this DC.
    ///
    /// Unary DCs flag the touched columns of each violating row. Binary DCs
    /// use hash blocking on the first equality predicate when one exists
    /// (quadratic scan within blocks) and flag the touched columns of both
    /// rows in a violating pair.
    pub fn violations(&self, table: &Table) -> CellMask {
        let mut mask = CellMask::new(table.n_rows(), table.n_cols());
        let cols = self.touched_columns();
        let rows: Vec<Vec<Value>> = (0..table.n_rows()).map(|r| table.row(r)).collect();
        if !self.binary {
            for (r, row) in rows.iter().enumerate() {
                if self.violates_pair(row, row) {
                    for &c in &cols {
                        mask.set(r, c, true);
                    }
                }
            }
            return mask;
        }

        // Blocking: find an equality predicate t1.c = t2.c to partition on.
        let block_col = self.predicates.iter().find_map(|p| match (&p.lhs, p.op, &p.rhs) {
            (Operand::First(a), CmpOp::Eq, Operand::Second(b)) if a == b => Some(*a),
            (Operand::Second(a), CmpOp::Eq, Operand::First(b)) if a == b => Some(*a),
            _ => None,
        });

        let mark_pair = |mask: &mut CellMask, i: usize, j: usize| {
            for &c in &cols {
                mask.set(i, c, true);
                mask.set(j, c, true);
            }
        };

        match block_col {
            Some(bc) => {
                let mut blocks: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
                for (r, row) in rows.iter().enumerate() {
                    if !row[bc].is_null() {
                        blocks.entry(row[bc].as_key().into_owned()).or_default().push(r);
                    }
                }
                for members in blocks.values() {
                    for (ii, &i) in members.iter().enumerate() {
                        for &j in &members[ii + 1..] {
                            if self.violates_pair(&rows[i], &rows[j])
                                || self.violates_pair(&rows[j], &rows[i])
                            {
                                mark_pair(&mut mask, i, j);
                            }
                        }
                    }
                }
            }
            None => {
                for i in 0..rows.len() {
                    for j in i + 1..rows.len() {
                        if self.violates_pair(&rows[i], &rows[j])
                            || self.violates_pair(&rows[j], &rows[i])
                        {
                            mark_pair(&mut mask, i, j);
                        }
                    }
                }
            }
        }
        mask
    }
}

/// Violations of a set of DCs, unioned.
pub fn all_dc_violations(table: &Table, dcs: &[DenialConstraint]) -> CellMask {
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for dc in dcs {
        mask.union_with(&dc.violations(table));
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("age", ColumnType::Int),
            ColumnMeta::new("zip", ColumnType::Str),
            ColumnMeta::new("city", ColumnType::Str),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(30), Value::str("10115"), Value::str("Berlin")],
                vec![Value::Int(-5), Value::str("10115"), Value::str("Berlin")],
                vec![Value::Int(40), Value::str("10115"), Value::str("Potsdam")],
                vec![Value::Int(25), Value::str("80331"), Value::str("Munich")],
            ],
        )
    }

    #[test]
    fn unary_dc_flags_negative_age() {
        // ¬(t.age < 0)
        let dc = DenialConstraint::unary(
            "age_nonneg",
            vec![Predicate::new(Operand::First(0), CmpOp::Lt, Operand::Const(Value::Int(0)))],
        );
        let m = dc.violations(&table());
        assert_eq!(m.count(), 1);
        assert!(m.get(1, 0));
    }

    #[test]
    fn binary_dc_from_fd_flags_conflicting_pair() {
        let fd = crate::fd::FunctionalDependency::new([1], 2);
        let dc = DenialConstraint::from_fd(&fd);
        assert!(dc.binary);
        let m = dc.violations(&table());
        // Rows 0,1,2 share zip; city of row 2 conflicts with 0 and 1.
        // Violating pairs: (0,2), (1,2) -> cells in cols {1,2} of rows 0,1,2.
        assert!(m.get(2, 2));
        assert!(m.get(0, 2));
        assert!(m.get(1, 2));
        assert!(!m.get(3, 2));
    }

    #[test]
    fn nulls_do_not_trigger_predicates() {
        let mut t = table();
        t.set_cell(1, 0, Value::Null);
        let dc = DenialConstraint::unary(
            "age_nonneg",
            vec![Predicate::new(Operand::First(0), CmpOp::Lt, Operand::Const(Value::Int(0)))],
        );
        assert!(dc.violations(&t).is_empty());
    }

    #[test]
    fn order_predicates_on_strings_never_fire() {
        let dc = DenialConstraint::unary(
            "weird",
            vec![Predicate::new(Operand::First(2), CmpOp::Gt, Operand::Const(Value::Int(0)))],
        );
        assert!(dc.violations(&table()).is_empty());
    }

    #[test]
    fn touched_columns_deduplicated_sorted() {
        let fd = crate::fd::FunctionalDependency::new([1], 2);
        let dc = DenialConstraint::from_fd(&fd);
        assert_eq!(dc.touched_columns(), vec![1, 2]);
    }

    #[test]
    fn binary_dc_without_blocking_still_works() {
        // ¬(t1.age > t2.age ∧ t1.age < t2.age) is unsatisfiable — no flags.
        let dc = DenialConstraint::binary(
            "impossible",
            vec![
                Predicate::new(Operand::First(0), CmpOp::Gt, Operand::Second(0)),
                Predicate::new(Operand::First(0), CmpOp::Lt, Operand::Second(0)),
            ],
        );
        assert!(dc.violations(&table()).is_empty());
    }

    #[test]
    fn multiple_dcs_union() {
        let dc1 = DenialConstraint::unary(
            "age_nonneg",
            vec![Predicate::new(Operand::First(0), CmpOp::Lt, Operand::Const(Value::Int(0)))],
        );
        let dc2 = DenialConstraint::from_fd(&crate::fd::FunctionalDependency::new([1], 2));
        let m = all_dc_violations(&table(), &[dc1, dc2]);
        assert!(m.get(1, 0));
        assert!(m.get(2, 2));
    }

    #[test]
    fn cmp_op_symbols() {
        assert_eq!(CmpOp::Eq.symbol(), "=");
        assert_eq!(CmpOp::Geq.symbol(), ">=");
    }
}
