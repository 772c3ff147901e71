//! # rein-constraints
//!
//! The cleaning-signal substrate of the REIN benchmark: functional
//! dependencies ([`fd`]), denial constraints ([`dc`]), syntactic value
//! patterns ([`pattern`]) and approximate FD discovery ([`discovery`], the
//! FDX-profiler substitute). Rule-based detectors (NADEEF, HoloClean) and
//! the BART-style rule-violation injector are built on these primitives.

pub mod dc;
pub mod discovery;
pub mod fd;
pub mod pattern;

pub use dc::{all_dc_violations, CmpOp, DenialConstraint, Operand, Predicate};
pub use discovery::{discover_fds, g3_error, DiscoveryConfig};
pub use fd::{all_fd_violations, fd_violations, FunctionalDependency};
pub use pattern::{
    fingerprint, pattern_of, pattern_outliers, push_pattern, value_pattern, ColumnPatterns,
    PatternProfile, Tally, ValuePattern,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};

    fn two_col_table(pairs: &[(u8, u8)]) -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Int),
            ColumnMeta::new("b", ColumnType::Int),
        ]);
        Table::from_rows(
            schema,
            pairs.iter().map(|&(a, b)| vec![Value::Int(a as i64), Value::Int(b as i64)]).collect(),
        )
    }

    proptest! {
        #[test]
        fn g3_error_in_unit_interval(pairs in prop::collection::vec((0u8..6, 0u8..6), 1..80)) {
            let t = two_col_table(&pairs);
            let e = g3_error(&t, &[0], 1);
            prop_assert!((0.0..=1.0).contains(&e));
        }

        #[test]
        fn g3_zero_iff_fd_holds(pairs in prop::collection::vec((0u8..4, 0u8..4), 1..60)) {
            let t = two_col_table(&pairs);
            let fd = fd::FunctionalDependency::new([0usize], 1);
            let holds = fd::holds(&t, &fd);
            let e = g3_error(&t, &[0], 1);
            prop_assert_eq!(holds, e == 0.0, "holds={} g3={}", holds, e);
        }

        #[test]
        fn fd_violations_subset_of_rhs_column(
            pairs in prop::collection::vec((0u8..4, 0u8..4), 1..60)
        ) {
            let t = two_col_table(&pairs);
            let fd = fd::FunctionalDependency::new([0usize], 1);
            for cell in fd::fd_violations(&t, &fd).iter() {
                prop_assert_eq!(cell.col, 1);
            }
        }

        #[test]
        fn fd_and_equivalent_dc_agree_on_violating_rows(
            pairs in prop::collection::vec((0u8..4, 0u8..4), 2..50)
        ) {
            let t = two_col_table(&pairs);
            let fd = fd::FunctionalDependency::new([0usize], 1);
            let dc = dc::DenialConstraint::from_fd(&fd);
            let fd_rows: std::collections::BTreeSet<usize> =
                fd::fd_violations(&t, &fd).iter().map(|c| c.row).collect();
            let dc_rows: std::collections::BTreeSet<usize> =
                dc.violations(&t).iter().map(|c| c.row).collect();
            // Every FD-flagged row participates in some DC violation pair.
            for r in &fd_rows {
                prop_assert!(dc_rows.contains(r), "row {} flagged by FD not DC", r);
            }
        }

        #[test]
        fn pattern_of_is_deterministic_and_total(s in "[ -~]{0,24}") {
            let p1 = pattern_of(&s);
            let p2 = pattern_of(&s);
            prop_assert_eq!(&p1, &p2);
            // Generalised pattern never longer than 2x char count.
            prop_assert!(p1.as_str().len() <= 2 * s.chars().count().max(1));
        }
    }
}
