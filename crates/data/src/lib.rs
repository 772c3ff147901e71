//! # rein-data
//!
//! Tabular data substrate for the REIN benchmark: dynamically typed cell
//! [`Value`]s, columnar [`Table`]s with [`Schema`]s, cell [`CellMask`]s for
//! detection/repair footprints, a CSV codec, ground-truth [`diff`]ing, and
//! seeded [`split`]ting utilities.
//!
//! This crate replaces the Pandas + PostgreSQL layer of the original Python
//! benchmark; everything above (error injection, detectors, repairs, models)
//! speaks these types.

pub mod csv;
pub mod diff;
pub mod mask;
pub mod metadata;
pub mod profile;
pub mod rng;
pub mod schema;
pub mod split;
pub mod table;
pub mod value;

pub use mask::CellMask;
pub use metadata::{DatasetInfo, ErrorProfile, ErrorType, MlTask};
pub use profile::{profile, profile_column, ColumnProfile};
pub use schema::{ColumnMeta, ColumnRole, ColumnType, Schema};
pub use table::{CellRef, Table};
pub use value::Value;

#[cfg(test)]
mod proptests {
    use crate::csv;
    use crate::mask::CellMask;
    use crate::table::CellRef;
    use crate::value::Value;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::float),
            "[a-zA-Z0-9 _-]{0,12}".prop_map(|s| Value::parse(&s)),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        #[test]
        fn value_total_cmp_is_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering;
            // antisymmetry
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
            // transitivity (spot check)
            if a.total_cmp(&b) == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
                prop_assert_eq!(a.total_cmp(&c), Ordering::Less);
            }
            // reflexivity
            prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        }

        #[test]
        fn value_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            if a == b {
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                a.hash(&mut ha);
                b.hash(&mut hb);
                prop_assert_eq!(ha.finish(), hb.finish());
            }
        }

        #[test]
        fn mask_union_intersect_laws(
            cells_a in prop::collection::vec((0usize..20, 0usize..7), 0..40),
            cells_b in prop::collection::vec((0usize..20, 0usize..7), 0..40),
        ) {
            let a = CellMask::from_cells(20, 7, cells_a.iter().map(|&(r, c)| CellRef::new(r, c)));
            let b = CellMask::from_cells(20, 7, cells_b.iter().map(|&(r, c)| CellRef::new(r, c)));
            // |A ∪ B| = |A| + |B| - |A ∩ B|
            prop_assert_eq!(
                a.union(&b).count() + a.intersect(&b).count(),
                a.count() + b.count()
            );
            // A \ B and A ∩ B partition A
            prop_assert_eq!(a.difference(&b).count() + a.intersect(&b).count(), a.count());
            // commutativity
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        #[test]
        fn mask_iter_matches_count(
            cells in prop::collection::vec((0usize..33, 0usize..5), 0..60),
        ) {
            let m = CellMask::from_cells(33, 5, cells.iter().map(|&(r, c)| CellRef::new(r, c)));
            prop_assert_eq!(m.iter().count(), m.count());
            for c in m.iter() {
                prop_assert!(m.get(c.row, c.col));
            }
        }

        #[test]
        fn csv_read_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            // Malformed input — ragged rows, stray quotes, invalid UTF-8 —
            // must surface as a typed Err, never a panic.
            #[expect(clippy::let_underscore_must_use, reason = "only the absence of a panic is under test")]
            let _ = csv::read_bytes(&bytes);
        }

        #[test]
        fn csv_read_str_never_panics(text in "[\\x00-\\x7f\"\\n,]{0,256}") {
            #[expect(clippy::let_underscore_must_use, reason = "only the absence of a panic is under test")]
            let _ = csv::read_str(&text);
        }

        #[test]
        fn csv_errors_are_typed_for_mutated_valid_input(
            flip in 0usize..64,
            byte in any::<u8>(),
        ) {
            // Start from a well-formed document, corrupt one byte, and
            // require the codec to either parse or return a CsvError.
            let mut bytes = b"id,name,score\n1,alpha,2.5\n2,beta,3.0\n3,gamma,4.5\n".to_vec();
            let at = flip % bytes.len();
            bytes[at] = byte;
            match csv::read_bytes(&bytes) {
                Ok(t) => prop_assert!(t.n_cols() >= 1),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }

        #[test]
        fn csv_roundtrip(
            rows in prop::collection::vec(
                prop::collection::vec(arb_value(), 3..=3), 1..20),
        ) {
            use crate::schema::{ColumnMeta, ColumnType, Schema};
            use crate::table::Table;
            let schema = Schema::new(vec![
                ColumnMeta::new("c0", ColumnType::Str),
                ColumnMeta::new("c1", ColumnType::Str),
                ColumnMeta::new("c2", ColumnType::Str),
            ]);
            let t = Table::from_rows(schema, rows);
            let text = csv::write_str(&t);
            let back = csv::read_str(&text).unwrap();
            prop_assert_eq!(back.n_rows(), t.n_rows());
            for r in 0..t.n_rows() {
                for c in 0..t.n_cols() {
                    // Round-trip is up to Value::parse canonicalisation of the
                    // displayed form (e.g. Float(2) -> "2.0" -> Float(2.0)).
                    let reparsed = Value::parse(&t.cell(r, c).to_string());
                    prop_assert_eq!(back.cell(r, c), &reparsed, "cell ({}, {})", r, c);
                }
            }
        }
    }
}
