//! Keyboard-realistic typo injection (the `error-generator` library's
//! signature feature): neighbouring-key substitutions, transpositions,
//! drops and duplications. Applied to numeric cells a typo yields a string,
//! reproducing the type-shift effect the paper discusses (numeric columns
//! "converted" to categorical by typos).

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::{CellMask, Table, Value};

use crate::common::{cells_of_columns, pick_cells, Injection};

/// QWERTY adjacency used for realistic substitutions.
fn neighbours(c: char) -> &'static str {
    match c.to_ascii_lowercase() {
        'q' => "wa",
        'w' => "qes",
        'e' => "wrd",
        'r' => "etf",
        't' => "ryg",
        'y' => "tuh",
        'u' => "yij",
        'i' => "uok",
        'o' => "ipl",
        'p' => "o",
        'a' => "qsz",
        's' => "awdx",
        'd' => "sefc",
        'f' => "drgv",
        'g' => "fthb",
        'h' => "gyjn",
        'j' => "hukm",
        'k' => "jil",
        'l' => "ko",
        'z' => "asx",
        'x' => "zsdc",
        'c' => "xdfv",
        'v' => "cfgb",
        'b' => "vghn",
        'n' => "bhjm",
        'm' => "njk",
        '0' => "19",
        '1' => "02",
        '2' => "13",
        '3' => "24",
        '4' => "35",
        '5' => "46",
        '6' => "57",
        '7' => "68",
        '8' => "79",
        '9' => "80",
        _ => "",
    }
}

/// The four typo mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypoKind {
    Substitute,
    Transpose,
    Drop,
    Duplicate,
}

/// Applies one random typo to `s`. Returns `None` when no typo is possible
/// (empty string, or single char for transposition).
fn apply_typo(s: &str, rng: &mut StdRng) -> Option<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return None;
    }
    let kinds = [TypoKind::Substitute, TypoKind::Transpose, TypoKind::Drop, TypoKind::Duplicate];
    // Try kinds in random order until one applies.
    let mut order = kinds.to_vec();
    order.shuffle(rng);
    for kind in order {
        let pos = rng.random_range(0..chars.len());
        let mut out = chars.clone();
        match kind {
            TypoKind::Substitute => {
                let ns = neighbours(chars[pos]);
                if ns.is_empty() {
                    continue;
                }
                #[expect(clippy::expect_used, reason = "ns checked non-empty before indexing")]
                let repl = ns.chars().nth(rng.random_range(0..ns.len())).expect("non-empty");
                let repl =
                    if chars[pos].is_ascii_uppercase() { repl.to_ascii_uppercase() } else { repl };
                if repl == chars[pos] {
                    continue;
                }
                out[pos] = repl;
            }
            TypoKind::Transpose => {
                if chars.len() < 2 {
                    continue;
                }
                let p = pos.min(chars.len() - 2);
                if out[p] == out[p + 1] {
                    continue;
                }
                out.swap(p, p + 1);
            }
            TypoKind::Drop => {
                if chars.len() < 2 {
                    continue; // dropping the only char yields empty = NULL
                }
                out.remove(pos);
            }
            TypoKind::Duplicate => {
                out.insert(pos, chars[pos]);
            }
        }
        let result: String = out.into_iter().collect();
        if result != s {
            return Some(result);
        }
    }
    None
}

/// Applies a single random typo to a string; `None` when impossible.
/// Exposed for the duplicate injector's fuzzing.
pub fn fuzz_once(s: &str, rng: &mut StdRng) -> Option<String> {
    apply_typo(s, rng)
}

/// Injects keyboard typos into `rate` of the non-null cells of `cols`.
///
/// The corrupted value is always stored as a **string**, so typos in
/// numeric columns shift the cell's type, as in the paper's setup.
pub fn inject_typos(table: &Table, cols: &[usize], rate: f64, seed: u64) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for cell in pick_cells(&cells_of_columns(table, cols), rate, &mut rng) {
        let original = table.cell(cell.row, cell.col).to_string();
        if let Some(typo) = apply_typo(&original, &mut rng) {
            // Guard against the typo'd string parsing back to (numerically)
            // the same value — e.g. "5.0" -> "5.00", or a digit typo deep in
            // a float's mantissa that falls below the diff tolerance and
            // would be an error no ground-truth diff can see.
            if Value::parse(&typo)
                .approx_eq(table.cell(cell.row, cell.col), rein_data::diff::NUMERIC_TOL)
            {
                continue;
            }
            out.set_cell(cell.row, cell.col, Value::str(typo));
            mask.set(cell.row, cell.col, true);
        }
    }
    Injection { table: out, cells: mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("name", ColumnType::Str),
            ColumnMeta::new("x", ColumnType::Float),
        ]);
        Table::from_rows(
            schema,
            (0..50)
                .map(|i| vec![Value::str(format!("product{i}")), Value::Float(10.0 + i as f64)])
                .collect(),
        )
    }

    #[test]
    fn typo_changes_string() {
        let mut rng = StdRng::seed_from_u64(1);
        for s in ["hello", "Pale Ale", "x", "12345"] {
            let t = apply_typo(s, &mut rng).unwrap();
            assert_ne!(t, s);
        }
    }

    #[test]
    fn empty_string_yields_no_typo() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(apply_typo("", &mut rng).is_none());
    }

    #[test]
    fn injected_cells_differ_and_mask_matches_diff() {
        let t = table();
        let inj = inject_typos(&t, &[0], 0.2, 7);
        assert!(inj.cells.count() >= 8, "count = {}", inj.cells.count());
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn typos_on_numeric_columns_type_shift() {
        let t = table();
        let inj = inject_typos(&t, &[1], 0.3, 3);
        assert!(!inj.cells.is_empty());
        let mut shifted = 0;
        for c in inj.cells.iter() {
            if matches!(inj.table.cell(c.row, c.col), Value::Str(_)) {
                shifted += 1;
            }
        }
        // All corrupted cells are stored as strings.
        assert_eq!(shifted, inj.cells.count());
    }

    #[test]
    fn deterministic_by_seed() {
        let t = table();
        assert_eq!(inject_typos(&t, &[0], 0.2, 5).table, inject_typos(&t, &[0], 0.2, 5).table);
    }
}
