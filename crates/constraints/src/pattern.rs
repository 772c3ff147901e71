//! Syntactic patterns over cell values.
//!
//! Several detectors (KATARA, FAHES, NADEEF's pattern rules, OpenRefine)
//! reason about the *shape* of a value: its sequence of character classes.
//! `"10115"` has shape `D5`, `"A-12"` has shape `U-D2`. Columns usually
//! have one dominant shape; cells deviating from it are pattern violations.

use std::collections::BTreeMap;

use rein_data::{Table, Value};
use serde::{Deserialize, Serialize};

/// A run-length encoded character-class pattern.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ValuePattern(String);

impl ValuePattern {
    /// The pattern's canonical text form, e.g. `"U1L+ D2"`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

fn char_class(c: char) -> char {
    if c.is_ascii_digit() {
        'D'
    } else if c.is_ascii_uppercase() {
        'U'
    } else if c.is_ascii_lowercase() {
        'L'
    } else if c.is_whitespace() {
        '_'
    } else {
        'S' // symbol / punctuation / non-ascii
    }
}

/// Generalised (run-length collapsed) pattern of a string: consecutive
/// characters of one class collapse to `C+` when the run is longer than one.
///
/// Collapsing makes `"Pale Ale"` and `"Stout"` share the shape of "words",
/// matching how FAHES generalises syntactic patterns.
pub fn pattern_of(s: &str) -> ValuePattern {
    let mut out = String::new();
    push_pattern(s, &mut out);
    ValuePattern(out)
}

/// Appends [`pattern_of`]'s text for `s` to `out`, so a pass over many
/// cells can reuse one buffer.
pub fn push_pattern(s: &str, out: &mut String) {
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        let class = char_class(c);
        let mut run = 1usize;
        while chars.peek().map(|&n| char_class(n)) == Some(class) {
            chars.next();
            run += 1;
        }
        out.push(class);
        if run > 1 {
            out.push('+');
        }
    }
}

/// Exact (length-preserving) pattern: each character maps to its class.
pub fn exact_pattern_of(s: &str) -> ValuePattern {
    ValuePattern(s.chars().map(char_class).collect())
}

/// Pattern of a cell value: the pattern of its display text
/// ([`Value::as_key`]), so a string patterns its own text, numbers and
/// booleans their display form, and NULL yields the empty pattern.
pub fn value_pattern(v: &Value) -> ValuePattern {
    pattern_of(&v.as_key())
}

/// The distribution of generalised patterns in a column.
#[derive(Debug, Clone)]
pub struct PatternProfile {
    /// Pattern → frequency, most frequent first.
    pub counts: Vec<(ValuePattern, usize)>,
    /// Number of non-null cells profiled.
    pub total: usize,
}

impl PatternProfile {
    /// Profiles column `col` of a table (nulls excluded).
    pub fn of_column(table: &Table, col: usize) -> Self {
        ColumnPatterns::of_column(table, col).profile
    }

    /// The dominant pattern, if it covers at least `min_support` of cells.
    pub fn dominant(&self, min_support: f64) -> Option<&ValuePattern> {
        let (p, n) = self.counts.first()?;
        if self.total > 0 && *n as f64 / self.total as f64 >= min_support {
            Some(p)
        } else {
            None
        }
    }

    /// Support (relative frequency) of a given pattern in this profile.
    pub fn support(&self, pattern: &ValuePattern) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .find(|(p, _)| p == pattern)
            .map_or(0.0, |(_, n)| *n as f64 / self.total as f64)
    }
}

/// One column's generalised patterns, each non-null cell patterned once:
/// its profile, and which of the profile's patterns each row has. A rule
/// that checks the column at several supports reads this one profile.
#[derive(Debug, Clone)]
pub struct ColumnPatterns {
    /// Per row, the index of its pattern in `profile.counts`; `None` for
    /// a NULL cell.
    cells: Vec<Option<usize>>,
    profile: PatternProfile,
}

impl ColumnPatterns {
    /// Patterns column `col` of a table. Each cell's display text renders
    /// into one reused buffer, and each distinct pattern is copied once,
    /// the first time it is seen.
    pub fn of_column(table: &Table, col: usize) -> Self {
        let mut tally = Tally::default();
        let (mut key, mut pattern) = (String::new(), String::new());
        let mut cells: Vec<Option<usize>> = table
            .column(col)
            .iter()
            .map(|v| {
                if v.is_null() {
                    return None;
                }
                pattern.clear();
                push_pattern(v.key_into(&mut key), &mut pattern);
                Some(tally.add(&pattern))
            })
            .collect();
        let total = cells.iter().flatten().count();
        let mut ranked: Vec<(ValuePattern, usize, usize)> = tally
            .into_texts()
            .map(|(pattern, count, slot)| (ValuePattern(pattern), count, slot))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        // Renumber each row's pattern from its first-seen slot to its rank.
        let mut rank_of = vec![0; ranked.len()];
        for (rank, &(_, _, slot)) in ranked.iter().enumerate() {
            rank_of[slot] = rank;
        }
        for slot in cells.iter_mut().flatten() {
            *slot = rank_of[*slot];
        }
        let counts = ranked.into_iter().map(|(pattern, n, _)| (pattern, n)).collect();
        Self { cells, profile: PatternProfile { counts, total } }
    }

    /// Rows whose pattern deviates from the dominant one (requires the
    /// dominant pattern to have at least `min_support`); empty when no
    /// pattern dominates.
    pub fn outliers(&self, min_support: f64) -> Vec<usize> {
        if self.profile.dominant(min_support).is_none() {
            return Vec::new();
        }
        // The dominant pattern ranks first.
        (0..self.cells.len()).filter(|&r| self.cells[r].is_some_and(|rank| rank != 0)).collect()
    }
}

/// Counts the distinct texts of one pass over a column, such as its
/// patterns or its value keys, copying each text only the first time it
/// is seen.
#[derive(Debug, Default)]
pub struct Tally {
    slots: BTreeMap<String, usize>,
    counts: Vec<usize>,
}

impl Tally {
    /// Counts one occurrence of `text` and returns its slot; slots are
    /// numbered in order of first appearance.
    pub fn add(&mut self, text: &str) -> usize {
        let slot = match self.slots.get(text) {
            Some(&slot) => slot,
            None => {
                let slot = self.counts.len();
                self.slots.insert(text.to_owned(), slot);
                self.counts.push(0);
                slot
            }
        };
        self.counts[slot] += 1;
        slot
    }

    /// How many times the text in `slot` was counted.
    pub fn count(&self, slot: usize) -> usize {
        self.counts[slot]
    }

    /// Each distinct text with its count and slot, in text order.
    pub fn into_texts(self) -> impl Iterator<Item = (String, usize, usize)> {
        let counts = self.counts;
        self.slots.into_iter().map(move |(text, slot)| (text, counts[slot], slot))
    }
}

/// Rows of `col` whose pattern deviates from the dominant one (requires the
/// dominant pattern to have at least `min_support`); empty when no pattern
/// dominates.
pub fn pattern_outliers(table: &Table, col: usize, min_support: f64) -> Vec<usize> {
    ColumnPatterns::of_column(table, col).outliers(min_support)
}

/// Profiling and outlier rules as they were before [`ColumnPatterns`]:
/// every cell patterned from a `Display` clone, twice per outlier query.
/// The shared implementation must reproduce them exactly.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn value_pattern(v: &Value) -> ValuePattern {
        pattern_of(&v.to_string())
    }

    pub(super) fn profile_of_column(table: &Table, col: usize) -> PatternProfile {
        let mut map: BTreeMap<ValuePattern, usize> = BTreeMap::new();
        let mut total = 0usize;
        for v in table.column(col) {
            if v.is_null() {
                continue;
            }
            *map.entry(value_pattern(v)).or_insert(0) += 1;
            total += 1;
        }
        let mut counts: Vec<(ValuePattern, usize)> = map.into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        PatternProfile { counts, total }
    }

    pub(super) fn pattern_outliers(table: &Table, col: usize, min_support: f64) -> Vec<usize> {
        let profile = profile_of_column(table, col);
        let Some(dominant) = profile.dominant(min_support) else {
            return Vec::new();
        };
        let dominant = dominant.clone();
        (0..table.n_rows())
            .filter(|&r| {
                let v = table.cell(r, col);
                !v.is_null() && value_pattern(v) != dominant
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    #[test]
    fn pattern_shapes() {
        assert_eq!(pattern_of("10115").as_str(), "D+");
        assert_eq!(pattern_of("A-12").as_str(), "USD+");
        assert_eq!(pattern_of("Pale Ale").as_str(), "UL+_UL+");
        assert_eq!(pattern_of("").as_str(), "");
        assert_eq!(exact_pattern_of("Ab1 ").as_str(), "ULD_");
    }

    #[test]
    fn value_patterns_for_non_strings() {
        assert_eq!(value_pattern(&Value::Int(123)).as_str(), "D+");
        assert_eq!(value_pattern(&Value::Int(-5)).as_str(), "SD");
        assert_eq!(value_pattern(&Value::Null).as_str(), "");
        assert_eq!(value_pattern(&Value::Bool(true)).as_str(), "L+");
    }

    fn column(vals: Vec<Value>) -> Table {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnType::Str)]);
        Table::from_rows(schema, vals.into_iter().map(|v| vec![v]).collect())
    }

    #[test]
    fn profile_finds_dominant_pattern() {
        let t = column(vec![
            Value::str("12345"),
            Value::str("54321"),
            Value::str("99999"),
            Value::str("abc"),
        ]);
        let p = PatternProfile::of_column(&t, 0);
        assert_eq!(p.total, 4);
        assert_eq!(p.dominant(0.7).unwrap().as_str(), "D+");
        assert!(p.dominant(0.9).is_none());
        assert!((p.support(&pattern_of("11")) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn outliers_deviate_from_dominant() {
        let t = column(vec![
            Value::str("12345"),
            Value::str("54321"),
            Value::str("9999"),
            Value::str("ab-1"),
            Value::Null,
        ]);
        // D+ covers 3/4 non-null values.
        let out = pattern_outliers(&t, 0, 0.6);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn no_dominant_pattern_no_outliers() {
        let t =
            column(vec![Value::str("abc"), Value::str("123"), Value::str("a1"), Value::str("-")]);
        assert!(pattern_outliers(&t, 0, 0.6).is_empty());
    }

    #[test]
    fn empty_column_profile() {
        let t = column(vec![Value::Null, Value::Null]);
        let p = PatternProfile::of_column(&t, 0);
        assert_eq!(p.total, 0);
        assert!(p.dominant(0.5).is_none());
        assert_eq!(p.support(&pattern_of("D")), 0.0);
    }

    /// A cell of a mixed column from a drawn `(kind, x)`: ints, integral,
    /// fractional and huge floats, ±0.0, strings with spaces, non-ASCII
    /// text or digits, booleans, NULLs, and a common two-digit shape so
    /// that some columns have a dominant pattern.
    fn mixed_cell((kind, x): (u8, u64)) -> Value {
        const TEXT: [&str; 12] = [
            "Pale Ale",
            " lead",
            "trail ",
            "a  b",
            "Ä",
            "naïve café",
            "東京",
            "ß-9",
            "12345",
            "A-12",
            "x1",
            "",
        ];
        let i = (x % 1000) as i64 - 500;
        match kind {
            0 => Value::Null,
            1 => Value::Int(i),
            2 => Value::Float(i as f64),
            3 => Value::Float(i as f64 / 7.0),
            4 => Value::Float(if x % 2 == 0 { 0.0 } else { -0.0 }),
            5 => Value::Float(i as f64 * 1e14),
            6 => Value::str(TEXT[(x % 12) as usize]),
            7 => Value::Bool(x % 2 == 0),
            _ => Value::Int((x % 90) as i64 + 10),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Patterning each cell once, from its own text, profiles the
        /// column and flags the same rows at every support as patterning
        /// a `Display` clone of every cell, twice per query.
        #[test]
        fn column_patterns_match_the_reference(
            cells in prop::collection::vec((0u8..12, 0u64..100_000), 0..40)
        ) {
            let t = column(cells.into_iter().map(mixed_cell).collect());
            for v in t.column(0) {
                prop_assert_eq!(value_pattern(v), reference::value_pattern(v));
            }
            let (got, want) = (PatternProfile::of_column(&t, 0), reference::profile_of_column(&t, 0));
            prop_assert_eq!(&got.counts, &want.counts);
            prop_assert_eq!(got.total, want.total);
            let patterns = ColumnPatterns::of_column(&t, 0);
            for support in [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0] {
                prop_assert_eq!(
                    patterns.outliers(support),
                    reference::pattern_outliers(&t, 0, support)
                );
            }
        }
    }
}

/// OpenRefine's key fingerprint: lowercase alphanumeric tokens, sorted and
/// deduplicated. Variant spellings of one entity share a fingerprint.
pub fn fingerprint(s: &str) -> String {
    let mut tokens: Vec<String> = s
        .to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect();
    tokens.sort();
    tokens.dedup();
    tokens.join(" ")
}

#[cfg(test)]
mod fingerprint_tests {
    use super::fingerprint;

    #[test]
    fn fingerprint_normalises() {
        assert_eq!(fingerprint("Pale Ale"), "ale pale");
        assert_eq!(fingerprint("  pale   ALE "), "ale pale");
        assert_eq!(fingerprint("ale-pale"), "ale pale");
        assert_ne!(fingerprint("stout"), fingerprint("porter"));
    }
}
