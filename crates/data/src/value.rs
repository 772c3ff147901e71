//! Cell values.
//!
//! A [`Value`] is the content of one table cell. Dirty data routinely holds
//! values that do not match the declared column type (a typo turns `12.5`
//! into `12.t`), so every cell stores a dynamically typed value regardless of
//! its column's [`crate::schema::ColumnType`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// Dynamically typed cell content.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Explicit missing value (SQL NULL / empty CSV field / NaN).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalised to [`Value::Null`] on construction
    /// via [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Builds a float value, normalising non-finite payloads to `Null`.
    ///
    /// NaN cells are how Pandas (the paper's substrate) represents missing
    /// numeric data, so we fold them into `Null` at the boundary.
    pub fn float(x: f64) -> Self {
        if x.is_nan() {
            Value::Null
        } else {
            Value::Float(x)
        }
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value: ints and floats convert directly, bools map
    /// to 0/1 and numeric-looking strings are parsed. Returns `None` for
    /// nulls and non-numeric strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse::<f64>().ok().filter(|f| f.is_finite()),
        }
    }

    /// Integer view (strict: floats only convert when integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Str(s) => s.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Canonical string view used for categorical comparisons and hashing.
    ///
    /// Numbers render through [`fmt::Display`] so `Int(3)` and `Str("3")`
    /// produce the same key.
    pub fn as_key(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Str(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// [`Value::as_key`]'s text without allocating: a string lends its
    /// own text and any other value renders into `buf`, so a pass over a
    /// column reuses one buffer.
    pub fn key_into<'a>(&'a self, buf: &'a mut String) -> &'a str {
        use std::fmt::Write as _;
        match self {
            Value::Str(s) => s,
            other => {
                buf.clear();
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "writing to a String never fails"
                )]
                let _ = write!(buf, "{other}");
                buf
            }
        }
    }

    /// Parses a raw text field into the most specific value.
    ///
    /// Empty strings and a small set of NULL spellings become `Null`; then
    /// integer, float and boolean parses are attempted in order; anything
    /// else stays a string. This mirrors the loose typing of the CSV inputs
    /// the original benchmark consumes.
    pub fn parse(raw: &str) -> Self {
        let t = raw.trim();
        if t.is_empty() || matches!(t, "NULL" | "null" | "NaN" | "nan" | "NA" | "N/A" | "None") {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::float(f);
        }
        match t {
            "true" | "True" | "TRUE" => Value::Bool(true),
            "false" | "False" | "FALSE" => Value::Bool(false),
            _ => Value::Str(t.to_string()),
        }
    }

    /// Structural equality with a relative/absolute tolerance on numerics.
    ///
    /// Used when diffing a repaired table against the ground truth: repairs
    /// produced by regression imputers are counted correct when within
    /// `tol` of the true value.
    pub fn approx_eq(&self, other: &Value, tol: f64) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= tol * scale
            }
            _ => self == other,
        }
    }

    /// A total order over values: Null < Bool < numeric < Str.
    ///
    /// Numeric values (Int/Float) compare by magnitude across the two
    /// variants, giving masks and group-bys a deterministic order.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// `Ord` delegates to [`Value::total_cmp`], making `Value` usable as a
/// `BTreeMap`/`BTreeSet` key — the workspace's determinism rules forbid
/// hash-ordered containers in result-producing code. Consistent with
/// `Eq`: cross-variant numeric equality (`Int(3) == Float(3.0)`) compares
/// `Equal` through the same f64 view.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64).to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash through the same f64-bits representation so
            // that `Int(3) == Float(3.0)` implies equal hashes.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_normalises_to_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert_eq!(Value::float(1.5), Value::Float(1.5));
    }

    #[test]
    fn parse_covers_all_variants() {
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("NaN"), Value::Null);
        assert_eq!(Value::parse("N/A"), Value::Null);
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("3.25"), Value::Float(3.25));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("FALSE"), Value::Bool(false));
        assert_eq!(Value::parse("ale"), Value::str("ale"));
        assert_eq!(Value::parse("  padded  "), Value::str("padded"));
    }

    #[test]
    fn int_float_cross_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::str("2.5").as_f64(), Some(2.5));
        assert_eq!(Value::str("abc").as_f64(), None);
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn as_i64_strictness() {
        assert_eq!(Value::Float(4.0).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
        assert_eq!(Value::str("11").as_i64(), Some(11));
    }

    #[test]
    fn approx_eq_uses_relative_tolerance() {
        assert!(Value::Float(100.0).approx_eq(&Value::Float(100.4), 0.005));
        assert!(!Value::Float(100.0).approx_eq(&Value::Float(102.0), 0.005));
        assert!(Value::str("x").approx_eq(&Value::str("x"), 0.0));
        assert!(!Value::str("x").approx_eq(&Value::str("y"), 0.5));
    }

    #[test]
    fn total_cmp_orders_across_variants() {
        let mut vs = vec![
            Value::str("z"),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(false),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Float(2.5),
                Value::Int(5),
                Value::str("z"),
            ]
        );
    }

    #[test]
    fn display_roundtrips_through_parse_for_simple_values() {
        for v in [Value::Int(17), Value::str("hello"), Value::Bool(true)] {
            assert_eq!(Value::parse(&v.to_string()), v);
        }
        // Null displays as empty which parses back to Null.
        assert_eq!(Value::parse(&Value::Null.to_string()), Value::Null);
    }

    #[test]
    fn as_key_unifies_numeric_spellings() {
        assert_eq!(Value::Int(3).as_key(), Value::Int(3).to_string());
        assert_eq!(Value::str("ipa").as_key(), "ipa");
        assert_eq!(Value::Null.as_key(), "");
    }

    #[test]
    fn key_into_is_the_key_and_the_display_text() {
        let mut buf = String::from("stale");
        for v in [
            Value::Null,
            Value::Int(-7),
            Value::Float(3.0),
            Value::Float(-0.0),
            Value::Float(2.5e-7),
            Value::Float(1e16),
            Value::str(" Ä b "),
            Value::str(""),
            Value::Bool(false),
        ] {
            let key = v.key_into(&mut buf).to_string();
            assert_eq!(key, v.as_key(), "{v:?}");
            assert_eq!(key, v.to_string(), "{v:?}");
        }
    }
}
