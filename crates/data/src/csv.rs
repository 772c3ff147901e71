//! Minimal RFC-4180-flavoured CSV codec.
//!
//! The original benchmark stores every data version as CSV in PostgreSQL;
//! our repository does the same on the filesystem. The codec supports
//! quoted fields, embedded separators/quotes/newlines, and a header row.

use std::fmt::Write as _;

use crate::schema::{ColumnMeta, ColumnType, Schema};
use crate::table::Table;
use crate::value::Value;

/// Errors produced by the CSV codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number of the offending record.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A quoted field was never terminated.
    UnterminatedQuote {
        /// 1-based line number where the quote opened.
        line: usize,
    },
    /// A single field exceeded [`MAX_FIELD_LEN`] bytes.
    OverlongField {
        /// 1-based line number where the field started growing.
        line: usize,
        /// Observed length in bytes when the limit tripped.
        len: usize,
    },
    /// The input bytes were not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the first invalid sequence.
        offset: usize,
    },
    /// The input contained no header row.
    Empty,
}

/// Upper bound on a single field's byte length (1 MiB). Fields beyond
/// this are overwhelmingly corrupt input (an unbalanced quote swallowing
/// the rest of a file, a torn write); failing fast keeps memory bounded.
pub const MAX_FIELD_LEN: usize = 1 << 20;

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow { line, found, expected } => {
                write!(f, "line {line}: expected {expected} fields, found {found}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::OverlongField { line, len } => {
                write!(f, "line {line}: field of {len} bytes exceeds {MAX_FIELD_LEN}-byte limit")
            }
            CsvError::InvalidUtf8 { offset } => {
                write!(f, "invalid UTF-8 at byte offset {offset}")
            }
            CsvError::Empty => write!(f, "empty CSV input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Appends a character to a field, rejecting fields past [`MAX_FIELD_LEN`].
fn push_bounded(field: &mut String, ch: char, line: usize) -> Result<(), CsvError> {
    field.push(ch);
    if field.len() > MAX_FIELD_LEN {
        return Err(CsvError::OverlongField { line, len: field.len() });
    }
    Ok(())
}

/// Splits raw CSV text into records of string fields.
fn parse_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_line = 1usize;
    let mut saw_any = false;

    while let Some(ch) = chars.next() {
        saw_any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        push_bounded(&mut field, '"', line)?;
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    push_bounded(&mut field, '\n', line)?;
                }
                c => push_bounded(&mut field, c, line)?,
            }
        } else {
            match ch {
                '"' => {
                    in_quotes = true;
                    quote_line = line;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        continue; // handled by the \n branch
                    }
                }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c => push_bounded(&mut field, c, line)?,
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: quote_line });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !saw_any || records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// Parses CSV text (header row required) into a table, inferring each
/// column's type from the parsed values via [`Table::observed_type`].
pub fn read_str(input: &str) -> Result<Table, CsvError> {
    let records = parse_records(input)?;
    let header = &records[0];
    let width = header.len();

    let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(records.len() - 1); width];
    for (i, rec) in records.iter().enumerate().skip(1) {
        if rec.len() != width {
            return Err(CsvError::RaggedRow { line: i + 1, found: rec.len(), expected: width });
        }
        for (c, raw) in rec.iter().enumerate() {
            columns[c].push(Value::parse(raw));
        }
    }

    // Provisional schema; retype from observed values.
    let metas: Vec<ColumnMeta> =
        header.iter().map(|name| ColumnMeta::new(name.clone(), ColumnType::Str)).collect();
    let table = Table::from_columns(Schema::new(metas), columns);
    let mut schema = table.schema().clone();
    for c in 0..table.n_cols() {
        schema = schema.with_type(c, table.observed_type(c));
    }
    Ok(Table::from_columns(schema, (0..table.n_cols()).map(|c| table.column(c).to_vec()).collect()))
}

/// Parses raw bytes as UTF-8 CSV. Invalid byte sequences are a typed
/// [`CsvError::InvalidUtf8`] carrying the offset of the first bad byte,
/// so on-disk corruption surfaces as a recoverable error, not a panic.
pub fn read_bytes(bytes: &[u8]) -> Result<Table, CsvError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CsvError::InvalidUtf8 { offset: e.valid_up_to() })?;
    read_str(text)
}

/// Quotes a field if it contains separators, quotes or newlines.
fn escape(field: &str, out: &mut String) {
    if field.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialises a table to CSV text with a header row.
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    for (i, col) in table.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape(&col.name, &mut out);
    }
    out.push('\n');
    for r in 0..table.n_rows() {
        for c in 0..table.n_cols() {
            if c > 0 {
                out.push(',');
            }
            let cell = table.cell(r, c);
            match cell {
                Value::Null => {}
                Value::Str(s) => escape(s, &mut out),
                other => {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "writing to a String never fails"
                    )]
                    let _ = write!(out, "{other}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Reads a table from a CSV file on disk.
#[expect(
    clippy::disallowed_methods,
    reason = "the CSV loader: a table read from disk enters the grid as a dataset, which its content identity keys"
)]
pub fn read_file(path: &std::path::Path) -> std::io::Result<Table> {
    let bytes = std::fs::read(path)?;
    read_bytes(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes a table to a CSV file on disk.
#[expect(clippy::disallowed_methods, reason = "a user-requested CSV export, not a store artifact")]
pub fn write_file(path: &std::path::Path, table: &Table) -> std::io::Result<()> {
    std::fs::write(path, write_str(table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse_with_types() {
        let t = read_str("id,abv,name\n1,5.2,Pale Ale\n2,6.0,IPA\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.schema().column(0).ctype, ColumnType::Int);
        assert_eq!(t.schema().column(1).ctype, ColumnType::Float);
        assert_eq!(t.schema().column(2).ctype, ColumnType::Str);
        assert_eq!(t.cell(0, 2), &Value::str("Pale Ale"));
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let t = read_str("a,b\n\"x,y\",\"line1\nline2\"\n").unwrap();
        assert_eq!(t.cell(0, 0), &Value::str("x,y"));
        assert_eq!(t.cell(0, 1), &Value::str("line1\nline2"));
    }

    #[test]
    fn escaped_quotes() {
        let t = read_str("a\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.cell(0, 0), &Value::str("say \"hi\""));
    }

    #[test]
    fn empty_fields_are_null() {
        let t = read_str("a,b\n,2\n").unwrap();
        assert!(t.cell(0, 0).is_null());
        assert_eq!(t.cell(0, 1), &Value::Int(2));
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.cell(0, 1), &Value::Int(2));
    }

    #[test]
    fn ragged_row_is_error() {
        let err = read_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { line: 2, found: 1, expected: 2 }));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = read_str("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(read_str("").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = "id,name,score\n1,\"a,b\",2.5\n2,,3.0\n3,\"q\"\"q\",\n";
        let t = read_str(src).unwrap();
        let t2 = read_str(&write_str(&t)).unwrap();
        assert_eq!(t.n_rows(), t2.n_rows());
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                assert_eq!(t.cell(r, c), t2.cell(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn overlong_field_is_error() {
        let input = format!("a\n{}\n", "x".repeat(MAX_FIELD_LEN + 1));
        let err = read_str(&input).unwrap_err();
        assert!(
            matches!(err, CsvError::OverlongField { line: 2, len } if len > MAX_FIELD_LEN),
            "got {err:?}"
        );
    }

    #[test]
    fn overlong_quoted_runaway_is_error() {
        // An unbalanced quote swallows the rest of the input into one
        // field; the limit must trip before the parser reaches the end.
        let input = format!("a\n\"{}\n", "y".repeat(MAX_FIELD_LEN + 8));
        let err = read_str(&input).unwrap_err();
        assert!(matches!(err, CsvError::OverlongField { .. }), "got {err:?}");
    }

    #[test]
    fn invalid_utf8_is_error() {
        let err = read_bytes(b"a,b\n1,\xff\xfe\n").unwrap_err();
        assert_eq!(err, CsvError::InvalidUtf8 { offset: 6 });
    }

    #[test]
    fn read_bytes_accepts_valid_utf8() {
        let t = read_bytes("a,b\n1,caf\u{e9}\n".as_bytes()).unwrap();
        assert_eq!(t.cell(0, 1), &Value::str("caf\u{e9}"));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let t = read_str("a\n1").unwrap();
        assert_eq!(t.n_rows(), 1);
    }
}
