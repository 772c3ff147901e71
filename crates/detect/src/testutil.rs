//! Mixed tables for the reference tests of the per-column kernels.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};

/// Text cells: spaces, non-ASCII, digits, symbols and the empty string.
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

/// Any cell: NULL, an int, an integral, fractional, huge or signed-zero
/// float, a numeric-looking or other string, or a boolean.
fn any_cell(rng: &mut StdRng) -> Value {
    let i = rng.random_range(-500..500i64);
    match rng.random_range(0..9u8) {
        0 => Value::Null,
        1 => Value::Int(i),
        2 => Value::Float(i as f64),
        3 => Value::Float(i as f64 / 7.0),
        4 => Value::Float(if rng.random_range(0..2u8) == 0 { 0.0 } else { -0.0 }),
        5 => Value::Float(i as f64 * 1e14),
        6 => Value::str(format!("{}", i as f64 / 4.0)),
        7 => Value::str(TEXT[rng.random_range(0..TEXT.len())]),
        _ => Value::Bool(rng.random_range(0..2u8) == 0),
    }
}

/// A random table of up to 60 rows and 1–4 columns. Each column has a
/// bulk shape (continuous with planted outliers, two modes, constant,
/// few small ints, or anything) and a random share of [`any_cell`]s.
pub(crate) fn mixed_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, d) = (rng.random_range(0..60usize), rng.random_range(1..5usize));
    let shapes: Vec<(u8, f64)> =
        (0..d).map(|_| (rng.random_range(0..5u8), rng.random_range(0.0..0.5))).collect();
    let rows = (0..n)
        .map(|_| {
            shapes
                .iter()
                .map(|&(shape, noise)| {
                    if rng.random_range(0.0..1.0) < noise {
                        return any_cell(&mut rng);
                    }
                    let x: f64 = rng.random_range(-1.0..1.0);
                    match shape {
                        0 if rng.random_range(0..20u8) == 0 => Value::Float(x * 1e3),
                        0 => Value::Float(10.0 + x),
                        1 => Value::Float(if x < 0.0 { x } else { 50.0 + x }),
                        2 => Value::Float(4.5),
                        3 => Value::Int(rng.random_range(0..4i64)),
                        _ => any_cell(&mut rng),
                    }
                })
                .collect()
        })
        .collect();
    let schema =
        Schema::new((0..d).map(|c| ColumnMeta::new(format!("c{c}"), ColumnType::Float)).collect());
    Table::from_rows(schema, rows)
}
