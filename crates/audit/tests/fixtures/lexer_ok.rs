//! Fixture: annotation syntax inside strings and prose must not fire.
//! A doc mention of `audit:allow-file(seed-provenance)` is not an annotation.
pub fn describe() -> &'static str {
    // Quoting `audit:allow-file(split-leakage)` in a comment is prose.
    "// audit:allow-file(seed-provenance)"
}
