//! A comment- and string-aware lexer for Rust sources.
//!
//! Several audit rules match tokens (`RefCell`, `Relaxed`, `static
//! mut`), and a naive `contains` would fire on occurrences inside string
//! literals (`"RefCell"`), doc comments and `//` prose. This lexer splits every source line into its *code* part
//! (string/char literal contents blanked, comments removed) and its
//! *comment* part (where `audit:allow` annotations live). It understands
//! line comments, nested block comments, string/byte-string literals with
//! escapes, raw strings with arbitrary `#` fences, character literals and
//! lifetimes.

/// One physical source line, split into code and comment text.
#[derive(Debug, Default, Clone)]
pub struct SourceLine {
    /// Code with literal contents blanked and comments stripped. Quotes of
    /// string literals are kept (as `""`) so tokens cannot fuse across a
    /// removed literal.
    pub code: String,
    /// Concatenated comment text of the line (line comments and the part
    /// of any block comment that falls on this line).
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    /// Nested block comments; payload is the nesting depth.
    BlockComment(u32),
    /// Inside `"…"` or `b"…"` (escapes active).
    Str,
    /// Inside `r"…"`/`r#"…"#`/`br##"…"##`; payload is the fence size.
    RawStr(u32),
}

/// Splits `source` into per-line code/comment parts.
pub fn lex(source: &str) -> Vec<SourceLine> {
    let cs: Vec<char> = source.chars().collect();
    let n = cs.len();
    let mut lines: Vec<SourceLine> = Vec::new();
    let mut cur = SourceLine::default();
    let mut st = State::Normal;
    let mut i = 0usize;

    while i < n {
        let c = cs[i];
        if c == '\n' {
            if st == State::LineComment {
                st = State::Normal;
            }
            // A string spanning the line break is closed and reopened
            // around it: every SourceLine keeps balanced quotes (the
            // tokenizer's invariant) without collapsing physical lines.
            let in_str = matches!(st, State::Str | State::RawStr(_));
            if in_str {
                cur.code.push('"');
            }
            lines.push(std::mem::take(&mut cur));
            if in_str {
                cur.code.push('"');
            }
            i += 1;
            continue;
        }
        match st {
            State::Normal => {
                // Comments.
                if c == '/' && i + 1 < n && cs[i + 1] == '/' {
                    st = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && i + 1 < n && cs[i + 1] == '*' {
                    st = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw / byte string prefixes: r" r#" b" br" br#" — only
                // when the prefix letter is not part of a longer ident.
                if (c == 'r' || c == 'b') && !prev_is_ident(&cs, i) {
                    let mut j = i;
                    if cs[j] == 'b' {
                        j += 1;
                        if j < n && cs[j] == 'r' {
                            j += 1;
                        }
                    } else {
                        j += 1;
                    }
                    let raw = j > i + 1 || cs[i] == 'r';
                    let mut hashes = 0u32;
                    let mut k = j;
                    while k < n && cs[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && cs[k] == '"' && (raw || hashes == 0) {
                        cur.code.push('"');
                        st = if raw { State::RawStr(hashes) } else { State::Str };
                        i = k + 1;
                        continue;
                    }
                }
                if c == '"' {
                    cur.code.push('"');
                    st = State::Str;
                    i += 1;
                    continue;
                }
                // Char literal vs lifetime.
                if c == '\'' {
                    if i + 1 < n && cs[i + 1] == '\\' {
                        // Escaped char literal: find the terminating quote,
                        // skipping an escaped '\'' / '\\' payload.
                        let start = if i + 2 < n && (cs[i + 2] == '\'' || cs[i + 2] == '\\') {
                            i + 3
                        } else {
                            i + 2
                        };
                        let mut j = start;
                        while j < n && cs[j] != '\'' && cs[j] != '\n' {
                            j += 1;
                        }
                        cur.code.push_str("' '");
                        i = (j + 1).min(n);
                        continue;
                    }
                    if i + 2 < n && cs[i + 2] == '\'' {
                        cur.code.push_str("' '");
                        i += 3;
                        continue;
                    }
                    // Lifetime: keep the tick, continue normally.
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && i + 1 < n && cs[i + 1] == '*' {
                    st = State::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && i + 1 < n && cs[i + 1] == '/' {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        cur.comment.push_str("*/");
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped char (incl. \" and \\) — but a
                    // line-continuation `\` before the newline must leave
                    // the newline for the top of the loop, or every
                    // continuation line shifts all later line numbers.
                    if i + 1 < n && cs[i + 1] == '\n' {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    st = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut k = i + 1;
                    let mut seen = 0u32;
                    while k < n && cs[k] == '#' && seen < hashes {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        st = State::Normal;
                        i = k;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() || st != State::Normal {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(cs: &[char], i: usize) -> bool {
    i > 0 && (cs[i - 1].is_alphanumeric() || cs[i - 1] == '_')
}

/// Returns `true` when `code` contains `token` outside a longer
/// identifier. Boundary checks only apply on the sides of the token that
/// start/end with an identifier character, so tokens like `.unwrap()` or
/// `Instant::now` work naturally.
pub fn has_token(code: &str, token: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let head_ident = token.chars().next().is_some_and(is_ident);
    let tail_ident = token.chars().next_back().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let ok_before = !head_ident || !code[..at].chars().next_back().is_some_and(is_ident);
        let ok_after =
            !tail_ident || !code[at + token.len()..].chars().next().is_some_and(is_ident);
        if ok_before && ok_after {
            return true;
        }
        from = at + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let ls = lex("let a = 1; // HashMap here\nlet /* HashMap */ b = 2;\n");
        assert!(!ls[0].code.contains("HashMap"));
        assert!(ls[0].comment.contains("HashMap"));
        assert!(!ls[1].code.contains("HashMap"));
        assert!(ls[1].code.contains("b = 2"));
    }

    #[test]
    fn nested_block_comments() {
        let ls = lex("a /* outer /* inner */ still */ b\n");
        assert!(ls[0].code.contains('a') && ls[0].code.contains('b'));
        assert!(!ls[0].code.contains("still"));
    }

    #[test]
    fn blanks_string_contents_and_keeps_quotes() {
        let ls = lex("call(\"HashMap // not a comment\");\n");
        assert_eq!(ls[0].code, "call(\"\");");
        assert!(ls[0].comment.is_empty());
    }

    #[test]
    fn raw_strings_with_fences() {
        let ls = lex("let p = r#\"thread_rng \" inner\"#; next()\n");
        assert!(!ls[0].code.contains("thread_rng"));
        assert!(ls[0].code.contains("next()"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let ls = lex("f(b\"panic!(\"); g(br#\"unwrap()\"#);\n");
        assert!(!ls[0].code.contains("panic!"));
        assert!(!ls[0].code.contains("unwrap"));
        assert!(ls[0].code.contains("f(") && ls[0].code.contains("g("));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let ls = lex("let c = '\"'; let d: &'static str = \"x\"; let e = '\\'';\n");
        assert!(ls[0].code.contains("'static"));
        // The double-quote char literal must not open a string.
        assert!(ls[0].code.contains("let d"));
        assert!(ls[0].code.contains("let e"));
    }

    #[test]
    fn escaped_quotes_inside_strings() {
        let ls = lex("x(\"a \\\" HashMap \\\\\"); y()\n");
        assert!(!ls[0].code.contains("HashMap"));
        assert!(ls[0].code.contains("y()"));
    }

    #[test]
    fn multi_line_block_comment_spans_lines() {
        let ls = lex("a\n/* one\ntwo */ b\n");
        assert_eq!(ls.len(), 3);
        assert!(ls[1].comment.contains("one"));
        assert!(ls[2].code.contains('b'));
        assert!(ls[2].comment.contains("two"));
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("FxHashMap::new()", "HashMap"));
        assert!(!has_token("let my_phase = 1;", "phase"));
        assert!(has_token("x.unwrap();", ".unwrap()"));
        assert!(has_token("Instant::now()", "Instant::now"));
        assert!(!has_token("rephase(c)", "phase"));
    }

    #[test]
    fn identifier_ending_in_r_before_string() {
        // `writer` ends in `r` but the `r` is part of the identifier, not
        // a raw-string prefix.
        let ls = lex("writer\"HashMap\";\n");
        assert!(!ls[0].code.contains("HashMap"));
        assert!(ls[0].code.contains("writer"));
    }

    /// A `\` line-continuation inside a string must not swallow the
    /// newline: every physical line keeps its own SourceLine, or every
    /// annotation and finding after the string reports a shifted line.
    #[test]
    fn string_continuation_preserves_line_count() {
        let ls =
            lex("let s = \"one \\\n    two\";\nlet x = 1; // audit:allow(split-leakage, why)\n");
        assert_eq!(ls.len(), 3);
        assert!(ls[2].comment.contains("audit:allow"), "comment stays on physical line 3");
    }

    /// Strings spanning a line break close and reopen their quotes at
    /// the break, so each SourceLine has balanced quotes (the
    /// tokenizer's invariant) and code after the closing quote is kept.
    #[test]
    fn multi_line_string_keeps_per_line_quotes_balanced() {
        for src in ["let s = \"one \\\n  two\"; after();\n", "let s = \"one\n  two\"; after();\n"] {
            let ls = lex(src);
            assert_eq!(ls.len(), 2, "{src:?}");
            for l in &ls {
                assert_eq!(l.code.matches('"').count() % 2, 0, "{src:?} -> {:?}", l.code);
            }
            assert!(ls[1].code.contains("after"), "{src:?}");
            assert!(!ls[1].code.contains("two"), "string content stays blanked: {src:?}");
        }
    }
}
