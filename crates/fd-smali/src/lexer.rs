//! Line tokenizer for the textual smali-like syntax.
//!
//! The grammar is line-oriented: every directive or statement occupies one
//! line, and a line is a sequence of tokens:
//!
//! * **words** — directives (`.class`), keywords (`txn-add`), descriptors
//!   (`Lcom/foo/Bar;`), method names;
//! * **strings** — double-quoted with `\\`, `\"`, `\n`, `\t`, `\r` and
//!   `\u{XXXX}` escapes;
//! * **resource refs** — `@id/name`, `@layout/main`, ….
//!
//! Comments start with `#` and run to end of line.
//!
//! Tokens borrow from the input line wherever they can: words and
//! resource names are slices, and string literals only allocate when
//! they actually contain an escape ([`std::borrow::Cow`]). This keeps the
//! decode hot path free of per-token allocations (`tests` pin the
//! borrowed/owned split); the parser interns what it keeps.

use crate::error::ParseError;
use crate::res::{ResKind, ResRef};
use std::borrow::Cow;
use std::fmt::Write as _;

/// One token of a line, borrowing from the line where possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// A bare word (directive, keyword, descriptor, name).
    Word(&'a str),
    /// A quoted string literal, unescaped. Borrowed when the literal
    /// contains no escape sequences, owned otherwise.
    Str(Cow<'a, str>),
    /// A resource reference: its namespace and its name, borrowed.
    Res(ResKind, &'a str),
}

impl<'a> Token<'a> {
    /// The word contents, if this is a [`Token::Word`].
    pub fn as_word(&self) -> Option<&'a str> {
        match self {
            Token::Word(w) => Some(w),
            _ => None,
        }
    }
}

/// Escapes a string for emission as a quoted literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Advances past one char starting at byte `pos`, returning `(char, next
/// byte offset)`. `pos` must sit on a char boundary (the scanners below
/// only stop on ASCII or boundaries).
fn char_at(line: &str, pos: usize) -> (char, usize) {
    let c = line[pos..].chars().next().expect("caller checked pos < len");
    (c, pos + c.len_utf8())
}

/// Tokenizes one line. `line_no` is used for error reporting (1-based).
/// A `#` outside a string starts a comment.
pub fn tokenize(line: &str, line_no: usize) -> Result<Vec<Token<'_>>, ParseError> {
    let mut tokens = Vec::new();
    tokenize_into(line, line_no, &mut tokens)?;
    Ok(tokens)
}

/// [`tokenize`] into a caller-supplied buffer, so a line-oriented parser
/// can reuse one allocation across the whole file. Appends to `tokens`
/// without clearing it. A `\n` ends the line.
pub fn tokenize_into<'a>(
    line: &'a str,
    line_no: usize,
    tokens: &mut Vec<Token<'a>>,
) -> Result<(), ParseError> {
    tokenize_line(line, 0, line_no, tokens).map(drop)
}

/// Tokenizes the line of `text` that starts at byte `start` into
/// `tokens`, and returns where the next line starts (`text.len()` after
/// the last). Lines split as [`str::lines`] splits them: at `\n`, less a
/// `\r` before it.
pub fn tokenize_line<'a>(
    text: &'a str,
    start: usize,
    line_no: usize,
    tokens: &mut Vec<Token<'a>>,
) -> Result<usize, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = start;

    while pos < bytes.len() {
        // Skip whitespace (ASCII fast path, Unicode fallback).
        let b = bytes[pos];
        if b == b'\n' {
            return Ok(pos + 1);
        }
        if b.is_ascii_whitespace() {
            pos += 1;
            continue;
        }
        if b >= 0x80 {
            let (c, next) = char_at(text, pos);
            if c.is_whitespace() {
                pos = next;
                continue;
            }
        }

        if b == b'#' || b == b'"' {
            // A comment or a literal runs to the line's end.
            let (end, next_line) = line_end(bytes, pos);
            if b == b'#' {
                return Ok(next_line);
            }
            let (s, next) = scan_string(&text[..end], pos, line_no)?;
            tokens.push(Token::Str(s));
            pos = next;
            continue;
        }

        // Bare word or resource ref: a slice up to the next whitespace.
        let start = pos;
        while pos < bytes.len() {
            let b = bytes[pos];
            if b.is_ascii() {
                if b.is_ascii_whitespace() {
                    break;
                }
                pos += 1;
            } else {
                let (c, next) = char_at(text, pos);
                if c.is_whitespace() {
                    break;
                }
                pos = next;
            }
        }
        let word = &text[start..pos];
        if let Some(stripped) = word.strip_prefix('@') {
            let (kind, name) = ResRef::split(word).ok_or_else(|| {
                ParseError::new(line_no, format!("malformed resource ref '@{stripped}'"))
            })?;
            tokens.push(Token::Res(kind, name));
        } else {
            tokens.push(Token::Word(word));
        }
    }
    Ok(pos)
}

/// The end of the line holding byte `from` (before its `\n`, and before
/// a `\r` that precedes it), and where the next line starts.
fn line_end(bytes: &[u8], from: usize) -> (usize, usize) {
    match bytes[from..].iter().position(|&b| b == b'\n') {
        Some(offset) => {
            let newline = from + offset;
            let end = if bytes[newline - 1] == b'\r' { newline - 1 } else { newline };
            (end, newline + 1)
        }
        None => (bytes.len(), bytes.len()),
    }
}

/// Scans a string literal whose opening quote sits at byte `open`.
/// Returns the contents and the byte offset just past the closing quote.
/// Escape-free literals (the overwhelmingly common case) borrow.
fn scan_string(
    line: &str,
    open: usize,
    line_no: usize,
) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = line.as_bytes();
    let mut pos = open + 1;
    while pos < bytes.len() {
        match bytes[pos] {
            b'"' => return Ok((Cow::Borrowed(&line[open + 1..pos]), pos + 1)),
            b'\\' => return scan_string_escaped(line, open + 1, pos, line_no),
            _ => pos += 1,
        }
    }
    Err(ParseError::new(line_no, "unterminated string literal"))
}

/// Slow path: the literal starting at `start` has its first `\` at
/// `backslash`. Copies the clean prefix and unescapes the rest.
fn scan_string_escaped(
    line: &str,
    start: usize,
    backslash: usize,
    line_no: usize,
) -> Result<(Cow<'_, str>, usize), ParseError> {
    let mut s = String::with_capacity(line.len() - start);
    s.push_str(&line[start..backslash]);
    let mut chars = line[backslash..].char_indices();
    loop {
        match chars.next() {
            None => return Err(ParseError::new(line_no, "unterminated string literal")),
            Some((at, '"')) => return Ok((Cow::Owned(s), backslash + at + 1)),
            Some((_, '\\')) => match chars.next().map(|(_, c)| c) {
                Some('\\') => s.push('\\'),
                Some('"') => s.push('"'),
                Some('n') => s.push('\n'),
                Some('t') => s.push('\t'),
                Some('r') => s.push('\r'),
                Some('u') => {
                    if chars.next().map(|(_, c)| c) != Some('{') {
                        return Err(ParseError::new(line_no, "expected '{' after \\u"));
                    }
                    let mut hex = String::new();
                    loop {
                        match chars.next().map(|(_, c)| c) {
                            Some('}') => break,
                            Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                            _ => return Err(ParseError::new(line_no, "malformed \\u{..} escape")),
                        }
                    }
                    let cp = u32::from_str_radix(&hex, 16)
                        .map_err(|_| ParseError::new(line_no, "malformed \\u{..} escape"))?;
                    let c = char::from_u32(cp)
                        .ok_or_else(|| ParseError::new(line_no, "invalid code point in \\u{..}"))?;
                    s.push(c);
                }
                Some(other) => {
                    return Err(ParseError::new(line_no, format!("unknown escape '\\{other}'")))
                }
                None => return Err(ParseError::new(line_no, "unterminated string literal")),
            },
            Some((_, c)) => s.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_words_strings_and_refs() {
        let toks = tokenize(r#"txn-add @id/container Lcom/a/F; "hello world""#, 1).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Word("txn-add"),
                Token::Res(ResKind::Id, "container"),
                Token::Word("Lcom/a/F;"),
                Token::Str("hello world".into()),
            ]
        );
    }

    #[test]
    fn the_line_cursor_splits_as_str_lines_does() {
        // CRLF endings, a `\r` kept inside a literal, literals and
        // comments cut by the line end, blank lines, a last line without
        // `\n`, and Unicode whitespace that separates but never ends a
        // line.
        let texts = [
            "a b\nc\r\nd",
            "show-dialog \"x\r\n\"y\"\n",
            "show-dialog \"a\\\r\nb",
            "show-dialog \"a\rb\"\r\n",
            "# c\r\nx # d\n\n\nlast",
            "x\r",
            "\"q\r",
            "a\u{2028}b\u{85}c\nd",
            "",
            "\n",
        ];
        for text in texts {
            let by_lines: Vec<_> = text
                .lines()
                .enumerate()
                .map(|(i, line)| {
                    let mut tokens = Vec::new();
                    tokenize_into(line, i + 1, &mut tokens).map(|()| tokens)
                })
                .collect();
            let mut by_cursor = Vec::new();
            let (mut pos, mut line_no) = (0, 0);
            while pos < text.len() {
                line_no += 1;
                let mut tokens = Vec::new();
                match tokenize_line(text, pos, line_no, &mut tokens) {
                    Ok(next) => {
                        by_cursor.push(Ok(tokens));
                        pos = next;
                    }
                    Err(e) => {
                        by_cursor.push(Err(e));
                        pos = text[pos..].find('\n').map_or(text.len(), |i| pos + i + 1);
                    }
                }
            }
            assert_eq!(by_cursor, by_lines, "{text:?}");
        }
    }

    #[test]
    fn comment_terminates_line() {
        let toks = tokenize("finish # pops the activity", 1).unwrap();
        assert_eq!(toks, vec![Token::Word("finish")]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        for original in ["", "plain", "a\"b", "back\\slash", "tab\there", "nl\nline", "\u{1}"] {
            let escaped = escape(original);
            let toks = tokenize(&escaped, 1).unwrap();
            assert_eq!(toks, vec![Token::Str(original.into())], "escaped form {escaped}");
        }
    }

    #[test]
    fn escape_free_strings_borrow_and_escaped_ones_allocate() {
        let line = r#"show-dialog "plain contents""#;
        match &tokenize(line, 1).unwrap()[1] {
            Token::Str(Cow::Borrowed(s)) => assert_eq!(*s, "plain contents"),
            other => panic!("expected borrowed literal, got {other:?}"),
        }
        match &tokenize(r#"show-dialog "a\nb""#, 1).unwrap()[1] {
            Token::Str(Cow::Owned(s)) => assert_eq!(s, "a\nb"),
            other => panic!("expected owned literal, got {other:?}"),
        }
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let toks = tokenize(r#"show-dialog "has # inside""#, 1).unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Str("has # inside".into()));
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        let toks = tokenize("finish\u{a0}finish", 1).unwrap();
        assert_eq!(toks, vec![Token::Word("finish"), Token::Word("finish")]);
    }

    #[test]
    fn errors_carry_line_number() {
        let err = tokenize("\"unterminated", 42).unwrap_err();
        assert_eq!(err.line, 42);
        let err = tokenize("\"escaped but unterminated\\n", 7).unwrap_err();
        assert_eq!(err.line, 7);
    }

    #[test]
    fn malformed_resource_ref_is_error() {
        assert!(tokenize("@bogus/x", 1).is_err());
        assert!(tokenize("@id", 1).is_err());
    }

    #[test]
    fn unknown_escape_is_error() {
        assert!(tokenize(r#""\q""#, 1).is_err());
    }
}
