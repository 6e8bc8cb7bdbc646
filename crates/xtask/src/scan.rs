//! A minimal Rust source lexer for the determinism lint.
//!
//! The workspace builds with no registry access, so this is a
//! hand-rolled scan instead of a `syn` parse: it splits a source file
//! into per-line *code* and *comment* channels, blanking out string and
//! character literals along the way. That is exactly the fidelity the
//! lint rules need — patterns inside strings or comments must not fire,
//! and allowlist markers live in comments — without pulling in a parser.
//!
//! Handled: line comments, nested block comments, string literals,
//! raw strings (`r"…"`, `r#"…"#`, any hash depth), byte strings, char
//! literals (including `'\''` escapes) vs. lifetimes (`'a`), and
//! doc-comment forms of all of the above.
//!
//! On top of the channels sit the few structural helpers the
//! `deliver-choke` and `fork-stream` rules need: the non-test code of a
//! file as one string ([`Code`]), word search ([`find_words`]) and a
//! shallow `fn` parser ([`parse_fns`], [`enclosing_fn`]).

use crate::source::skip_balanced;
use std::ops::Range;

/// One physical source line, split into channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line's code with comments removed and every string/char
    /// literal's contents replaced by spaces (delimiters kept).
    pub code: String,
    /// The concatenated text of comments on this line.
    pub comment: String,
}

/// Lexer state carried across lines.
enum Mode {
    Code,
    /// Inside `/* … */`, with nesting depth.
    Block(u32),
    /// Inside a regular `"…"` string.
    Str,
    /// Inside a raw string with the given `#` count.
    RawStr(u32),
}

/// Splits `source` into per-line code/comment channels.
pub fn split_channels(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for (i, raw) in source.lines().enumerate() {
        let mut line = Line { number: i + 1, ..Line::default() };
        let bytes: Vec<char> = raw.chars().collect();
        let mut pos = 0;
        while pos < bytes.len() {
            match mode {
                Mode::Block(depth) => {
                    if bytes[pos] == '*' && bytes.get(pos + 1) == Some(&'/') {
                        mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                        pos += 2;
                    } else if bytes[pos] == '/' && bytes.get(pos + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        pos += 2;
                    } else {
                        line.comment.push(bytes[pos]);
                        pos += 1;
                    }
                }
                Mode::Str => {
                    if bytes[pos] == '\\' {
                        line.code.push(' ');
                        if pos + 1 < bytes.len() {
                            line.code.push(' ');
                        }
                        pos += 2;
                    } else if bytes[pos] == '"' {
                        line.code.push('"');
                        mode = Mode::Code;
                        pos += 1;
                    } else {
                        line.code.push(' ');
                        pos += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if bytes[pos] == '"' && closes_raw(&bytes, pos, hashes) {
                        line.code.push('"');
                        for _ in 0..hashes {
                            line.code.push('#');
                        }
                        pos += 1 + hashes as usize;
                        mode = Mode::Code;
                    } else {
                        line.code.push(' ');
                        pos += 1;
                    }
                }
                Mode::Code => {
                    let c = bytes[pos];
                    if c == '/' && bytes.get(pos + 1) == Some(&'/') {
                        line.comment.extend(&bytes[pos + 2..]);
                        pos = bytes.len();
                    } else if c == '/' && bytes.get(pos + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        pos += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        mode = Mode::Str;
                        pos += 1;
                    } else if let Some(hashes) = raw_string_opening(&bytes, pos) {
                        // Emit the opener (`r##"`), then swallow contents.
                        for &o in &bytes[pos..pos + opener_len(&bytes, pos, hashes)] {
                            line.code.push(o);
                        }
                        pos += opener_len(&bytes, pos, hashes);
                        mode = Mode::RawStr(hashes);
                    } else if c == '\'' {
                        // Char literal vs lifetime: a lifetime is `'` +
                        // ident with no closing quote right after.
                        if let Some(end) = char_literal_end(&bytes, pos) {
                            line.code.push('\'');
                            for _ in pos + 1..end {
                                line.code.push(' ');
                            }
                            line.code.push('\'');
                            pos = end + 1;
                        } else {
                            line.code.push('\'');
                            pos += 1;
                        }
                    } else {
                        line.code.push(c);
                        pos += 1;
                    }
                }
            }
        }
        // A raw-string `\` does not escape the newline; a regular string
        // continued over a line break simply stays in Str mode.
        lines.push(line);
    }
    lines
}

/// Whether `bytes[pos..]` starts a raw (byte) string; returns the hash
/// count if so. `pos` must point at `r` or `b`.
fn raw_string_opening(bytes: &[char], pos: usize) -> Option<u32> {
    let mut p = pos;
    if bytes[p] == 'b' {
        p += 1;
    }
    if bytes.get(p) != Some(&'r') {
        return None;
    }
    // Don't mistake identifiers like `for r in …` → check the char
    // before is not alphanumeric/underscore.
    if pos > 0 {
        let prev = bytes[pos - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    p += 1;
    let mut hashes = 0;
    while bytes.get(p) == Some(&'#') {
        hashes += 1;
        p += 1;
    }
    if bytes.get(p) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Length of the raw-string opener starting at `pos` (`r"`, `br#"`, …).
fn opener_len(bytes: &[char], pos: usize, hashes: u32) -> usize {
    let b = usize::from(bytes[pos] == 'b');
    b + 1 + hashes as usize + 1
}

/// Whether the `"` at `pos` is followed by `hashes` `#`s.
fn closes_raw(bytes: &[char], pos: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|i| bytes.get(pos + i) == Some(&'#'))
}

/// If `bytes[pos]` (a `'`) opens a char literal, returns the index of
/// its closing quote; `None` for lifetimes.
///
/// Escapes are parsed precisely rather than "scan to the next quote":
/// the closing quote of `'\\'` is the very next character, and a sloppy
/// scan used to run past it, swallow an apostrophe later on the line
/// (even one inside a string literal) and leave the lexer in the wrong
/// mode for every following line — which is how lint spans drifted past
/// multiline strings. See `escaped_char_literals_close_precisely`.
fn char_literal_end(bytes: &[char], pos: usize) -> Option<usize> {
    let next = *bytes.get(pos + 1)?;
    if next == '\\' {
        // The escape body: `\x41` (two hex digits), `\u{…}` (braced
        // hex), or a single-character escape (`\n`, `\\`, `\'`, …).
        let close = match bytes.get(pos + 2)? {
            'x' => pos + 5,
            'u' => {
                if bytes.get(pos + 3) != Some(&'{') {
                    return None;
                }
                let mut p = pos + 4;
                while bytes.get(p).is_some_and(|c| *c != '}') {
                    p += 1;
                }
                p + 1
            }
            _ => pos + 3,
        };
        (bytes.get(close) == Some(&'\'')).then_some(close)
    } else if bytes.get(pos + 2) == Some(&'\'') && next != '\'' {
        Some(pos + 2)
    } else {
        None
    }
}

/// Byte offsets of every occurrence of `needle` in `haystack` delimited
/// by non-identifier characters on both sides (a poor man's
/// word-boundary match).
pub fn find_words<'a>(haystack: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    haystack.match_indices(needle).map(|(at, _)| at).filter(move |&at| {
        !haystack[..at].chars().next_back().is_some_and(ident)
            && !haystack[at + needle.len()..].chars().next().is_some_and(ident)
    })
}

/// Whether `needle` occurs in `haystack` as a whole word.
pub fn contains_word(haystack: &str, needle: &str) -> bool {
    find_words(haystack, needle).next().is_some()
}

/// The code channel of a file's non-test lines joined into one string,
/// so byte offsets span lines. The cut falls at the first
/// `#[cfg(test)]` followed by a `mod` within two lines: a unit-test
/// module drives worlds, it does not define them, while a
/// `#[cfg(test)] pub fn helper()` mid-impl stays.
pub struct Code {
    pub text: String,
    /// Byte offset where each line starts in `text`.
    line_starts: Vec<usize>,
}

impl Code {
    pub fn of(lines: &[Line]) -> Code {
        let cut = (0..lines.len())
            .find(|&i| {
                lines[i].code.contains("#[cfg(test)]")
                    && lines[i..(i + 3).min(lines.len())].iter().any(|l| l.code.contains("mod "))
            })
            .unwrap_or(lines.len());
        let mut text = String::new();
        let mut line_starts = Vec::with_capacity(cut);
        for line in &lines[..cut] {
            line_starts.push(text.len());
            text.push_str(&line.code);
            text.push('\n');
        }
        Code { text, line_starts }
    }

    /// The 0-based index of the line holding byte `offset`.
    pub fn line_index(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset).saturating_sub(1)
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn skip_ws(bytes: &[u8], mut p: usize) -> usize {
    while p < bytes.len() && bytes[p].is_ascii_whitespace() {
        p += 1;
    }
    p
}

/// A parsed `fn`: its name and the byte range of its `{ … }` body.
pub struct FnItem {
    pub name: String,
    pub sig_start: usize,
    pub body: Range<usize>,
}

/// Finds every `fn` with a body (declarations are skipped). Generic
/// parameter lists are crossed with an angle-bracket depth scan that
/// ignores the `>` of `->` (so `fn f<F: Fn() -> bool>` parses).
pub fn parse_fns(code: &str) -> Vec<FnItem> {
    let bytes = code.as_bytes();
    let mut fns = Vec::new();
    for pos in find_words(code, "fn") {
        let mut p = skip_ws(bytes, pos + 2);
        let name_start = p;
        while p < bytes.len() && is_ident(bytes[p]) {
            p += 1;
        }
        if p == name_start {
            continue;
        }
        let name = code[name_start..p].to_string();
        p = skip_ws(bytes, p);
        if p < bytes.len() && bytes[p] == b'<' {
            let mut depth = 0i32;
            while p < bytes.len() {
                match bytes[p] {
                    b'<' => depth += 1,
                    b'>' if p > 0 && bytes[p - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            p += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                p += 1;
            }
        }
        while p < bytes.len() && bytes[p] != b'(' && bytes[p] != b'{' && bytes[p] != b';' {
            p += 1;
        }
        if p >= bytes.len() || bytes[p] != b'(' {
            continue;
        }
        p = skip_balanced(bytes, p);
        while p < bytes.len() && bytes[p] != b'{' && bytes[p] != b';' {
            p += 1;
        }
        if p >= bytes.len() || bytes[p] == b';' {
            continue;
        }
        let end = skip_balanced(bytes, p);
        fns.push(FnItem { name, sig_start: pos, body: p..end });
    }
    fns
}

/// The innermost function containing `offset`.
pub fn enclosing_fn(fns: &[FnItem], offset: usize) -> Option<&FnItem> {
    fns.iter()
        .filter(|f| f.sig_start <= offset && offset < f.body.end)
        .min_by_key(|f| f.body.end - f.sig_start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        split_channels(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_stripped_into_the_comment_channel() {
        let lines = split_channels("let x = 1; // HashMap here\n");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert!(lines[0].comment.contains("HashMap"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let code = code_of(r#"let s = "HashMap::new()";"#);
        assert!(!code[0].contains("HashMap"), "{:?}", code[0]);
        assert!(code[0].starts_with("let s = \""));
    }

    #[test]
    fn raw_strings_are_blanked_across_lines() {
        let src = "let s = r#\"line one HashMap\nline two HashSet\"#;\nuse std::x;";
        let code = code_of(src);
        assert!(!code[0].contains("HashMap"));
        assert!(!code[1].contains("HashSet"));
        assert_eq!(code[2], "use std::x;");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nHashMap\n*/ c";
        let lines = split_channels(src);
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
        assert_eq!(lines[2].code, "");
        assert!(lines[2].comment.contains("HashMap"));
        assert_eq!(lines[3].code.trim(), "c");
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let code = code_of("fn f<'a>(x: &'a str) { let c = 'H'; let q = '\\''; }");
        assert!(code[0].contains("'a"), "{:?}", code[0]);
        assert!(!code[0].contains('H'), "{:?}", code[0]);
    }

    #[test]
    fn string_escapes_do_not_end_the_literal() {
        let code = code_of(r#"let s = "a\"HashMap\""; let t = 1;"#);
        assert!(!code[0].contains("HashMap"));
        assert!(code[0].contains("let t = 1;"));
    }

    #[test]
    fn escaped_char_literals_close_precisely() {
        // `'\\'` closes at the very next quote; the old scan ran past it
        // and matched the apostrophe inside the following string, eating
        // the string's opening `"` and corrupting every later line.
        let src = "let c = '\\\\'; let s = \"don't\";\nlet t = Instant::now();";
        let code = code_of(src);
        assert!(!code[0].contains("don"), "string contents must be blanked: {:?}", code[0]);
        assert!(
            code[1].contains("Instant::now()"),
            "line after the literal must stay in code mode: {:?}",
            code[1]
        );
        // `'\''` closes at the quote *after* the escaped quote.
        let code = code_of("let q = '\\''; let u = 1;");
        assert!(code[0].contains("let u = 1;"), "{:?}", code[0]);
        // Hex and unicode escape bodies are consumed exactly.
        let code = code_of("let a = '\\x41'; let b = '\\u{1F600}'; let v = 2;");
        assert!(code[0].contains("let v = 2;"), "{:?}", code[0]);
        assert!(!code[0].contains("x41"), "{:?}", code[0]);
        assert!(!code[0].contains("1F600"), "{:?}", code[0]);
    }

    #[test]
    fn line_numbers_do_not_drift_past_escaped_literals() {
        // Regression fixture for lint span attribution: a violation on a
        // known line *after* a tricky literal + multiline string must be
        // reported on its own line, not swallowed or shifted.
        let src = "let sep = '\\\\';\nlet s = \"multi\nline don't\nstring\";\nlet t = Instant::now();\n";
        let lines = split_channels(src);
        assert_eq!(lines[4].number, 5);
        assert!(
            lines[4].code.contains("Instant::now()"),
            "line 5 must be visible code: {:?}",
            lines[4].code
        );
        for mid in &lines[1..4] {
            assert!(!mid.code.contains("don"), "string body leaked into code: {:?}", mid.code);
        }
    }

    #[test]
    fn fn_parser_crosses_generics_and_skips_declarations() {
        let src = "fn pick<F: Fn() -> bool>(f: F) { body(); }\nfn decl();\nfn plain() { x(); }";
        let code = Code::of(&split_channels(src));
        let fns = parse_fns(&code.text);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["pick", "plain"]);
        assert!(code.text[fns[0].body.clone()].contains("body()"));
        let inner = code.text.find("x()").unwrap();
        assert_eq!(enclosing_fn(&fns, inner).map(|f| f.name.as_str()), Some("plain"));
        assert_eq!(code.line_index(inner), 2);
    }

    #[test]
    fn cfg_test_cut_spares_mid_impl_test_helpers() {
        let src = "impl W {\n    #[cfg(test)]\n    pub fn capacity(&self) -> usize { 1 }\n}\n\
                   fn late() {}\n#[cfg(test)]\nmod tests {\n    fn gone() {}\n}\n";
        let code = Code::of(&split_channels(src));
        assert!(code.text.contains("capacity"), "mid-impl helper must survive the cut");
        assert!(code.text.contains("late"));
        assert!(!code.text.contains("gone"), "test module must be cut");
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("type MyHashMap = ();", "HashMap"));
        assert!(!contains_word("HashMapLike", "HashMap"));
        assert!(contains_word("HashMap<K, V>", "HashMap"));
        assert!(contains_word("Instant::now()", "Instant"));
        assert!(!contains_word("SimInstant", "Instant"));
        let code = "Event::DeliverDigest; Event::Deliver {}; Event::Deliver";
        assert_eq!(find_words(code, "Event::Deliver").collect::<Vec<_>>(), [22, 41]);
    }
}
