//! The workspace's one JSON codec: a [`Json`] value tree, its compact
//! writer, the JSON string writer every hand-laid-out exporter shares
//! ([`write_str`]), and one pull [`Tokenizer`] with two consumers.
//!
//! It reads and writes every on-disk format of the workspace: workload
//! traces (`mcsched_workload::trace`), the runtime's cell-cache shards,
//! fleet run manifests, heartbeats and metrics snapshots
//! ([`crate::manifest`], [`crate::metrics`]), the Chrome trace and JSONL
//! journal ([`crate::export`]) and the `BENCH_*.json` snapshots. It lives
//! in `mcsched-obs` because that crate has no dependencies, so every other
//! crate can reach it.
//!
//! The [`Tokenizer`] holds the grammar: RFC 8259 numbers, strings without
//! raw control characters, and nesting bounded at 128 levels, so a hostile
//! or damaged file yields `Err`, never a stack overflow. It borrows from
//! the text, so a string without escapes and every number come out as
//! slices of it. Its two consumers are [`Json::parse`], which builds the
//! tree, and the cell cache's shard reader, which decodes its records
//! straight from the tokens without building one.
//!
//! Numbers keep their *raw token text* ([`Json::Num`]), so `u64` seeds and
//! counters above 2^53 and shortest-round-trip `f64` literals survive an
//! export → import cycle bit-exactly.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (parse on access).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a finite `f64` using Rust's shortest round-trip formatting.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — JSON has no literal for them, and every
    /// value the trace writer emits is validated finite upstream.
    pub fn num_f64(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot represent non-finite {v}");
        Json::Num(format!("{v}"))
    }

    /// Wraps a `u64` exactly.
    pub fn num_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Wraps a `usize` exactly.
    pub fn num_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integer number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, in document order, if the value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut tokens = Tokenizer::new(text);
        let first = tokens.next_token()?;
        let value = build(&mut tokens, first)?;
        tokens.finish()?;
        Ok(value)
    }
}

/// Builds the value whose first token is `token`. Recursion is bounded by
/// the tokenizer's nesting bound.
fn build<'a>(tokens: &mut Tokenizer<'a>, token: Token<'a>) -> Result<Json, String> {
    Ok(match token {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(raw) => Json::Num(raw.to_owned()),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::BeginArray => {
            let mut items = Vec::new();
            loop {
                match tokens.next_token()? {
                    Token::EndArray => break Json::Arr(items),
                    item => items.push(build(tokens, item)?),
                }
            }
        }
        Token::BeginObject => {
            let mut members = Vec::new();
            while let Token::Key(key) = tokens.next_token()? {
                let first = tokens.next_token()?;
                members.push((key.into_owned(), build(tokens, first)?));
            }
            Json::Obj(members)
        }
        Token::Key(_) | Token::EndArray | Token::EndObject => {
            unreachable!("the tokenizer yields keys and closing tokens only after an opening one")
        }
    })
}

/// Deepest array/object nesting the tokenizer accepts. The deepest file
/// the workspace writes (a Chrome trace or a metrics snapshot) nests about
/// four levels; the bound only keeps a hostile input off the call stack of
/// [`Json::parse`]'s tree builder.
const MAX_DEPTH: usize = 128;

// The tokenizer keeps one bit per open container in a `u128`.
const _: () = assert!(MAX_DEPTH <= 128);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\\` are escaped,
/// `\n`, `\r` and `\t` get their short escapes, other control characters
/// become `\u00XX`, and everything else is copied as UTF-8.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One token of a JSON document, borrowed from the text where it can be.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`.
    BeginObject,
    /// `}`.
    EndObject,
    /// `[`.
    BeginArray,
    /// `]`.
    EndArray,
    /// An object member's key and its `:`, unescaped: borrowed unless the
    /// key held an escape.
    Key(Cow<'a, str>),
    /// A string value, unescaped: borrowed unless it held an escape.
    Str(Cow<'a, str>),
    /// A number's raw text, checked against the RFC 8259 grammar.
    Num(&'a str),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// What the tokenizer accepts next.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// A value: the document's, an array item after `,`, or a member's
    /// after `:`.
    Value,
    /// A key or `}`, just after `{`.
    FirstKey,
    /// An item or `]`, just after `[`.
    FirstItem,
    /// `,` or the end of the innermost container.
    CommaOrEnd,
    /// Nothing: the top-level value is complete.
    Done,
}

/// A pull tokenizer over one JSON document: each [`Tokenizer::next_token`]
/// checks and returns the next token, so a consumer decodes only what it
/// needs and skips the rest ([`Tokenizer::skip_rest`]) without building it.
/// After the top-level value, [`Tokenizer::finish`] checks that only
/// whitespace follows.
#[derive(Debug)]
pub struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// Bit `i` is set when the container at nesting level `i` is an object.
    objects: u128,
    depth: usize,
    expect: Expect,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            objects: 0,
            depth: 0,
            expect: Expect::Value,
        }
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// A human-readable description of the syntax error at the token, with
    /// its byte offset; after the top-level value, every call is an error.
    pub fn next_token(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstKey if self.peek() == Some(b'}') => Ok(self.close()),
            Expect::FirstKey => self.key(),
            Expect::FirstItem if self.peek() == Some(b']') => Ok(self.close()),
            Expect::FirstItem => self.value(),
            Expect::CommaOrEnd => {
                let object = self.objects >> (self.depth - 1) & 1 == 1;
                match (self.peek(), object) {
                    (Some(b','), true) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.key()
                    }
                    (Some(b','), false) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.value()
                    }
                    (Some(b'}'), true) | (Some(b']'), false) => Ok(self.close()),
                    (_, true) => Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    (_, false) => Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
            Expect::Done if self.pos == self.text.len() => {
                Err("unexpected end of input".to_string())
            }
            Expect::Done => Err(format!("trailing data at byte {}", self.pos)),
        }
    }

    /// Skips the rest of the value that `first`, the token just returned,
    /// began: nothing for a scalar, everything through the matching close
    /// for `{` or `[`. The skipped tokens are checked as [`Tokenizer::next_token`]
    /// checks them.
    ///
    /// # Errors
    ///
    /// The first syntax error inside the skipped value.
    pub fn skip_rest(&mut self, first: &Token<'a>) -> Result<(), String> {
        if matches!(first, Token::BeginObject | Token::BeginArray) {
            let outer = self.depth.saturating_sub(1);
            while self.depth > outer {
                self.next_token()?;
            }
        }
        Ok(())
    }

    /// Checks that the top-level value is complete and only whitespace
    /// follows it.
    ///
    /// # Errors
    ///
    /// `trailing data at byte N` when something does, and the syntax error
    /// of the next token when the value is not complete.
    pub fn finish(mut self) -> Result<(), String> {
        if !matches!(self.expect, Expect::Done) {
            return self
                .next_token()
                .and(Err("the top-level value is not complete".to_string()));
        }
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// What follows a complete value.
    fn after_value(&self) -> Expect {
        if self.depth == 0 {
            Expect::Done
        } else {
            Expect::CommaOrEnd
        }
    }

    fn value(&mut self) -> Result<Token<'a>, String> {
        let start = self.pos;
        let token = match self.peek() {
            None => return Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                return Err(format!("nesting deeper than {MAX_DEPTH} at byte {start}"))
            }
            Some(b'{') => return Ok(self.open(true)),
            Some(b'[') => return Ok(self.open(false)),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.keyword("true", Token::Bool(true))?,
            Some(b'f') => self.keyword("false", Token::Bool(false))?,
            Some(b'n') => self.keyword("null", Token::Null)?,
            Some(_) => Token::Num(self.number()?),
        };
        self.expect = self.after_value();
        Ok(token)
    }

    fn open(&mut self, object: bool) -> Token<'a> {
        self.objects = self.objects & !(1 << self.depth) | u128::from(object) << self.depth;
        self.depth += 1;
        self.pos += 1;
        if object {
            self.expect = Expect::FirstKey;
            Token::BeginObject
        } else {
            self.expect = Expect::FirstItem;
            Token::BeginArray
        }
    }

    fn close(&mut self) -> Token<'a> {
        self.depth -= 1;
        self.pos += 1;
        self.expect = self.after_value();
        if self.objects >> self.depth & 1 == 1 {
            Token::EndObject
        } else {
            Token::EndArray
        }
    }

    fn key(&mut self) -> Result<Token<'a>, String> {
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected `:` at byte {}", self.pos));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A number token: the run of number characters from here, which must
    /// match the RFC 8259 grammar as a whole.
    fn number(&mut self) -> Result<&'a str, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let in_run = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
        // The grammar's longest match is a prefix of the run, so it is the
        // whole run exactly when no run character follows it.
        if let Some(end) = json_number_end(bytes, start) {
            if !bytes.get(end).is_some_and(in_run) {
                self.pos = end;
                return Ok(&self.text[start..end]);
            }
        }
        let digits = start + usize::from(bytes[start] == b'-');
        let end = digits + bytes[digits..].iter().take_while(|b| in_run(b)).count();
        if end == digits {
            Err(format!("expected a number at byte {start}"))
        } else {
            Err(format!(
                "invalid number `{}` at byte {start}",
                &self.text[start..end]
            ))
        }
    }

    /// The code unit of the four hex digits at byte `at`, if there are
    /// exactly four: `from_str_radix` alone also accepts a sign (`\\u+041`).
    fn hex4(&self, at: usize) -> Option<u32> {
        self.text
            .get(at..at + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
    }

    /// A string, unescaped: a slice of the text unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.text.as_bytes();
        if self.peek() != Some(b'"') {
            return Err(format!("expected `\"` at byte {}", self.pos));
        }
        self.pos += 1;
        // `run` starts the stretch not yet copied into `owned`; it and
        // `pos` only ever stop at ASCII bytes, so they are char boundaries.
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            self.pos += bytes[self.pos..]
                .iter()
                .take_while(|&&b| b != b'"' && b != b'\\' && b >= 0x20)
                .count();
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1).ok_or_else(|| {
                                format!("invalid \\u escape at byte {}", self.pos)
                            })?;
                            self.pos += 4;
                            // A high surrogate directly followed by a
                            // low-surrogate escape is one char beyond the
                            // BMP; any other surrogate is unpaired and maps
                            // to the replacement char.
                            let escape_follows =
                                bytes.get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..]);
                            let low = if (0xD800..0xDC00).contains(&code) && escape_follows {
                                self.hex4(self.pos + 3)
                                    .filter(|low| (0xDC00..0xE000).contains(low))
                            } else {
                                None
                            };
                            match low {
                                Some(low) => {
                                    self.pos += 6;
                                    let pair = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(pair)
                                        .expect("a surrogate pair is a scalar value")
                                }
                                None => char::from_u32(code).unwrap_or('\u{fffd}'),
                            }
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => return Err(format!("control character in string at byte {}", self.pos)),
            }
        }
    }
}

/// Where the longest match of the RFC 8259 number grammar,
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, from `start` ends;
/// `None` when no number starts there. Every such text also parses as an
/// `f64`.
fn json_number_end(bytes: &[u8], start: usize) -> Option<usize> {
    let digits = |i: &mut usize| {
        let first = *i;
        while bytes.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > first
    };
    let mut i = start + usize::from(bytes.get(start) == Some(&b'-'));
    match bytes.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return None,
    }
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return None;
        }
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return None;
        }
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("trace \"x\"\n".into())),
            ("seed".into(), Json::num_u64(u64::MAX)),
            (
                "items".into(),
                Json::Arr(vec![Json::num_f64(0.1), Json::Bool(true), Json::Null]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn u64_seeds_above_2_pow_53_survive() {
        let seed = (1u64 << 63) + 12345;
        let text = Json::num_u64(seed).render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_u64(), Some(seed));
    }

    #[test]
    fn large_u64_values_round_trip_exactly() {
        let raw = format!("{{\"v\": {}}}", u64::MAX);
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(u64::MAX));
        // An f64 intermediate would have rounded this.
        assert_ne!(v.get("v").unwrap().as_f64().unwrap() as u64, u64::MAX - 1);
    }

    #[test]
    fn f64_shortest_repr_round_trips_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 4.0e6, 1.2345678901234567e-300, -0.0] {
            let text = Json::num_f64(v).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn whitespace_and_escapes_are_handled() {
        let v = Json::parse(" { \"a\\tb\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("a\tb").unwrap().as_arr().unwrap()[1].as_str(),
            Some("A")
        );
    }

    #[test]
    fn parses_scalars_and_containers() {
        let v = Json::parse("{\"a\": 1, \"b\": [true, null, -2.5e3], \"s\": \"x\\n\\\"y\\\"\"}")
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[..2], [Json::Bool(true), Json::Null]);
        assert_eq!(b[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let past_bound = format!("{{\"a\":{at_bound}}}");
        assert!(Json::parse(&past_bound).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for token in [
            "+1", ".5", "1.", "01", "-01", "1.e5", "1e", "1e+", "-", "1-2", "0x1",
        ] {
            for doc in [
                token.to_string(),
                format!("[{token}]"),
                format!("{{\"a\":{token}}}"),
            ] {
                assert!(Json::parse(&doc).is_err(), "accepted {doc}");
            }
        }
        for token in ["0", "-0", "10", "0.5", "-1.25e-3", "1E+9", "2e0"] {
            assert_eq!(Json::parse(token), Ok(Json::Num(token.into())));
        }
        assert_eq!(
            Json::parse("[01]"),
            Err("invalid number `01` at byte 1".to_string())
        );
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for c in ['\u{0}', '\n', '\t', '\u{1f}'] {
            assert!(
                Json::parse(&format!("\"a{c}b\"")).is_err(),
                "accepted {c:?}"
            );
            assert!(
                Json::parse(&format!("{{\"a{c}\":1}}")).is_err(),
                "accepted {c:?}"
            );
        }
        assert_eq!(Json::parse("\"\u{7f}\""), Ok(Json::Str("\u{7f}".into())));
    }

    #[test]
    fn tokens_borrow_unescaped_strings_and_skip_values() {
        let text = r#"{"a":"plain","b\u0041":"x\ny","c":[1,{"d":[]}],"e":-2.5}"#;
        let mut tokens = Tokenizer::new(text);
        assert_eq!(tokens.next_token(), Ok(Token::BeginObject));
        assert!(matches!(
            tokens.next_token(),
            Ok(Token::Key(Cow::Borrowed("a")))
        ));
        assert!(matches!(
            tokens.next_token(),
            Ok(Token::Str(Cow::Borrowed("plain")))
        ));
        assert!(matches!(tokens.next_token(), Ok(Token::Key(Cow::Owned(k))) if k == "bA"));
        assert!(matches!(tokens.next_token(), Ok(Token::Str(Cow::Owned(s))) if s == "x\ny"));
        assert!(matches!(tokens.next_token(), Ok(Token::Key(k)) if k == "c"));
        assert_eq!(tokens.next_token(), Ok(Token::BeginArray));
        tokens.skip_rest(&Token::BeginArray).unwrap();
        assert!(matches!(tokens.next_token(), Ok(Token::Key(k)) if k == "e"));
        assert_eq!(tokens.next_token(), Ok(Token::Num("-2.5")));
        assert_eq!(tokens.next_token(), Ok(Token::EndObject));
        assert_eq!(
            tokens.next_token(),
            Err("unexpected end of input".to_string())
        );
        assert_eq!(tokens.finish(), Ok(()));
        // A skipped value is checked like any other.
        let mut tokens = Tokenizer::new("[[1,],2]");
        assert_eq!(tokens.next_token(), Ok(Token::BeginArray));
        assert_eq!(tokens.next_token(), Ok(Token::BeginArray));
        assert_eq!(
            tokens.skip_rest(&Token::BeginArray),
            Err("expected a number at byte 4".to_string())
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert!(Json::parse("\"\\u+041\"").is_err());
        let v = Json::parse("\"caf\\u00E9 \\u00e9 µ\"").unwrap();
        assert_eq!(v.as_str(), Some("café é µ"));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = Json::parse("{\"a\": [1]}").unwrap();
        assert!(v.get("a").unwrap().as_str().is_none());
        assert!(v.get("a").unwrap().as_f64().is_none());
        assert!(v.get("missing").is_none());
        assert!(Json::Str("x".into()).get("a").is_none());
        assert!(v.as_obj().is_some() && v.as_arr().is_none());
    }

    #[test]
    fn array_and_scalar_accessors_return_none_on_type_mismatch() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_str().is_none());
        assert!(v.as_obj().is_none());
        assert_eq!(Json::Bool(true).as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
    }
}
