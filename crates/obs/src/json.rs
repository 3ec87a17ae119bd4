//! The workspace's one JSON codec: a [`Json`] value tree, its compact
//! writer, the JSON string writer every hand-laid-out exporter shares
//! ([`write_str`]), and a recursive-descent parser.
//!
//! It reads and writes every on-disk format of the workspace: workload
//! traces (`mcsched_workload::trace`), the runtime's cell-cache shards,
//! fleet run manifests, heartbeats and metrics snapshots
//! ([`crate::manifest`], [`crate::metrics`]), the Chrome trace and JSONL
//! journal ([`crate::export`]) and the `BENCH_*.json` snapshots. It lives
//! in `mcsched-obs` because that crate has no dependencies, so every other
//! crate can reach it.
//!
//! Numbers keep their *raw token text* ([`Json::Num`]), so `u64` seeds and
//! counters above 2^53 and shortest-round-trip `f64` literals survive an
//! export → import cycle bit-exactly. The parser bounds nesting at 128
//! levels, so a hostile or damaged file yields `Err`, never a stack
//! overflow.

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
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest array/object nesting `Json::parse` accepts. The deepest file
/// the workspace writes (a Chrome trace or a metrics snapshot) nests about
/// four levels; the bound only keeps a hostile input off the call stack.
const MAX_DEPTH: usize = 128;

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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses one value whose enclosing containers nest `depth` levels deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a number at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf8".to_string())?;
    // Validate that the token is a number at all; the raw text is preserved.
    raw.parse::<f64>()
        .map_err(|_| format!("invalid number `{raw}` at byte {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // also accepts a sign (`\\u+041`).
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| {
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                            })
                            .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not needed by the workspace's
                        // formats; map unpaired surrogates to the replacement
                        // char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Advance over one multi-byte UTF-8 scalar value (decode at
                // most 4 bytes — validating the whole remaining input here
                // would make parsing quadratic).
                let len = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(format!("invalid utf8 at byte {}", *pos)),
                };
                let slice = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated utf8 sequence")?;
                let s = std::str::from_utf8(slice)
                    .map_err(|_| format!("invalid utf8 at byte {}", *pos))?;
                out.push(s.chars().next().ok_or("unterminated string")?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
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
