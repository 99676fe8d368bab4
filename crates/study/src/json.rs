//! The workspace's hand-rolled JSON subset: a renderer and a strict
//! mini parser shared by the run manifest ([`crate::Manifest`]) and
//! the `edmac-serve` wire protocol.
//!
//! The repo vendors no serde, so everything that speaks JSON — the
//! resumable manifest, the serve request/response lines, the shared
//! stats schema — goes through this module. Two properties are
//! load-bearing:
//!
//! * **Numbers stay raw tokens.** [`Json::Num`] holds the literal
//!   token text, so a `u64` seed beyond f64's 2^53 exactness and a
//!   shortest-round-trip float (`{:?}`) both survive
//!   parse-render-parse byte for byte — the proptests below pin this
//!   with `f64::to_bits` equality.
//! * **Object key order is preserved** (insertion order, a `Vec` of
//!   pairs), so a rendered document is a fixed point: `render(parse(x))
//!   == x` for any `x` this module produced.

use std::fmt::Write as _;

/// Quotes and escapes one JSON string literal (quotes included).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_jstr(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal. Runs
/// of bytes that need no escape are copied as one slice; every byte
/// that does is ASCII, so the runs always end on character boundaries.
fn push_jstr(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !(b == b'"' || b == b'\\' || b < 0x20) {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Renders a usize slice as a JSON array (manifest grid axes).
pub fn jarr_usize(v: &[usize]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Renders an f64 slice as a JSON array of shortest-round-trip floats.
pub fn jarr_f64(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|x| format!("{x:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Error-as-message result type of the parser and the accessors.
pub type ParseResult<T> = Result<T, String>;

/// One parsed JSON value. Construct with the `from_*` helpers when
/// building a document to [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (lossless for u64 seeds
    /// and bit-exact floats alike).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a byte-positioned message on any structural deviation.
    pub fn parse(text: &str) -> ParseResult<Json> {
        let mut parser = Parser::new(text);
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing bytes after JSON at {}", parser.pos));
        }
        Ok(value)
    }

    /// A float as a shortest-round-trip `Num` token (`{:?}`); the bit
    /// pattern survives parse → [`Json::f64_`]. Non-finite values have
    /// no JSON literal and become `Null`.
    pub fn from_f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:?}"))
        } else {
            Json::Null
        }
    }

    /// An unsigned integer as a decimal `Num` token (u64-safe: the
    /// token is never routed through a float).
    pub fn from_u64(x: u64) -> Json {
        Json::Num(x.to_string())
    }

    /// A usize as a decimal `Num` token.
    pub fn from_usize(x: usize) -> Json {
        Json::Num(x.to_string())
    }

    /// A string value.
    pub fn from_str_(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Renders compactly (no whitespace), preserving number tokens and
    /// object key order — the wire-line form of the serve protocol.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(token) => out.push_str(token),
            Json::Str(s) => push_jstr(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_jstr(out, key);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// Fails when `self` is not an object or the field is missing.
    pub fn get<'a>(&'a self, key: &str) -> ParseResult<&'a Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{key}'")),
            _ => Err(format!("'{key}' looked up on a non-object")),
        }
    }

    /// Looks up an optional object field (`None` when absent or
    /// `null`) — the forward-compatibility accessor of the wire
    /// protocol.
    pub fn opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Json::Null)),
            _ => None,
        }
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// Fails when missing or not a string.
    pub fn str_(&self, key: &str) -> ParseResult<&str> {
        match self.get(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("field '{key}' is not a string: {other:?}")),
        }
    }

    /// A nullable string field.
    ///
    /// # Errors
    ///
    /// Fails when missing or neither string nor `null`.
    pub fn opt_str(&self, key: &str) -> ParseResult<Option<&str>> {
        match self.get(key)? {
            Json::Null => Ok(None),
            Json::Str(s) => Ok(Some(s)),
            other => Err(format!("field '{key}' is not a string or null: {other:?}")),
        }
    }

    /// A required number field, as its raw token.
    ///
    /// # Errors
    ///
    /// Fails when missing or not a number.
    pub fn num(&self, key: &str) -> ParseResult<&str> {
        match self.get(key)? {
            Json::Num(s) => Ok(s),
            other => Err(format!("field '{key}' is not a number: {other:?}")),
        }
    }

    /// A required usize field.
    ///
    /// # Errors
    ///
    /// Fails when missing, non-numeric, or out of range.
    pub fn usize_(&self, key: &str) -> ParseResult<usize> {
        self.num(key)?
            .parse()
            .map_err(|e| format!("field '{key}': {e}"))
    }

    /// A required u64 field; accepts a raw number token *or* a decimal
    /// string (the manifest renders `seed_base` as a string because a
    /// u64 does not fit in a JSON double).
    ///
    /// # Errors
    ///
    /// Fails when missing or not parseable as u64.
    pub fn u64_(&self, key: &str) -> ParseResult<u64> {
        let token = match self.get(key)? {
            Json::Num(s) | Json::Str(s) => s,
            other => Err(format!("field '{key}' is not a number: {other:?}"))?,
        };
        token.parse().map_err(|e| format!("field '{key}': {e}"))
    }

    /// A required f64 field.
    ///
    /// # Errors
    ///
    /// Fails when missing or not parseable as f64.
    pub fn f64_(&self, key: &str) -> ParseResult<f64> {
        self.num(key)?
            .parse()
            .map_err(|e| format!("field '{key}': {e}"))
    }

    /// A required bool field.
    ///
    /// # Errors
    ///
    /// Fails when missing or not a boolean.
    pub fn bool_(&self, key: &str) -> ParseResult<bool> {
        match self.get(key)? {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("field '{key}' is not a bool: {other:?}")),
        }
    }

    /// A required array field.
    ///
    /// # Errors
    ///
    /// Fails when missing or not an array.
    pub fn arr(&self, key: &str) -> ParseResult<&[Json]> {
        match self.get(key)? {
            Json::Arr(items) => Ok(items),
            other => Err(format!("field '{key}' is not an array: {other:?}")),
        }
    }

    /// A required array-of-usize field.
    ///
    /// # Errors
    ///
    /// Fails when any element is not a usize.
    pub fn usize_arr(&self, key: &str) -> ParseResult<Vec<usize>> {
        self.arr(key)?
            .iter()
            .map(|v| match v {
                Json::Num(s) => s.parse().map_err(|e| format!("field '{key}': {e}")),
                other => Err(format!("field '{key}' element is not a number: {other:?}")),
            })
            .collect()
    }

    /// A required array-of-f64 field.
    ///
    /// # Errors
    ///
    /// Fails when any element is not an f64.
    pub fn f64_arr(&self, key: &str) -> ParseResult<Vec<f64>> {
        self.arr(key)?
            .iter()
            .map(|v| match v {
                Json::Num(s) => s.parse().map_err(|e| format!("field '{key}': {e}")),
                other => Err(format!("field '{key}' element is not a number: {other:?}")),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The strict mini parser (objects, arrays, strings, numbers, booleans,
// `null`). Numbers stay raw tokens so u64 seeds and shortest-round-trip
// floats parse losslessly on demand.

/// The deepest container nesting [`Json::parse`] accepts. Far above
/// any manifest, cache entry or wire line; it bounds the parser's
/// recursion so a hostile line cannot overflow a worker thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> ParseResult<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, b: u8) -> ParseResult<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> ParseResult<Json> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> ParseResult<Json> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start}"));
        }
        Ok(Json::Num(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-UTF8 number".to_string())?
                .to_string(),
        ))
    }

    fn string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape as one slice
            // of the already-validated text. Both delimiters are ASCII,
            // so a run that starts on a character boundary ends on one.
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or("string not on a character boundary")?,
            );
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            // `b` opened an escape.
            let esc = *self.bytes.get(self.pos).ok_or("dangling escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "non-UTF8 \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                    );
                    self.pos += 4;
                }
                other => return Err(format!("bad escape '\\{}'", char::from(other))),
            }
        }
    }

    fn array(&mut self) -> ParseResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got '{}'",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> ParseResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got '{}'",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }
}

/// Every proper prefix of `valid` and every copy of it with one byte
/// corrupted (three bit masks per offset: a low bit, the ASCII case
/// bit, the high bit), as lossy UTF-8: the inputs the parsers'
/// never-panic tests feed them.
#[cfg(test)]
pub(crate) fn corruptions(valid: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = valid.as_bytes();
    let truncated = (0..bytes.len()).map(|i| String::from_utf8_lossy(&bytes[..i]).into_owned());
    let flipped = (0..bytes.len()).flat_map(move |i| {
        [0x01u8, 0x20, 0x80].into_iter().map(move |mask| {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= mask;
            String::from_utf8_lossy(&corrupt).into_owned()
        })
    });
    truncated.chain(flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn malformed_json_reports_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"schema\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{\"a\": \"\\u12\"}",
            "{\"a\": nul}",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ))
        .is_err());
        // Unbounded recursion would overflow the stack long before a
        // million levels and abort the process instead of returning.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the input per character takes ~25 s
        // on a 1 MB string (a wire line near the serve's cap) in a
        // release build; one pass takes milliseconds even unoptimized.
        let long = "λa".repeat(1 << 18);
        let line = format!("{{\"s\": \"{long}\"}}");
        let start = std::time::Instant::now();
        assert_eq!(Json::parse(&line).unwrap().str_("s").unwrap(), long);
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "{took:?}");
    }

    #[test]
    fn render_is_a_fixed_point_of_parse() {
        let doc = Json::Obj(vec![
            ("verb".into(), Json::from_str_("solve")),
            ("seed".into(), Json::from_u64(u64::MAX - 7)),
            ("x".into(), Json::from_f64(0.1 + 0.2)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![Json::from_usize(3), Json::from_f64(-1.5)]),
            ),
            ("quoted \"k\"\n".into(), Json::from_str_("v\\t")),
        ]);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("own output parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), rendered, "render∘parse must be identity");
    }

    #[test]
    fn corrupted_documents_never_panic() {
        let doc = Json::Obj(vec![
            ("s".into(), Json::from_str_("esc \" \\ \n λ \u{1}")),
            ("n".into(), Json::from_f64(-1.25e-7)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(false)])),
            ("o".into(), Json::Obj(vec![("k".into(), Json::from_u64(7))])),
        ]);
        for text in corruptions(&doc.render()) {
            let _ = Json::parse(&text);
        }
    }

    #[test]
    fn u64_accessor_reads_number_and_string_tokens() {
        let doc = Json::parse(&format!("{{\"a\": {0}, \"b\": \"{0}\"}}", u64::MAX)).unwrap();
        assert_eq!(doc.u64_("a").unwrap(), u64::MAX);
        assert_eq!(doc.u64_("b").unwrap(), u64::MAX);
    }

    /// Random printable-ish strings (including escapes and non-ASCII).
    fn string_strategy() -> impl Strategy<Value = String> {
        vec(any::<u8>(), 0..24).prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| match b % 12 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\t',
                    4 => '\u{1}',
                    5 => 'λ',
                    6 => '🦀',
                    other => char::from(b'a' + other),
                })
                .collect()
        })
    }

    /// Bytes drawn mostly from JSON's own alphabet, so generated text
    /// reaches deep into the parser (strings, escapes, numbers,
    /// nesting) instead of failing on the first byte; one in eight is
    /// a raw high byte, which lossy UTF-8 turns into U+FFFD.
    fn json_ish_bytes() -> impl Strategy<Value = Vec<u8>> {
        const ALPHABET: &[u8] = b"{}[]\",:-+.eE0123456789 \n\\/utrfalsenb";
        vec(any::<u8>(), 0..256).prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| match b {
                    0xE0.. => b,
                    _ => ALPHABET[usize::from(b) % ALPHABET.len()],
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any input, valid UTF-8 or not, parses to `Ok` or `Err`:
        /// never a panic.
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn parse_never_panics_on_json_shaped_bytes(bytes in json_ish_bytes()) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        /// Finite floats round-trip bit-exactly through the shortest
        /// `{:?}` token: to_bits equality, not approximate equality.
        #[test]
        fn f64_round_trips_to_the_bit(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let doc = Json::Obj(vec![("x".into(), Json::from_f64(x))]);
                let parsed = Json::parse(&doc.render()).unwrap();
                let back = parsed.f64_("x").unwrap();
                prop_assert_eq!(back.to_bits(), x.to_bits());
            }
        }

        /// u64 values (beyond 2^53) survive as raw number tokens and as
        /// manifest-style decimal strings.
        #[test]
        fn u64_round_trips_losslessly(x in any::<u64>()) {
            let doc = Json::Obj(vec![
                ("num".into(), Json::from_u64(x)),
                ("str".into(), Json::Str(x.to_string())),
            ]);
            let parsed = Json::parse(&doc.render()).unwrap();
            prop_assert_eq!(parsed.u64_("num").unwrap(), x);
            prop_assert_eq!(parsed.u64_("str").unwrap(), x);
        }

        /// Arbitrary strings (escapes, control bytes, non-ASCII)
        /// round-trip exactly as values and as object keys.
        #[test]
        fn strings_round_trip_exactly(s in string_strategy(), k in string_strategy()) {
            let doc = Json::Obj(vec![(k.clone(), Json::Str(s.clone()))]);
            let parsed = Json::parse(&doc.render()).unwrap();
            prop_assert_eq!(parsed.str_(&k).unwrap(), s.as_str());
            prop_assert_eq!(&parsed, &doc);
        }

        /// Structured values (nested arrays/objects of mixed scalars)
        /// round-trip; render∘parse is the identity on rendered text.
        #[test]
        fn values_round_trip(
            xs in vec(any::<u64>(), 0..8),
            fs in vec(any::<f64>(), 0..8),
            flag in any::<bool>(),
            s in string_strategy(),
        ) {
            let doc = Json::Obj(vec![
                ("ints".into(), Json::Arr(xs.iter().map(|&x| Json::from_u64(x)).collect())),
                ("floats".into(), Json::Arr(fs.iter().map(|&f| Json::from_f64(f)).collect())),
                ("flag".into(), Json::Bool(flag)),
                ("s".into(), Json::Str(s)),
                ("nested".into(), Json::Obj(vec![
                    ("empty_arr".into(), Json::Arr(Vec::new())),
                    ("empty_obj".into(), Json::Obj(Vec::new())),
                ])),
            ]);
            let rendered = doc.render();
            let parsed = Json::parse(&rendered).unwrap();
            // from_f64 maps non-finite to Null, which parses back to
            // Null — so structural equality holds for every input.
            prop_assert_eq!(&parsed, &doc);
            prop_assert_eq!(parsed.render(), rendered);
        }
    }
}
