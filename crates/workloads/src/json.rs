//! The workspace's one JSON reader: value type, parser and string
//! escaper.
//!
//! Every JSON document the system reads goes through [`parse`]: job
//! specs and events on the service API, the human-writable graph form,
//! and checkpoints. It lives in `unico-workloads` because that is the
//! lowest crate every one of those readers already depends on.
//!
//! The parser covers the full grammar: objects, arrays, strings with
//! every escape (`\uXXXX` surrogate pairs included), `true`/`false`/
//! `null`, and signed decimal numbers with fractions and exponents.
//! Plain unsigned integers are kept exact over the whole `u64` range
//! ([`Json::UInt`]); every other number is a double ([`Json::Num`]).
//! Nesting is bounded, so untrusted input fails with an error instead
//! of overflowing the stack. No external dependencies, consistent with
//! the air-gapped build.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain unsigned integer (`0`, `42`, `18446744073709551615`),
    /// held exactly.
    UInt(u64),
    /// Any other number — signed, fractional, exponent form, or beyond
    /// `u64` — held as a double, like JavaScript.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Magnitude bound for [`Json::as_i64`]: comfortably inside the range
/// where a double holds every integer exactly.
const MAX_SIGNED: i64 = 9_000_000_000_000_000;

impl Json {
    /// The value's JSON type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up a field of an object; `None` for absent fields **and**
    /// explicit `null`s (the API treats them identically).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| **v != Json::Null),
            _ => None,
        }
    }

    /// The object's fields, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            v => Err(v.mistyped(what, "object")),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            v => Err(v.mistyped(what, "array")),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            v => Err(v.mistyped(what, "string")),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            v => Err(v.mistyped(what, "bool")),
        }
    }

    /// The number as a double (either number form), or an error naming
    /// `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::UInt(u) => Ok(*u as f64),
            v => Err(v.mistyped(what, "number")),
        }
    }

    /// The number as an exact unsigned integer. Plain integers are
    /// exact over the whole `u64` range; other forms (`1e3`) are
    /// accepted only when they denote a non-negative integer no larger
    /// than 2^53, so fractions, negatives and huge doubles are rejected
    /// rather than silently rounded.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Ok(*n as u64)
            }
            Json::Num(n) => Err(format!("{what}: expected a non-negative integer, got {n}")),
            v => Err(v.mistyped(what, "number")),
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        usize::try_from(self.as_u64(what)?).map_err(|_| format!("{what}: overflows usize"))
    }

    /// The number as a signed integer of magnitude below 9e15 (the
    /// graph form's tensor dims and integer attributes).
    pub fn as_i64(&self, what: &str) -> Result<i64, String> {
        match self {
            Json::UInt(u) if *u < MAX_SIGNED as u64 => Ok(*u as i64),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < MAX_SIGNED as f64 => Ok(*n as i64),
            v => Err(v.mistyped(what, "integer")),
        }
    }

    fn mistyped(&self, what: &str, want: &str) -> String {
        format!("{what}: expected {want}, found {}", self.type_name())
    }
}

impl fmt::Display for Json {
    /// Renders the value back to compact JSON. A `Num` holding a
    /// non-negative integer below 2^64 renders as plain digits, so it
    /// parses back as the `UInt` of the same value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Renders a string as a JSON string literal with escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error; trailing
/// non-whitespace after the document and nesting deeper than 64 levels
/// are rejected.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting depth bound: a parser recursing on attacker-supplied bodies
/// must not be stack-overflowable.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat_literal("null") => Ok(Json::Null),
            Some(_) if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat_literal("false") => Ok(Json::Bool(false)),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        self.skip_digits();
        let plain = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let s = &self.text[start..self.pos];
        if !negative && plain == self.pos {
            if let Ok(u) = s.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Four hex digits of a `\u` escape, starting at the cursor.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// A `\u` escape after the `u`: one code unit, or a surrogate pair
    /// written as two escapes. A lone surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(code).expect("paired surrogates are a scalar"));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    self.pos += 2;
                    out.push(match self.bytes.get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", at + 1)),
                    });
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte; all are ASCII, so the run ends on a
                    // char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let v = parse(
            r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "x\n\"y\"", "o": {"k": 0.125}}"#,
        )
        .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap()[0], Json::UInt(1));
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap()[2], Json::Num(1e3));
        assert_eq!(v.get("s").unwrap().as_str("s").unwrap(), "x\n\"y\"");
        assert_eq!(
            v.get("o").unwrap().get("k").unwrap().as_f64("k").unwrap(),
            0.125
        );
        // Explicit null reads as absent.
        assert!(v.get("missing").is_none());
        let n = parse(r#"{"x": null}"#).unwrap();
        assert!(n.get("x").is_none());
    }

    #[test]
    fn decodes_every_escape() {
        let v = parse(r#""café\b\f\/\"\\ 😀 \ud800x""#).expect("parses");
        assert_eq!(
            v.as_str("s").unwrap(),
            "caf\u{e9}\u{8}\u{c}/\"\\ \u{1F600} \u{fffd}x"
        );
        for bad in [r#""\x""#, r#""\u12""#, r#""\u+123""#, r#""\"#] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1} x",
            "\"unterminated",
            "01e",
            "-",
            "nul",
            "{\"a\":1e999}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // Nesting bomb is rejected, not a stack overflow.
        let bomb = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn integer_extraction_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64("n"), Ok(42));
        assert!(parse("-1").unwrap().as_u64("n").is_err());
        assert!(parse("2.5").unwrap().as_u64("n").is_err());
        assert!(parse("1e300").unwrap().as_u64("n").is_err());
        assert_eq!(parse("123456").unwrap().as_usize("n"), Ok(123456));
        // Beyond 2^53 a double would round; plain integers stay exact.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64("n"),
            Ok(9_007_199_254_740_993)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64("n"),
            Ok(u64::MAX)
        );
        assert!(parse("18446744073709551616").unwrap().as_u64("n").is_err());
        assert_eq!(parse("1e3").unwrap().as_u64("n"), Ok(1000));
        // Signed extraction for graph dims.
        assert_eq!(parse("-1").unwrap().as_i64("n"), Ok(-1));
        assert_eq!(parse("7").unwrap().as_i64("n"), Ok(7));
        assert!(parse("1.5").unwrap().as_i64("n").is_err());
        assert!(parse("9000000000000000").unwrap().as_i64("n").is_err());
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"a":[1,-2.5,true,null],"s":"x\ny \u0001","n":1000,"u":18446744073709551615}"#;
        let v = parse(src).expect("parses");
        let rendered = v.to_string();
        let back = parse(&rendered).expect("re-parses");
        assert_eq!(back, v);
    }

    #[test]
    fn type_errors_name_the_field() {
        let v = parse(r#"{"a": "text"}"#).unwrap();
        let err = v.get("a").unwrap().as_u64("field a").unwrap_err();
        assert!(err.contains("field a") && err.contains("string"), "{err}");
    }
}
