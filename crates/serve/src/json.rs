//! A minimal JSON tree, parser, and renderer for the daemon's wire
//! protocol.
//!
//! The workspace builds offline and its vendored `serde` is a no-op
//! API stand-in, so the protocol layer carries its own JSON — small,
//! panic-free, and exact where the protocol needs exactness: numbers
//! render through Rust's shortest-round-trip `f64` formatting and parse
//! back bit-identical, so a counter that crosses the wire twice is
//! still the same counter.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map), so
//! rendering is deterministic and daemon log lines diff cleanly.

use std::fmt;

/// Maximum nesting depth the parser accepts. The protocol uses three
/// levels; the bound exists so a hostile frame cannot recurse the stack
/// away.
const MAX_DEPTH: u32 = 64;

/// Maximum array elements plus object members in one parsed document.
/// No protocol array carries per-site data (a region's sites travel as
/// one hex string), so the largest legitimate containers are the
/// `sessions` list of a `stats` frame (seven items per session) and
/// a `destroy`'s `promoted` list; the daemon caps its sessions at
/// `daemon::MAX_SESSIONS` = `MAX_ITEMS / 8` so that every `stats` frame
/// it sends stays under this bound. The bound exists so a hostile frame —
/// 16 MiB of `[0,0,0,…]` would otherwise build about 8M values —
/// cannot make the parser allocate more than a few MiB of tree.
pub const MAX_ITEMS: usize = 1 << 16;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order. Duplicate keys are kept as
    /// written; [`Value::get`] returns the first.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (first match); `None` for other
    /// variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fraction, no overflow — `2^53` bounds what a JSON
    /// number can carry losslessly anyway).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            // lattice-lint: allow(raw-cast) — guarded integral f64 → u64.
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The numeric payload as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.is_finite() && n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
            // lattice-lint: allow(raw-cast) — guarded integral f64 → i64.
            Some(n as i64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: a number from a `u64` (exact up to
    /// `2^53`, the JSON interoperability limit; daemon counters live
    /// far below it).
    pub fn num_u64(n: u64) -> Value {
        // lattice-lint: allow(raw-cast) — the one widening point onto the wire.
        Value::Num(n as f64)
    }

    /// Convenience constructor: a number from a `usize`.
    pub fn num_usize(n: usize) -> Value {
        Value::num_u64(u64::try_from(n).unwrap_or(u64::MAX))
    }

    /// Convenience constructor: a number from an `i64`.
    pub fn num_i64(n: i64) -> Value {
        // lattice-lint: allow(raw-cast) — the one widening point onto the wire.
        Value::Num(n as f64)
    }

    /// Renders the value as compact JSON (no whitespace). Non-finite
    /// numbers render as `null` — JSON has no spelling for them, and
    /// the protocol encodes "unthrottled" capacities as `null`
    /// explicitly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if n.is_finite() {
                    // Shortest representation that parses back to the
                    // same f64 — Rust's Display contract for floats.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what was expected, at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

/// Parses one JSON value from `input`, requiring it to consume the
/// whole string (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, items: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Array elements and object members parsed so far.
    items: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Counts one more container item against [`MAX_ITEMS`].
    fn item(&mut self) -> Result<(), ParseError> {
        self.items += 1;
        if self.items > MAX_ITEMS {
            return Err(self.err(&format!("more than {MAX_ITEMS} array/object items")));
        }
        Ok(())
    }

    fn value(&mut self, depth: u32) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.item()?;
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.item()?;
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next escape or
            // closing quote.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(self.err("invalid UTF-8 in string")),
                }
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: require \uXXXX for the
                            // low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else if (0xdc00..0xe000).contains(&hi) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid \\u escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("0", Value::Num(0.0)),
            ("-1.5", Value::Num(-1.5)),
            ("1e-3", Value::Num(1e-3)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), v, "{text}");
            assert_eq!(parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn structures_round_trip_and_preserve_order() {
        let v = Value::Obj(vec![
            ("b".into(), Value::Arr(vec![Value::Num(1.0), Value::Null])),
            ("a".into(), Value::Obj(vec![("x".into(), Value::Bool(false))])),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"b":[1,null],"a":{"x":false}}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\"back\\slash\ttab\u{0001}end π";
        let v = Value::Str(s.into());
        assert_eq!(parse(&v.render()).unwrap(), v);
        // Standard escapes parse too.
        assert_eq!(parse(r#""\u0041\u00e9\ud83d\ude00\/""#).unwrap(), Value::Str("Aé😀/".into()));
    }

    #[test]
    fn f64_values_round_trip_exactly() {
        for n in [0.1, 1.0 / 3.0, 1.23456789e300, 5e-324, -0.0, 9_007_199_254_740_992.0] {
            let v = Value::Num(n);
            let back = parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), n.to_bits(), "{n}");
        }
        // Non-finite renders as null.
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn integer_accessors_are_exact_or_refuse() {
        assert_eq!(Value::Num(42.0).as_u64(), Some(42));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(f64::INFINITY).as_u64(), None);
        assert_eq!(Value::Num(-3.0).as_i64(), Some(-3));
        assert_eq!(Value::num_u64(123456789).as_u64(), Some(123456789));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "[1 2]",
            "tru",
            "nul",
            "01x",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "{\"a\":1}x",
            "+1",
            "--2",
            "\u{0007}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        for _ in 0..200 {
            deep.push(']');
        }
        assert!(parse(&deep).is_err(), "depth bound must hold");
    }

    #[test]
    fn container_items_are_bounded_per_document() {
        // A frame-sized flood of zeros, of empty-key members, and of
        // nested arrays: each stops with an error as soon as item
        // MAX_ITEMS + 1 opens, having read (and built) no more than
        // MAX_ITEMS items' worth of the 16 MiB input.
        let frame = 16 * 1024 * 1024;
        let flat = format!("[{}0]", "0,".repeat(frame / 2));
        let members = format!("{{{}\"\":0}}", "\"\":0,".repeat(frame / 5));
        let nested = format!("[{}[]]", "[0,0,0],".repeat(frame / 8));
        for (what, text, per_item) in
            [("flat", flat, 2), ("members", members, 5), ("nested", nested, 8)]
        {
            let e = parse(&text).expect_err(what);
            assert!(e.message.contains("items"), "{what}: {e}");
            assert!(e.at <= per_item * (MAX_ITEMS + 1), "{what} read on to byte {}", e.at);
        }
        // At the bound, a document still parses.
        let full = format!("[{}0]", "0,".repeat(MAX_ITEMS - 1));
        assert_eq!(parse(&full).unwrap().as_arr().map(<[Value]>::len), Some(MAX_ITEMS));
    }

    #[test]
    fn object_get_returns_first_match() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
