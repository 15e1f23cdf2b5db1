//! The workspace's one JSON reader/writer.
//!
//! The build environment is offline, so instead of pulling in
//! `serde_json` this module implements the small JSON subset the
//! project's artifacts need: objects, arrays, strings with the RFC 8259
//! escapes, finite numbers, booleans and null. Every document the
//! project reads or writes goes through it, and it lives in the one
//! crate that sits below all of their owners. The parser is a plain
//! recursive-descent over bytes; the documents are kilobytes, so
//! clarity beats throughput here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`; no artifact stores
    /// anything that needs more than 53 bits).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object. `BTreeMap` keeps serialization deterministic, which
    /// makes the files diffable and the round-trip tests exact.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A field of this object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(a) if a.is_empty() => out.push_str("[]"),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    v.write(out, depth + 1);
                }
                let _ = write!(out, "\n{}]", "  ".repeat(depth));
            }
            Value::Obj(m) if m.is_empty() => out.push_str("{}"),
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                let _ = write!(out, "\n{}}}", "  ".repeat(depth));
            }
        }
    }
}

/// Append `s` as a JSON string literal, quotes included ([`crate::chrome`]
/// streams its document instead of building a [`Value`]).
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // a decimal point keeps the value a float on re-parse
        let _ = write!(out, "{n:.1}");
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Why parsing failed: byte offset plus a static description — enough
/// to decide "this file is corrupt, start fresh" and say why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser gave up at.
    pub at: usize,
    /// What was expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn lit(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(word))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "'{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "'['")?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(a));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("closing '\"'"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape character"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            self.pos += 4;
                            // surrogates don't occur in our own files;
                            // map them to the replacement character
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                // RFC 8259: control characters inside a string must be
                // escaped, as `write_string` does
                b if b < 0x20 => return Err(self.err("an escaped control character")),
                _ => {
                    // copy the full UTF-8 scalar, not just one byte
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("valid UTF-8"))?;
                    let ch = text.chars().next().ok_or_else(|| self.err("a character"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or(ParseError {
                at: start,
                expected: "a finite number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cache_shapes() {
        let v = parse(
            r#"{ "version": 1.0, "entries": [ { "key": "a|b", "rate": 1.5e9, "ok": true, "none": null } ] }"#,
        )
        .unwrap();
        assert_eq!(v.get("version").and_then(Value::as_num), Some(1.0));
        let e = &v.get("entries").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(e.get("key").and_then(Value::as_str), Some("a|b"));
        assert_eq!(e.get("rate").and_then(Value::as_num), Some(1.5e9));
        assert_eq!(e.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(e.get("none"), Some(&Value::Null));
    }

    #[test]
    fn round_trips_escapes_and_unicode() {
        let mut m = BTreeMap::new();
        m.insert("k\"\\\n\tμ".to_string(), Value::Str("v\r\u{1}°".into()));
        m.insert("n".to_string(), Value::Num(-0.125));
        let v = Value::Obj(m);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_deterministic_and_reparses() {
        let text = r#"{"b": [1, 2.5], "a": {"x": "y"}, "z": []}"#;
        let v = parse(text).unwrap();
        let p1 = v.pretty();
        let p2 = parse(&p1).unwrap().pretty();
        assert_eq!(p1, p2);
        // keys come back sorted
        assert!(p1.find("\"a\"").unwrap() < p1.find("\"b\"").unwrap());
    }

    #[test]
    fn rejects_garbage_with_an_offset() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"\t\"",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.at <= bad.len(), "{bad:?}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn integers_keep_a_decimal_point() {
        assert_eq!(Value::Num(4.0).pretty(), "4.0\n");
        assert_eq!(parse("4.0").unwrap(), Value::Num(4.0));
    }
}
