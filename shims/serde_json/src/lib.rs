//! Offline stand-in for `serde_json`, paired with the in-repo `serde`
//! shim: serialisation renders the shim's [`Value`] tree as JSON text,
//! and [`parse_value_complete`] parses JSON text back into a [`Value`]
//! tree. Serialisation is output-only — nothing rebuilds a typed value
//! from the tree; a reader walks it with [`Value::field`].
//!
//! JSON compatibility notes: non-finite floats serialise as `null`,
//! integers are exact through `i64`/`u64` (the parser yields `U64` only
//! above `i64::MAX`), and floats use Rust's shortest round-trip
//! `Display` form, so an integral float renders as an integer (`3.0` as
//! `3`).

use serde::Serialize;
pub use serde::Value;

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ----------------------------------------------------------------- encode

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // `{}` is Rust's shortest round-trip form; an integral
                // float renders without a fraction and parses back as an
                // integer.
                out.push_str(&f.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----------------------------------------------------------------- decode

/// Parse a complete JSON document into a [`Value`].
pub fn parse_value_complete(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => {
                Err(Error::new(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)))
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid utf-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair support for completeness.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new(format!("invalid codepoint {cp:#x}")))?
                            };
                            out.push(c);
                        }
                        other => return Err(Error::new(format!("invalid escape '\\{}'", other as char))),
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let hex = self.bytes.get(self.pos..end).ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| Error::new(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        parse_value_complete(s).unwrap()
    }

    #[test]
    fn scalars_render_and_parse() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
        assert_eq!(parse("0.5"), Value::F64(0.5));
        assert_eq!(parse("1e3"), Value::F64(1000.0));
        assert_eq!(parse("-7"), Value::I64(-7));
        let big = to_string(&u64::MAX).unwrap();
        assert_eq!(parse(&big), Value::U64(u64::MAX));
    }

    #[test]
    fn integral_floats_render_as_integers() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3");
        assert_eq!(parse("3"), Value::I64(3));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}é😀";
        assert_eq!(parse(&to_string(&s).unwrap()), Value::Str(s.into()));
        assert_eq!(parse(r#""\u0041é\ud83d\ude00""#), Value::Str("Aé😀".into()));
    }

    #[test]
    fn containers_render_and_parse() {
        let v = vec![(1u32, "one".to_string())];
        assert_eq!(to_string(&v).unwrap(), r#"[[1,"one"]]"#);
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), vec![1u64, 2]);
        let json = to_string_pretty(&m).unwrap();
        assert_eq!(json, "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(parse(&json), m.to_value());
        assert_eq!(to_vec(&v).unwrap(), to_string(&v).unwrap().into_bytes());
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(parse(" [ 1 , 2 ] "), Value::Array(vec![Value::I64(1), Value::I64(2)]));
        assert!(parse_value_complete("12 34").is_err());
        assert!(parse_value_complete("").is_err());
        assert!(parse_value_complete("[1,").is_err());
        assert!(parse_value_complete("\"abc").is_err());
    }
}
