//! The workspace's one JSON reader and one JSON writer.
//!
//! Everything that emits JSON (the run log, the recorder's summary, the
//! Chrome-trace exporter, the supervisor's event log, the bench report and
//! the diff verdict) builds it with [`Object`] / [`Array`]; everything
//! that reads JSON back (the bench barometer, the repo benchmark, the
//! integration tests that check the emitters) parses it with
//! [`parse_json`]. No dependency, and no allocation on the write path
//! beyond the caller's own buffer.

use std::fmt::Write as _;

/// Escapes a string for inclusion inside a JSON string literal,
/// appending to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Where a writer builds its text, and what closing the outermost value
/// does with it: nothing for a plain `&mut String`; a
/// [`crate::metrics::RunLog`] sends the finished line to its sink.
pub trait Buffer {
    /// What [`Object::end`] and [`Array::end`] return.
    type Closed;
    /// The text under construction.
    fn text(&mut self) -> &mut String;
    /// Runs once, after the closing bracket is written.
    fn close(self) -> Self::Closed;
}

impl Buffer for &mut String {
    type Closed = ();

    fn text(&mut self) -> &mut String {
        self
    }

    fn close(self) {}
}

/// A float as a JSON token: `decimals` places, `null` when non-finite
/// (JSON has no `inf` or `NaN`).
fn number(out: &mut String, v: f64, decimals: usize) {
    if v.is_finite() {
        let _ = write!(out, "{v:.decimals$}");
    } else {
        out.push_str("null");
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes one JSON object, fields in call order, into a caller-owned
/// buffer without allocating. Keys and string values are escaped; floats
/// are fixed-point at the call site's precision.
pub struct Object<B: Buffer> {
    out: B,
    any: bool,
    spaced: bool,
}

impl<B: Buffer> Object<B> {
    /// Opens an object at the end of `out`.
    pub fn new(out: B) -> Self {
        Object::open(out, false)
    }

    fn open(mut out: B, spaced: bool) -> Self {
        out.text().push('{');
        let any = false;
        Object { out, any, spaced }
    }

    /// Separates with `": "` and `", "` instead of `":"` and `","`, here
    /// and in everything nested. Call before the first field.
    pub fn spaced(mut self) -> Self {
        self.spaced = true;
        self
    }

    fn key(&mut self, k: &str) -> &mut String {
        let out = self.out.text();
        if self.any {
            out.push_str(if self.spaced { ", " } else { "," });
        }
        self.any = true;
        string(out, k);
        out.push_str(if self.spaced { ": " } else { ":" });
        out
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Appends a float field with six decimals (`null` when non-finite).
    pub fn f64(self, k: &str, v: f64) -> Self {
        self.fixed(k, v, 6)
    }

    /// Appends a float field with `decimals` places (`null` when
    /// non-finite).
    pub fn fixed(mut self, k: &str, v: f64, decimals: usize) -> Self {
        number(self.key(k), v, decimals);
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        string(self.key(k), v);
        self
    }

    /// Appends a `null` field.
    pub fn null(mut self, k: &str) -> Self {
        self.key(k).push_str("null");
        self
    }

    /// Appends an array of floats (`null` elements when non-finite).
    pub fn f64_slice(self, k: &str, vs: &[f64]) -> Self {
        self.array(k, |a| vs.iter().fold(a, |a, &v| a.f64(v)))
    }

    /// Appends an array of unsigned integers.
    pub fn usize_slice(self, k: &str, vs: &[usize]) -> Self {
        self.array(k, |a| vs.iter().fold(a, |a, &v| a.u64(v as u64)))
    }

    /// Appends a nested object; `fields` adds its fields.
    pub fn object(
        mut self,
        k: &str,
        fields: impl FnOnce(Object<&mut String>) -> Object<&mut String>,
    ) -> Self {
        let spaced = self.spaced;
        fields(Object::open(self.key(k), spaced)).end();
        self
    }

    /// Appends a nested array; `items` adds its items.
    pub fn array(
        mut self,
        k: &str,
        items: impl FnOnce(Array<&mut String>) -> Array<&mut String>,
    ) -> Self {
        let spaced = self.spaced;
        items(Array::open(self.key(k), spaced)).end();
        self
    }

    /// Closes the object.
    pub fn end(mut self) -> B::Closed {
        self.out.text().push('}');
        self.out.close()
    }
}

/// Writes one JSON array; the counterpart of [`Object`].
pub struct Array<B: Buffer> {
    out: B,
    any: bool,
    spaced: bool,
    rows: bool,
}

impl<B: Buffer> Array<B> {
    /// Opens an array at the end of `out`.
    pub fn new(out: B) -> Self {
        Array::open(out, false)
    }

    fn open(mut out: B, spaced: bool) -> Self {
        out.text().push('[');
        let (any, rows) = (false, false);
        Array {
            out,
            any,
            spaced,
            rows,
        }
    }

    /// As [`Object::spaced`].
    pub fn spaced(mut self) -> Self {
        self.spaced = true;
        self
    }

    /// Puts every item on a line of its own (reports are diffed and read
    /// record by record). Call before the first item.
    pub fn rows(mut self) -> Self {
        self.rows = true;
        self
    }

    fn item(&mut self) -> &mut String {
        let out = self.out.text();
        if self.any {
            out.push_str(if self.spaced && !self.rows { ", " } else { "," });
        }
        if self.rows {
            out.push_str("\n  ");
        }
        self.any = true;
        out
    }

    /// Appends an unsigned integer.
    pub fn u64(mut self, v: u64) -> Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// Appends a float with six decimals (`null` when non-finite).
    pub fn f64(mut self, v: f64) -> Self {
        number(self.item(), v, 6);
        self
    }

    /// Appends an object; `fields` adds its fields.
    pub fn object(
        mut self,
        fields: impl FnOnce(Object<&mut String>) -> Object<&mut String>,
    ) -> Self {
        let spaced = self.spaced;
        fields(Object::open(self.item(), spaced)).end();
        self
    }

    /// Closes the array.
    pub fn end(mut self) -> B::Closed {
        let out = self.out.text();
        if self.rows && self.any {
            out.push('\n');
        }
        out.push(']');
        self.out.close()
    }
}

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, msg)
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // `get` answers with the first match, so a repeated key
            // would silently shadow a value: reject it instead.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u hex"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u hex"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf8"))?,
                    );
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[",
            "[1,]",
            "{\"a\":}",
            "[1] trailing",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "[01x]",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
        let ok = parse_json("[{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}]").unwrap();
        assert!(matches!(&ok, Json::Arr(items) if items.len() == 1));
    }

    #[test]
    fn escaped_strings_parse_back_to_themselves() {
        for s in [
            "a\"b",
            "a\\b",
            "a\nb\tc\rd",
            "a\u{1}b\u{8}\u{c}",
            "µs → done",
        ] {
            let mut doc = String::from("\"");
            escape_into(&mut doc, s);
            doc.push('"');
            assert_eq!(parse_json(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
