//! A JSON value with a writer and a parser — the workspace has no serde,
//! and the benchmark may depend on nothing outside its own directory but
//! the library it measures.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept: files are written in a stable, readable order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    /// `indent = None` writes one line; `Some(n)` pretty-prints at depth
    /// `n`, keeping arrays and objects of scalars on one line.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest digits that round-trip, never an
            // exponent JSON cannot read; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                let inner = indent.filter(|_| !items.iter().all(scalar)).map(|n| n + 1);
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    separator(f, i, inner)?;
                    item.write(f, inner)?;
                }
                close(f, "]", items.is_empty(), inner)
            }
            Json::Obj(pairs) => {
                let inner = indent
                    .filter(|_| !pairs.iter().all(|(_, v)| scalar(v)))
                    .map(|n| n + 1);
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    separator(f, i, inner)?;
                    write_str(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, inner)?;
                }
                close(f, "}", pairs.is_empty(), inner)
            }
        }
    }
}

fn separator(f: &mut fmt::Formatter<'_>, index: usize, inner: Option<usize>) -> fmt::Result {
    match (index, inner) {
        (0, None) => Ok(()),
        (_, None) => f.write_str(", "),
        (0, Some(n)) => write!(f, "\n{:w$}", "", w = 2 * n),
        (_, Some(n)) => write!(f, ",\n{:w$}", "", w = 2 * n),
    }
}

fn close(
    f: &mut fmt::Formatter<'_>,
    bracket: &str,
    empty: bool,
    inner: Option<usize>,
) -> fmt::Result {
    match inner {
        Some(n) if !empty => write!(f, "\n{:w$}{bracket}", "", w = 2 * (n - 1)),
        _ => f.write_str(bracket),
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// `{}` is one line (the result line the driver reads); `{:#}` is the
/// indented form of the files people read.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    pairs.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
                }
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            self.pos += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(86016.0)),
            ("tiny", Json::Num(1.25e-7)),
            ("name", Json::str("a \"quoted\"\nline — ünï")),
            ("none", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "op_p50_s",
                    Json::obj([("value", Json::Num(0.50123)), ("unit", Json::str("s"))]),
                )]),
            ),
            (
                "list",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Arr(vec![]),
                    Json::obj::<&str>([]),
                ]),
            ),
        ])
    }

    #[test]
    fn one_line_form_is_what_the_driver_reads() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(20.0)),
            (
                "m",
                Json::obj([("value", Json::Num(0.5)), ("unit", Json::str("s"))]),
            ),
        ])
        .to_string();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 20, "m": {"value": 0.5, "unit": "s"}}"#
        );
    }

    #[test]
    fn both_forms_round_trip() {
        let v = sample();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let pretty = format!("{v:#}");
        assert!(pretty.lines().count() > 5, "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn numbers_keep_every_digit_and_never_use_an_unreadable_form() {
        for x in [0.1 + 0.2, 1e-9, 123456789.125, 1e21, 5e-324] {
            let text = Json::Num(x).to_string();
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                x.to_bits(),
                "{text}"
            );
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(x));
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "[1] 2",
            "\"\\u12\"",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn lookups() {
        let v = sample();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(86016.0));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("op_p50_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert!(v.get("missing").is_none());
        assert_eq!(
            v.get("list").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
