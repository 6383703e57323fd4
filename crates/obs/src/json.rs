//! A minimal JSON value: render and parse, no dependencies.
//!
//! Exists so the run journal can emit *and read back* JSONL without a
//! registry crate (the build environment is offline — see `shims/`).
//! Covers the JSON the journal produces: objects, arrays, strings with
//! escapes, integers/floats, booleans, null. Not a general-purpose
//! parser (no surrogate-pair decoding in `\u` escapes beyond the BMP).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (rendered without trailing `.0` for integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Writes `s` as a JSON string literal with escaping.
fn write_escaped(out: &mut String, s: &str) {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.render_into(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// Nesting is capped at [`MAX_PARSE_DEPTH`] levels: the parser is
    /// recursive descent, and without the cap a hostile document of a
    /// few hundred thousand `[` characters overflows the thread stack —
    /// an abort, not a catchable error. Beyond the cap parsing returns
    /// a normal `Err`.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        match p.chars.next() {
            None => Ok(v),
            Some((i, c)) => Err(format!("trailing '{c}' at byte {i}")),
        }
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Deep enough for
/// any document this workspace produces; shallow enough that the
/// recursive parser stays well inside even a small thread stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}', found '{c}' at byte {i}")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn literal(&mut self, rest: &str, value: Json) -> Result<Json, String> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth >= MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting exceeds {MAX_PARSE_DEPTH} levels; document rejected"
            ));
        }
        self.skip_ws();
        match self.chars.peek().copied() {
            None => Err("unexpected end of input".into()),
            Some((_, '{')) => {
                self.chars.next();
                let mut members = Vec::new();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, '}'))) {
                    self.chars.next();
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = match self.value(depth + 1)? {
                        Json::Str(s) => s,
                        other => return Err(format!("object key must be a string, got {other}")),
                    };
                    self.skip_ws();
                    self.expect(':')?;
                    let v = self.value(depth + 1)?;
                    members.push((key, v));
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, '}')) => return Ok(Json::Obj(members)),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or '}}' at byte {i}, found '{c}'"))
                        }
                        None => return Err("unterminated object".into()),
                    }
                }
            }
            Some((_, '[')) => {
                self.chars.next();
                let mut items = Vec::new();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, ']'))) {
                    self.chars.next();
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, ']')) => return Ok(Json::Arr(items)),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or ']' at byte {i}, found '{c}'"))
                        }
                        None => return Err("unterminated array".into()),
                    }
                }
            }
            Some((_, '"')) => {
                self.chars.next();
                let mut s = String::new();
                loop {
                    match self.chars.next() {
                        None => return Err("unterminated string".into()),
                        Some((_, '"')) => return Ok(Json::Str(s)),
                        Some((_, '\\')) => match self.chars.next() {
                            Some((_, '"')) => s.push('"'),
                            Some((_, '\\')) => s.push('\\'),
                            Some((_, '/')) => s.push('/'),
                            Some((_, 'n')) => s.push('\n'),
                            Some((_, 'r')) => s.push('\r'),
                            Some((_, 't')) => s.push('\t'),
                            Some((_, 'b')) => s.push('\u{8}'),
                            Some((_, 'f')) => s.push('\u{c}'),
                            Some((_, 'u')) => {
                                let mut code = 0u32;
                                for _ in 0..4 {
                                    let (i, c) = self
                                        .chars
                                        .next()
                                        .ok_or("unterminated \\u escape".to_string())?;
                                    code = code * 16
                                        + c.to_digit(16)
                                            .ok_or(format!("bad hex '{c}' at byte {i}"))?;
                                }
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                            None => return Err("unterminated escape".into()),
                        },
                        Some((_, c)) => s.push(c),
                    }
                }
            }
            Some((_, 't')) => {
                self.chars.next();
                self.literal("rue", Json::Bool(true))
            }
            Some((_, 'f')) => {
                self.chars.next();
                self.literal("alse", Json::Bool(false))
            }
            Some((_, 'n')) => {
                self.chars.next();
                self.literal("ull", Json::Null)
            }
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                self.chars.next();
                let mut end = start + c.len_utf8();
                while matches!(
                    self.chars.peek(),
                    Some((_, c)) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')
                ) {
                    let (i, c) = self.chars.next().expect("peeked");
                    end = i + c.len_utf8();
                }
                self.text[start..end]
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number '{}': {e}", &self.text[start..end]))
            }
            Some((i, c)) => Err(format!("unexpected '{c}' at byte {i}")),
        }
    }
}

/// Shorthand for building an object.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = obj(vec![
            ("name", Json::Str("train \"quoted\"\nline".into())),
            ("n", Json::Num(42.0)),
            ("ratio", Json::Num(0.25)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "spans",
                Json::Arr(vec![obj(vec![("total_ns", Json::Num(123456789.0))])]),
            ),
        ]);
        let text = v.to_string();
        assert!(text.contains("\\\"quoted\\\""), "{text}");
        assert!(text.contains("\"n\":42,"), "{text}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("ratio").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            back.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e1 ] , \"b\" : \"x\\u0041\" } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xA"));
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        // A few hundred thousand '[' would overflow the stack without
        // the depth cap — overflow is an abort, not a catchable panic,
        // so this test existing and passing IS the regression check.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(500_000);
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting exceeds"), "{err}");
        }
        // Balanced-but-too-deep documents are rejected too.
        let balanced = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&balanced).is_err());
        // Documents at reasonable depth still parse.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH - 1),
            "]".repeat(MAX_PARSE_DEPTH - 1)
        );
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
