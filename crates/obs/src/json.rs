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

/// Writes `s` as a JSON string literal with escaping — the string
/// writer every [`Json`] rendering goes through, public so a caller can
/// render a document straight into a buffer without building a tree.
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

/// Writes `n` the way [`Json::Num`] renders: integers without a
/// trailing `.0`, non-finite values as `null` (JSON has no NaN/Inf).
pub fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
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
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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
        let mut r = Reader::new(text);
        r.skip_ws();
        let v = r.value(0)?;
        r.finish()?;
        Ok(v)
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Deep enough for
/// any document this workspace produces; shallow enough that the
/// recursive parser stays well inside even a small thread stack.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A byte cursor over one JSON document: the tokenizer under
/// [`Json::parse`]. It is public so a reader that knows the shape of
/// its document can take scalars straight into typed storage and fall
/// back to [`Reader::value`] for anything else; every error string and
/// byte offset is the one [`Json::parse`] reports for the same input.
///
/// Offsets are byte offsets into the text, and the cursor only ever
/// stops on a character boundary: it steps over ASCII bytes one at a
/// time and over other characters whole.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// The next byte, without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips ASCII whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Consumes the next character with its byte offset.
    #[inline]
    fn next_char(&mut self) -> Option<(usize, char)> {
        let at = self.pos;
        let b = *self.text.as_bytes().get(at)?;
        let c = if b.is_ascii() {
            b as char
        } else {
            self.text[at..].chars().next()?
        };
        self.pos += c.len_utf8();
        Some((at, c))
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next_char() {
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

    /// The end of the document: only whitespace may follow.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.next_char() {
            None => Ok(()),
            Some((i, c)) => Err(format!("trailing '{c}' at byte {i}")),
        }
    }

    /// The nesting check a value at `depth` passes before it is read
    /// (the document itself is depth 0).
    #[inline]
    pub fn enter(&self, depth: usize) -> Result<(), String> {
        if depth >= MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting exceeds {MAX_PARSE_DEPTH} levels; document rejected"
            ));
        }
        Ok(())
    }

    /// The cursor's byte offset into the text.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Opens the object whose `{` is the next byte, at nesting `depth`.
    /// `Ok(None)` means the object was empty and its `}` is consumed
    /// too; otherwise the first member's key is returned with its `:`
    /// consumed, and the member's value follows.
    pub fn begin_object(&mut self, depth: usize) -> Result<Option<String>, String> {
        self.expect('{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        self.member_key(depth).map(Some)
    }

    /// After a member's value in an object at nesting `depth`: the next
    /// member's key (its `:` consumed) when a `,` announces one,
    /// `Ok(None)` when `}` closed the object.
    pub fn next_member(&mut self, depth: usize) -> Result<Option<String>, String> {
        self.skip_ws();
        match self.next_char() {
            Some((_, ',')) => self.member_key(depth).map(Some),
            Some((_, '}')) => Ok(None),
            Some((i, c)) => Err(format!("expected ',' or '}}' at byte {i}, found '{c}'")),
            None => Err("unterminated object".into()),
        }
    }

    /// A member key and its `:`. The key is read as a whole value one
    /// level down, so a non-string key reports what it was.
    fn member_key(&mut self, depth: usize) -> Result<String, String> {
        self.skip_ws();
        let key = match self.value(depth + 1)? {
            Json::Str(s) => s,
            other => return Err(format!("object key must be a string, got {other}")),
        };
        self.skip_ws();
        self.expect(':')?;
        Ok(key)
    }

    /// Opens the array whose `[` is the next byte. `Ok(true)` means the
    /// array was empty and its `]` is consumed too; otherwise an item
    /// follows.
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, String> {
        self.expect('[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// After an array item: `Ok(true)` when a `,` announces another
    /// item, `Ok(false)` when `]` closed the array.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.skip_ws();
        match self.next_char() {
            Some((_, ',')) => Ok(true),
            Some((_, ']')) => Ok(false),
            Some((i, c)) => Err(format!("expected ',' or ']' at byte {i}, found '{c}'")),
            None => Err("unterminated array".into()),
        }
    }

    /// Consumes the number whose first byte (`-` or a digit) is next
    /// and returns its text, unparsed.
    #[inline]
    pub fn number_text(&mut self) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        self.pos += 1;
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_digit()
                || matches!(bytes[self.pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Parses number text the way [`Json::parse`] does.
    pub fn parse_number(text: &str) -> Result<f64, String> {
        text.parse::<f64>()
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    /// Reads the string whose `"` is the next byte, appending its
    /// unescaped contents to `out`.
    pub fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let bytes = self.text.as_bytes();
        loop {
            let start = self.pos;
            while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    self.pos += 1;
                    match self.next_char() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'b')) => out.push('\u{8}'),
                        Some((_, 'f')) => out.push('\u{c}'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (i, c) = self
                                    .next_char()
                                    .ok_or_else(|| "unterminated \\u escape".to_string())?;
                                code = code * 16
                                    + c.to_digit(16)
                                        .ok_or_else(|| format!("bad hex '{c}' at byte {i}"))?;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                        None => return Err("unterminated escape".into()),
                    }
                }
            }
        }
    }

    /// Reads one whole value at nesting `depth` and drops it: the
    /// checks and error strings of [`Reader::value`], without building
    /// a tree.
    pub fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        self.enter(depth)?;
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut key = self.begin_object(depth)?;
                while key.is_some() {
                    self.skip_value(depth + 1)?;
                    key = self.next_member(depth)?;
                }
                Ok(())
            }
            Some(b'[') => {
                if self.begin_array()? {
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    if !self.next_item()? {
                        return Ok(());
                    }
                }
            }
            Some(b'"') => self.string_into(&mut String::new()),
            _ => self.value(depth).map(drop),
        }
    }

    /// Reads one whole value at nesting `depth` into a tree.
    pub fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.enter(depth)?;
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                let mut members = Vec::new();
                let mut key = self.begin_object(depth)?;
                while let Some(k) = key {
                    members.push((k, self.value(depth + 1)?));
                    key = self.next_member(depth)?;
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.begin_array()? {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if !self.next_item()? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => {
                let mut s = String::new();
                self.string_into(&mut s)?;
                Ok(Json::Str(s))
            }
            Some(b't') => {
                self.pos += 1;
                self.literal("rue", Json::Bool(true))
            }
            Some(b'f') => {
                self.pos += 1;
                self.literal("alse", Json::Bool(false))
            }
            Some(b'n') => {
                self.pos += 1;
                self.literal("ull", Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => Self::parse_number(self.number_text()).map(Json::Num),
            Some(_) => match self.next_char() {
                Some((i, c)) => Err(format!("unexpected '{c}' at byte {i}")),
                None => Err("unexpected end of input".into()),
            },
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

/// Numbers, strings and booleans convert straight into their variant.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from!(
    f64 => |n| Json::Num(n),
    usize => |n| Json::Num(n as f64),
    u64 => |n| Json::Num(n as f64),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.into()),
    String => |s| Json::Str(s),
);

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-iterator parser [`Reader`] replaced, kept verbatim as
    /// the differential oracle: the byte reader must return the same
    /// value or the same error string on every input.
    mod oracle {
        use super::super::{Json, MAX_PARSE_DEPTH};

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
                                other => {
                                    return Err(format!("object key must be a string, got {other}"))
                                }
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
                                    return Err(format!(
                                        "expected ',' or '}}' at byte {i}, found '{c}'"
                                    ))
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
                                    return Err(format!(
                                        "expected ',' or ']' at byte {i}, found '{c}'"
                                    ))
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
                                    Some((i, c)) => {
                                        return Err(format!("bad escape '\\{c}' at byte {i}"))
                                    }
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
                            Some((_, c)) if c.is_ascii_digit()
                                || matches!(c, '.' | 'e' | 'E' | '+' | '-')
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
    }

    /// splitmix64: a seeded stream for the differential tests (the
    /// crate has no dev-dependencies).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const STRINGS: [&str; 8] = [
        "",
        "plain",
        "rows",
        "quote \" and \\ backslash",
        "tab\tnew\nline\r",
        "ctl \u{1} \u{1f}",
        "caf\u{e9} \u{4e2d} \u{1f600}",
        "/slash/",
    ];

    const NUMBERS: [f64; 9] = [
        0.0,
        1.0,
        -7.0,
        42.0,
        0.25,
        -1.5e-7,
        3.0e20,
        123456789.0,
        1e300,
    ];

    fn random_value(rng: &mut Rng, depth: usize) -> Json {
        let pick = if depth >= 5 {
            rng.below(4)
        } else {
            rng.below(6)
        };
        match pick {
            0 => [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3)].clone(),
            1 => Json::Num(NUMBERS[rng.below(NUMBERS.len())]),
            2 => Json::Num(rng.below(100_000) as f64),
            3 => Json::Str(STRINGS[rng.below(STRINGS.len())].into()),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| {
                        (
                            STRINGS[rng.below(STRINGS.len())].to_string(),
                            random_value(rng, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Renders `v` with random whitespace between tokens.
    fn spaced(rng: &mut Rng, v: &Json) -> String {
        const WS: [&str; 6] = ["", "", " ", "\n", "\t ", "\r\n  "];
        let text = v.to_string();
        let mut out = String::new();
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if !in_string && matches!(c, '{' | '}' | '[' | ']' | ',' | ':') {
                out.push_str(WS[rng.below(WS.len())]);
                out.push(c);
                out.push_str(WS[rng.below(WS.len())]);
                continue;
            }
            out.push(c);
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
            } else if c == '"' {
                in_string = true;
            }
        }
        out
    }

    fn assert_same(text: &str) {
        assert_eq!(Json::parse(text), oracle::parse(text), "input {text:?}");
        // Skipping reports what parsing does, and stops where it stops.
        let (mut parsed, mut skipped) = (Reader::new(text), Reader::new(text));
        let tree = parsed.value(0).map(drop);
        assert_eq!(skipped.skip_value(0), tree, "skip of {text:?}");
        assert_eq!(skipped.offset(), parsed.offset(), "skip of {text:?}");
    }

    #[test]
    fn reader_matches_the_oracle_on_random_documents() {
        let mut rng = Rng(0x5eed);
        for _ in 0..2_000 {
            let v = random_value(&mut rng, 0);
            let text = spaced(&mut rng, &v);
            assert_eq!(Json::parse(&text), Ok(v.clone()), "{text:?}");
            assert_same(&text);
        }
    }

    #[test]
    fn reader_matches_the_oracle_on_mutated_bytes() {
        // Splices drawn from the grammar's own alphabet plus multi-byte
        // characters, so mutations land on every error path.
        const SPLICES: [&str; 24] = [
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            "\"",
            "\\",
            "\\u",
            "\\u00e9",
            "\\x",
            "-",
            "+",
            ".",
            "e",
            "0",
            "7",
            "t",
            "nul",
            " ",
            "\n",
            "\u{e9}",
            "\u{1f600}",
            "",
        ];
        let mut rng = Rng(0xb17e);
        for _ in 0..4_000 {
            let v = random_value(&mut rng, 0);
            let mut text = spaced(&mut rng, &v);
            for _ in 0..1 + rng.below(3) {
                let mut at = rng.below(text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + rng.below(3)).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                text.replace_range(at..end, SPLICES[rng.below(SPLICES.len())]);
            }
            assert_same(&text);
            // Every prefix is a truncated document.
            let mut cut = rng.below(text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            assert_same(&text[..cut]);
        }
    }

    #[test]
    fn reader_matches_the_oracle_at_the_nesting_cap() {
        for depth in [
            MAX_PARSE_DEPTH - 2,
            MAX_PARSE_DEPTH - 1,
            MAX_PARSE_DEPTH,
            500,
        ] {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                let deep = format!("{}1{}", open.repeat(depth), close.repeat(depth));
                assert_same(&deep);
                assert_same(&open.repeat(depth));
                assert_same(&format!("{} [1,2]", open.repeat(depth)));
            }
            // A too-deep key position.
            assert_same(&format!("{}{{[1]:2}}", "[".repeat(depth)));
        }
    }

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
