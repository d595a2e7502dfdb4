//! Minimal JSON reading/writing for the machine-readable bench artifacts.
//!
//! The workspace builds fully offline with no serialization dependency, so
//! the `BENCH_*.json` artifacts are written by [`crate::artifact`] and
//! read back by this hand-rolled recursive-descent parser. It supports
//! exactly the JSON subset those artifacts use — objects, arrays, strings
//! with the common escapes and `\u` surrogate pairs, finite numbers in the
//! RFC 8259 grammar, booleans, and null — and rejects everything else with
//! a position-tagged error, which is what the CI schema gate wants: a
//! malformed artifact must fail loudly, not parse loosely.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys are kept in a [`BTreeMap`] so
/// re-rendering and diagnostics are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite double (the artifacts never use NaN/Inf, which JSON
    /// cannot represent anyway).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a finite number, if it is one.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (one value plus trailing whitespace).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(want), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(b) => Err(format!("unexpected byte '{}' at {}", char::from(*b), *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// Parses a number under the RFC 8259 grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let bad = |what: &str| format!("bad number at byte {start}: {what}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(bad("expected a digit")),
    }
    if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        return Err(bad("leading zero"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(bad("expected a digit after '.'"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(bad("expected a digit in the exponent"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {text:?} at byte {start}"));
    }
    Ok(Json::Num(n))
}

/// The code unit of the `\uXXXX` escape whose backslash is at byte `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    bytes
        .get(at + 2..at + 6)
        .and_then(|hex| {
            hex.iter()
                .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
        })
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let at = *pos - 1;
                        let mut code = hex4(bytes, at)?;
                        *pos += 4;
                        // A high surrogate must be followed by an escaped
                        // low one; the pair encodes one supplementary
                        // scalar.
                        if (0xD800..0xDC00).contains(&code) {
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => hex4(bytes, *pos + 1)?,
                                _ => 0,
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!("lone surrogate escape at byte {at}"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("lone surrogate escape at byte {at}"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(char::from(b));
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: take the whole scalar from the source.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("empty string tail")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        out.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_artifact_shape() {
        let doc = r#"{
            "bench": "sim_throughput",
            "schema_version": 1,
            "points": [
                {"design": "V10-Full", "tenants": 32, "cycles_per_wall_second": 1.5e8},
                {"design": "PMT", "tenants": 8, "cycles_per_wall_second": 2e8}
            ],
            "ok": true,
            "none": null
        }"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("bench").and_then(Json::as_str),
            Some("sim_throughput")
        );
        assert_eq!(v.get("schema_version").and_then(Json::as_num), Some(1.0));
        let points = v.get("points").and_then(Json::as_arr).expect("array");
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0]
                .get("cycles_per_wall_second")
                .and_then(Json::as_num),
            Some(1.5e8)
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1e999").is_err()); // overflows to inf: rejected
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
        // RFC 8259 numbers: no leading zeros, no bare '.', a digit on both
        // sides of the point and in the exponent, no leading '+'.
        for bad in [
            "01", "-01", "1.", "1.e5", "-.5", ".5", "-", "+1", "1e", "1e+", "0x1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        for (good, n) in [("0", 0.0), ("-0.5", -0.5), ("10", 10.0), ("1.5e-3", 1.5e-3)] {
            assert_eq!(parse(good), Ok(Json::Num(n)), "{good:?}");
        }
        assert_eq!(parse("2E+2"), Ok(Json::Num(200.0)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\nb\t\"c\" A ü""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\nb\t\"c\" A ü"));
        assert_eq!(escape("a\nb\t\"c\""), r#"a\nb\t\"c\""#);

        // A surrogate pair is one supplementary scalar.
        let v = parse(r#""\ud83d\ude00 \u00e9""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{1F600} \u{e9}"));
        // Lone surrogates and short or non-hex escapes are rejected, with
        // the position of the offending escape.
        for (bad, at) in [
            (r#""\ud800""#, 1),
            (r#""x\ud800\u0041""#, 2),
            (r#""\udc00""#, 1),
            (r#""\ud83d\ude0""#, 7),
            (r#""\u+123""#, 1),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.ends_with(&format!("at byte {at}")), "{bad}: {err}");
        }
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = parse("[1, 2]").expect("parses");
        assert!(v.get("x").is_none());
        assert!(v.as_num().is_none());
        assert_eq!(v.as_arr().map(<[Json]>::len), Some(2));
    }
}
