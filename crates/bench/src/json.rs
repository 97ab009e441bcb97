//! Minimal JSON value tree: emission *and* parsing, no serde.
//!
//! The hermetic build has no serde, so every JSON artifact and wire
//! body in the workspace (`BENCH_SOLVER.json`, `BENCH_SERVE.json`, the
//! `tsc-verify` golden snapshots, the `tsc-serve` request/response
//! dialect) goes through this value tree instead. Object keys always
//! serialize sorted so re-blessing a golden snapshot yields a
//! deterministic diff regardless of how the record was assembled, and
//! [`parse`] is the single recursive-descent counterpart shared by the
//! golden harness, the solve service and the load generator
//! (`tsc-verify` re-exports it for backward compatibility).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`, which is
    /// what serde_json does by default).
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
    /// A document already written by [`Json::render`], nested in place
    /// — its text re-indented to its depth — instead of parsed and
    /// written again.  It writes the bytes its parsed tree would.
    Rendered(Pretty),
}

impl Json {
    /// An object builder starting empty.
    #[must_use]
    pub fn object() -> Self {
        Self::Object(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an
    /// object; chainable.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Self::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Looks a field up in an object (first match; the emitter never
    /// produces duplicate keys). `None` for missing keys and for
    /// non-object values.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if this is a number with an
    /// exact integral representation.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Self::Num(x) if x.fract().abs() < f64::EPSILON && *x >= 0.0 && *x < 1e15 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        self.render().0
    }

    /// [`Json::pretty`], kept as a [`Pretty`] document so that it can be
    /// nested in another document without a parse.
    #[must_use]
    pub fn render(&self) -> Pretty {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        Pretty(out)
    }

    /// Serializes onto a single line with no trailing newline — the
    /// NDJSON framing used by the streaming endpoints, where a record
    /// must never contain an embedded line break.  Same key ordering
    /// and number formatting as [`Json::pretty`].
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Self::Null | Self::Bool(_) | Self::Num(_) | Self::Str(_) => {
                self.write_into(out, 0);
            }
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Self::Rendered(doc) => parse(doc)
                .expect("a rendered document parses")
                .write_compact(out),
            Self::Object(fields) => {
                let mut fields: Vec<&(String, Json)> = fields.iter().collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(x) if x.is_finite() => {
                // Integers print without the trailing ".0" f64 Display
                // would add via {:?}; everything else keeps full
                // round-trip precision.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x:?}");
                }
            }
            Self::Num(_) => out.push_str("null"),
            Self::Str(s) => write_escaped(out, s),
            Self::Array(items) if items.is_empty() => out.push_str("[]"),
            Self::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Self::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Self::Object(fields) => {
                // Keys emit in sorted order (stable for duplicates) so
                // re-blessed golden files diff cleanly regardless of
                // builder insertion order.
                let mut fields: Vec<&(String, Json)> = fields.iter().collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
            Self::Rendered(doc) => doc.write_nested(out, depth),
        }
    }
}

/// Two spaces per nesting level.
fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// A document as [`Json::pretty`] writes it.  Only [`Json::render`]
/// makes one, so its text keeps the two properties that nesting it as
/// [`Json::Rendered`] relies on: it ends in a single `'\n'`, and every
/// other line break in it falls between tokens, each followed by the
/// two-space indentation of its level (a string's own line breaks are
/// written as the escape `\n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pretty(String);

impl std::ops::Deref for Pretty {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Pretty {
    /// The document's text, by value.
    #[must_use]
    pub fn into_string(self) -> String {
        self.0
    }

    /// Appends the document as a value nested `depth` levels deep in
    /// another pretty document: the bytes the tree writer would append
    /// for the parsed document at that depth, written without parsing
    /// it.  Each of its line breaks takes `depth` more levels of
    /// indentation, and its final line break is dropped.
    fn write_nested(&self, out: &mut String, depth: usize) {
        let text = self.0.strip_suffix('\n').unwrap_or(&self.0);
        for (i, line) in text.split('\n').enumerate() {
            if i > 0 {
                out.push('\n');
                indent(out, depth);
            }
            out.push_str(line);
        }
    }
}

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

/// Parses a JSON document into a [`Json`] tree (all of JSON except
/// `\u` surrogate pairs, which the emitter never produces).
///
/// This is the single parser behind the golden-snapshot harness
/// (`tsc-verify`), the solve service (`tsc-serve`) and the load
/// generator — strictly bounded by its input slice, allocation-sane,
/// and panic-free on arbitrary bytes.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let mut depth = 0usize;
    let value = parse_value(bytes, &mut pos, &mut depth)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Nesting cap for [`parse`]: deeper documents are rejected rather than
/// risking recursion-driven stack exhaustion on adversarial input (the
/// service feeds network bytes straight into this parser).
const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if *depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            *depth += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                *depth -= 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        *depth -= 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            *depth += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                *depth -= 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos, depth)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        *depth -= 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    core::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| core::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash in
                // one step.  Both are ASCII, so the run ends on a char
                // boundary and multi-byte UTF-8 passes through unchanged;
                // validating only the run keeps the scan linear.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = core::str::from_utf8(&b[*pos..end])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Self::Num(x)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Self::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Self::Array(items)
    }
}
impl From<Pretty> for Json {
    fn from(doc: Pretty) -> Self {
        Self::Rendered(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let doc = Json::object()
            .field("event", "step")
            .field("peak_celsius", 97.25)
            .field(
                "hotspot",
                Json::Array(vec![2usize.into(), 3usize.into(), 1usize.into()]),
            )
            .field("note", "line one\nline two");
        let line = doc.compact();
        assert!(
            !line.contains('\n'),
            "compact output must hold no raw newline: {line:?}"
        );
        let back = parse(&line).expect("compact output parses");
        assert_eq!(back.get("event").and_then(Json::as_str), Some("step"));
        assert_eq!(
            back.get("note").and_then(Json::as_str),
            Some("line one\nline two")
        );
        assert_eq!(
            back.get("hotspot")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn renders_nested_structure() {
        let doc = Json::object()
            .field("name", "solver")
            .field("fast", true)
            .field("cells", 200_704usize)
            .field("seconds", 0.125)
            .field("entries", vec![Json::object().field("iterations", 42usize)]);
        let text = doc.pretty();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"cells\": 200704"));
        assert!(text.contains("\"seconds\": 0.125"));
        assert!(text.contains("\"iterations\": 42"));
        assert!(!text.contains("200704.0"), "integers stay integral");
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let doc = Json::object()
            .field("zeta", 1.0)
            .field("alpha", 2.0)
            .field("mid", Json::object().field("b", 1.0).field("a", 2.0));
        let text = doc.pretty();
        let alpha = text.find("\"alpha\"").unwrap();
        let mid = text.find("\"mid\"").unwrap();
        let zeta = text.find("\"zeta\"").unwrap();
        assert!(alpha < mid && mid < zeta, "top-level keys sorted:\n{text}");
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::object().field("k\"e\\y", "line\nbreak\tand \u{1} ctrl");
        let text = doc.pretty();
        assert!(text.contains(r#""k\"e\\y""#));
        assert!(text.contains("line\\nbreak\\tand \\u0001 ctrl"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = Json::object()
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY);
        let text = doc.pretty();
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"inf\": null"));
    }

    #[test]
    fn empty_containers_are_compact() {
        let doc = Json::object()
            .field("a", Json::Array(Vec::new()))
            .field("o", Json::object());
        let text = doc.pretty();
        assert!(text.contains("\"a\": []"));
        assert!(text.contains("\"o\": {}"));
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let doc = Json::object()
            .field("temp_c", 117.25)
            .field("count", 42usize)
            .field("name", "scaffolding \"q\"\n")
            .field("ok", true)
            .field(
                "nested",
                Json::object().field("xs", vec![Json::Num(1.0), Json::Null]),
            );
        let parsed = parse(&doc.pretty()).expect("parses");
        // The emitter sorts keys, so compare via a second emission.
        assert_eq!(parsed.pretty(), doc.pretty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn parse_strings_decode_escapes_and_multibyte_runs() {
        let doc = parse(
            r#"{"k\"ey": "a\"b\\c\/d\n\r\t\u00e9\u4e2d|é中😀 tail", "e": "", "m": "日本\n語"}"#,
        )
        .expect("parses");
        assert_eq!(
            doc,
            Json::Object(vec![
                (
                    "k\"ey".to_string(),
                    Json::Str("a\"b\\c/d\n\r\t\u{e9}\u{4e2d}|é中😀 tail".to_string())
                ),
                ("e".to_string(), Json::Str(String::new())),
                ("m".to_string(), Json::Str("日本\n語".to_string())),
            ])
        );
        // Escapes that name no scalar value, or are cut short, are errors.
        for bad in [
            r#""\ud800""#,
            r#""\u12""#,
            r#""\q""#,
            r#""trailing \"#,
            r#""中文 unterminated"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Multi-byte text survives emit → parse unchanged.
        let text = "ß∂ƒ © 中文 😀 \"quoted\" \\ back\tslash";
        let back = parse(&Json::from(text).compact()).expect("round trip");
        assert_eq!(back, Json::Str(text.to_string()));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MiB string: a scan that revisits the rest of the document
        // per character takes minutes here; a linear one, milliseconds.
        let payload = "a中".repeat(1 << 18);
        let doc = format!("{{\"s\": \"{payload}\\n\"}}");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("s").and_then(Json::as_str),
            Some(format!("{payload}\n").as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "100 levels exceed the cap");
        let fine = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&fine).is_ok(), "40 levels are fine");
    }

    /// A random number from the shapes the writer treats differently:
    /// integers on both sides of the 1e15 cutoff, signed zeros, large
    /// and tiny exponents, arbitrary finite bit patterns, non-finite.
    fn random_number(rng: &mut tsc_rng::Rng64) -> Json {
        let x = match rng.gen_range(0..9) {
            0 => rng.gen_range(0..1_000_000) as f64,
            1 => 1e15 * (1 + rng.gen_range(0..1000)) as f64,
            2 => -(rng.gen_range(0..1 << 20) as f64),
            3 => -0.0,
            4 => rng.gen_range_f64(-1.0..1.0) * 10f64.powi(rng.gen_range(0..600) as i32 - 300),
            5 => f64::from_bits(rng.next_u64()),
            6 => {
                [f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, f64::MAX, 5e-324][rng.gen_range(0..5)]
            }
            7 => 999_999_999_999_999.0 + rng.gen_range(0..3) as f64,
            _ => rng.gen_range_f64(-1e6..1e6),
        };
        Json::Num(if x.is_finite() || rng.gen_bool() {
            x
        } else {
            f64::NAN
        })
    }

    /// A random string over quotes, backslashes, line breaks, every
    /// control character, DEL, multi-byte and astral text.
    fn random_text(rng: &mut tsc_rng::Rng64) -> String {
        const PIECES: [&str; 12] = [
            "\"", "\\", "\n", "\r\n", "\t", "/", "\u{7f}", "é", "中文", "😀", "key", " ",
        ];
        (0..rng.gen_range(0..8))
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    char::from_u32(rng.gen_range(0..0x20) as u32)
                        .expect("a control character")
                        .to_string()
                } else {
                    PIECES[rng.gen_range(0..PIECES.len())].to_string()
                }
            })
            .collect()
    }

    fn random_tree(rng: &mut tsc_rng::Rng64, depth: usize) -> Json {
        let leaf = depth >= 5 || rng.gen_range(0..3) == 0;
        match rng.gen_range(0..if leaf { 4 } else { 6 }) {
            0 => [Json::Null, Json::Bool(true), Json::Bool(false)][rng.gen_range(0..3)].clone(),
            1 | 2 => random_number(rng),
            3 => Json::Str(random_text(rng)),
            4 => Json::Array(
                (0..rng.gen_range(0..5))
                    .map(|_| random_tree(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_range(0..5))
                    .map(|_| {
                        // Few distinct keys, so duplicates and unsorted
                        // insertion both occur.
                        let key = ["b", "a", "c\"q", "é", ""][rng.gen_range(0..5)].to_string();
                        (key, random_tree(rng, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    /// The two facts that let a rendered body travel without a parse:
    /// a pretty document parses back to a tree that renders the same
    /// bytes, and nesting it as [`Json::Rendered`] writes what the tree
    /// writer writes for it at that depth.
    #[test]
    fn pretty_round_trips_and_nests_like_the_tree_writer() {
        let mut rng = tsc_rng::Rng64::seed_from_u64(0x5eed_0029);
        for case in 0..2_000 {
            let doc = random_tree(&mut rng, 0);
            let text = doc.pretty();
            let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back.pretty(), text, "case {case}: parse then pretty");
            for depth in 0..4 {
                let mut spliced = String::new();
                Json::Rendered(doc.render()).write_into(&mut spliced, depth);
                let mut written = String::new();
                back.write_into(&mut written, depth);
                assert_eq!(spliced, written, "case {case}: nested at depth {depth}");
            }
            let nested = Json::object().field("body", doc.render());
            assert_eq!(
                nested.compact(),
                Json::object().field("body", back).compact()
            );
        }
    }

    #[test]
    fn accessors_navigate_parsed_trees() {
        let doc = parse(r#"{"a": 3, "b": "x", "c": true, "d": [1, 2], "e": 2.5}"#).expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("d").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            doc.get("e").and_then(Json::as_usize),
            None,
            "2.5 is not integral"
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }
}
