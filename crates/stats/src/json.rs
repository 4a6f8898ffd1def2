//! A minimal JSON document model, writer and reader.
//!
//! The workspace's hermetic-build policy (see `DESIGN.md`) forbids external
//! dependencies, so this module replaces `serde`/`serde_json` for the small
//! amount of (de)serialization UniLoc actually needs: persisting trained
//! error-model sets, emitting walk traces, and round-trip tests on the
//! statistical types.
//!
//! Design points:
//!
//! * [`Json`] keeps integers ([`Json::Int`]) and floats ([`Json::Num`])
//!   distinct so counters round-trip exactly; the writer prints floats with
//!   Rust's shortest-round-trip `Display` and appends `.0` to integral
//!   floats so the distinction survives a parse.
//! * Objects preserve insertion order (`Vec<(String, Json)>`), which makes
//!   the output deterministic — a requirement for the golden-trace tests.
//!   The reader rejects an object that repeats a key, naming the offset
//!   of the repeat: [`Json::get`] returns the first of two equal keys, so
//!   a spliced document would otherwise load as whichever came first.
//! * Maps with non-string keys (e.g. `BTreeMap<SchemeId, _>`) serialize as
//!   arrays of `[key, value]` pairs.
//! * Non-finite floats serialize as `null`, matching `serde_json`.
//! * [`ToJson::write_canonical`] streams the text of a value's canonical
//!   document without building it; with the [`Fnv1a`] sink it digests a
//!   record series without allocating.
//!
//! # Examples
//!
//! ```
//! use uniloc_stats::json::{Json, ToJson, FromJson};
//!
//! let doc = Json::Obj(vec![
//!     ("name".to_owned(), "gps".to_json()),
//!     ("errors".to_owned(), vec![1.5, 2.25].to_json()),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"gps","errors":[1.5,2.25]}"#);
//! let back = Json::parse(&text).unwrap();
//! let errors: Vec<f64> = FromJson::from_json(back.get("errors").unwrap()).unwrap();
//! assert_eq!(errors, [1.5, 2.25]);
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced when serializing NaN / infinity).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no decimal point or exponent).
    Int(i64),
    /// A floating-point literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error, with a byte offset when parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
    offset: Option<usize>,
}

impl JsonError {
    /// Creates a conversion (non-parse) error.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into(), offset: None }
    }

    fn at(msg: impl Into<String>, offset: usize) -> Self {
        JsonError { msg: msg.into(), offset: Some(offset) }
    }

    /// The input byte offset of a parse error; `None` for conversion
    /// errors.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} (at byte {o})", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl Error for JsonError {}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float; integers widen.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an integer (floats do not narrow).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The object without its `keys` (a tagged JSON-lines record's own
    /// fields); any other value comes back unchanged.
    pub fn without(&self, keys: &[&str]) -> Json {
        match self {
            Json::Obj(pairs) => {
                let kept = pairs.iter().filter(|(k, _)| !keys.contains(&k.as_str()));
                Json::Obj(kept.cloned().collect())
            }
            other => other.clone(),
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p =
            Parser { bytes: text.as_bytes(), pos: 0, key_offsets: Vec::new(), order: Vec::new() };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters after document", p.pos));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out).expect("a String accepts every write");
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out).expect("a String accepts every write");
        out
    }

    /// Returns the document with every object's keys sorted (recursively,
    /// stable — duplicate keys keep their insertion order). Arrays keep
    /// their element order.
    ///
    /// This is the canonical form used for committed artifacts
    /// (`results/CHAOS_*.json`, `results/FLEET_HEALTH.json`): serializing a
    /// canonicalized document is byte-stable under refactors that merely
    /// reorder struct fields or map insertions, which is what lets CI diff
    /// artifacts produced by different code paths (e.g. `--jobs 1` vs
    /// `--jobs 4`).
    pub fn canonical(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonical).collect()),
            Json::Obj(pairs) => {
                let mut sorted: Vec<(String, Json)> =
                    pairs.iter().map(|(k, v)| (k.clone(), v.canonical())).collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, None, 0, f)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// The document writer and the streaming canonical writer
// (`ToJson::write_canonical`) share the scalar writers below; none of them
// allocates.

fn write_value<W: fmt::Write + ?Sized>(
    value: &Json,
    indent: Option<usize>,
    depth: usize,
    out: &mut W,
) -> fmt::Result {
    match value {
        Json::Null => out.write_str("null"),
        Json::Bool(b) => write_bool(*b, out),
        Json::Int(i) => write_i64(*i, out),
        Json::Num(x) => write_f64(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            write_seq(items.len(), indent, depth, out, '[', ']', |i, depth, out| {
                write_value(&items[i], indent, depth, out)
            })
        }
        Json::Obj(pairs) => {
            write_seq(pairs.len(), indent, depth, out, '{', '}', |i, depth, out| {
                write_string(&pairs[i].0, out)?;
                out.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(&pairs[i].1, indent, depth, out)
            })
        }
    }
}

fn write_seq<W: fmt::Write + ?Sized>(
    len: usize,
    indent: Option<usize>,
    depth: usize,
    out: &mut W,
    open: char,
    close: char,
    mut item: impl FnMut(usize, usize, &mut W) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(step) = indent {
            write_indent(step * (depth + 1), out)?;
        }
        item(i, depth + 1, out)?;
    }
    if let Some(step) = indent {
        write_indent(step * depth, out)?;
    }
    out.write_char(close)
}

/// A line break, then `width` spaces.
fn write_indent<W: fmt::Write + ?Sized>(width: usize, out: &mut W) -> fmt::Result {
    write!(out, "\n{:width$}", "")
}

fn write_bool<W: fmt::Write + ?Sized>(b: bool, out: &mut W) -> fmt::Result {
    out.write_str(if b { "true" } else { "false" })
}

fn write_i64<W: fmt::Write + ?Sized>(i: i64, out: &mut W) -> fmt::Result {
    write!(out, "{i}")
}

/// Writes a float with Rust's shortest round-trip formatting, forcing a
/// `.0` suffix on integral values so the parser returns [`Json::Num`].
fn write_f64<W: fmt::Write + ?Sized>(x: f64, out: &mut W) -> fmt::Result {
    if !x.is_finite() {
        return out.write_str("null");
    }
    let mut digits = Fractional { out, seen: false };
    write!(digits, "{x}")?;
    if !digits.seen {
        out.write_str(".0")?;
    }
    Ok(())
}

/// Passes text through, noting whether it held a decimal point or an
/// exponent: how [`write_f64`] tells an integral float without buffering
/// its digits.
struct Fractional<'a, W: ?Sized> {
    out: &'a mut W,
    seen: bool,
}

impl<W: fmt::Write + ?Sized> fmt::Write for Fractional<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.seen |= s.contains(['.', 'e', 'E']);
        self.out.write_str(s)
    }
}

/// Writes `s` quoted, copying each run between escapes in one step. Every
/// byte that needs an escape is ASCII, so each run ends on a character
/// boundary.
fn write_string<W: fmt::Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..0x20 => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Start offsets of the keys of every object being parsed, innermost
    /// object last (a stack shared by the nesting levels).
    key_offsets: Vec<usize>,
    /// Sort scratch for the duplicate-key check.
    order: Vec<usize>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::at(format!("unexpected byte `{}`", b as char), self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        let base = self.key_offsets.len();
        loop {
            self.skip_ws();
            self.key_offsets.push(self.pos);
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.check_unique_keys(&pairs, base)?;
                    self.key_offsets.truncate(base);
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    /// Rejects an object that repeats a key, at the offset of the first
    /// repeat in document order. O(n) for keys already in ascending order
    /// (canonical documents), else one O(n log n) sort.
    fn check_unique_keys(
        &mut self,
        pairs: &[(String, Json)],
        base: usize,
    ) -> Result<(), JsonError> {
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Ok(());
        }
        self.order.clear();
        self.order.extend(0..pairs.len());
        self.order.sort_unstable_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
        // Equal keys sit together, in document order: the second of each
        // adjacent equal pair repeats an earlier key.
        let repeat =
            self.order.windows(2).filter(|w| pairs[w[0]].0 == pairs[w[1]].0).map(|w| w[1]).min();
        match repeat {
            Some(i) => Err(JsonError::at(
                format!("duplicate object key `{}`", pairs[i].0),
                self.key_offsets[base + i],
            )),
            None => Ok(()),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(JsonError::at(
                                        "invalid \\u escape",
                                        self.pos,
                                    ))
                                }
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` in one
                    // step. Both are ASCII and the input is a valid &str,
                    // so the run ends on a char boundary, and each byte is
                    // validated once: parsing stays linear.
                    let start = self.pos;
                    let end = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| JsonError::at("invalid UTF-8", start))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| JsonError::at(format!("invalid number `{text}`"), start))
        } else {
            // Integer literal; fall back to f64 on i64 overflow.
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| JsonError::at(format!("invalid number `{text}`"), start)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] document.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Writes the compact text of `self.to_json().canonical()` to `out`.
    ///
    /// The default builds that document. Scalars, `Option`, sequences,
    /// tuples, maps and the types of [`impl_json_enum!`] and (unless they
    /// flatten a field) [`impl_json_struct!`] stream the same bytes without
    /// building anything, so hashing a record through an [`Fnv1a`] sink
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Only those `out` returns.
    ///
    /// [`impl_json_enum!`]: crate::impl_json_enum
    /// [`impl_json_struct!`]: crate::impl_json_struct
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_value(&self.to_json().canonical(), None, 0, out)
    }
}

/// FNV-1a 64 as a text sink: every byte written through [`fmt::Write`]
/// folds into the hash, so a canonical writer can digest a document it
/// never holds.
///
/// ```
/// use uniloc_stats::json::Fnv1a;
///
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325, "the offset basis");
/// assert_eq!(Fnv1a::digest(&vec![1.0, 2.5]), Fnv1a::digest(&[1.0, 2.5][..]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty hash (the offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// FNV-1a 64 of `value`'s canonical text.
    pub fn digest<T: ToJson + ?Sized>(value: &T) -> u64 {
        let mut hash = Fnv1a::new();
        value.write_canonical(&mut hash).expect("a hash accepts every write");
        hash.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
        }
        Ok(())
    }
}

/// Writes `items` as a canonical JSON array.
fn write_canonical_seq<T: ToJson>(
    items: impl IntoIterator<Item = T>,
    out: &mut dyn fmt::Write,
) -> fmt::Result {
    out.write_char('[')?;
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        item.write_canonical(out)?;
    }
    out.write_char(']')
}

/// The order in which [`impl_json_struct!`](crate::impl_json_struct)'s
/// streaming writer emits a record's `keys`: sorted as
/// [`Json::canonical`] sorts them (byte-wise, equal keys in declaration
/// order). Evaluated once per type, at compile time.
#[doc(hidden)]
pub const fn sorted_order<const N: usize>(keys: &[&str]) -> [usize; N] {
    const fn less(a: &str, b: &str) -> bool {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let mut i = 0;
        while i < a.len() && i < b.len() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
            i += 1;
        }
        a.len() < b.len()
    }
    assert!(keys.len() == N, "one position per key");
    let mut order = [0; N];
    let mut i = 0;
    while i < N {
        order[i] = i;
        i += 1;
    }
    // Insertion sort: stable, and the lists are a few dozen keys at most.
    let mut i = 1;
    while i < N {
        let mut j = i;
        while j > 0 && less(keys[order[j]], keys[order[j - 1]]) {
            let moved = order[j];
            order[j] = order[j - 1];
            order[j - 1] = moved;
            j -= 1;
        }
        i += 1;
    }
    order
}

/// Conversion from a [`Json`] document.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, failing with a descriptive [`JsonError`] on
    /// shape mismatch.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly (the `serde_json::to_string`
/// analogue).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses and converts in one step (the `serde_json::from_str` analogue).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

/// Extracts and converts an object field — the building block used by
/// [`impl_json_struct!`](crate::impl_json_struct).
pub fn field<T: FromJson>(json: &Json, name: &str) -> Result<T, JsonError> {
    field_with(json, name, T::from_json)
}

/// [`field`] through a codec's reader instead of [`FromJson`].
pub fn field_with<T>(
    json: &Json,
    name: &str,
    read: impl FnOnce(&Json) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let value = json
        .get(name)
        .ok_or_else(|| JsonError::new(format!("missing field `{name}`")))?;
    read(value).map_err(|e| JsonError::new(format!("field `{name}`: {e}")))
}

/// The strict key set of [`impl_json_struct!`]: `json` must be an object
/// whose keys lie in `keys`, unless the record flattens a field, which
/// then gets every other key as one object to read.
#[doc(hidden)]
pub fn record_keys(json: &Json, keys: &[&str], flatten: bool) -> Result<Json, JsonError> {
    let pairs = json.as_obj().ok_or_else(|| JsonError::new("expected object"))?;
    match pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) if !flatten => Err(JsonError::new(format!("unknown field `{k}`"))),
        _ => Ok(json.without(keys)),
    }
}

/// The object pairs of a record's JSON form: a flattened field's, or a
/// JSON-lines record's behind its tag.
///
/// # Panics
///
/// Panics if `value` does not serialize to an object.
pub fn flattened<T: ToJson>(value: &T) -> Vec<(String, Json)> {
    match value.to_json() {
        Json::Obj(pairs) => pairs,
        other => panic!("a flattened field must serialize to an object, not {other}"),
    }
}

// Field codecs for `impl_json_struct!`'s `with` clause: modules with
// `to_json(&T) -> Json` and `from_json(&Json) -> Result<T, JsonError>`.
// Each reader accepts only its writer's form, so a value that reads back
// re-serializes to its own bytes.

/// A `u64` as exactly 16 lowercase hex digits ([`Json::Int`] is an
/// `i64`). A sign, upper case or a short string would read back as the
/// same number but re-serialize to other bytes, so the reader rejects them.
pub mod hex {
    use super::{Json, JsonError};

    pub fn to_json(value: &u64) -> Json {
        Json::Str(format!("{value:016x}"))
    }

    pub fn from_json(json: &Json) -> Result<u64, JsonError> {
        let s = json.as_str().ok_or_else(|| JsonError::new("expected string"))?;
        let v = u64::from_str_radix(s, 16).ok().filter(|v| format!("{v:016x}") == s);
        v.ok_or_else(|| JsonError::new(format!("`{s}` is not 16 lowercase hex digits")))
    }
}

/// An `i128` as a canonical decimal string ([`Json::Int`] is an `i64`);
/// the reader rejects a `+` sign and leading zeros.
pub mod decimal {
    use super::{Json, JsonError};

    pub fn to_json(value: &i128) -> Json {
        Json::Str(value.to_string())
    }

    pub fn from_json(json: &Json) -> Result<i128, JsonError> {
        let s = json.as_str().ok_or_else(|| JsonError::new("expected string"))?;
        let v = s.parse::<i128>().ok().filter(|v| v.to_string() == s);
        v.ok_or_else(|| JsonError::new(format!("`{s}` is not a decimal integer")))
    }
}

/// An `Option<f64>` as a float or `null`. Unlike the `f64` reader, it
/// rejects an integer, which would re-serialize as a float.
pub mod float {
    use super::{Json, JsonError};

    pub fn to_json(value: &Option<f64>) -> Json {
        value.map_or(Json::Null, Json::Num)
    }

    pub fn from_json(json: &Json) -> Result<Option<f64>, JsonError> {
        match json {
            Json::Null => Ok(None),
            Json::Num(x) => Ok(Some(*x)),
            _ => Err(JsonError::new("expected a float or null")),
        }
    }
}

/// A `BTreeMap<String, T>` as a JSON object (the default map form is an
/// array of `[key, value]` pairs).
pub mod object {
    use super::{FromJson, Json, JsonError, ToJson};
    use std::collections::BTreeMap;

    pub fn to_json<T: ToJson>(map: &BTreeMap<String, T>) -> Json {
        Json::Obj(map.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    pub fn from_json<T: FromJson>(json: &Json) -> Result<BTreeMap<String, T>, JsonError> {
        let pairs = json.as_obj().ok_or_else(|| JsonError::new("expected object"))?;
        let read = |(k, v): &(String, Json)| match T::from_json(v) {
            Ok(v) => Ok((k.clone(), v)),
            Err(e) => Err(JsonError::new(format!("key `{k}`: {e}"))),
        };
        pairs.iter().map(read).collect()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        (**self).write_canonical(out)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_bool(*self, out)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_f64(*self, out)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            // Non-finite floats serialize as null; accept it back as NaN.
            Json::Null => Ok(f64::NAN),
            _ => json.as_f64().ok_or_else(|| JsonError::new("expected number")),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_f64(f64::from(*self), out)
    }
}

impl FromJson for f32 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        f64::from_json(json).map(|x| x as f32)
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(i64::try_from(*self).expect("integer fits in i64"))
            }

            fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
                write_i64(i64::try_from(*self).expect("integer fits in i64"), out)
            }
        }
        impl FromJson for $ty {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let i = json
                    .as_i64()
                    .ok_or_else(|| JsonError::new("expected integer"))?;
                <$ty>::try_from(i).map_err(|_| {
                    JsonError::new(format!(
                        "integer {i} out of range for {}",
                        stringify!($ty)
                    ))
                })
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_string(self, out)
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_string(self, out)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        match self {
            Some(v) => v.write_canonical(out),
            None => out.write_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_canonical_seq(self, out)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_canonical_seq(self, out)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_char('[')?;
        self.0.write_canonical(out)?;
        out.write_char(',')?;
        self.1.write_canonical(out)?;
        out.write_char(']')
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new("expected two-element array")),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_char('[')?;
        self.0.write_canonical(out)?;
        out.write_char(',')?;
        self.1.write_canonical(out)?;
        out.write_char(',')?;
        self.2.write_canonical(out)?;
        out.write_char(']')
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_arr() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::new("expected three-element array")),
        }
    }
}

/// Maps serialize as arrays of `[key, value]` pairs so non-string keys
/// (e.g. scheme identifiers) need no string encoding.
impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|(k, v)| (k, v).to_json()).collect())
    }

    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write_canonical_seq(self, out)
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Vec::<(K, V)>::from_json(json).map(|pairs| pairs.into_iter().collect())
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serializing as an object in field order. This is the one declaration of
/// a record's JSON form: the reader accepts exactly the key set the writer
/// emits, so a missing key and an undeclared key are both errors, and a
/// document that reads back re-serializes to its own bytes.
///
/// Per field, optionally:
///
/// * `field as "key"` writes the field under another key;
/// * `field with codec` writes and reads it through a codec module
///   ([`hex`], [`decimal`], [`float`], [`object`], or any module with
///   `to_json(&T) -> Json` and `from_json(&Json) -> Result<T, JsonError>`).
///
/// A leading `..field` flattens one field: its object's keys are written
/// first, beside the declared ones, and on reading every undeclared key
/// belongs to it, for its own strict reader to check.
///
/// A record that flattens no field also streams its canonical text
/// ([`ToJson::write_canonical`]): its fields in sorted key order, each
/// through its own writer.
///
/// ```
/// # use uniloc_stats::impl_json_struct;
/// # use uniloc_stats::json::{hex, to_string, from_str};
/// #[derive(Debug, PartialEq)]
/// struct Sample { t: f64, label: String, seed: u64 }
/// impl_json_struct!(Sample { t, label as "tag", seed with hex });
///
/// let s = Sample { t: 0.5, label: "indoor".into(), seed: 7 };
/// let text = to_string(&s);
/// assert_eq!(text, r#"{"t":0.5,"tag":"indoor","seed":"0000000000000007"}"#);
/// let back: Sample = from_str(&text).unwrap();
/// assert_eq!(back, s);
/// assert!(from_str::<Sample>(r#"{"t":0.5,"tag":"x"}"#).is_err(), "missing key");
/// let extra = r#"{"t":0.5,"tag":"x","seed":"0000000000000007","n":1}"#;
/// assert!(from_str::<Sample>(extra).is_err(), "unknown key");
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty {
        $(..$flat:ident,)?
        $($field:ident $(as $key:literal)? $(with $($codec:ident)::+)?),+ $(,)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let pairs = vec![$((
                    $crate::__json_key!($field $($key)?).to_owned(),
                    $crate::__json_write!(&self.$field $(, $($codec)::+)?),
                )),+];
                $(let pairs =
                    $crate::json::flattened(&self.$flat).into_iter().chain(pairs).collect();)?
                $crate::json::Json::Obj(pairs)
            }

            $crate::__json_write_canonical!(
                [$($flat)?] $($field $(as $key)? $(with $($codec)::+)?),+
            );
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                json: &$crate::json::Json,
            ) -> std::result::Result<Self, $crate::json::JsonError> {
                let keys = [$($crate::__json_key!($field $($key)?)),+];
                let flat: &[&str] = &[$(stringify!($flat))?];
                #[allow(unused_variables)]
                let rest = $crate::json::record_keys(json, &keys, !flat.is_empty())?;
                Ok(Self {
                    $($flat: $crate::json::FromJson::from_json(&rest)?,)?
                    $($field: $crate::__json_read!(
                        json,
                        $crate::__json_key!($field $($key)?)
                        $(, $($codec)::+)?
                    )?),+
                })
            }
        }
    };
}

/// A field's JSON key: its name, or its `as` rename.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Writes a field through [`ToJson`] or its codec.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_write {
    ($value:expr) => {
        $crate::json::ToJson::to_json($value)
    };
    ($value:expr, $($codec:ident)::+) => {
        $($codec)::+::to_json($value)
    };
}

/// The streaming [`ToJson::write_canonical`] of a record that flattens no
/// field: its fields in sorted key order, each through its own streaming
/// writer, or for a codec field through the codec's document. A flattened
/// field's keys interleave with the record's own, so such a record keeps
/// the default.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_write_canonical {
    ([$flat:ident] $($fields:tt)*) => {};
    ([] $($field:ident $(as $key:literal)? $(with $($codec:ident)::+)?),+) => {
        fn write_canonical(&self, out: &mut dyn ::std::fmt::Write) -> ::std::fmt::Result {
            type Field<'a> = dyn Fn(&mut dyn ::std::fmt::Write) -> ::std::fmt::Result + 'a;
            const KEYS: &[&str] = &[$($crate::__json_key!($field $($key)?)),+];
            const ORDER: [usize; KEYS.len()] = $crate::json::sorted_order(KEYS);
            let fields: [&Field<'_>; KEYS.len()] = [$(
                &|out: &mut dyn ::std::fmt::Write| $crate::__json_write_field!(
                    &self.$field, out $(, $($codec)::+)?
                )
            ),+];
            out.write_char('{')?;
            for (n, &i) in ORDER.iter().enumerate() {
                if n > 0 {
                    out.write_char(',')?;
                }
                $crate::json::ToJson::write_canonical(KEYS[i], out)?;
                out.write_char(':')?;
                fields[i](out)?;
            }
            out.write_char('}')
        }
    };
}

/// Writes a field's canonical text through [`ToJson`] or its codec.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_write_field {
    ($value:expr, $out:expr) => {
        $crate::json::ToJson::write_canonical($value, $out)
    };
    ($value:expr, $out:expr, $($codec:ident)::+) => {
        $crate::json::ToJson::write_canonical(&$($codec)::+::to_json($value), $out)
    };
}

/// Reads a field through [`FromJson`] or its codec.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_read {
    ($json:expr, $key:expr) => {
        $crate::json::field($json, $key)
    };
    ($json:expr, $key:expr, $($codec:ident)::+) => {
        $crate::json::field_with($json, $key, $($codec)::+::from_json)
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a field-less enum, serializing
/// each variant as its name string.
///
/// ```
/// # use uniloc_stats::impl_json_enum;
/// # use uniloc_stats::json::{to_string, from_str};
/// #[derive(Debug, PartialEq)]
/// enum Env { Indoor, Outdoor }
/// impl_json_enum!(Env { Indoor, Outdoor });
///
/// assert_eq!(to_string(&Env::Indoor), "\"Indoor\"");
/// let back: Env = from_str("\"Outdoor\"").unwrap();
/// assert_eq!(back, Env::Outdoor);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("non-unit variant in impl_json_enum"),
                };
                $crate::json::Json::Str(name.to_owned())
            }

            fn write_canonical(
                &self,
                out: &mut dyn ::std::fmt::Write,
            ) -> ::std::fmt::Result {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("non-unit variant in impl_json_enum"),
                };
                $crate::json::ToJson::write_canonical(name, out)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                json: &$crate::json::Json,
            ) -> std::result::Result<Self, $crate::json::JsonError> {
                let name = json
                    .as_str()
                    .ok_or_else(|| $crate::json::JsonError::new("expected string"))?;
                match name {
                    $(stringify!($variant) => Ok(<$ty>::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant `{other}`",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sorts_keys_recursively_and_stably() {
        // Built directly: the reader rejects the duplicate `b` key, but a
        // document model holding one must still canonicalize stably.
        let doc = Json::Obj(vec![
            ("b".to_owned(), Json::parse(r#"{"z":1,"a":2}"#).unwrap()),
            ("a".to_owned(), Json::parse(r#"[{"y":1,"x":2}]"#).unwrap()),
            ("b".to_owned(), Json::Int(0)),
        ]);
        let canon = doc.canonical();
        assert_eq!(
            canon.to_string(),
            r#"{"a":[{"x":2,"y":1}],"b":{"a":2,"z":1},"b":0}"#,
            "keys sort recursively; duplicate keys keep insertion order"
        );
        // Idempotent, and a no-op on already-sorted documents.
        assert_eq!(canon.canonical(), canon);
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "1.5", "-2.25e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn int_and_float_stay_distinct() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        // An integral float keeps its `.0` through a write/parse cycle.
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::parse(&Json::Num(3.0).to_string()).unwrap(), Json::Num(3.0));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -123.456e-78, 0.0, -0.0] {
            let mut s = String::new();
            write_f64(x, &mut s).unwrap();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash \t ünïcødé \u{1}";
        let json = Json::Str(s.to_owned());
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    /// The parser copies string content a run at a time between `"` and
    /// `\`; multibyte characters right next to escapes, at the start of a
    /// string and at run ends must come through intact.
    #[test]
    fn string_heavy_document_round_trips() {
        const PIECES: [&str; 12] = [
            "é", "中", "😀", "\"", "\\", "\n", "\t", "\u{1}", "/", "a", "ü\\", "\"中",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let strings: Vec<Json> = (0..2000)
            .map(|i| {
                let len = next() % (1 + i % 64);
                Json::Str((0..len).map(|_| PIECES[next() % PIECES.len()]).collect())
            })
            .collect();
        let doc = Json::Obj(vec![
            ("strings".into(), Json::Arr(strings)),
            ("中\"é".into(), Json::Str("😀\\".into())),
        ]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            assert!(
                text.len() > 50_000,
                "document too small: {} bytes",
                text.len()
            );
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
        // Escapes the writer never emits (`\/` and `\u`), between
        // multibyte characters.
        let text = [r#""é\/中\"#, r#"u00e9😀\"""#].concat();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str("é/中é😀\"".into()));
    }

    /// `\u` escapes, split across literals so the test source itself holds
    /// the escape sequences rather than the characters they decode to.
    #[test]
    fn unicode_escapes_parse() {
        let text = [r#""\"#, r#"u0041""#].concat();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str("A".into()));
        // Surrogate pair for U+1F600.
        let text = [r#""\"#, r#"ud83d\"#, r#"ude00""#].concat();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str("\u{1F600}".into()));
        // A lone low surrogate is not a character.
        let text = [r#""\"#, r#"ude00""#].concat();
        assert!(Json::parse(&text).unwrap_err().offset().is_some());
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a":[1,2.5,null,{"b":true}],"c":{"d":"e"},"f":[]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":null},"d":[]}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1,"), "{pretty}");
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn duplicate_keys_are_rejected_at_the_repeat() {
        let err = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        assert_eq!(err.offset(), Some(13), "{err}");
        // Nested, with the outer object's keys out of order.
        let text = r#"{"z":{"k":1, "k":2},"y":0}"#;
        let err = Json::parse(text).unwrap_err();
        assert_eq!(err.offset(), text.find(r#""k":2"#), "{err}");
        // The first repeat in document order wins.
        let text = r#"{"b":1,"a":1,"a":2,"b":2}"#;
        assert_eq!(Json::parse(text).unwrap_err().offset(), text.find(r#""a":2"#));
        // Distinct keys in any order, and equal keys in sibling objects,
        // still parse.
        assert!(Json::parse(r#"{"z":1,"a":2,"m":{"z":3},"n":{"z":4}}"#).is_ok());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "[] []"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset().is_some(), "{bad}: {err}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<f64>> = vec![Some(1.5), None, Some(-2.0)];
        let back: Vec<Option<f64>> = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_owned());
        m.insert(1u32, "one".to_owned());
        assert_eq!(to_string(&m), r#"[[1,"one"],[3,"three"]]"#);
        let back: BTreeMap<u32, String> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn struct_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        struct Reading {
            t: f64,
            count: u32,
            tag: Option<String>,
        }
        impl_json_struct!(Reading { t, count, tag });

        let r = Reading { t: 1.25, count: 7, tag: None };
        let text = to_string(&r);
        assert_eq!(text, r#"{"t":1.25,"count":7,"tag":null}"#);
        let back: Reading = from_str(&text).unwrap();
        assert_eq!(back, r);

        // The key set is strict: a missing key, a nullable one included, and
        // an undeclared key are errors.
        let err = from_str::<Reading>(r#"{"t":1.0}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `count`"), "{err}");
        let err = from_str::<Reading>(r#"{"t":1.0,"count":7}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `tag`");
        let err = from_str::<Reading>(r#"{"t":1.0,"count":7,"tag":null,"x":0}"#).unwrap_err();
        assert_eq!(err.to_string(), "unknown field `x`");
    }

    #[derive(Debug, PartialEq)]
    struct Row {
        seed: u64,
        mean: Option<f64>,
        sum: i128,
        counts: BTreeMap<String, u32>,
    }
    impl_json_struct!(Row {
        seed with hex, mean as "mean_m" with float, sum with decimal, counts with object
    });

    #[test]
    fn struct_macro_renames_and_codecs() {
        let counts = [("b".to_owned(), 2), ("a".to_owned(), 1)].into_iter().collect();
        let row = Row { seed: u64::MAX - 1, mean: Some(2.5), sum: -(1i128 << 70), counts };
        let text = to_string(&row);
        let want = [
            r#"{"seed":"fffffffffffffffe","mean_m":2.5,"#,
            r#""sum":"-1180591620717411303424","counts":{"a":1,"b":2}}"#,
        ];
        assert_eq!(text, want.concat());
        assert_eq!(from_str::<Row>(&text).unwrap(), row);
        let none = Row { mean: None, ..row };
        assert_eq!(from_str::<Row>(&to_string(&none)).unwrap(), none);
        // Each codec reads only its writer's form.
        for (from, to) in [
            ("fffffffffffffffe", "FFFFFFFFFFFFFFFE"),
            (r#""fffffffffffffffe""#, "7"),
            ("fffffffffffffffe", "+ffffffffffffffe"),
            ("fffffffffffffffe", "fffe"),
            ("-1180591620717411303424", "-01180591620717411303424"),
            (r#""-1180591620717411303424""#, "5"),
            ("2.5", "3"),
            (r#"{"a":1,"b":2}"#, r#"[["a",1]]"#),
            ("mean_m", "mean"),
        ] {
            let err = from_str::<Row>(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.to_string().contains("field `"), "{to}: {err}");
        }
    }

    #[test]
    fn struct_macro_flattens_one_field() {
        #[derive(Debug, PartialEq)]
        struct Spec { lane: u64, name: String }
        #[derive(Debug, PartialEq)]
        struct Summary { spec: Spec, epochs: u32 }
        impl_json_struct!(Spec { lane, name });
        impl_json_struct!(Summary { ..spec, epochs });

        let s = Summary { spec: Spec { lane: 3, name: "s3".into() }, epochs: 9 };
        let text = to_string(&s);
        assert_eq!(text, r#"{"lane":3,"name":"s3","epochs":9}"#, "flattened keys come first");
        assert_eq!(from_str::<Summary>(&text).unwrap(), s);
        // Undeclared keys go to the flattened field, whose reader is strict.
        for (doc, err) in [
            (r#"{"lane":3,"name":"s3","epochs":9,"x":0}"#, "unknown field `x`"),
            (r#"{"lane":3,"epochs":9}"#, "missing field `name`"),
            (r#"{"lane":3,"name":"s3"}"#, "missing field `epochs`"),
        ] {
            assert_eq!(from_str::<Summary>(doc).unwrap_err().to_string(), err);
        }
    }

    #[test]
    fn enum_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        enum Mode {
            Fast,
            Accurate,
        }
        impl_json_enum!(Mode { Fast, Accurate });

        let back: Mode = from_str(&to_string(&Mode::Accurate)).unwrap();
        assert_eq!(back, Mode::Accurate);
        assert!(from_str::<Mode>("\"Slow\"").is_err());
    }

    #[test]
    fn i64_overflow_falls_back_to_float() {
        let v = Json::parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Json::Num(_)));
    }

    /// The streaming writer's text, checked against the document it
    /// stands in for.
    fn streams_canonically<T: ToJson + ?Sized>(value: &T) -> String {
        let mut streamed = String::new();
        value.write_canonical(&mut streamed).unwrap();
        assert_eq!(streamed, value.to_json().canonical().to_string());
        streamed
    }

    /// FNV-1a 64 one byte at a time: the reference the sink must match.
    fn fnv1a_bytewise(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn streamed_floats_match_the_document() {
        let cases = [
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (5e-324, &format!("0.{}5", "0".repeat(323))),
            (1e300, &format!("1{}.0", "0".repeat(300))),
            (3.0, "3.0"),
            (-2.0, "-2.0"),
            (0.1, "0.1"),
            (-123.456, "-123.456"),
        ];
        for (x, want) in cases {
            assert_eq!(streams_canonically(&x), want, "{x:e}");
        }
        assert_eq!(streams_canonically(&0.5f32), "0.5");
        assert_eq!(streams_canonically(&f32::NAN), "null");
        assert_eq!(streams_canonically(&16_777_216f32), "16777216.0");
    }

    #[test]
    fn streamed_integers_and_bools_match_the_document() {
        assert_eq!(streams_canonically(&i64::MIN), "-9223372036854775808");
        assert_eq!(streams_canonically(&i64::MAX), "9223372036854775807");
        assert_eq!(streams_canonically(&(i64::MAX as u64)), "9223372036854775807");
        assert_eq!(streams_canonically(&0u8), "0");
        assert_eq!(streams_canonically(&-7i32), "-7");
        assert_eq!(streams_canonically(&(1usize << 40)), "1099511627776");
        assert_eq!(streams_canonically(&true), "true");
        assert_eq!(streams_canonically(&false), "false");
    }

    #[test]
    fn streamed_strings_match_the_document() {
        for s in [
            "",
            "plain",
            "\"quoted\"",
            "back\\slash\\",
            "\n\r\t\u{8}\u{c}",
            "\u{0}\u{1}\u{1f} \u{7f}",
            "ünïcødé 中文 😀",
            "\"中\\é\u{1}😀\"",
        ] {
            let text = streams_canonically(s);
            assert_eq!(streams_canonically(&s.to_owned()), text);
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_owned()), "{text}");
        }
        assert_eq!(streams_canonically("\u{1}\u{1f}"), r#""\u0001\u001f""#);
    }

    #[test]
    fn streamed_containers_match_the_document() {
        assert_eq!(streams_canonically(&Vec::<f64>::new()), "[]");
        assert_eq!(streams_canonically::<[u32]>(&[]), "[]");
        assert_eq!(streams_canonically(&vec![Vec::<String>::new(); 2]), "[[],[]]");
        assert_eq!(streams_canonically(&BTreeMap::<u32, f64>::new()), "[]");
        streams_canonically(&vec![Some(1.5), None, Some(-2.0)]);
        streams_canonically(&[(1u32, "one".to_owned()), (3, "three".to_owned())][..]);
        streams_canonically(&(7i64, Some(0.25), vec![true, false]));
        let map: BTreeMap<u32, Vec<f64>> = [(3, vec![1.0]), (1, vec![])].into_iter().collect();
        assert_eq!(streams_canonically(&map), "[[1,[]],[3,[1.0]]]");
        assert_eq!(streams_canonically(&&Some("x")), r#""x""#);
        let doc = Json::parse(r#"{"z":[{"b":1,"a":null}],"a":"\u00e9"}"#).unwrap();
        assert_eq!(streams_canonically(&doc), r#"{"a":"é","z":[{"a":null,"b":1}]}"#);
    }

    #[test]
    fn streamed_records_sort_their_keys_once() {
        #[derive(Debug, PartialEq)]
        enum Mode {
            Fast,
            Accurate,
        }
        impl_json_enum!(Mode { Fast, Accurate });
        // Byte order, not declaration order: `B` < `a` < `a_b` < `ab` < `b`.
        struct Keys {
            b: u32,
            ab: Mode,
            a_b: Option<f64>,
            a: Vec<(Mode, f64)>,
            upper: String,
        }
        impl_json_struct!(Keys { b, ab, a_b, a, upper as "B" });
        let keys = Keys {
            b: 1,
            ab: Mode::Fast,
            a_b: Some(2.0),
            a: vec![(Mode::Accurate, f64::NAN)],
            upper: "\"".into(),
        };
        let want = r#"{"B":"\"","a":[["Accurate",null]],"a_b":2.0,"ab":"Fast","b":1}"#;
        assert_eq!(streams_canonically(&keys), want);
        assert_eq!(sorted_order::<5>(&["b", "ab", "a_b", "a", "B"]), [4, 3, 2, 1, 0]);
        assert_eq!(sorted_order::<3>(&["k", "j", "k"]), [1, 0, 2], "stable on equal keys");
        assert_eq!(sorted_order::<0>(&[]), []);
    }

    #[test]
    fn streamed_codec_and_flattened_records_match_the_document() {
        let counts = [("b".to_owned(), 2), ("a".to_owned(), 1)].into_iter().collect();
        let row = Row { seed: u64::MAX - 1, mean: None, sum: -(1i128 << 70), counts };
        let want = [
            r#"{"counts":{"a":1,"b":2},"mean_m":null,"#,
            r#""seed":"fffffffffffffffe","sum":"-1180591620717411303424"}"#,
        ];
        assert_eq!(streams_canonically(&row), want.concat());

        // A flattened record keeps the default writer.
        #[derive(Debug, PartialEq)]
        struct Spec {
            lane: u64,
            name: String,
        }
        struct Summary {
            spec: Spec,
            epochs: u32,
            digest: u64,
        }
        impl_json_struct!(Spec { name, lane });
        impl_json_struct!(Summary { ..spec, epochs, digest with hex });
        let s = Summary { spec: Spec { lane: 3, name: "s3".into() }, epochs: 9, digest: 10 };
        let want = r#"{"digest":"000000000000000a","epochs":9,"lane":3,"name":"s3"}"#;
        assert_eq!(streams_canonically(&s), want);
    }

    #[test]
    fn fnv1a_sink_matches_the_bytewise_hash() {
        assert_eq!(Fnv1a::new().finish(), fnv1a_bytewise(b""));
        assert_eq!(Fnv1a::default(), Fnv1a::new());
        let text = r#"[{"a":1.5,"b":"ünïcødé 😀"},null,"\u0001"]"#;
        let mut whole = Fnv1a::new();
        whole.write_str(text).unwrap();
        assert_eq!(whole.finish(), fnv1a_bytewise(text.as_bytes()));
        // Split anywhere between characters: the same hash.
        let mut pieces = Fnv1a::new();
        for c in text.chars() {
            pieces.write_char(c).unwrap();
        }
        assert_eq!(pieces, whole);
        let doc = Json::parse(text).unwrap();
        assert_eq!(Fnv1a::digest(&doc), fnv1a_bytewise(doc.canonical().to_string().as_bytes()));
        assert_ne!(Fnv1a::digest("a"), Fnv1a::digest("b"));
    }
}
