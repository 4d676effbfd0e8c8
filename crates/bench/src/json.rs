//! Minimal JSON serialization for machine-readable bench reports.
//!
//! The environment has no registry access, so instead of serde this
//! module hand-rolls the tiny subset the reports need: a [`Json`] value
//! tree with a stable, pretty renderer. Perf-trajectory tooling across
//! PRs parses these files, so renderer output is deterministic: object
//! keys keep insertion order and floats render with up to six significant
//! decimals.

use std::fmt::Write as _;

use sc_mem::{L2MetricSet, L2Stats};
use sc_perf::{Attribution, RefillOccupancy};
use sc_system::SystemSummary;
use sc_trace::MetricSource;

/// Serializes shared-L2 statistics the way every system sweep reports
/// them — bank arbitration, the cache core's hit/miss/eviction/MSHR
/// counters, and the prefetch engine's accuracy breakdown. The scalar
/// keys come straight from [`L2MetricSet`]'s visit order, so this shape,
/// the sampled metric series and `perf_gate check`'s required-metric
/// list can never drift apart; the per-cluster arrays follow.
#[must_use]
pub fn l2_stats_json(
    l2: &L2Stats,
    refill_beats: u64,
    writeback_beats: u64,
    prefetch_beats: u64,
) -> Json {
    let set = L2MetricSet::from_parts(l2.clone(), refill_beats, writeback_beats, prefetch_beats);
    let mut obj = Json::obj();
    set.visit_metrics(&mut |name, value| {
        obj = std::mem::replace(&mut obj, Json::Null).set(name, value);
    });
    obj.set("accesses_by_cluster", l2.accesses_by_cluster.clone())
        .set("conflicts_by_cluster", l2.conflicts_by_cluster.clone())
}

/// Appends a system run's shared-L2 blocks to a point object: `"l2"`
/// ([`l2_stats_json`]) then `"l2_occupancy"` ([`refill_occupancy_json`]).
/// A run without shared memory gets neither.
#[must_use]
pub fn with_l2_json(point: Json, s: &SystemSummary) -> Json {
    let Some(l2) = &s.l2 else { return point };
    point
        .set(
            "l2",
            l2_stats_json(
                l2,
                s.l2_refill_beats,
                s.l2_writeback_beats,
                s.l2_prefetch_beats,
            ),
        )
        .set("l2_occupancy", refill_occupancy_json(&s.refill_occupancy()))
}

/// Serializes a top-down [`Attribution`] the way every sweep reports
/// it: the partition shape first (`harts`, `machine_cycles` — the
/// container's wall-clock, so `sum(leaves) == harts × machine_cycles`
/// is checkable by any reader, and *is* checked by `perf_gate`), then
/// every leaf in [`Attribution::visit`]'s tree order. The leaf keys come
/// straight from the model, so this shape, `perf_report`'s parser and
/// the gate's required-key list can never drift apart.
#[must_use]
pub fn attribution_json(attr: &Attribution, harts: u64, machine_cycles: u64) -> Json {
    let mut obj = Json::obj()
        .set("harts", harts)
        .set("machine_cycles", machine_cycles);
    attr.visit(&mut |name, value| {
        obj = std::mem::replace(&mut obj, Json::Null).set(name, value);
    });
    obj
}

/// [`attribution_json`] of a system run: the roll-up over every hart of
/// every cluster.
#[must_use]
pub fn system_attribution_json(s: &SystemSummary) -> Json {
    let harts = s.per_cluster.iter().map(|c| c.per_core.len() as u64).sum();
    attribution_json(&s.attribution, harts, s.cycles)
}

/// Serializes the L2 refill-path occupancy split (demand vs prefetch vs
/// write-back channel traffic) for roofline-style compute-vs-traffic
/// summaries.
#[must_use]
pub fn refill_occupancy_json(occ: &RefillOccupancy) -> Json {
    Json::obj()
        .set("demand_cycles", occ.demand_cycles)
        .set("prefetch_cycles", occ.prefetch_cycles)
        .set("writeback_cycles", occ.writeback_cycles)
        .set("prefetch_fraction", occ.prefetch_fraction())
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Integers (kept exact — cycle counts exceed `f64`'s 2^53 mantissa
    /// in principle).
    Int(i64),
    /// Unsigned integers.
    UInt(u64),
    /// Floating-point numbers; non-finite values render as `null`.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Arr(Vec<Json>),
    /// Objects (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    #[must_use]
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Parses a JSON document (the subset this module renders: no
    /// exponent-free integer overflow handling beyond `i64`/`u64`, no
    /// `\u` surrogate pairs).
    ///
    /// # Errors
    ///
    /// A [`JsonParseError`] with byte offset and message: malformed text
    /// ([`JsonErrorKind::Syntax`]), or arrays and objects nested deeper
    /// than [`MAX_DEPTH`] ([`JsonErrorKind::TooDeep`]) — the parser
    /// recurses once per level, so the limit keeps hostile input from
    /// overflowing the stack.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`Int`/`UInt`/`Float`), if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned-integer view, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array-items view.
    #[must_use]
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Inserts/updates a key in an object (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(entries) => {
                let value = value.into();
                if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    entries.push((key.to_owned(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Renders compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON with 2-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    if (v.fract() == 0.0) && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v:.6}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Reports nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON parse failure: what went wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// The class of failure.
    pub kind: JsonErrorKind,
    /// What was expected or found.
    pub message: String,
}

/// The class of a [`JsonParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not well-formed JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.at,
            kind: JsonErrorKind::Syntax,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonParseError {
                kind: JsonErrorKind::TooDeep,
                ..self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
            });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.at;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.at += 1;
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
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            s.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape outside BMP"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str and
                    // the cursor only ever advances by whole scalars, so
                    // `start` is a char boundary.
                    let c = self.text[start..].chars().next().expect("non-empty");
                    s.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("bad number `{text}`")))
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Self {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

/// Writes `report` under `target/reports/` and prints `json report:
/// <path>`. The report's first key names the file: `"sweep": "<name>"`
/// writes `<name>.json`, `"bench": "<name>"` (a host wall-clock figure)
/// writes `BENCH_<name>.json`. A failed write exits the process with
/// status 1, so no command reports success without its report.
///
/// # Panics
///
/// If the report's first key is not a string `"sweep"` or `"bench"`.
pub fn emit_report(report: &Json) {
    let name =
        report_file_name(report).expect("a report's first key is a string \"sweep\" or \"bench\"");
    let dir = std::path::Path::new("target").join("reports");
    let path = dir.join(name);
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report.render_pretty()));
    if let Err(e) = written {
        eprintln!("could not write json report {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("json report: {}", path.display());
}

/// The file [`emit_report`] writes `report` to.
fn report_file_name(report: &Json) -> Option<String> {
    let Json::Obj(entries) = report else {
        return None;
    };
    match entries.first() {
        Some((key, Json::Str(name))) if key == "sweep" => Some(format!("{name}.json")),
        Some((key, Json::Str(name))) if key == "bench" => Some(format!("BENCH_{name}.json")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj()
            .set("name", "cluster_scaling")
            .set("cores", vec![1u64, 2, 4, 8])
            .set("ok", true)
            .set(
                "point",
                Json::obj()
                    .set("cycles", 12345u64)
                    .set("util", 0.934_567_89),
            );
        let s = j.render();
        assert_eq!(
            s,
            "{\"name\":\"cluster_scaling\",\"cores\":[1,2,4,8],\"ok\":true,\
             \"point\":{\"cycles\":12345,\"util\":0.934568}}"
        );
    }

    #[test]
    fn reports_are_named_by_their_first_key() {
        let sweep = Json::obj().set("sweep", "l2_ablation").set("bench", "x");
        assert_eq!(
            report_file_name(&sweep).as_deref(),
            Some("l2_ablation.json")
        );
        let bench = Json::obj().set("bench", "host_speed");
        assert_eq!(
            report_file_name(&bench).as_deref(),
            Some("BENCH_host_speed.json")
        );
        for unnamed in [
            Json::obj(),
            Json::obj().set("stencil", "box3d1r").set("sweep", "late"),
            Json::obj().set("sweep", 3u64),
            Json::Arr(Vec::new()),
        ] {
            assert_eq!(report_file_name(&unnamed), None, "{}", unnamed.render());
        }
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn pretty_rendering_is_indented_and_stable() {
        let j = Json::obj()
            .set("a", 1u64)
            .set("b", Json::Arr(vec![Json::Int(2)]));
        let s = j.render_pretty();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
    }

    #[test]
    fn set_replaces_existing_keys() {
        let j = Json::obj().set("a", 1u64).set("a", 2u64);
        assert_eq!(j.render(), "{\"a\":2}");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_roundtrips_rendered_reports() {
        let j = Json::obj()
            .set("sweep", "cluster_scaling")
            .set("cores", vec![1u64, 2, 4, 8])
            .set("ok", true)
            .set("ratio", -0.25)
            .set("nothing", Json::Null)
            .set(
                "point",
                Json::obj().set("cycles", 12345u64).set("label", "a\"b\nc"),
            );
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_accessors_navigate() {
        let j = Json::parse(r#"{"points":[{"cycles":10,"chaining":true,"id":"x"}]}"#).unwrap();
        let p = &j.get("points").unwrap().items().unwrap()[0];
        assert_eq!(p.get("cycles").unwrap().as_u64(), Some(10));
        assert_eq!(p.get("chaining").unwrap().as_bool(), Some(true));
        assert_eq!(p.get("id").unwrap().as_str(), Some("x"));
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_deep_nesting_without_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(err.at, MAX_DEPTH);
        let closed = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&closed).is_ok(), "the limit itself parses");
        let over = format!("{{\"a\":{closed}}}");
        assert_eq!(Json::parse(&over).unwrap_err().kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(Json::parse(r#""A\n""#).unwrap(), Json::Str("A\n".into()));
    }

    /// JSON fragments: every structural character, literals and their
    /// misspellings, numbers at and past the integer and float limits,
    /// and escapes valid, truncated and unpaired.
    #[rustfmt::skip]
    const JSON_TOKENS: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", "\"key\"", "\"\"", "\\", "\\u", "\\u00e9", "\\uD800",
        "\\uDC00", "\\n", "\\x", "0", "-", "-0", "1", "1.", ".5", "1e", "1e999", "-1e-999", "2.5e3",
        "18446744073709551615", "18446744073709551616", "-9223372036854775808",
        "-9223372036854775809", "true", "false", "null", "tru", "nul", "NaN", "Infinity", " ", "\n",
        "\t", "é", "\u{1F600}", "\u{0}",
    ];

    fn json_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                (0..JSON_TOKENS.len()).prop_map(|i| JSON_TOKENS[i].to_string()),
                any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
            ],
            0..48,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn parse_never_panics(text in json_text()) {
            // Either parses or errors; must not panic.
            let _ = Json::parse(&text);
        }
    }
}
