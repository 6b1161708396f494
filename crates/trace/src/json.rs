//! Minimal JSON codec for trace files — the environment is offline, so no
//! serde. The writer emits only flat objects with controlled keys; the
//! parser is a full recursive-descent JSON reader used both to load trace
//! lines back and to validate the merged Chrome trace.
//!
//! Numbers keep their source text: wire tags are `u64` values with bit 63
//! set, which an `f64` mantissa cannot represent, so [`Value::Num`] stores
//! the literal and [`Value::as_u64`]/[`Value::as_f64`] parse on demand.

use crate::{Args, Event, Ph};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text (see module docs).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Integer view of a number (exact for u64-range integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Float view of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object-key lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

/// Checks that `text` is well-formed JSON.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key is not a string at offset {}", *pos)),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        b'"' => parse_string(b, pos).map(Value::Str),
        b't' => parse_lit(b, pos, "true").map(|()| Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false").map(|()| Value::Bool(false)),
        b'n' => parse_lit(b, pos, "null").map(|()| Value::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        other => Err(format!("unexpected byte '{}' at offset {}", other as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac = *pos;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp = *pos;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(Value::Num(String::from_utf8_lossy(&b[start..*pos]).into_owned()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at c.
                let width = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (*pos - 1 + width).min(b.len());
                let s = std::str::from_utf8(&b[*pos - 1..end])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
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

fn ph_letter(ph: Ph) -> &'static str {
    match ph {
        Ph::SpanBegin => "B",
        Ph::SpanEnd => "E",
        Ph::Instant => "i",
        Ph::FlowOut => "s",
        Ph::FlowIn => "f",
        Ph::AsyncBegin => "b",
        Ph::AsyncEnd => "e",
    }
}

fn ph_from_letter(s: &str) -> Option<Ph> {
    Some(match s {
        "B" => Ph::SpanBegin,
        "E" => Ph::SpanEnd,
        "i" => Ph::Instant,
        "s" => Ph::FlowOut,
        "f" => Ph::FlowIn,
        "b" => Ph::AsyncBegin,
        "e" => Ph::AsyncEnd,
        _ => return None,
    })
}

/// The one serializer of [`Args`]: its flat field list, comma-separated,
/// without braces or a leading comma (nothing for [`Args::None`]). Event
/// lines put it after their `"a"` kind letter, the Chrome writer inside
/// `"args":{…}`. A non-finite [`Args::Value`] has no JSON number spelling,
/// so it is written as the string `"NaN"`, `"inf"` or `"-inf"`, which
/// [`parse_event_line`] reads back.
pub(crate) fn push_arg_fields(out: &mut String, args: &Args) {
    match *args {
        Args::None => {}
        Args::Wire { from, to, tag, bytes } => {
            let _ = write!(out, "\"from\":{from},\"to\":{to},\"tag\":{tag},\"bytes\":{bytes}");
        }
        Args::Collective { op, plane, bytes } => {
            out.push_str("\"op\":");
            push_str_lit(out, op);
            out.push_str(",\"plane\":");
            push_str_lit(out, plane);
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        Args::Bucket { bucket, bytes } => {
            let _ = write!(out, "\"bucket\":{bucket},\"bytes\":{bytes}");
        }
        Args::Value(v) if v.is_finite() => {
            let _ = write!(out, "\"value\":{v}");
        }
        Args::Value(v) => {
            let _ = write!(out, "\"value\":\"{v}\"");
        }
        Args::Plane { space, plane } => {
            let _ = write!(out, "\"space\":{space},\"plane\":");
            push_str_lit(out, plane);
        }
    }
}

/// Serializes one event as a single flat JSONL line (newline included).
pub fn write_event_line(out: &mut String, ev: &Event) {
    let _ = write!(out, "{{\"ph\":\"{}\",\"t\":{}", ph_letter(ev.ph), ev.t_ns);
    if !ev.name.is_empty() {
        out.push_str(",\"n\":");
        push_str_lit(out, ev.name);
    }
    if ev.id != 0 {
        let _ = write!(out, ",\"id\":{}", ev.id);
    }
    let kind = match ev.args {
        Args::None => None,
        Args::Wire { .. } => Some('w'),
        Args::Collective { .. } => Some('c'),
        Args::Bucket { .. } => Some('k'),
        Args::Value(_) => Some('v'),
        Args::Plane { .. } => Some('p'),
    };
    if let Some(kind) = kind {
        let _ = write!(out, ",\"a\":\"{kind}\",");
        push_arg_fields(out, &ev.args);
    }
    out.push_str("}\n");
}

/// Interns a string so parsed events can use `&'static str` names like the
/// live recorder does. The name set is small and closed, so the leak is
/// bounded.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut pool = POOL.get_or_init(|| Mutex::new(HashMap::new())).lock();
    if let Some(v) = pool.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(s.to_owned(), leaked);
    leaked
}

/// Parses one flat JSONL event line written by [`write_event_line`].
pub fn parse_event_line(obj: &Value) -> Result<Event, String> {
    let ph =
        obj.get("ph").and_then(Value::as_str).and_then(ph_from_letter).ok_or("missing/bad ph")?;
    let t_ns = obj.get("t").and_then(Value::as_u64).ok_or("missing t")?;
    let name = obj.get("n").and_then(Value::as_str).map(intern).unwrap_or("");
    let id = obj.get("id").and_then(Value::as_u64).unwrap_or(0);
    let args = match obj.get("a").and_then(Value::as_str) {
        None => Args::None,
        Some("w") => Args::Wire {
            from: obj.get("from").and_then(Value::as_u64).ok_or("wire: from")? as usize,
            to: obj.get("to").and_then(Value::as_u64).ok_or("wire: to")? as usize,
            tag: obj.get("tag").and_then(Value::as_u64).ok_or("wire: tag")?,
            bytes: obj.get("bytes").and_then(Value::as_u64).ok_or("wire: bytes")?,
        },
        Some("c") => Args::Collective {
            op: obj.get("op").and_then(Value::as_str).map(intern).ok_or("collective: op")?,
            plane: obj
                .get("plane")
                .and_then(Value::as_str)
                .map(intern)
                .ok_or("collective: plane")?,
            bytes: obj.get("bytes").and_then(Value::as_u64).ok_or("collective: bytes")?,
        },
        Some("k") => Args::Bucket {
            bucket: obj.get("bucket").and_then(Value::as_u64).ok_or("bucket: bucket")? as usize,
            bytes: obj.get("bytes").and_then(Value::as_u64).ok_or("bucket: bytes")?,
        },
        Some("v") => Args::Value(
            match obj.get("value") {
                // Non-finite values travel as strings (see `push_arg_fields`).
                Some(Value::Str(s)) => s.parse().ok().filter(|v: &f64| !v.is_finite()),
                v => v.and_then(Value::as_f64),
            }
            .ok_or("value")?,
        ),
        Some("p") => Args::Plane {
            space: obj.get("space").and_then(Value::as_u64).ok_or("plane: space")?,
            plane: obj.get("plane").and_then(Value::as_str).map(intern).ok_or("plane: plane")?,
        },
        Some(other) => return Err(format!("unknown arg kind {other:?}")),
    };
    Ok(Event { ph, t_ns, name, id, args })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_u64_precision() {
        let tag: u64 = (1 << 63) | (57 << 8) | 3;
        let v = parse(&format!("{{\"tag\":{tag}}}")).unwrap();
        assert_eq!(v.get("tag").unwrap().as_u64(), Some(tag));
    }

    #[test]
    fn event_lines_round_trip() {
        let evs = [
            Event {
                ph: Ph::SpanBegin,
                t_ns: 12345,
                name: "send",
                id: 0,
                args: Args::Wire { from: 2, to: 0, tag: (1 << 63) | 777, bytes: 4096 },
            },
            Event { ph: Ph::SpanEnd, t_ns: 12999, name: "", id: 0, args: Args::None },
            Event { ph: Ph::FlowIn, t_ns: 13000, name: "msg", id: 0xdead_beef, args: Args::None },
            Event {
                ph: Ph::AsyncBegin,
                t_ns: 14000,
                name: "nb/allreduce",
                id: 9,
                args: Args::Collective { op: "allreduce", plane: "intra", bytes: 512 },
            },
            Event { ph: Ph::Instant, t_ns: 15000, name: "v", id: 0, args: Args::Value(0.5) },
            Event {
                ph: Ph::Instant,
                t_ns: 15500,
                name: "plane_map",
                id: 0,
                args: Args::Plane { space: 33, plane: "inter" },
            },
        ];
        for ev in &evs {
            let mut line = String::new();
            write_event_line(&mut line, ev);
            let obj = parse(line.trim_end()).unwrap();
            let back = parse_event_line(&obj).unwrap();
            assert_eq!(back.ph, ev.ph);
            assert_eq!(back.t_ns, ev.t_ns);
            assert_eq!(back.name, ev.name);
            assert_eq!(back.id, ev.id);
            assert_eq!(back.args, ev.args);
        }
    }

    #[test]
    fn non_finite_values_round_trip() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, 5e-324] {
            let ev = Event { ph: Ph::Instant, t_ns: 1, name: "loss", id: 0, args: Args::Value(v) };
            let mut line = String::new();
            write_event_line(&mut line, &ev);
            let obj = parse(line.trim_end()).unwrap_or_else(|e| panic!("{v}: {line}: {e}"));
            let Args::Value(back) = parse_event_line(&obj).unwrap().args else {
                panic!("{v}: value args lost");
            };
            assert_eq!(back.to_bits(), v.to_bits(), "{v} read back as {back}");
        }
        assert!(
            parse_event_line(&parse(r#"{"ph":"i","t":1,"a":"v","value":"x"}"#).unwrap()).is_err()
        );
    }

    #[test]
    fn validator_accepts_nested_and_rejects_garbage() {
        validate("{\"a\":[1,2.5,{\"b\":null},true,\"x\\n\"]}").unwrap();
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,2,]").is_err());
        assert!(validate("{} extra").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}"));
    }
}
