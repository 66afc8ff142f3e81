//! Trace export: render finished traces as Chrome trace-event JSON.
//!
//! The [trace ring](crate::trace) keeps the last 256 finished traces with
//! their span trees.  [`render_chrome_trace`] turns a slice of those into
//! the JSON array format understood by `chrome://tracing`, Perfetto, and
//! Speedscope, so a `TRACE EXPORT` scrape can be dropped straight into a
//! flamegraph viewer.
//!
//! Layout: each trace becomes one thread lane (`tid` = position in the
//! slice, newest last), holding a complete `"X"` event for the whole
//! request followed by one `"X"` event per span at its recorded offset.
//! The request event's `args` carry `dropped_spans`: how many records the
//! trace discarded at its cap ([`crate::trace::MAX_SPANS_PER_TRACE`]).
//! Ring timestamps are relative to each trace's start — absolute wall
//! times are not recorded — so lanes all start at `ts = 0`; within a lane
//! the offsets are real and nesting renders faithfully.
//!
//! The crate is zero-dependency, so both the writer and the validating
//! parser ([`validate_chrome_trace`], used by wire tests and the CI smoke
//! binary) are hand-rolled here.

use crate::trace::TraceRecord;
use std::fmt::Write as _;

/// Escapes `s` into `out` as a JSON string literal (without the quotes).
fn escape_json_into(out: &mut String, s: &str) {
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
}

struct Event<'a> {
    name: &'a str,
    cat: &'a str,
    tid: usize,
    ts: u64,
    dur: u64,
    trace_id: u64,
    /// Set on the request event only.
    dropped_spans: Option<u64>,
}

fn push_event(out: &mut String, first: &mut bool, e: Event<'_>) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  {\"name\":\"");
    escape_json_into(out, e.name);
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\"",
        e.cat, e.ts, e.dur, e.tid, e.trace_id
    );
    if let Some(dropped) = e.dropped_spans {
        let _ = write!(out, ",\"dropped_spans\":{dropped}");
    }
    out.push_str("}}");
}

/// Renders `traces` as a Chrome trace-event JSON array (the "JSON Array
/// Format": a bare array of complete-duration `"X"` events).
///
/// The output is a single self-contained JSON document; an empty slice
/// renders as `[]`.
pub fn render_chrome_trace(traces: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(128 + traces.len() * 160);
    out.push_str("[\n");
    let mut first = true;
    for (tid, trace) in traces.iter().enumerate() {
        push_event(
            &mut out,
            &mut first,
            Event {
                name: &trace.label,
                cat: "request",
                tid,
                ts: 0,
                dur: trace.total_us,
                trace_id: trace.id,
                dropped_spans: Some(trace.dropped_spans),
            },
        );
        for span in &trace.spans {
            push_event(
                &mut out,
                &mut first,
                Event {
                    name: &span.name,
                    cat: "span",
                    tid,
                    ts: span.start_us,
                    dur: span.dur_us,
                    trace_id: trace.id,
                    dropped_spans: None,
                },
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// Validates that `text` is a well-formed Chrome trace-event JSON array
/// and returns the number of events.  Checks full JSON syntax (a minimal
/// recursive-descent parse — the crate is zero-dependency) plus the trace
/// schema: the top level is an array, every element an object carrying
/// `name`/`ph`/`ts`/`pid`/`tid` keys.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let events = p.parse_array_of_events()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(events)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Parses the top-level `[ {event}, ... ]`, returning the event count
    /// after checking each event object for the required trace keys.
    fn parse_array_of_events(&mut self) -> Result<usize, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut count = 0;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        loop {
            self.skip_ws();
            let keys = self.parse_object()?;
            for required in ["name", "ph", "ts", "pid", "tid"] {
                if !keys.iter().any(|k| k == required) {
                    return Err(format!("event {count} missing key `{required}`"));
                }
            }
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(count);
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// Parses an object, returning its top-level key names.
    fn parse_object(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut keys = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.parse_string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.parse_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(keys);
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(|_| ()),
            Some(b'{') => self.parse_object().map(|_| ()),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.parse_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => {
                            return Err(format!(
                                "expected `,` or `]` at byte {}, found {:?}",
                                self.pos,
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            Some(b't') => self.parse_literal("true"),
            Some(b'f') => self.parse_literal("false"),
            Some(b'n') => self.parse_literal("null"),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "unexpected value start at byte {}: {:?}",
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                saw_digit |= b.is_ascii_digit();
                self.pos += 1;
            } else {
                break;
            }
        }
        if saw_digit {
            Ok(())
        } else {
            Err(format!("malformed number at byte {start}"))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
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
                    match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!("bad \\u escape at byte {}", self.pos))
                                    }
                                }
                            }
                            out.push('\u{fffd}');
                        }
                        Some(e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            self.pos += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        other => {
                            return Err(format!(
                                "bad escape at byte {}: {:?}",
                                self.pos,
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are always valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty rest");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRecord;

    fn sample_trace(id: u64, label: &str) -> TraceRecord {
        TraceRecord {
            id,
            label: label.to_string(),
            total_us: 120,
            spans: vec![
                SpanRecord {
                    name: "plan".into(),
                    parent: None,
                    start_us: 3,
                    dur_us: 40,
                },
                SpanRecord {
                    name: "execute:matmul".into(),
                    parent: Some(0),
                    start_us: 45,
                    dur_us: 70,
                },
            ],
            dropped_spans: 0,
        }
    }

    #[test]
    fn renders_valid_chrome_trace_json() {
        let traces = vec![sample_trace(1, "EXEC g 0"), sample_trace(2, "UPDATE g G 3")];
        let json = render_chrome_trace(&traces);
        // 2 request lanes + 2 spans each.
        assert_eq!(validate_chrome_trace(&json), Ok(6));
        assert!(json.contains("\"tid\":0") && json.contains("\"tid\":1"));
        assert!(json.contains("\"trace_id\":\"0000000000000001\""));
    }

    #[test]
    fn the_request_event_reports_dropped_spans() {
        let mut t = sample_trace(3, "QUERY g looping");
        t.dropped_spans = 98_977;
        let json = render_chrome_trace(&[t]);
        assert_eq!(validate_chrome_trace(&json), Ok(3));
        assert_eq!(json.matches("\"dropped_spans\":98977").count(), 1);
        assert_eq!(json.matches("dropped_spans").count(), 1, "root event only");
    }

    #[test]
    fn empty_slice_renders_empty_array() {
        let json = render_chrome_trace(&[]);
        assert_eq!(validate_chrome_trace(&json), Ok(0));
    }

    #[test]
    fn escapes_hostile_labels() {
        let mut t = sample_trace(7, "EXEC \"quoted\" \\slash\n\ttab");
        t.spans[0].name = "span\u{0001}ctl".into();
        let json = render_chrome_trace(&[t]);
        assert_eq!(validate_chrome_trace(&json), Ok(3));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\u0001"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"a\":1}").is_err()); // not an array
        assert!(validate_chrome_trace("[{\"name\":\"x\"}]").is_err()); // missing keys
        assert!(validate_chrome_trace(
            "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0}] junk"
        )
        .is_err());
        assert!(validate_chrome_trace(
            "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0}]"
        )
        .is_ok());
    }
}
