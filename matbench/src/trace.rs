//! Spans recorded from the benchmark's own files, around its calls into
//! each layer.  They stay in memory and are written once, when the traced
//! run ends, in Chrome trace-event format.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spans of one operation share its number.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to operation `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans recorded from index `start` on, as a list of their own:
    /// parent indices are rebased, and a parent before `start` is dropped.
    pub fn spans_from(&self, start: usize) -> Vec<Span> {
        self.spans[start..]
            .iter()
            .map(|span| Span {
                parent: span.parent.and_then(|p| p.checked_sub(start)),
                ..span.clone()
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover.  Children are recorded on one thread and never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name, the total duration inside each operation, in µs.  Median
/// these for a "p50 per operation"; an operation with no span of a name is
/// absent from that name's list.  Request id 0 marks spans outside any timed
/// operation (set-up, probes, bookkeeping requests), which are left out.
pub fn per_request_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut totals: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.request_id != 0) {
        *totals.entry((span.name, span.request_id)).or_default() += span.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in totals {
        out.entry(name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per phase.
pub fn chrome_trace(phases: &[(&str, &[Span])]) -> String {
    let mut events = Vec::new();
    for (tid, (phase, spans)) in phases.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj([("name", Json::Str(phase.to_string()))])),
        ]));
        let own = self_times_ns(spans);
        for (span, own_ns) in spans.iter().zip(own) {
            events.push(Json::obj([
                ("name", Json::Str(span.name.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("request_id", Json::Num(span.request_id as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_us", Json::Num(own_ns as f64 / 1e3)),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::Arr(events))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, req: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: req,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", 0, 100, None, 1),
            span("store.exec", 10, 70, Some(0), 1),
            span("engine.exec", 20, 50, Some(1), 1),
            span("protocol.encode", 70, 90, Some(0), 1),
        ];
        // request: 100 − (60 + 20); store.exec: 60 − 30; leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn nesting_follows_enter_and_exit_order() {
        let mut t = Tracer::new();
        t.set_request(7);
        let outer = t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        t.time("sibling", || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans
            .iter()
            .all(|s| s.request_id == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let tail = t.spans_from(1);
        assert_eq!(
            (tail.len(), tail[0].parent, tail[1].parent),
            (2, None, None)
        );
    }

    #[test]
    fn per_request_totals_sum_repeated_spans_of_one_operation() {
        let spans = [
            span("client.wait", 0, 2_000, None, 1),
            span("client.wait", 3_000, 4_000, None, 1),
            span("client.wait", 5_000, 9_000, None, 2),
            span("client.wait", 9_000, 99_000, None, 0),
        ];
        assert_eq!(per_request_us(&spans)["client.wait"], vec![3.0, 4.0]);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = [
            span("a", 0, 1_000, None, 1),
            span("b", 100, 200, Some(0), 1),
        ];
        let doc = Json::parse(&chrome_trace(&[("tcp", &spans)])).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("args").unwrap().num_at("parent"), Some(0.0));
    }
}
