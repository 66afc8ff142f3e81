//! Span-based tracing with per-query trace IDs, a bounded ring buffer of
//! finished traces, and a slow-query log.
//!
//! The model is deliberately small: a *trace* is begun once per request at
//! the session layer ([`begin`] with an id from [`next_id`]) and is owned by
//! the current thread; nested code opens child *spans* ([`span`]) or drops
//! zero-duration *events* ([`event`]) into it.  When the root guard drops,
//! the finished [`TraceRecord`] — parent plus children, with microsecond
//! offsets relative to the trace start — is pushed into a bounded global
//! ring buffer, and traces that took longer than their slow threshold
//! ([`DEFAULT_SLOW_MS`] for [`begin`], or given per trace with
//! [`begin_with_slow_ms`] — the server passes its store's configured
//! threshold) are additionally recorded in the slow-query log and counted
//! in the `slow_queries_total` counter.
//! Fast traces with **no spans at all** — warm cache-hit requests, which
//! never enter instrumented engine code — are dropped at the root instead
//! of pushed, keeping the hot path free of the ring lock and the ring full
//! of traces with structure.
//!
//! A trace retains at most [`MAX_SPANS_PER_TRACE`] span records: past the
//! cap [`span`] and [`event`] record nothing and the trace counts what it
//! dropped ([`TraceRecord::dropped_spans`]), so no request — however many
//! instrumented calls it makes — can grow the ring without bound.
//!
//! When no trace is active on the current thread — the common case for
//! engine code driven outside a server session — [`span`] and [`event`] are
//! a thread-local read and nothing else, so instrumented library code pays
//! near-zero cost.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many finished traces (and slow queries) the ring buffers retain.
pub const RING_CAPACITY: usize = 256;

/// How many span records (spans and events) one trace retains; later ones
/// are counted in [`TraceRecord::dropped_spans`] and otherwise discarded.
pub const MAX_SPANS_PER_TRACE: usize = 1024;

/// One span inside a finished trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"plan"`, `"rewrite"`, `"execute:matmul"`.  Static
    /// for every span on a request's hot path, so opening one allocates
    /// nothing; only names carrying figures (a loop summary) are owned.
    pub name: Cow<'static, str>,
    /// Index into [`TraceRecord::spans`] of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset relative to the trace start, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds (0 for [`event`]s and sub-µs spans).
    pub dur_us: u64,
}

/// A finished trace: the parent span for one request plus its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The per-query trace id handed to [`begin`].
    pub id: u64,
    /// The label handed to [`begin`] (by convention the request line).
    pub label: String,
    /// Total wall time of the trace in microseconds.
    pub total_us: u64,
    /// Child spans in creation order (at most [`MAX_SPANS_PER_TRACE`]).
    pub spans: Vec<SpanRecord>,
    /// Spans and events discarded because the trace was at its cap.
    pub dropped_spans: u64,
}

/// One slow-query log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Trace id of the offending request.
    pub trace_id: u64,
    /// The trace label (request line).
    pub label: String,
    /// Total wall time in microseconds.
    pub total_us: u64,
    /// Forensic detail attached mid-request via [`attach_slow_detail`] —
    /// by convention the rewritten-DAG explain plus the per-node observed
    /// profile of the offending execution.  Empty when nothing attached.
    pub detail: Vec<String>,
}

/// How much of a label [`begin`] retains (truncated at a char boundary).
/// Labels are by convention request lines; a `LOAD`-sized line must not
/// drag megabytes into the ring, and an inline buffer keeps the hot
/// begin/drop cycle free of heap allocation entirely.
pub const LABEL_CAPACITY: usize = 96;

struct ActiveTrace {
    id: u64,
    label_len: u8,
    label_buf: [u8; LABEL_CAPACITY],
    started: Instant,
    /// The slow-query threshold this trace is judged against.
    slow_us: u64,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
    stack: Vec<usize>,
}

impl ActiveTrace {
    fn label(&self) -> &str {
        // The buffer was copied from a `&str` prefix cut at a char
        // boundary, so it is valid UTF-8 by construction.
        std::str::from_utf8(&self.label_buf[..self.label_len as usize]).unwrap_or_default()
    }

    /// Appends a record under the current span and returns its index, or
    /// counts it as dropped when the trace is at [`MAX_SPANS_PER_TRACE`].
    fn record(&mut self, name: Cow<'static, str>) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped_spans += 1;
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            start_us: self.started.elapsed().as_micros() as u64,
            dur_us: 0,
        });
        Some(idx)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The slow-query threshold, in milliseconds, of a trace begun with
/// [`begin`].
pub const DEFAULT_SLOW_MS: u64 = 100;

/// How many traces' pending forensic detail the side channel retains while
/// their root guards are still open.
const PENDING_DETAIL_CAPACITY: usize = 64;

fn ring() -> &'static Mutex<VecDeque<TraceRecord>> {
    static RING: OnceLock<Mutex<VecDeque<TraceRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

fn slow_ring() -> &'static Mutex<VecDeque<SlowQuery>> {
    static RING: OnceLock<Mutex<VecDeque<SlowQuery>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

/// Parked forensic detail, keyed by trace id (see [`attach_slow_detail`]).
type PendingDetailRing = VecDeque<(u64, Vec<String>)>;

fn pending_detail() -> &'static Mutex<PendingDetailRing> {
    static PENDING: OnceLock<Mutex<PendingDetailRing>> = OnceLock::new();
    PENDING.get_or_init(|| Mutex::new(VecDeque::with_capacity(PENDING_DETAIL_CAPACITY)))
}

/// Entries currently parked in [`pending_detail`].  Letting the trace-drop
/// hot path skip the parking-lot mutex entirely when nothing is parked —
/// the overwhelmingly common case — keeps warm requests lock-free.
static PENDING_COUNT: AtomicU64 = AtomicU64::new(0);

/// Attach forensic detail lines to the trace `trace_id` **before** its root
/// guard drops.  The request's root trace guard lives at the session layer
/// and only finishes — and decides slowness — after the store returns, so
/// code deeper in the stack that can render an explain/profile cheaply
/// parks the lines here; [`TraceGuard::drop`] folds them into the
/// [`SlowQuery`] entry when the trace turns out slow and discards them
/// otherwise.  The parking lot is bounded; unclaimed entries (a trace that
/// never finishes) age out oldest-first.
pub fn attach_slow_detail(trace_id: u64, lines: Vec<String>) {
    if trace_id == 0 || !crate::enabled() {
        return;
    }
    if let Ok(mut pending) = pending_detail().lock() {
        if let Some(slot) = pending.iter_mut().find(|(id, _)| *id == trace_id) {
            slot.1 = lines;
            return;
        }
        if pending.len() == PENDING_DETAIL_CAPACITY {
            pending.pop_front();
        } else {
            PENDING_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        pending.push_back((trace_id, lines));
    }
}

/// Remove and return the pending detail for `trace_id`, if any.  Checks the
/// lock-free emptiness hint first so traces with nothing parked never take
/// the mutex.
fn take_slow_detail(trace_id: u64) -> Option<Vec<String>> {
    if PENDING_COUNT.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut pending = pending_detail().lock().ok()?;
    let idx = pending.iter().position(|(id, _)| *id == trace_id)?;
    PENDING_COUNT.fetch_sub(1, Ordering::Relaxed);
    pending.remove(idx).map(|(_, lines)| lines)
}

/// A fresh, process-unique trace id (nonzero; 0 means "no trace" on the
/// wire).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The id of the trace active on this thread, or 0 if none.
#[inline]
pub fn current_id() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |t| t.id))
}

/// Is a trace active on this thread?  A cheap pre-check for call sites that
/// would otherwise allocate a span name.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Guard returned by [`begin`]; dropping it finishes the trace and records
/// it into the ring buffer (and the slow-query log when over threshold).
#[must_use = "dropping the guard is what finishes and records the trace"]
pub struct TraceGuard {
    armed: bool,
    // Traces are thread-local; keep the guard on the thread that began it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Begin a trace on this thread.  The label (by convention the request
/// line) is retained up to [`LABEL_CAPACITY`] bytes, cut at a char
/// boundary; the copy is into an inline buffer, so beginning and dropping
/// a trace never touches the heap.
///
/// Returns an inert guard (and records nothing) when observability is
/// disabled or another trace is already active on the thread — an inner
/// `begin` never clobbers the outer request's trace.
pub fn begin(id: u64, label: &str) -> TraceGuard {
    begin_with_slow_ms(id, label, DEFAULT_SLOW_MS)
}

/// [`begin`] with this trace's own slow-query threshold in milliseconds
/// in place of [`DEFAULT_SLOW_MS`].
pub fn begin_with_slow_ms(id: u64, label: &str, slow_ms: u64) -> TraceGuard {
    let inert = TraceGuard {
        armed: false,
        _not_send: std::marker::PhantomData,
    };
    if !crate::enabled() {
        return inert;
    }
    let mut cut = label.len().min(LABEL_CAPACITY);
    while !label.is_char_boundary(cut) {
        cut -= 1;
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_some() {
            return inert;
        }
        let mut label_buf = [0u8; LABEL_CAPACITY];
        label_buf[..cut].copy_from_slice(&label.as_bytes()[..cut]);
        *slot = Some(ActiveTrace {
            id,
            label_len: cut as u8,
            label_buf,
            started: Instant::now(),
            slow_us: slow_ms.saturating_mul(1000),
            spans: Vec::new(),
            dropped_spans: 0,
            stack: Vec::new(),
        });
        TraceGuard {
            armed: true,
            _not_send: std::marker::PhantomData,
        }
    })
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(t) = ACTIVE.with(|a| a.borrow_mut().take()) else {
            return;
        };
        let total_us = t.started.elapsed().as_micros() as u64;
        let slow = total_us >= t.slow_us;
        // Claim any parked forensic detail either way, so an abandoned
        // attachment for a fast trace cannot linger in the parking lot.
        let detail = take_slow_detail(t.id);
        if slow {
            crate::counter!("slow_queries_total").inc();
            if let Ok(mut log) = slow_ring().lock() {
                if log.len() == RING_CAPACITY {
                    log.pop_front();
                }
                log.push_back(SlowQuery {
                    trace_id: t.id,
                    label: t.label().to_string(),
                    total_us,
                    detail: detail.unwrap_or_default(),
                });
            }
        }
        // Span-less fast traces are dropped at the root: a warm cache-hit
        // request opens no child spans and there is nothing in it to
        // inspect, so skipping the ring keeps the hot path at a
        // thread-local take plus one clock read (the id still went out on
        // the wire), and keeps the bounded ring full of traces with
        // structure.
        if slow || !t.spans.is_empty() {
            let record = TraceRecord {
                id: t.id,
                label: t.label().to_string(),
                total_us,
                spans: t.spans,
                dropped_spans: t.dropped_spans,
            };
            if let Ok(mut traces) = ring().lock() {
                if traces.len() == RING_CAPACITY {
                    traces.pop_front();
                }
                traces.push_back(record);
            }
        }
    }
}

/// Guard returned by [`span`]; dropping it closes the span.
#[must_use = "dropping the guard is what closes the span"]
pub struct SpanGuard {
    idx: Option<usize>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a child span of the trace active on this thread.  A no-op guard when
/// no trace is active or the trace is at [`MAX_SPANS_PER_TRACE`].
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    let idx = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let t = slot.as_mut()?;
        let idx = t.record(name.into())?;
        t.stack.push(idx);
        Some(idx)
    });
    SpanGuard {
        idx,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if let Some(t) = slot.as_mut() {
                let now_us = t.started.elapsed().as_micros() as u64;
                if let Some(s) = t.spans.get_mut(idx) {
                    s.dur_us = now_us.saturating_sub(s.start_us);
                }
                // Guards normally drop LIFO; tolerate stragglers anyway.
                if t.stack.last() == Some(&idx) {
                    t.stack.pop();
                } else {
                    t.stack.retain(|&i| i != idx);
                }
            }
        });
    }
}

/// Record a zero-duration event (e.g. one applied rewrite rule) under the
/// current span of the active trace.  A no-op when no trace is active or
/// the trace is at [`MAX_SPANS_PER_TRACE`].
pub fn event(name: impl Into<Cow<'static, str>>) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.record(name.into());
        }
    });
}

/// The most recent `n` finished traces, oldest first.
pub fn recent(n: usize) -> Vec<TraceRecord> {
    match ring().lock() {
        Ok(traces) => traces.iter().rev().take(n).rev().cloned().collect(),
        Err(_) => Vec::new(),
    }
}

/// The most recent `n` slow-query entries, oldest first.
pub fn slow_queries(n: usize) -> Vec<SlowQuery> {
    match slow_ring().lock() {
        Ok(log) => log.iter().rev().take(n).rev().cloned().collect(),
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find_trace(id: u64) -> Option<TraceRecord> {
        recent(RING_CAPACITY).into_iter().find(|t| t.id == id)
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn spans_nest_and_record() {
        let id = next_id();
        {
            let _t = begin(id, "EXEC g 0");
            assert_eq!(current_id(), id);
            assert!(active());
            {
                let _plan = span("plan");
                let _inner = span("rewrite");
                event("rewrite:fuse-mprod");
            }
            let _exec = span("execute:matmul");
        }
        assert_eq!(current_id(), 0, "trace must close when the guard drops");
        let t = find_trace(id).expect("trace must land in the ring buffer");
        assert_eq!(t.label, "EXEC g 0");
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            ["plan", "rewrite", "rewrite:fuse-mprod", "execute:matmul"]
        );
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0), "rewrite nests under plan");
        assert_eq!(t.spans[2].parent, Some(1), "event nests under rewrite");
        assert_eq!(t.spans[3].parent, None, "sibling span is a root child");
    }

    #[test]
    fn span_without_active_trace_is_inert() {
        assert!(!active());
        let g = span("orphan");
        drop(g);
        event("orphan-event");
        assert_eq!(current_id(), 0);
    }

    #[test]
    fn inner_begin_does_not_clobber_outer_trace() {
        let outer = next_id();
        let inner = next_id();
        {
            let _t = begin(outer, "outer");
            let _s = span("work");
            {
                let _nested = begin(inner, "inner");
                assert_eq!(current_id(), outer, "outer trace stays active");
            }
            assert_eq!(current_id(), outer, "inner guard must not finish it");
        }
        assert!(find_trace(outer).is_some());
        assert!(find_trace(inner).is_none());
    }

    #[test]
    fn span_less_fast_traces_skip_the_ring() {
        let id = next_id();
        {
            let _t = begin(id, "EXEC warm 0");
            // No spans: a warm cache-hit request.
        }
        assert!(
            find_trace(id).is_none(),
            "span-less fast traces must not occupy the bounded ring"
        );
    }

    #[test]
    fn slow_queries_are_logged_when_over_threshold() {
        let id = next_id();
        {
            // Threshold 0 on this trace only: it counts as slow.
            let _t = begin_with_slow_ms(id, "EXEC slow 0", 0);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let slow = slow_queries(RING_CAPACITY);
        let entry = slow.iter().find(|s| s.trace_id == id);
        let entry = entry.expect("slow query must be logged");
        assert_eq!(entry.label, "EXEC slow 0");
        assert!(entry.total_us >= 1000);
        assert!(crate::counter!("slow_queries_total").get() >= 1);
    }

    #[test]
    fn slow_detail_attaches_through_the_side_channel() {
        let id = next_id();
        {
            let _t = begin_with_slow_ms(id, "EXEC forensic 0", 0);
            attach_slow_detail(current_id(), vec!["plan nodes=3".into(), "#0 var G".into()]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let entry = slow_queries(RING_CAPACITY)
            .into_iter()
            .find(|s| s.trace_id == id)
            .expect("slow query must be logged");
        assert_eq!(
            entry.detail,
            vec!["plan nodes=3".to_string(), "#0 var G".to_string()],
            "parked detail must fold into the slow-log entry"
        );
    }

    #[test]
    fn fast_traces_discard_parked_detail() {
        let id = next_id();
        {
            let _t = begin(id, "EXEC fast 0");
            attach_slow_detail(id, vec!["unused".into()]);
            // No sleep: with the default 100 ms threshold this is fast.
        }
        assert!(
            slow_queries(RING_CAPACITY).iter().all(|s| s.trace_id != id),
            "a fast trace must not reach the slow log"
        );
        // The parked entry was claimed and dropped, not leaked: attaching
        // again for the dead id and asking for it via a new slow trace
        // cannot resurrect it.
        let id2 = next_id();
        {
            let _t = begin_with_slow_ms(id2, "EXEC forensic 1", 0);
            attach_slow_detail(id2, vec!["second".into()]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let entry = slow_queries(RING_CAPACITY)
            .into_iter()
            .find(|s| s.trace_id == id2)
            .expect("slow query must be logged");
        assert_eq!(entry.detail, vec!["second".to_string()]);
    }

    #[test]
    fn a_trace_retains_at_most_the_span_cap() {
        let id = next_id();
        {
            let _t = begin(id, "QUERY looping 0");
            for _ in 0..100_000 {
                let _s = span("execute:matmul");
            }
            event("past-the-cap");
        }
        let t = find_trace(id).expect("trace must land in the ring buffer");
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(
            t.dropped_spans,
            100_001 - MAX_SPANS_PER_TRACE as u64,
            "every record past the cap is counted, not kept"
        );
        assert!(t.spans.iter().all(|s| s.name == "execute:matmul"));
    }

    #[test]
    fn the_slow_threshold_travels_with_the_trace() {
        // A threshold no trace reaches, then 0: the verdict follows the
        // value handed to each trace, whatever the process-wide setting.
        let (fast, slow) = (next_id(), next_id());
        drop(begin_with_slow_ms(fast, "EXEC never-slow 0", u64::MAX));
        drop(begin_with_slow_ms(slow, "EXEC always-slow 0", 0));
        let logged: Vec<u64> = slow_queries(RING_CAPACITY)
            .iter()
            .map(|s| s.trace_id)
            .collect();
        assert!(!logged.contains(&fast));
        assert!(logged.contains(&slow));
    }

    #[test]
    fn ring_buffer_is_bounded() {
        for _ in 0..RING_CAPACITY + 8 {
            let _t = begin(next_id(), "filler");
            let _s = span("fill");
        }
        assert!(recent(usize::MAX).len() <= RING_CAPACITY);
    }

    #[test]
    fn trace_ring_wraparound_retains_newest_in_issue_order() {
        const ISSUED: usize = RING_CAPACITY + 44;
        let mut issued = Vec::with_capacity(ISSUED);
        for _ in 0..ISSUED {
            let id = next_id();
            issued.push(id);
            let _t = begin(id, "EXEC wrap 0");
            let _s = span("wrap-fill");
        }
        let all = recent(usize::MAX);
        assert!(all.len() <= RING_CAPACITY);
        let mut ids: Vec<u64> = all.iter().map(|t| t.id).collect();
        // FIFO eviction drops oldest-first, so whichever of our traces
        // survive must be exactly the newest suffix of what we issued,
        // in issue order, with nothing duplicated or reordered.
        let ours: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|id| issued.contains(id))
            .collect();
        assert!(!ours.is_empty(), "our newest traces must be retained");
        assert!(
            ours.len() < ISSUED,
            "the ring must have evicted the oldest of {ISSUED} traces"
        );
        assert_eq!(ours, issued[ISSUED - ours.len()..]);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate trace ids in the ring");
        // The newest-n view is the tail of the ring.  Sibling tests push
        // between any two listings, so this is checked on one listing:
        // whichever of its entries are ours are our newest, in order.
        let tail = recent(8);
        assert_eq!(tail.len(), 8);
        let ours: Vec<u64> = tail
            .iter()
            .map(|t| t.id)
            .filter(|id| issued.contains(id))
            .collect();
        assert_eq!(ours, issued[ISSUED - ours.len()..]);
    }

    #[test]
    fn slow_ring_wraparound_retains_newest_in_issue_order() {
        const ISSUED: usize = RING_CAPACITY + 44;
        let mut issued = Vec::with_capacity(ISSUED);
        for _ in 0..ISSUED {
            let id = next_id();
            issued.push(id);
            // Threshold 0 on each trace: every one counts as slow.
            let _t = begin_with_slow_ms(id, "EXEC slow-wrap 0", 0);
        }
        let all = slow_queries(usize::MAX);
        assert!(all.len() <= RING_CAPACITY);
        // Sibling tests log slow queries of their own concurrently, so ours
        // need not be contiguous — but the survivors must appear in issue
        // order with no duplicates, and more than the ring holds can never
        // survive.
        let ours: Vec<u64> = all
            .iter()
            .map(|s| s.trace_id)
            .filter(|id| issued.contains(id))
            .collect();
        assert!(ours.len() < ISSUED, "the slow ring must have evicted");
        let mut expect = issued.clone();
        expect.retain(|id| ours.contains(id));
        assert_eq!(ours, expect, "survivors must keep issue order");
        let mut deduped = ours.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ours.len(), "duplicate slow-log entries");
        // The newest-n view is the tail of the ring: on one listing (see
        // the trace-ring twin of this test), ours are our newest, in order.
        let tail = slow_queries(8);
        assert_eq!(tail.len(), 8);
        let ours: Vec<u64> = tail
            .iter()
            .map(|s| s.trace_id)
            .filter(|id| issued.contains(id))
            .collect();
        assert_eq!(ours, issued[ISSUED - ours.len()..]);
    }
}
