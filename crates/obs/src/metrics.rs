//! Lock-free metrics: counters, gauges, log₂-bucketed histograms, and a
//! process-wide registry with Prometheus-style text exposition.
//!
//! The registry map is behind an `RwLock`, but that lock is only taken when a
//! metric is first registered (and when [`render`] walks the map).  Handles
//! are `&'static` — leaked once per metric name — so hot paths cache them in
//! `OnceLock` statics (see the [`counter!`](crate::counter) family of macros)
//! and every update is a relaxed atomic operation with no lock in sight.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Number of histogram buckets: one for zero plus one per power of two up to
/// `2⁶³..=u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonic counter.  `inc`/`add` are relaxed atomic adds gated on the
/// global enable flag.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter (registered ones come from
    /// [`Registry::counter`]).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current value of something, e.g. live sessions).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in microseconds by
/// convention, but unit-agnostic).
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i − 1]`, so bucket boundaries are the powers of two and the
/// last bucket (`i = 64`) covers `[2⁶³, u64::MAX]`.  Every update is two
/// relaxed `fetch_add`s plus one for the running sum — no locks, no
/// allocation — and quantiles are recovered by linear interpolation inside
/// the bucket where the requested rank falls.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array from a const item.
        // The const is a repeat seed, never a shared value, so the
        // interior-mutability lint does not apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index for a sample: 0 for 0, otherwise the bit length of
    /// `v` (so 1 → 1, 2..=3 → 2, 4..=7 → 3, …, `u64::MAX` → 64).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lower, upper]` range of values that land in bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps on overflow; latencies in µs would need
    /// ~585 000 years of accumulated time to wrap).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by finding the bucket that
    /// contains the rank `q·count` and interpolating linearly between the
    /// bucket's bounds.  Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.buckets(), q)
    }
}

/// The quantile estimator shared by [`Histogram::quantile`] and windowed
/// [`HistogramSnapshot`] diffs: find the bucket containing the rank
/// `q·count` and interpolate linearly inside its bounds.
fn quantile_of(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if (next as f64) >= rank {
            let (lo, hi) = Histogram::bucket_bounds(i);
            let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
            return lo as f64 + frac * (hi - lo) as f64;
        }
        cum = next;
    }
    // Rank beyond the last non-empty bucket (q == 1.0 rounding): the max
    // representable value of the highest occupied bucket.
    let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    Histogram::bucket_bounds(last).1 as f64
}

/// A point-in-time copy of one histogram's state, diffable against a later
/// copy to recover per-window quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (same bucketing as [`Histogram`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all samples at snapshot time.
    pub sum: u64,
    /// Number of samples at snapshot time.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Interpolated `q`-quantile of the samples in this snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.buckets, q)
    }

    /// The samples recorded *between* `earlier` and this snapshot — the
    /// windowed histogram.  Counters are monotone, so per-bucket saturating
    /// subtraction is exact.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, (now, old)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *out = now.saturating_sub(*old);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.wrapping_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

/// A timestamped copy of every registered metric — the unit the windowed
/// ring stores and [`render_window_lines`] diffs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Microseconds since the process's snapshot clock started.
    pub at_us: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Microseconds on the process-wide monotonic snapshot clock (0 at the
/// first read).
pub fn clock_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

// A metric handle bundle; copying it out of the map under the read lock is
// what lets callers keep using the handle lock-free afterwards.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The process-wide metric registry: a name → metric map.  Registration
/// (cold) takes the write lock once per name; lookups for already-registered
/// names take the read lock, and callers are expected to cache the returned
/// `&'static` handle so steady-state updates touch no lock at all.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Get or register the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> &'static Counter {
        match self.get_or_insert(name, || Metric::Counter(Box::leak(Box::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Box::leak(Box::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Box::leak(Box::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().unwrap().get(name) {
            return *m;
        }
        let mut map = self.metrics.write().unwrap();
        *map.entry(name.to_string()).or_insert_with(make)
    }

    /// A timestamped copy of every registered metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.read().unwrap();
        let mut snap = MetricsSnapshot {
            at_us: clock_us(),
            ..MetricsSnapshot::default()
        };
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            buckets: h.buckets(),
                            sum: h.sum(),
                            count: h.count(),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Render every registered metric as Prometheus-style text exposition,
    /// one line per element, in name order.  Histograms are rendered as
    /// summaries with interpolated p50/p95/p99 quantiles plus `_sum` and
    /// `_count` series.
    pub fn render_lines(&self) -> Vec<String> {
        let map = self.metrics.read().unwrap();
        let mut lines = Vec::with_capacity(map.len() * 2);
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    lines.push(format!("# TYPE {name} counter"));
                    lines.push(format!("{name} {}", c.get()));
                }
                Metric::Gauge(g) => {
                    lines.push(format!("# TYPE {name} gauge"));
                    lines.push(format!("{name} {}", g.get()));
                }
                Metric::Histogram(h) => {
                    lines.push(format!("# TYPE {name} summary"));
                    for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                        lines.push(format!(
                            "{name}{{quantile=\"{label}\"}} {:.1}",
                            h.quantile(q)
                        ));
                    }
                    lines.push(format!("{name}_sum {}", h.sum()));
                    lines.push(format!("{name}_count {}", h.count()));
                }
            }
        }
        lines
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Render the global registry as one newline-terminated exposition string.
pub fn render() -> String {
    let mut out = String::new();
    for line in registry().render_lines() {
        let _ = writeln!(out, "{line}");
    }
    out
}

/// How many periodic snapshots the windowed ring retains.  At one snapshot
/// per `METRICS`/`METRICS WINDOW` request this bounds both memory and the
/// lookback horizon; older snapshots fall off the front.
pub const WINDOW_RING_CAPACITY: usize = 128;

fn window_ring() -> &'static Mutex<VecDeque<MetricsSnapshot>> {
    static RING: OnceLock<Mutex<VecDeque<MetricsSnapshot>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(WINDOW_RING_CAPACITY)))
}

/// Take a snapshot of the global registry and push it into the bounded
/// window ring.  Returns the snapshot timestamp ([`clock_us`]).  The server
/// records one on every `METRICS` request, so the ring accrues baselines
/// without any background thread.
pub fn record_snapshot() -> u64 {
    let snap = registry().snapshot();
    let at = snap.at_us;
    let mut ring = window_ring().lock().expect("window ring poisoned");
    if ring.len() == WINDOW_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(snap);
    at
}

/// Render the **windowed** view of the global registry over (roughly) the
/// last `secs` seconds, one line per element.
///
/// The baseline is the most recent ring snapshot at least `secs` old —
/// falling back to the oldest retained snapshot when the ring is younger
/// than the request, and to an empty baseline (process lifetime) when the
/// ring is empty.  Counters render as windowed deltas plus per-second
/// rates, gauges as their current value, histograms as windowed
/// p50/p95/p99 with `_sum`/`_count` deltas.  The current snapshot is
/// recorded into the ring afterwards, so consecutive calls see each other
/// as baselines.
pub fn render_window_lines(secs: u64) -> Vec<String> {
    let now = registry().snapshot();
    let horizon_us = secs.saturating_mul(1_000_000);
    let baseline = {
        let ring = window_ring().lock().expect("window ring poisoned");
        ring.iter()
            .rev()
            .find(|s| now.at_us.saturating_sub(s.at_us) >= horizon_us)
            .or_else(|| ring.front())
            .cloned()
            .unwrap_or_default()
    };
    let span_us = now.at_us.saturating_sub(baseline.at_us);
    let span_s = span_us as f64 / 1e6;
    let rate_div = span_s.max(1e-6);

    let mut lines = Vec::with_capacity(now.counters.len() * 2 + 8);
    lines.push(format!(
        "# window requested_s={secs} actual_s={span_s:.3} baseline_at_us={}",
        baseline.at_us
    ));
    for (name, &value) in &now.counters {
        let delta = value.saturating_sub(baseline.counters.get(name).copied().unwrap_or(0));
        lines.push(format!("# TYPE {name}_delta gauge"));
        lines.push(format!("{name}_delta {delta}"));
        lines.push(format!("# TYPE {name}_rate gauge"));
        lines.push(format!("{name}_rate {:.3}", delta as f64 / rate_div));
    }
    for (name, &value) in &now.gauges {
        lines.push(format!("# TYPE {name} gauge"));
        lines.push(format!("{name} {value}"));
    }
    for (name, hist) in &now.histograms {
        let window = hist.since(baseline.histograms.get(name).unwrap_or(&Default::default()));
        lines.push(format!("# TYPE {name} summary"));
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            lines.push(format!(
                "{name}{{quantile=\"{label}\"}} {:.1}",
                window.quantile(q)
            ));
        }
        lines.push(format!("{name}_sum {}", window.sum));
        lines.push(format!("{name}_count {}", window.count));
    }

    let mut ring = window_ring().lock().expect("window ring poisoned");
    if ring.len() == WINDOW_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(now);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn bucket_boundaries_cover_the_edges() {
        // Satellite: explicit coverage of 0, 1, u64::MAX and bucket edges.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..64 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, 1u64 << (i - 1));
            assert_eq!(hi, (1u64 << i) - 1);
            // The bounds round-trip: both edges map back to bucket i, and
            // the neighbours of the edges fall in the adjacent buckets.
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
        }
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
    }

    #[test]
    fn histogram_observe_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reads 0");
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(1)); // documented wrap
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[64], 1);

        // A cluster of identical samples pins the median inside one bucket.
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(100); // bucket 7: [64, 127]
        }
        let p50 = h.quantile(0.5);
        assert!((64.0..=127.0).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) <= 127.0);
        assert_eq!(h.quantile(1.0), 127.0);
        assert_eq!(h.quantile(0.0), 64.0);
    }

    #[test]
    fn quantiles_interpolate_across_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(8); // bucket 4: [8, 15]
        }
        for _ in 0..10 {
            h.observe(1000); // bucket 10: [512, 1023]
        }
        assert!(h.quantile(0.5) <= 15.0);
        let p99 = h.quantile(0.99);
        assert!((512.0..=1023.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn concurrent_counter_and_histogram_updates_are_exact() {
        let threads: usize = 4;
        let per_thread: u64 = 100_000;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            let h = Arc::clone(&h);
            handles.push(thread::spawn(move || {
                for i in 0..per_thread {
                    c.inc();
                    h.observe(t as u64 * per_thread + i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let n = threads as u64 * per_thread;
        assert_eq!(c.get(), n, "relaxed adds must not lose increments");
        assert_eq!(h.count(), n);
        assert_eq!(h.buckets().iter().sum::<u64>(), n);
        // Sum of 0..n is exact under relaxed accumulation too.
        assert_eq!(h.sum(), n * (n - 1) / 2);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = Registry::default();
        r.counter("test_exec_total").add(3);
        r.gauge("test_sessions").set(2);
        r.histogram("test_latency_us").observe(10);
        let text = r.render_lines().join("\n");
        assert!(text.contains("# TYPE test_exec_total counter"));
        assert!(text.contains("test_exec_total 3"));
        assert!(text.contains("# TYPE test_sessions gauge"));
        assert!(text.contains("test_sessions 2"));
        assert!(text.contains("# TYPE test_latency_us summary"));
        assert!(text.contains("test_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("test_latency_us_sum 10"));
        assert!(text.contains("test_latency_us_count 1"));
    }

    #[test]
    fn snapshots_copy_every_metric_kind() {
        let r = Registry::default();
        r.counter("snap_total").add(7);
        r.gauge("snap_gauge").set(-2);
        r.histogram("snap_us").observe(100);
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("snap_total"), Some(&7));
        assert_eq!(snap.gauges.get("snap_gauge"), Some(&-2));
        let h = snap.histograms.get("snap_us").expect("histogram snapshot");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 100);
        assert_eq!(h.buckets[Histogram::bucket_index(100)], 1);
    }

    #[test]
    fn histogram_snapshot_diffs_recover_windowed_quantiles() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.observe(8); // bucket 4: [8, 15]
        }
        let before = HistogramSnapshot {
            buckets: h.buckets(),
            sum: h.sum(),
            count: h.count(),
        };
        for _ in 0..50 {
            h.observe(1000); // bucket 10: [512, 1023]
        }
        let after = HistogramSnapshot {
            buckets: h.buckets(),
            sum: h.sum(),
            count: h.count(),
        };
        let window = after.since(&before);
        assert_eq!(window.count, 50);
        assert_eq!(window.sum, 50 * 1000);
        // The window contains only the late cluster, so even the median is
        // in the high bucket — the lifetime histogram's median is not.
        let p50 = window.quantile(0.5);
        assert!((512.0..=1023.0).contains(&p50), "windowed p50 = {p50}");
        assert!(after.quantile(0.5) <= 15.0, "lifetime p50 stays low");
    }

    #[test]
    fn windowed_rendering_diffs_against_ring_baselines() {
        // The window ring and registry are process-global; unique metric
        // names keep this monotone under parallel tests.
        registry().counter("win_render_total").add(5);
        record_snapshot();
        registry().counter("win_render_total").add(10);
        registry().histogram("win_render_us").observe(100);
        // secs=0: the baseline is the most recent snapshot (age ≥ 0).
        let lines = render_window_lines(0);
        let text = lines.join("\n");
        assert!(
            lines[0].starts_with("# window requested_s=0 actual_s="),
            "header: {}",
            lines[0]
        );
        assert!(
            text.contains("win_render_total_delta 10"),
            "windowed counter delta missing:\n{text}"
        );
        assert!(
            text.contains("win_render_total_rate "),
            "windowed counter rate missing:\n{text}"
        );
        assert!(
            text.contains("win_render_us{quantile=\"0.5\"}"),
            "windowed histogram quantiles missing:\n{text}"
        );
        assert!(
            text.contains("win_render_us_sum 100"),
            "windowed histogram sum missing:\n{text}"
        );
        assert!(
            text.contains("win_render_us_count 1"),
            "windowed histogram count missing:\n{text}"
        );
    }

    #[test]
    fn registry_handles_are_stable_and_kind_checked() {
        let r = Registry::default();
        let a = r.counter("stable");
        let b = r.counter("stable");
        assert!(std::ptr::eq(a, b));
        let err = std::panic::catch_unwind(|| r.histogram("stable"));
        assert!(err.is_err(), "kind mismatch must panic");
    }
}
