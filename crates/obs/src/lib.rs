//! Zero-dependency observability for the MATLANG workspace.
//!
//! Pure `std`: atomics for the hot paths, one `RwLock` around the (cold)
//! metric-registration map, and a `Mutex` around the bounded trace / slow-query
//! ring buffers.  The crate deliberately has no other dependencies so every
//! other crate in the workspace — including `matlang_matrix` at the bottom of
//! the dependency graph — can link it without cycles.
//!
//! Three parts:
//!
//! * [`metrics`] — a process-wide registry of monotonic [`Counter`]s,
//!   [`Gauge`]s and log₂-bucketed latency [`Histogram`]s.  Updates are relaxed
//!   atomic operations; handles are `&'static` and are meant to be cached in
//!   `OnceLock` statics at the call site (the [`counter!`], [`gauge!`] and
//!   [`histogram!`] macros do exactly that), so a hot-path increment is a
//!   branch on the global enable flag plus one `fetch_add`.
//!   [`metrics::render`] emits Prometheus-style text exposition with
//!   p50/p95/p99 quantiles interpolated from the histogram buckets.
//!
//! * [`trace`] — span-based tracing.  A session layer calls
//!   [`trace::begin`] with a fresh [`trace::next_id`]; downstream code opens
//!   child spans with [`trace::span`] (a no-op when no trace is active on the
//!   current thread).  When the root guard drops, the finished trace —
//!   parent span plus children — is recorded into a bounded ring buffer, and
//!   traces slower than the threshold they were begun with additionally land
//!   in the slow-query log.
//!
//! * [`export`] — renders finished traces from the ring as Chrome
//!   trace-event JSON (`chrome://tracing` / Perfetto), with a hand-rolled
//!   validating parser for tests and smoke checks.
//!
//! The whole subsystem can be switched off at runtime with [`set_enabled`]
//! (or at startup with `MATLANG_OBS=0`); when disabled, counters,
//! histograms and traces all short-circuit to a single relaxed load so the
//! instrumented hot paths stay within the release-guard overhead budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};

/// Global on/off switch for metric recording and trace capture.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// One-time latch for the `MATLANG_OBS` environment override.
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Is observability recording currently enabled?
///
/// The first call honours the `MATLANG_OBS` environment variable (`0`,
/// `off` or `false` disable recording at startup); afterwards the flag is
/// whatever [`set_enabled`] last set.  A single relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.get_or_init(|| {
        if let Ok(v) = std::env::var("MATLANG_OBS") {
            let v = v.trim();
            if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false") {
                ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turn observability recording on or off process-wide.  This is process
/// state by nature, not a per-store setting: it gates the one process-wide
/// [`registry`] that kernels at the bottom of the dependency graph
/// (`matlang_matrix`) write to with no store or engine handle in reach.
///
/// Used by the release-mode overhead guards to measure the instrumented warm
/// `EXEC` path against the same binary with recording disabled.
pub fn set_enabled(on: bool) {
    enabled(); // latch the env override first so it cannot clobber `on` later
    ENABLED.store(on, Ordering::Relaxed);
}

/// Cache a `&'static Counter` handle for `$name` in a local `OnceLock`.
///
/// Expands to an expression of type `&'static Counter`; registration happens
/// once, every later evaluation is a single static load.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Cache a `&'static Gauge` handle for `$name` in a local `OnceLock`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Cache a `&'static Histogram` handle for `$name` in a local `OnceLock`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_defaults_to_true() {
        // MATLANG_OBS is not set in the test environment; the default must
        // be "recording on" so a fresh server exposes data without opt-in.
        assert!(super::enabled());
    }

    #[test]
    fn handle_macros_return_stable_pointers() {
        let a = counter!("macro_test_total");
        let b = counter!("macro_test_total");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert!(a.get() >= 1);
        let h1 = histogram!("macro_test_us");
        let h2 = histogram!("macro_test_us");
        assert!(std::ptr::eq(h1, h2));
        let g1 = gauge!("macro_test_gauge");
        g1.set(-3);
        assert_eq!(gauge!("macro_test_gauge").get(), -3);
    }
}
