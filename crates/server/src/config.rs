//! Store configuration: one value, built one way, read from one place.
//!
//! A [`StoreConfig`] is built with [`StoreConfig::builder`], handed to
//! [`Store::with_config`](crate::Store::with_config) and kept by the store
//! ([`Store::config`](crate::Store::config)); nothing else — no process
//! global, no later setter — can change what a running store does.  The
//! environment only seeds the defaults: [`StoreConfig::default`] reads
//! `MATLANG_DATA_DIR`, `MATLANG_WAL_COMPACT`, `MATLANG_MEM_BUDGET`,
//! `MATLANG_REPLAN_DRIFT` and `MATLANG_SLOW_MS` once, when it is called,
//! and these are the server crate's only environment reads.

use matlang_obs::trace::DEFAULT_SLOW_MS;
use std::path::{Path, PathBuf};

/// Default input-nnz drift ratio past which the next `EXEC`
/// re-plans (see [`StoreConfigBuilder::replan_drift`]).
pub const DEFAULT_REPLAN_DRIFT: f64 = 4.0;

/// Default WAL compaction threshold: once a persisted instance's log
/// exceeds this many bytes, the next applied `UPDATE` folds it into a
/// fresh snapshot (see [`StoreConfigBuilder::wal_compact`]).
pub const DEFAULT_WAL_COMPACT: u64 = 1 << 20;

/// Parses a byte count: plain bytes, or with a binary suffix `k`/`m`/`g`
/// (case-insensitive, powers of 1024 — `64m` is 64·2²⁰ bytes).  Zero,
/// overflow and anything malformed are `None`.
fn parse_bytes(raw: &str) -> Option<u64> {
    let v = raw.trim();
    if v.is_empty() {
        return None;
    }
    let (digits, shift) = match v.as_bytes()[v.len() - 1].to_ascii_lowercase() {
        b'k' => (&v[..v.len() - 1], 10u32),
        b'm' => (&v[..v.len() - 1], 20),
        b'g' => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(1u64 << shift))
        .filter(|bytes| *bytes > 0)
}

/// Everything configurable about a [`Store`](crate::Store).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    data_dir: Option<PathBuf>,
    wal_compact: u64,
    mem_budget: Option<u64>,
    replan_drift: f64,
    slow_ms: u64,
}

impl Default for StoreConfig {
    /// The defaults, seeded from the environment as it is *now*:
    /// `MATLANG_DATA_DIR` (no persistence when unset or empty),
    /// `MATLANG_WAL_COMPACT` (else [`DEFAULT_WAL_COMPACT`]),
    /// `MATLANG_MEM_BUDGET` (else unlimited; both byte figures take
    /// `k`/`m`/`g` binary suffixes), `MATLANG_REPLAN_DRIFT` (a ratio
    /// ≥ 1.0, else [`DEFAULT_REPLAN_DRIFT`]), `MATLANG_SLOW_MS` (else
    /// [`DEFAULT_SLOW_MS`]).
    fn default() -> Self {
        StoreConfig::from_lookup(|key| std::env::var(key).ok())
    }
}

impl StoreConfig {
    /// The defaults over an arbitrary variable lookup, so the grammar is
    /// testable without mutating the process environment.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> StoreConfig {
        let bytes = |key| lookup(key).and_then(|v| parse_bytes(&v));
        StoreConfig {
            data_dir: lookup("MATLANG_DATA_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            wal_compact: bytes("MATLANG_WAL_COMPACT").unwrap_or(DEFAULT_WAL_COMPACT),
            mem_budget: bytes("MATLANG_MEM_BUDGET"),
            replan_drift: lookup("MATLANG_REPLAN_DRIFT")
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|v| *v >= 1.0)
                .unwrap_or(DEFAULT_REPLAN_DRIFT),
            slow_ms: lookup("MATLANG_SLOW_MS")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_SLOW_MS),
        }
    }

    /// Starts a builder from the environment-seeded defaults.
    pub fn builder() -> StoreConfigBuilder {
        StoreConfigBuilder {
            config: StoreConfig::default(),
        }
    }

    /// The data directory, if persistence is available.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// The WAL compaction threshold in bytes.
    pub fn wal_compact(&self) -> u64 {
        self.wal_compact
    }

    /// The soft memory budget in bytes (`None`: unlimited).
    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    /// The drift ratio past which the next `EXEC` re-plans.
    pub fn replan_drift(&self) -> f64 {
        self.replan_drift
    }

    /// The slow-query threshold in milliseconds.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }
}

/// Builder for [`StoreConfig`]; see [`StoreConfig::builder`].
#[derive(Clone, Debug)]
pub struct StoreConfigBuilder {
    config: StoreConfig,
}

impl StoreConfigBuilder {
    /// Enables persistence under `dir`: the store recovers every snapshot
    /// found there and `PERSIST <inst> on` becomes legal.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.data_dir = Some(dir.into());
        self
    }

    /// Disables persistence even when `MATLANG_DATA_DIR` is set.
    pub fn no_data_dir(mut self) -> Self {
        self.config.data_dir = None;
        self
    }

    /// Sets the WAL size (bytes, at least 1) past which an applied
    /// `UPDATE` triggers compaction into a fresh snapshot.
    pub fn wal_compact(mut self, bytes: u64) -> Self {
        self.config.wal_compact = bytes.max(1);
        self
    }

    /// Sets the soft memory budget in bytes; `None` (or `Some(0)`, as in
    /// the environment grammar) means unlimited.  When the accounted bytes
    /// across the store's instances exceed it, `HEALTH` reports
    /// `status=pressure` and the store sheds *derived* state — idle
    /// instances' memo caches and overlays — after each mutating request.
    /// Primary data is never shed, so a budget smaller than the loaded
    /// matrices simply keeps the store in (reported) pressure.
    pub fn mem_budget(mut self, budget: Option<u64>) -> Self {
        self.config.mem_budget = budget.filter(|bytes| *bytes > 0);
        self
    }

    /// Sets the input-nnz drift ratio (at least 1.0) past which an
    /// instance's next `EXEC` transparently re-plans.  A variable drifts
    /// when `(max(nnz)+1)/(min(nnz)+1)` between the planned-against
    /// snapshot and the current instance exceeds this ratio (the `+1`
    /// keeps the ratio finite through the empty↔dense flip that matters
    /// most); `f64::MAX` freezes plans for good.
    pub fn replan_drift(mut self, ratio: f64) -> Self {
        self.config.replan_drift = ratio.max(1.0);
        self
    }

    /// Sets the wall time (milliseconds) from which a request counts as a
    /// slow query: the session begins every trace with it, and `EXEC`
    /// attaches plan forensics to requests that cross it.
    pub fn slow_ms(mut self, ms: u64) -> Self {
        self.config.slow_ms = ms;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> StoreConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_from(vars: &[(&str, &str)]) -> StoreConfig {
        StoreConfig::from_lookup(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn byte_sizes_accept_binary_suffixes() {
        assert_eq!(parse_bytes("1048576"), Some(1 << 20));
        assert_eq!(parse_bytes("512k"), Some(512 << 10));
        assert_eq!(parse_bytes("64m"), Some(64 << 20));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("1G"), Some(1 << 30));
        assert_eq!(parse_bytes("2g"), Some(2u64 << 30));
        assert_eq!(parse_bytes(" 8K "), Some(8 << 10));
        // Zero, empty, negative, non-numeric, two-letter suffixes and
        // figures past u64 all mean "not configured".
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
        assert_eq!(parse_bytes("-4"), None);
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes("512mb"), None);
        assert_eq!(parse_bytes("17179869184g"), None);
        assert_eq!(parse_bytes("18446744073709551616"), None);
    }

    #[test]
    fn an_empty_environment_gives_the_documented_defaults() {
        let config = config_from(&[]);
        assert_eq!(config.data_dir(), None);
        assert_eq!(config.wal_compact(), DEFAULT_WAL_COMPACT);
        assert_eq!(config.mem_budget(), None);
        assert_eq!(config.replan_drift(), DEFAULT_REPLAN_DRIFT);
        assert_eq!(config.slow_ms(), DEFAULT_SLOW_MS);
    }

    #[test]
    fn environment_seeds_every_default() {
        let config = config_from(&[
            ("MATLANG_DATA_DIR", "/var/lib/matlang"),
            ("MATLANG_WAL_COMPACT", "4k"),
            ("MATLANG_MEM_BUDGET", "64m"),
            ("MATLANG_REPLAN_DRIFT", " 2.5 "),
            ("MATLANG_SLOW_MS", "250"),
        ]);
        assert_eq!(config.data_dir(), Some(Path::new("/var/lib/matlang")));
        assert_eq!(config.wal_compact(), 4 << 10);
        assert_eq!(config.mem_budget(), Some(64 << 20));
        assert_eq!(config.replan_drift(), 2.5);
        assert_eq!(config.slow_ms(), 250);
    }

    #[test]
    fn malformed_values_fall_back_to_the_defaults() {
        for drift in ["0.5", "-3", "NaN", "fast", ""] {
            let config = config_from(&[("MATLANG_REPLAN_DRIFT", drift)]);
            assert_eq!(config.replan_drift(), DEFAULT_REPLAN_DRIFT, "{drift:?}");
        }
        assert_eq!(
            config_from(&[("MATLANG_REPLAN_DRIFT", "1")]).replan_drift(),
            1.0
        );
        let config = config_from(&[
            ("MATLANG_DATA_DIR", ""),
            ("MATLANG_WAL_COMPACT", "0"),
            ("MATLANG_MEM_BUDGET", "lots"),
            ("MATLANG_SLOW_MS", "soon"),
        ]);
        assert_eq!(config.data_dir(), None, "empty data dir: no persistence");
        assert_eq!(config.wal_compact(), DEFAULT_WAL_COMPACT);
        assert_eq!(config.mem_budget(), None);
        assert_eq!(config.slow_ms(), DEFAULT_SLOW_MS);
        assert_eq!(config_from(&[("MATLANG_SLOW_MS", "0")]).slow_ms(), 0);
    }

    #[test]
    fn builder_calls_override_the_environment() {
        let seeded = config_from(&[
            ("MATLANG_DATA_DIR", "/from/env"),
            ("MATLANG_MEM_BUDGET", "1g"),
            ("MATLANG_REPLAN_DRIFT", "8"),
            ("MATLANG_SLOW_MS", "5"),
        ]);
        let builder = StoreConfigBuilder { config: seeded };
        let config = builder.clone().no_data_dir().build();
        assert_eq!(config.data_dir(), None);
        assert_eq!(
            config.mem_budget(),
            Some(1 << 30),
            "untouched settings keep the seed"
        );
        let config = builder
            .data_dir("/explicit")
            .wal_compact(0)
            .mem_budget(Some(0))
            .replan_drift(0.25)
            .slow_ms(0)
            .build();
        assert_eq!(config.data_dir(), Some(Path::new("/explicit")));
        assert_eq!(config.wal_compact(), 1, "clamped to at least one byte");
        assert_eq!(
            config.mem_budget(),
            None,
            "0 means unlimited, as in the env grammar"
        );
        assert_eq!(config.replan_drift(), 1.0, "clamped to the floor");
        assert_eq!(config.slow_ms(), 0);
    }
}
