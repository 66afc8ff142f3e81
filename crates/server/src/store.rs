//! The named instance store and the prepared-query machinery.
//!
//! A [`Store`] owns:
//!
//! * a `RwLock`-guarded map from instance name to its state — the
//!   read lock is enough to *find* an instance, per-instance `Mutex`es
//!   serialize work on one instance while different instances proceed in
//!   parallel on different worker threads.  This map's lock is the only
//!   store-wide one;
//! * nothing shared between instances: each instance's prepared batch has
//!   one [`Plan`], planned from that instance's own statistics and kept
//!   with it.  With the engine's cost-based rewrite layer the plan is the
//!   *rewritten* DAG, its chain association and fused kernels chosen for
//!   this instance's nnz profile; [`Plan::structure_fingerprint`] is
//!   reported on every `PREPARE` (wire token `fp=`) so clients can tell
//!   which variant they got.
//!
//! # Drift re-planning
//!
//! A plan is built from the instance's statistics ([`InstanceStats`]: the
//! input shapes and nnz) and nothing else.  Before executing, the store
//! compares the instance's **current** per-variable nnz against the
//! snapshot the active plan was built from: when any plan-referenced
//! variable has drifted past the store's configured ratio
//! ([`StoreConfigBuilder::replan_drift`](crate::StoreConfigBuilder::replan_drift),
//! default 4×), the plan is transparently rebuilt from fresh statistics,
//! so chain association and the predicted dense/CSR layouts re-derive
//! from the inputs as they are now.  Re-planning never changes results —
//! plans differ only in cost estimates and association, which the engine's
//! parity gates cover — it only changes how fast the next `EXEC` runs.
//!
//! Each instance computes over one of the wire-selectable semirings
//! ([`SemiringKind`], see [`ServerSemiring`]) and stores every matrix as a
//! [`MatrixRepr`] — dense or CSR per variable, picked by density (the
//! `adaptive` backend; the wire's `dense` backend word is an accepted alias
//! that creates the same instance).  The semiring decides what a query
//! means, the layout only how fast it runs.  Each instance carries its
//! prepared statements plus **one shared [`matlang_engine::NodeCache`]** over a
//! single plan DAG covering *all* its prepared queries (they are planned
//! as a batch, so common subterms are one node): an `EXEC` seeds an
//! [`Executor`] with the cache, runs one root, and puts the cache back,
//! which makes a repeated `EXEC` of an unchanged query a single cache hit.
//!
//! # `UPDATE`: delta propagation first, invalidation as the fallback
//!
//! A point `UPDATE` mutates matrix entries in place
//! ([`MatrixStorage::set_entry`]) and then maintains the memo cache one of
//! two ways.  When the instance's semiring has an idempotent `⊕`
//! ([`join_is_idempotent`]) and every touched entry is insert-only
//! (`old ⊕ new = new`, see [`absorbs`]), the update is **propagated**: its
//! sparse delta flows through the plan DAG patching cached values via lazy
//! overlays ([`matlang_engine::delta`]), so standing queries stay warm and
//! the next `EXEC` answers from cache.  Otherwise the server falls back to
//! dropping exactly the cached nodes depending on the touched variable
//! ([`Plan::invalidate_dependents_in`]) and records *why* in the
//! [`UpdateReply`] — standing queries over other variables keep their
//! warm results either way.

use crate::config::StoreConfig;
use crate::error::ServerError;
use crate::persist::{self, Snapshot, Wal, WalRecord};
use crate::protocol::{
    DeltaWire, GenKind, HealthReport, InstanceEntry, PrepareOutcome, SemiringKind, SharedResult,
    UpdateReply, WalStat, WireResult, BACKEND,
};
use matlang_core::{typecheck, Dim, Expr, FunctionRegistry, Instance, MatrixType, Schema};
use matlang_engine::delta::{absorbs, join_is_idempotent, propagate, DeltaFallback, DeltaOverlay};
use matlang_engine::{expr_fingerprint, Engine, Executor, InstanceStats, Plan, VarStats};
use matlang_matrix::{
    sparse_erdos_renyi, sparse_power_law, MatrixCodec, MatrixRepr, MatrixStorage, SparseMatrix,
};
use matlang_parser::parse;
use matlang_semiring::{Boolean, MinPlus, Nat, Real, Semiring};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The largest `LOAD` shape, `DIM` value and `GEN` size (its `n` and its
/// expected entry count `n · avg_degree`) a request may ask for.  It is
/// checked before anything is sized from those numbers, so one request
/// line cannot abort the process on an impossible allocation.
pub const MAX_DIMENSION: usize = 1 << 20;

/// `ESTORE` unless `value` is at most [`MAX_DIMENSION`].
fn check_dimension(what: &str, value: usize) -> Result<(), ServerError> {
    if value > MAX_DIMENSION {
        return Err(ServerError::storage(format!(
            "{what} {value} exceeds the limit {MAX_DIMENSION}"
        )));
    }
    Ok(())
}

/// One prepared statement: its parsed form and its fingerprint (the
/// dedup key — re-preparing the same query returns the existing id
/// without disturbing the warm cache).
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// The parsed, type-checked expression.
    pub expr: Expr,
    /// [`expr_fingerprint`] of `expr`.
    pub fingerprint: u64,
}

/// A semiring the server can host instances over: the [`Semiring`] algebra
/// plus its wire name and the pointwise-function registry its instances
/// resolve `apply` against.
pub trait ServerSemiring: Semiring {
    /// The wire token ([`SemiringKind::name`]) for this semiring.
    const NAME: &'static str;

    /// The function registry instances of this semiring carry: none but
    /// the built-ins, unless a semiring says otherwise.
    fn registry() -> FunctionRegistry<Self> {
        FunctionRegistry::new()
    }
}

impl ServerSemiring for Real {
    const NAME: &'static str = "real";

    /// The paper's standard pointwise functions (`div`, `gt0`, …).
    fn registry() -> FunctionRegistry<Real> {
        FunctionRegistry::standard_field()
    }
}

impl ServerSemiring for Boolean {
    const NAME: &'static str = "bool";
}

impl ServerSemiring for Nat {
    const NAME: &'static str = "nat";
}

impl ServerSemiring for MinPlus {
    const NAME: &'static str = "minplus";
}

/// Byte-level resource account of one instance.  Byte figures count
/// *live payload* (`len`-based, per [`MatrixStorage::heap_bytes`]), not
/// allocator capacity, so they are reproducible from shapes and nnz
/// alone.  The account is maintained at the mutation points — LOAD /
/// UPDATE / DIM / PREPARE / EXEC / eviction — from O(1) per-slot length
/// reads; matrix payloads are never walked.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceAccount {
    /// Bytes held by the instance's matrix variables.
    pub data_bytes: usize,
    /// Resident entries in the prepared-plan memo cache.
    pub cache_entries: usize,
    /// Bytes held by resident memo-cache values.
    pub cache_bytes: usize,
    /// Bytes held by pending delta overlays.
    pub overlay_bytes: usize,
    /// Cumulative `EXEC` statements answered by this instance.
    pub exec_count: u64,
    /// Cumulative wall time spent executing them, in microseconds.
    pub exec_time_us: u64,
    /// Monotonic stamp (µs) of the last accounted mutation — the
    /// idleness key pressure shedding ranks instances by.
    pub last_active_us: u64,
    /// What the registry gauges currently carry for this instance, so a
    /// re-publish adjusts the process-wide aggregates by a delta instead
    /// of re-walking every instance.
    published: PublishedAccount,
    /// The instance's labelled `instance_bytes{name="…"}` gauge handle,
    /// resolved once — the publish hot path must not re-format the label
    /// or take the registry lock per request.
    labelled: Option<&'static matlang_obs::metrics::Gauge>,
}

/// The figures last pushed into the metrics registry for one instance.
#[derive(Clone, Copy, Debug, Default)]
struct PublishedAccount {
    total: i64,
    cache_entries: i64,
    cache_bytes: i64,
    overlay_bytes: i64,
}

impl ResourceAccount {
    /// Total accounted bytes: data + memo cache + overlays.
    pub fn total_bytes(&self) -> usize {
        self.data_bytes + self.cache_bytes + self.overlay_bytes
    }
}

/// Resolves the labelled per-instance gauge (registry lock + label
/// formatting — done once per instance, cached in the account).
fn labelled_gauge(name: &str) -> &'static matlang_obs::metrics::Gauge {
    matlang_obs::registry().gauge(&format!("instance_bytes{{name=\"{name}\"}}"))
}

/// Pushes one instance's account into the metrics registry: the labelled
/// `instance_bytes{name="…"}` gauge plus delta adjustments to the
/// process-wide `instance_bytes` / `memo_cache_*` / `overlay_bytes`
/// aggregates and to the owning store's own total, `store_bytes`.  No-op
/// while observability is disabled — gauge writes are gated anyway, and
/// skipping keeps `published` consistent with what the registry actually
/// absorbed.
fn publish_account(name: &str, account: &mut ResourceAccount, store_bytes: &AtomicI64) {
    if !matlang_obs::enabled() {
        return;
    }
    let now = PublishedAccount {
        total: account.total_bytes() as i64,
        cache_entries: account.cache_entries as i64,
        cache_bytes: account.cache_bytes as i64,
        overlay_bytes: account.overlay_bytes as i64,
    };
    account
        .labelled
        .get_or_insert_with(|| labelled_gauge(name))
        .set(now.total);
    let was = account.published;
    matlang_obs::gauge!("instance_bytes").add(now.total - was.total);
    store_bytes.fetch_add(now.total - was.total, Ordering::Relaxed);
    matlang_obs::gauge!("memo_cache_entries").add(now.cache_entries - was.cache_entries);
    matlang_obs::gauge!("memo_cache_bytes").add(now.cache_bytes - was.cache_bytes);
    matlang_obs::gauge!("overlay_bytes").add(now.overlay_bytes - was.overlay_bytes);
    account.published = now;
}

/// Per-instance durability state: the open WAL plus the gauge bookkeeping
/// needed to retract this instance's `wal_bytes` contribution exactly.
/// Present only while the instance is persisted (`PERSIST <inst> on`, or
/// recovered from disk by [`Store::open`]).
pub(crate) struct Persistence {
    /// The open, fsync-per-append write-ahead log.
    wal: Wal,
    /// Size of the newest snapshot written for this instance, in bytes
    /// (0 until the first snapshot of this process's session).
    snapshot_bytes: u64,
    /// What the aggregate `wal_bytes` gauge currently carries for this
    /// instance, so publishes adjust by a delta and a drop retracts
    /// exactly what was added.
    published_wal_bytes: i64,
}

/// Refreshes this instance's share of the aggregate `wal_bytes` gauge.
/// Gated like [`publish_account`]: skipping while observability is off
/// keeps `published_wal_bytes` consistent with what the registry absorbed.
fn publish_wal_bytes(p: &mut Persistence) {
    if !matlang_obs::enabled() {
        return;
    }
    let now = p.wal.bytes as i64;
    matlang_obs::gauge!("wal_bytes").add(now - p.published_wal_bytes);
    p.published_wal_bytes = now;
}

/// Serializes an instance's durable content — dims and matrices, in the
/// instance's deterministic name order — into a [`Snapshot`].  Runtime
/// state (memo cache, overlays, plans) is deliberately absent: it rebuilds
/// lazily after a restore.
fn encode_snapshot<K: ServerSemiring>(state: &BackendState<K>, covered_seq: u64) -> Snapshot {
    let dims = state
        .instance
        .dims()
        .map(|(sym, value)| (sym.clone(), value as u64))
        .collect();
    let vars = state
        .instance
        .matrices()
        .map(|(name, matrix)| {
            let mut payload = Vec::new();
            matrix.encode_matrix(&mut payload);
            (name.clone(), payload)
        })
        .collect();
    Snapshot {
        semiring: K::NAME.to_string(),
        backend: BACKEND.to_string(),
        covered_seq,
        dims,
        vars,
    }
}

/// Rebuilds an instance's dims and matrices from a decoded [`Snapshot`],
/// each matrix in the layout its payload was saved in.
fn populate_from_snapshot<K: ServerSemiring>(
    state: &mut BackendState<K>,
    snap: &Snapshot,
) -> Result<(), ServerError> {
    for (sym, value) in &snap.dims {
        let value = usize::try_from(*value)
            .map_err(|_| ServerError::storage(format!("dim `{sym}` overflows usize")))?;
        state.instance.set_dim(sym.clone(), value);
    }
    for (var, payload) in &snap.vars {
        let mut buf = payload.as_slice();
        let matrix = MatrixRepr::decode_matrix(&mut buf)
            .map_err(|e| ServerError::storage(format!("variable `{var}`: {e}")))?;
        if !buf.is_empty() {
            return Err(ServerError::storage(format!(
                "variable `{var}`: {} trailing bytes after payload",
                buf.len()
            )));
        }
        state.instance.set_matrix(var.clone(), matrix);
    }
    Ok(())
}

/// Re-applies the WAL suffix onto a snapshot-restored instance: every
/// record with `seq > covered_seq`, entry by entry through the same
/// [`MatrixStorage::set_entry`] the original `UPDATE` used, so the result
/// is bit-identical to the pre-crash state.  Returns the replayed count.
fn replay_wal_records<K: ServerSemiring>(
    state: &mut BackendState<K>,
    records: &[WalRecord],
    covered_seq: u64,
) -> Result<u64, ServerError> {
    let mut replayed = 0u64;
    for record in records {
        if record.seq <= covered_seq {
            continue;
        }
        let matrix = state.instance.matrix_mut(&record.var).ok_or_else(|| {
            ServerError::storage(format!("WAL names unknown variable `{}`", record.var))
        })?;
        for &(i, j, v) in &record.entries {
            let (Ok(i), Ok(j)) = (usize::try_from(i), usize::try_from(j)) else {
                return Err(ServerError::storage("WAL entry index overflows usize"));
            };
            matrix
                .set_entry(i, j, K::from_f64(v))
                .map_err(|e| ServerError::storage(format!("WAL replay: {e}")))?;
        }
        replayed += 1;
    }
    Ok(replayed)
}

/// Per-semiring instance state: the MATLANG instance plus the
/// prepared-query plan, its persistent memo cache and the
/// delta-maintenance bookkeeping.
pub(crate) struct BackendState<K: ServerSemiring> {
    /// The MATLANG instance (dims + matrices).
    pub instance: Instance<K, MatrixRepr<K>>,
    /// Prepared statements, indexed by query id.
    pub prepared: Vec<PreparedQuery>,
    /// One plan covering every prepared statement (root *i* ↔ query id
    /// *i*), planned from this instance's own statistics.
    pub plan: Option<Plan>,
    /// The persistent memo cache over `plan`'s nodes.
    pub cache: matlang_engine::NodeCache<MatrixRepr<K>>,
    /// This semiring's pointwise-function registry.
    pub registry: FunctionRegistry<K>,
    /// Pending sparse delta overlays on top of `cache` (lazy patches from
    /// delta-maintained `UPDATE`s, folded into the bases before execution).
    pub overlay: DeltaOverlay<K>,
    /// Cumulative cached nodes patched by delta propagation.
    pub delta_patches: u64,
    /// Cumulative `UPDATE`s that fell back to invalidation.
    pub delta_fallbacks: u64,
    /// The statistics the active plan was built against — the baseline
    /// the drift check compares the current instance to.
    pub planned_stats: Option<InstanceStats>,
    /// Cumulative drift-triggered re-plans (the `STATS` wire counter).
    pub replans: u64,
    /// Byte-level resource account (data, memo cache, overlays) plus
    /// execution/activity counters, refreshed at every mutation point.
    pub account: ResourceAccount,
    /// Durability state while the instance is persisted (open WAL + gauge
    /// bookkeeping); `None` for the in-memory-only default.
    pub(crate) persist: Option<Persistence>,
}

impl<K: ServerSemiring> Default for BackendState<K> {
    fn default() -> Self {
        BackendState {
            instance: Instance::new(),
            prepared: Vec::new(),
            plan: None,
            cache: Vec::new(),
            registry: K::registry(),
            overlay: DeltaOverlay::new(0),
            delta_patches: 0,
            delta_fallbacks: 0,
            planned_stats: None,
            replans: 0,
            account: ResourceAccount::default(),
            persist: None,
        }
    }
}

impl<K: ServerSemiring> BackendState<K> {
    /// Drops every cached node value and pending overlay (wholesale
    /// invalidation: rebinds, dimension changes).
    fn clear_cache(&mut self) {
        self.cache.iter_mut().for_each(|slot| *slot = None);
        self.overlay.reset(self.cache.len());
    }

    /// Makes `plan`, planned from `stats`, the batch's active plan.  Its node
    /// ids are new, so the memo cache and its delta overlay start cold.
    fn install_plan(&mut self, plan: Plan, stats: InstanceStats) {
        self.cache = vec![None; plan.nodes().len()];
        self.overlay.reset(plan.nodes().len());
        self.plan = Some(plan);
        self.planned_stats = Some(stats);
    }

    /// Each variable of `current` with the nnz the active plan was built
    /// against (`None` before anything is planned), its drift from that
    /// and whether the plan reads it: the one drift rule that re-planning
    /// and `STATS` share.
    fn drifts<'a>(
        &'a self,
        current: &'a InstanceStats,
    ) -> impl Iterator<Item = (&'a str, &'a VarStats, Option<usize>, f64, bool)> + 'a {
        current.vars.iter().map(|(var, cur)| {
            let planned = self.planned_stats.as_ref().and_then(|s| s.vars.get(var));
            let planned = planned.map(|s| s.nnz);
            let plan = self.plan.as_ref();
            let referenced = plan.is_some_and(|p| !p.dependents_of(var).is_empty());
            (
                var.as_str(),
                cur,
                planned,
                drift(planned.unwrap_or(0), cur.nnz),
                referenced,
            )
        })
    }

    /// The largest drift of a variable the plan reads (1 when there is
    /// none): only those can make a plan stale.
    fn worst_drift(&self, current: &InstanceStats) -> f64 {
        let referenced = self.drifts(current).filter(|d| d.4);
        referenced.map(|d| d.3).fold(1.0, f64::max)
    }

    /// Stops persisting — `DROP`, `PERSIST off`, or a WAL write failure
    /// degrading the instance — closing the WAL and retiring this
    /// instance's share of the `wal_bytes` gauge.
    fn unpersist(&mut self) {
        if let Some(p) = self.persist.take() {
            matlang_obs::gauge!("wal_bytes").add(-p.published_wal_bytes);
        }
    }

    /// The `instance <name> backend=… semiring=…` line that heads the
    /// `EXPLAIN`, `PROFILE` and `STATS` blocks.
    fn header(&self, name: &str) -> String {
        format!("instance {name} backend={BACKEND} semiring={}", K::NAME)
    }

    /// The semiring's wire name.
    fn semiring(&self) -> &'static str {
        K::NAME
    }

    /// Recomputes the byte figures of the account from O(1) per-slot
    /// length reads: every variable's [`MatrixStorage::heap_bytes`], the
    /// memo cache's residency and the pending overlays.  Cost is
    /// O(variables + plan nodes) pointer reads — no payload is walked.
    fn account_refresh(&mut self) {
        self.account.data_bytes = self
            .instance
            .matrices()
            .map(|(_, matrix)| matrix.heap_bytes())
            .sum();
        let (entries, bytes) = matlang_engine::cache_residency(&self.cache);
        self.account.cache_entries = entries;
        self.account.cache_bytes = bytes;
        self.account.overlay_bytes = self.overlay.pending_bytes();
    }

    /// [`Self::account_refresh`] plus the activity stamp and a registry
    /// publish — the write-side hook every mutating verb runs under the
    /// instance lock.  Skipped entirely while observability is disabled,
    /// so the accounted hot path stays within the overhead guard budget.
    /// `store_bytes` is the owning store's accounted total.
    fn account_touch(&mut self, name: &str, store_bytes: &AtomicI64) {
        if !matlang_obs::enabled() {
            return;
        }
        self.account_refresh();
        self.account.last_active_us = matlang_obs::metrics::clock_us();
        publish_account(name, &mut self.account, store_bytes);
    }
}

/// A named instance: the same state machine over every supported
/// semiring, each storing its matrices as [`MatrixRepr`].
pub(crate) enum ServerInstance {
    /// ℝ, the field over `f64`.
    Real(BackendState<Real>),
    /// The Boolean semiring.
    Bool(BackendState<Boolean>),
    /// ℕ.
    Nat(BackendState<Nat>),
    /// The tropical min-plus semiring.
    MinPlus(BackendState<MinPlus>),
}

impl ServerInstance {
    fn create(semiring: SemiringKind) -> ServerInstance {
        match semiring {
            SemiringKind::Real => ServerInstance::Real(BackendState::default()),
            SemiringKind::Boolean => ServerInstance::Bool(BackendState::default()),
            SemiringKind::Nat => ServerInstance::Nat(BackendState::default()),
            SemiringKind::MinPlus => ServerInstance::MinPlus(BackendState::default()),
        }
    }
}

/// Runs a closure against the semiring-generic state of a
/// [`ServerInstance`].
macro_rules! with_state {
    ($instance:expr, |$state:ident| $body:expr) => {
        match $instance {
            ServerInstance::Real($state) => $body,
            ServerInstance::Bool($state) => $body,
            ServerInstance::Nat($state) => $body,
            ServerInstance::MinPlus($state) => $body,
        }
    };
}

/// Runs a closure against the semiring-generic state of the named instance
/// under its lock: [`ServerError::UnknownInstance`] when there is none,
/// else `Ok` of what the closure returns.
macro_rules! with_instance {
    ($store:expr, $name:expr, |$state:ident| $body:expr) => {
        $store.with_instance($name, |instance| with_state!(instance, |$state| $body))
    };
}

/// Builds the instance a decoded [`Snapshot`] describes — the one path
/// shared by boot-time recovery and `RESTORE`.  The backend tag may be
/// `adaptive` or `dense` (what a dense instance wrote before `dense`
/// became an alias); either way the matrices decode into [`MatrixRepr`].
/// The memo cache stays empty and no plan exists yet — exactly the state
/// of a freshly created instance that was `LOAD`ed.
fn instance_from_snapshot(snap: &Snapshot) -> Result<ServerInstance, ServerError> {
    let semiring = SemiringKind::parse(&snap.semiring)
        .ok_or_else(|| ServerError::storage(format!("unknown semiring tag `{}`", snap.semiring)))?;
    if !matches!(snap.backend.as_str(), "adaptive" | "dense") {
        return Err(ServerError::storage(format!(
            "unknown backend tag `{}`",
            snap.backend
        )));
    }
    let mut instance = ServerInstance::create(semiring);
    with_state!(&mut instance, |state| populate_from_snapshot(state, snap))?;
    Ok(instance)
}

/// How far a variable's nnz moved from `planned` to `current`, as the ratio
/// `(max + 1) / (min + 1)` — the `+ 1` keeps it finite through the
/// empty ↔ dense flip that matters most.
fn drift(planned: usize, current: usize) -> f64 {
    (planned.max(current) as f64 + 1.0) / (planned.min(current) as f64 + 1.0)
}

/// The shared server state; see the module docs.
pub struct Store {
    instances: RwLock<HashMap<String, Arc<Mutex<ServerInstance>>>>,
    engine: Engine,
    config: StoreConfig,
    /// The accounted bytes this store's instances last published — the
    /// same deltas the process-wide `instance_bytes` gauge receives, but
    /// from this store's instances only, so shedding compares the budget
    /// with what this store holds.
    accounted_bytes: AtomicI64,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// An empty store from the environment-resolved [`StoreConfig`]
    /// defaults (persistence on only when `MATLANG_DATA_DIR` is set, in
    /// which case any snapshots found there are recovered).
    pub fn new() -> Store {
        Store::with_config(StoreConfig::default())
    }

    /// A store persisting under `dir`: every snapshot found there is
    /// recovered (newest valid snapshot + WAL suffix replay) and stays
    /// persisted, and `PERSIST <inst> on` is legal for new instances.
    pub fn open(dir: impl Into<PathBuf>) -> Store {
        Store::with_config(StoreConfig::builder().data_dir(dir).build())
    }

    /// A store from an explicit [`StoreConfig`], which it keeps for its
    /// lifetime ([`Store::config`]).  When a data directory is configured
    /// it is created and every instance with a snapshot there recovered.
    /// A snapshot or WAL that fails integrity checks skips that one
    /// instance (with a `persist:recover-failed` trace event); recovery
    /// never panics.
    pub fn with_config(config: StoreConfig) -> Store {
        let store = Store {
            instances: RwLock::new(HashMap::new()),
            engine: Engine::new(),
            config,
            accounted_bytes: AtomicI64::new(0),
        };
        store.recover_all();
        store
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The data directory this store persists under, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.config.data_dir()
    }

    /// Boot-time recovery: one attempt per snapshot found in the data
    /// directory.  Failures are contained per instance.
    fn recover_all(&self) {
        let Some(dir) = self.data_dir() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            matlang_obs::trace::event("persist:recover-failed");
            return;
        }
        for name in persist::scan_snapshots(dir) {
            if self.recover_one(dir, &name).is_ok() {
                matlang_obs::counter!("persist_recovered_total").inc();
                matlang_obs::trace::event("persist:recover");
            } else {
                matlang_obs::trace::event("persist:recover-failed");
            }
        }
    }

    /// Recovers one instance: decode its snapshot, rebuild the typed
    /// [`ServerInstance`], replay the WAL suffix (`seq > covered_seq`),
    /// and leave the instance persisted with its WAL re-opened.  A stale
    /// `.snap.tmp` from a crash mid-compaction is ignored — the rename in
    /// [`Snapshot::write_atomic`] guarantees `<name>.snap` is either the
    /// old or the new complete snapshot, never a torn one.
    fn recover_one(&self, dir: &Path, name: &str) -> Result<(), ServerError> {
        let snap_path = persist::snapshot_path(dir, name);
        let snap = Snapshot::read(&snap_path)?;
        let mut instance = instance_from_snapshot(&snap)?;
        let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
        let (wal, records) = Wal::open(&persist::wal_path(dir, name))?;
        with_state!(&mut instance, |state| {
            replay_wal_records(state, &records, snap.covered_seq)?;
            let mut p = Persistence {
                wal,
                snapshot_bytes,
                published_wal_bytes: 0,
            };
            // After a compaction the log is empty, so the file's own
            // last_seq restarts at 0; the snapshot's covered sequence is
            // the instance's true high-water mark.
            p.wal.last_seq = p.wal.last_seq.max(snap.covered_seq);
            publish_wal_bytes(&mut p);
            state.persist = Some(p);
            state.account_touch(name, &self.accounted_bytes);
            Ok::<(), ServerError>(())
        })?;
        self.instances
            .write()
            .expect("store poisoned")
            .insert(name.to_string(), Arc::new(Mutex::new(instance)));
        Ok(())
    }

    /// Writes a fresh snapshot covering everything logged so far and
    /// empties the WAL — compaction, and the durability hook for
    /// non-`UPDATE` mutations (rebinds, dim changes).  A no-op unless the
    /// instance is persisted.
    fn checkpoint_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        name: &str,
    ) -> Result<(), ServerError> {
        let (Some(p), Some(dir)) = (&state.persist, self.data_dir()) else {
            return Ok(());
        };
        let snap = encode_snapshot(state, p.wal.last_seq);
        let bytes = snap.write_atomic(&persist::snapshot_path(dir, name))?;
        let p = state.persist.as_mut().expect("matched above");
        p.wal.truncate()?;
        p.snapshot_bytes = bytes;
        publish_wal_bytes(p);
        matlang_obs::counter!("persist_snapshot_total").inc();
        matlang_obs::trace::event("persist:snapshot");
        Ok(())
    }

    /// Logs one applied `UPDATE` prefix to the instance's WAL (fsync'd),
    /// then compacts when the log has outgrown the configured threshold.
    /// A WAL write failure degrades the instance to non-persisted — the
    /// on-disk artifacts stay a *consistent older* state rather than a
    /// silently diverging one — and leaves a `persist:error` trace event.
    fn wal_append_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        name: &str,
        var: &str,
        applied: &[(usize, usize, f64)],
    ) {
        let Some(p) = state.persist.as_mut() else {
            return;
        };
        let record = WalRecord {
            seq: p.wal.last_seq + 1,
            var: var.to_string(),
            entries: applied
                .iter()
                .map(|&(i, j, v)| (i as u64, j as u64, v))
                .collect(),
        };
        match p.wal.append(&record) {
            Ok(_) => {
                matlang_obs::counter!("wal_records_total").inc();
                matlang_obs::trace::event("persist:append");
                publish_wal_bytes(p);
            }
            Err(_) => {
                state.unpersist();
                matlang_obs::trace::event("persist:error");
                return;
            }
        }
        if state.persist.as_ref().expect("append path").wal.bytes > self.config.wal_compact() {
            matlang_obs::trace::event("persist:compact");
            // Best-effort: on failure the WAL still holds every record,
            // so durability is unharmed and the next append retries.
            let _ = self.checkpoint_in(state, name);
        }
    }

    /// Turns durability on or off for an instance — the `PERSIST` verb.
    /// Enabling writes an initial snapshot and opens a fresh WAL (requires
    /// a configured data directory and a filesystem-safe name; idempotent
    /// when already on).  Disabling stops logging and removes the on-disk
    /// artifacts, retracting the instance's `wal_bytes` gauge share.
    /// Returns the resulting persisted flag.
    pub fn set_persist(&self, name: &str, on: bool) -> Result<bool, ServerError> {
        with_instance!(self, name, |state| {
            if on {
                if state.persist.is_some() {
                    return Ok(true);
                }
                let dir = self.data_dir().ok_or_else(|| {
                    ServerError::storage(
                        "no data directory configured (set MATLANG_DATA_DIR or StoreConfig data_dir)",
                    )
                })?;
                if !persist::filesystem_safe(name) {
                    return Err(ServerError::storage(format!(
                        "instance name `{name}` is not filesystem-safe"
                    )));
                }
                let (wal, _stale) = Wal::open(&persist::wal_path(dir, name))?;
                let mut p = Persistence {
                    wal,
                    snapshot_bytes: 0,
                    published_wal_bytes: 0,
                };
                // Whatever the log held belonged to an earlier, dropped
                // persistence session: this one starts at sequence 0 with
                // the initial snapshot as its base.
                p.wal.truncate()?;
                p.wal.last_seq = 0;
                state.persist = Some(p);
                if let Err(e) = self.checkpoint_in(state, name) {
                    state.persist = None;
                    return Err(e);
                }
                Ok(true)
            } else {
                state.unpersist();
                if let Some(dir) = self.data_dir() {
                    if persist::filesystem_safe(name) {
                        persist::remove_instance_files(dir, name)?;
                    }
                }
                Ok(false)
            }
        })?
    }

    /// Writes a snapshot of an instance now — the `SAVE` verb.  With an
    /// explicit `path` the snapshot is exported there and the instance's
    /// live WAL (if any) is untouched; without one the snapshot goes to
    /// the data directory, and a persisted instance compacts its WAL into
    /// it.  Returns the byte size and the path written.
    pub fn save(&self, name: &str, path: Option<&Path>) -> Result<(u64, PathBuf), ServerError> {
        with_instance!(self, name, |state| {
            let target = match path {
                Some(path) => path.to_path_buf(),
                None => {
                    let dir = self.data_dir().ok_or_else(|| {
                        ServerError::storage(
                            "SAVE without a path needs a data directory (set MATLANG_DATA_DIR or StoreConfig data_dir)",
                        )
                    })?;
                    if !persist::filesystem_safe(name) {
                        return Err(ServerError::storage(format!(
                            "instance name `{name}` is not filesystem-safe"
                        )));
                    }
                    let target = persist::snapshot_path(dir, name);
                    if state.persist.is_some() {
                        // A persisted instance compacts its WAL into it.
                        self.checkpoint_in(state, name)?;
                        let bytes = state.persist.as_ref().expect("persisted").snapshot_bytes;
                        return Ok((bytes, target));
                    }
                    target
                }
            };
            let covered_seq = state.persist.as_ref().map_or(0, |p| p.wal.last_seq);
            let bytes = encode_snapshot(state, covered_seq).write_atomic(&target)?;
            matlang_obs::counter!("persist_snapshot_total").inc();
            matlang_obs::trace::event("persist:snapshot");
            Ok((bytes, target))
        })?
    }

    /// Creates a new instance from a snapshot file — the `RESTORE` verb.
    /// The name must be free; the instance is *not* automatically
    /// persisted (use `PERSIST <inst> on`).  Returns the restored dim and
    /// variable counts.
    pub fn restore(&self, name: &str, path: &Path) -> Result<(usize, usize), ServerError> {
        let snap = Snapshot::read(path)?;
        let mut instance = instance_from_snapshot(&snap)?;
        let mut instances = self.instances.write().expect("store poisoned");
        if instances.contains_key(name) {
            return Err(ServerError::InstanceExists {
                name: name.to_string(),
            });
        }
        // Published only once the name is known to be free: a refused
        // restore must not add to the totals or move the existing
        // instance's labelled gauge.
        with_state!(&mut instance, |state| state
            .account_touch(name, &self.accounted_bytes));
        instances.insert(name.to_string(), Arc::new(Mutex::new(instance)));
        matlang_obs::trace::event("persist:restore");
        Ok((snap.dims.len(), snap.vars.len()))
    }

    /// An instance's durability figures — the `WALSTAT` verb.
    pub fn walstat(&self, name: &str) -> Result<WalStat, ServerError> {
        let compact_threshold = self.config.wal_compact();
        with_instance!(self, name, |state| match state.persist.as_ref() {
            Some(p) => WalStat {
                persisted: true,
                seq: p.wal.last_seq,
                records: p.wal.records,
                wal_bytes: p.wal.bytes,
                snapshot_bytes: p.snapshot_bytes,
                compact_threshold,
            },
            None => WalStat {
                compact_threshold,
                ..WalStat::default()
            },
        })
    }

    /// Creates a named instance over ℝ.  Fails if the name is taken.
    /// `adaptive` is kept for callers written against two backends: both
    /// values create the same [`MatrixRepr`]-backed instance.
    pub fn create_instance(&self, name: &str, adaptive: bool) -> Result<(), ServerError> {
        self.create_instance_with(name, adaptive, SemiringKind::Real)
    }

    /// Creates a named instance over an explicit semiring.  Fails if the
    /// name is taken.  `adaptive` is ignored: `true` and `false` (the
    /// `dense` alias) create the same instance.
    pub fn create_instance_with(
        &self,
        name: &str,
        _adaptive: bool,
        semiring: SemiringKind,
    ) -> Result<(), ServerError> {
        let mut instances = self.instances.write().expect("store poisoned");
        if instances.contains_key(name) {
            return Err(ServerError::InstanceExists {
                name: name.to_string(),
            });
        }
        instances.insert(
            name.to_string(),
            Arc::new(Mutex::new(ServerInstance::create(semiring))),
        );
        Ok(())
    }

    /// Removes a named instance, with its prepared statements and cache,
    /// retiring its contribution to the resource-accounting gauges.  A
    /// persisted instance also loses its on-disk snapshot/WAL files and
    /// its `wal_bytes` gauge share — `DROP` must leave no orphaned state.
    pub fn drop_instance(&self, name: &str) -> Result<(), ServerError> {
        let removed = self
            .instances
            .write()
            .expect("store poisoned")
            .remove(name)
            .ok_or_else(|| ServerError::UnknownInstance {
                name: name.to_string(),
            })?;
        let mut guard = removed.lock().expect("instance poisoned");
        with_state!(&mut *guard, |state| {
            // Close the WAL handle before unlinking its file.
            state.unpersist();
            // Publishing an empty account retires the instance's share.
            let mut retired = ResourceAccount {
                published: state.account.published,
                labelled: state.account.labelled,
                ..ResourceAccount::default()
            };
            publish_account(name, &mut retired, &self.accounted_bytes)
        });
        if let Some(dir) = self.data_dir() {
            if persist::filesystem_safe(name) {
                let _ = persist::remove_instance_files(dir, name);
            }
        }
        Ok(())
    }

    /// Instance names in sorted order.
    pub fn list_instances(&self) -> Vec<String> {
        let mut names: Vec<String> = self.snapshot().into_iter().map(|(name, _)| name).collect();
        names.sort();
        names
    }

    /// Per-instance descriptions in name order: backend, semiring and the
    /// cumulative delta-maintenance counters (the `LIST` wire reply).
    pub fn list_detailed(&self) -> Vec<InstanceEntry> {
        let mut entries: Vec<InstanceEntry> = self
            .snapshot()
            .into_iter()
            .map(|(name, handle)| {
                let guard = handle.lock().expect("instance poisoned");
                with_state!(&*guard, |state| InstanceEntry {
                    name,
                    backend: BACKEND.to_string(),
                    semiring: state.semiring().to_string(),
                    delta_patches: state.delta_patches,
                    delta_fallbacks: state.delta_fallbacks,
                })
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Every instance with its name, taken under the map's read lock and
    /// handed out after releasing it, so no instance is locked while the
    /// map is.
    fn snapshot(&self) -> Vec<(String, Arc<Mutex<ServerInstance>>)> {
        let map = self.instances.read().expect("store poisoned");
        map.iter()
            .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
            .collect()
    }

    /// Runs `f` on the named instance under its lock.  Fails only when no
    /// such instance exists; what `f` returns is passed through.
    fn with_instance<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut ServerInstance) -> T,
    ) -> Result<T, ServerError> {
        let instance = self
            .instances
            .read()
            .expect("store poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownInstance {
                name: name.to_string(),
            })?;
        let mut guard = instance.lock().expect("instance poisoned");
        Ok(f(&mut guard))
    }

    /// Assigns a size symbol on an instance.
    pub fn set_dim(&self, name: &str, sym: &str, value: usize) -> Result<(), ServerError> {
        check_dimension("dimension", value)?;
        with_instance!(self, name, |state| {
            state.instance.set_dim(sym, value);
            // Dimension symbols are not matrix variables, so they are
            // invisible to the plan's dependency index — a dim change
            // conservatively clears the whole memo cache (loop iteration
            // counts and canonical-vector sizes may all have changed).
            state.clear_cache();
            // A dim assignment is not an `UPDATE`, so it cannot ride the
            // WAL; a persisted instance checkpoints into a fresh snapshot
            // instead, keeping recovery exact.
            self.checkpoint_in(state, name)?;
            state.account_touch(name, &self.accounted_bytes);
            Ok(())
        })?
    }

    /// Assigns a matrix from explicit `(row, col, value)` entries, with
    /// values injected through the instance semiring's `from_f64`.
    /// Returns the stored non-zero count.
    pub fn load_matrix(
        &self,
        name: &str,
        var: &str,
        rows: usize,
        cols: usize,
        entries: Vec<(usize, usize, f64)>,
    ) -> Result<usize, ServerError> {
        check_dimension("rows", rows)?;
        check_dimension("cols", cols)?;
        let triplets: Vec<(usize, usize, Real)> = entries
            .into_iter()
            .map(|(i, j, v)| (i, j, Real(v)))
            .collect();
        let sparse = SparseMatrix::from_triplets(rows, cols, triplets)?;
        self.assign_matrix(name, var, sparse)
    }

    /// Generates a random graph matrix over the dimension named `sym`.
    /// Returns the stored non-zero count.
    pub fn generate_matrix(
        &self,
        name: &str,
        var: &str,
        sym: &str,
        kind: GenKind,
    ) -> Result<usize, ServerError> {
        let n = with_instance!(self, name, |state| state
            .instance
            .dim_value(&Dim::Sym(sym.to_string())))?
        .ok_or_else(|| {
            ServerError::storage(format!("size symbol `{sym}` has no assigned dimension"))
        })?;
        check_dimension("dimension", n)?;
        let (GenKind::ErdosRenyi { avg_degree, .. } | GenKind::PowerLaw { avg_degree, .. }) = kind;
        if !(avg_degree.is_finite() && avg_degree >= 0.0) {
            return Err(ServerError::storage(format!(
                "average degree {avg_degree} is not a finite non-negative number"
            )));
        }
        check_dimension("expected entry count", (n as f64 * avg_degree) as usize)?;
        let sparse: SparseMatrix<Real> = match kind {
            GenKind::ErdosRenyi { avg_degree, seed } => sparse_erdos_renyi(n, avg_degree, seed),
            GenKind::PowerLaw {
                avg_degree,
                alpha,
                seed,
            } => sparse_power_law(n, avg_degree, alpha, seed),
        };
        self.assign_matrix(name, var, sparse)
    }

    /// Stores `matrix` under `var`, converting to the instance's semiring
    /// and picking its layout by density.  Any (re)assignment resets the
    /// prepared plan's memo cache — unlike a point `UPDATE`, a wholesale
    /// rebind invalidates everything that mentions the variable, and
    /// conservatively clearing is cheapest.
    fn assign_matrix(
        &self,
        name: &str,
        var: &str,
        sparse: SparseMatrix<Real>,
    ) -> Result<usize, ServerError> {
        let stored = with_instance!(self, name, |state| {
            let stored = assign_in(state, var, &sparse);
            if stored.is_ok() {
                // A wholesale rebind cannot be expressed as WAL entries;
                // a persisted instance checkpoints into a fresh snapshot.
                self.checkpoint_in(state, name)?;
            }
            state.account_touch(name, &self.accounted_bytes);
            stored
        })?;
        self.maybe_shed(name);
        stored
    }

    /// Type-checks `expr` on an instance and plans it on its own — the
    /// one-shot plan of `QUERY`, `EXPLAIN` and `PROFILE`.
    fn plan_one<K: ServerSemiring>(
        &self,
        state: &BackendState<K>,
        expr: &Expr,
    ) -> Result<Plan, ServerError> {
        typecheck_in(&state.instance, expr)?;
        Ok(self
            .engine
            .plan(std::slice::from_ref(expr), &state.instance))
    }

    /// Parses, type-checks and plans a query against an instance,
    /// registering it as a prepared statement.  All of the instance's
    /// prepared statements are planned **as one batch** so they share a
    /// memo cache, and the batch is planned from this instance's own
    /// statistics.
    pub fn prepare(&self, name: &str, text: &str) -> Result<PrepareOutcome, ServerError> {
        matlang_obs::counter!("prepare_total").inc();
        let expr = parse_traced(text)?;
        with_instance!(self, name, |state| {
            let outcome = self.prepare_in(state, expr);
            state.account_touch(name, &self.accounted_bytes);
            outcome
        })?
    }

    fn prepare_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        expr: Expr,
    ) -> Result<PrepareOutcome, ServerError> {
        typecheck_in(&state.instance, &expr)?;
        let fingerprint = expr_fingerprint(&expr);
        if let Some(qid) = state
            .prepared
            .iter()
            .position(|p| p.fingerprint == fingerprint)
        {
            matlang_obs::counter!("plan_cache_hits_total").inc();
            let plan = state.plan.as_ref();
            return Ok(PrepareOutcome {
                qid,
                reused_statement: true,
                reused_plan: true,
                plan_nodes: plan.map_or(0, |p| p.nodes().len()),
                plan_fingerprint: plan.map_or(0, |p| p.structure_fingerprint()),
            });
        }
        state.prepared.push(PreparedQuery { expr, fingerprint });
        matlang_obs::counter!("plan_cache_misses_total").inc();
        let stats = InstanceStats::from_instance(&state.instance);
        let plan = self.plan_batch::<K>(&state.prepared, &stats);
        let outcome = PrepareOutcome {
            qid: state.prepared.len() - 1,
            reused_statement: false,
            reused_plan: false,
            plan_nodes: plan.nodes().len(),
            plan_fingerprint: plan.structure_fingerprint(),
        };
        state.install_plan(plan, stats);
        Ok(outcome)
    }

    /// Plans the prepared batch from `stats` with every node memoized: a
    /// prepared query re-executed on an unchanged instance is answered by
    /// one root-cache hit.
    fn plan_batch<K: ServerSemiring>(
        &self,
        prepared: &[PreparedQuery],
        stats: &InstanceStats,
    ) -> Plan {
        let queries: Vec<Expr> = prepared.iter().map(|p| p.expr.clone()).collect();
        let mut plan = self.engine.plan_with_stats::<K>(&queries, stats);
        plan.mark_all_cacheable();
        plan
    }

    /// Executes prepared queries through the instance's persistent memo
    /// cache, returning one wire result per query id.
    pub fn exec(&self, name: &str, qids: &[usize]) -> Result<Vec<WireResult>, ServerError> {
        let shared = self.exec_shared(name, qids)?;
        Ok(shared.iter().map(SharedResult::to_wire).collect())
    }

    /// [`exec`](Self::exec) without the copy: each result is the matrix
    /// the executor returned (on a warm hit, the memo cache's own `Arc`),
    /// for the session to stream once the instance lock is released.
    pub fn exec_shared(
        &self,
        name: &str,
        qids: &[usize],
    ) -> Result<Vec<SharedResult>, ServerError> {
        let outcome = with_instance!(self, name, |state| self.exec_in(state, name, qids))?;
        self.maybe_shed(name);
        outcome
    }

    /// Re-plans the instance's prepared batch when the current
    /// per-variable statistics have drifted past the configured
    /// [`replan_drift`](StoreConfig::replan_drift) from
    /// the snapshot the active plan was built against.  The new plan is
    /// built from fresh statistics and starts with a cold memo cache (node
    /// ids changed).
    fn maybe_replan<K: ServerSemiring>(&self, state: &mut BackendState<K>) {
        let current = InstanceStats::from_instance(&state.instance);
        if state.worst_drift(&current) <= self.config.replan_drift() {
            return;
        }
        matlang_obs::counter!("replan_total").inc();
        matlang_obs::trace::event("replan:drift");
        state.replans += 1;
        let plan = self.plan_batch::<K>(&state.prepared, &current);
        state.install_plan(plan, current);
    }

    fn exec_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        name: &str,
        qids: &[usize],
    ) -> Result<Vec<SharedResult>, ServerError> {
        if state.plan.is_none() {
            return Err(ServerError::NoPreparedQueries);
        }
        for &qid in qids {
            if qid >= state.prepared.len() {
                return Err(ServerError::UnknownQueryId { qid });
            }
        }
        // When accumulated updates have drifted the instance's density
        // past the threshold, rebuild the plan from current statistics
        // before executing.
        self.maybe_replan(state);
        let plan = state.plan.as_ref().expect("checked above");
        // Fold pending delta overlays into the cached bases the executor
        // will read (just the requested roots when they are all warm).
        let roots: Vec<usize> = qids.iter().map(|&qid| plan.roots()[qid]).collect();
        state.overlay.flush_for_roots(&mut state.cache, &roots);
        let cache = std::mem::take(&mut state.cache);
        let mut exec = Executor::with_cache(
            plan,
            &state.instance,
            &state.registry,
            self.engine.exec_options,
            cache,
        );
        let request_timer = matlang_obs::enabled().then(std::time::Instant::now);
        let mut results = Vec::with_capacity(qids.len());
        let mut outcome = Ok(());
        for &qid in qids {
            let before = exec.stats();
            matlang_obs::counter!("exec_total").inc();
            let timer = matlang_obs::enabled().then(std::time::Instant::now);
            let run = exec.run_shared(plan.roots()[qid]);
            if let Some(t) = timer {
                matlang_obs::histogram!("exec_latency_us").observe(t.elapsed().as_micros() as u64);
            }
            match run {
                Ok(value) => results.push(SharedResult::new(
                    value,
                    exec.stats().since(&before),
                    (state.delta_patches, state.delta_fallbacks),
                    plan,
                )),
                Err(e) => {
                    outcome = Err(ServerError::Eval {
                        message: e.to_string(),
                    });
                    break;
                }
            }
        }
        let misses = exec.stats().cache_misses;
        // Slow-query forensics: when this request crossed the slow
        // threshold, park the rewritten-DAG explain plus the per-node
        // observations for the session's trace guard to fold into the
        // slowlog entry when it drops.
        let spent_us = request_timer.map(|t| t.elapsed().as_micros() as u64);
        if let Some(elapsed_us) = spent_us {
            if elapsed_us >= self.config.slow_ms().saturating_mul(1_000) {
                let mut detail = plan.explain();
                for (id, sample) in exec.samples().iter().enumerate() {
                    if sample.computed == 0 && sample.hits == 0 {
                        continue;
                    }
                    detail.push(format!(
                        "observed #{id} computed={} hits={} out={}x{} nnz={}",
                        sample.computed, sample.hits, sample.rows, sample.cols, sample.nnz
                    ));
                }
                matlang_obs::trace::attach_slow_detail(matlang_obs::trace::current_id(), detail);
            }
        }
        state.cache = exec.into_cache();
        // Resource accounting rides the same gate — and the same clock
        // read — as the slow-query check above.  A fully-warm EXEC (every
        // root a cache hit, no pending overlay folded in) cannot move any
        // byte figure, so the hot path pays only the activity stamp;
        // anything that computed (or absorbed an overlay) re-publishes.
        if let Some(elapsed_us) = spent_us {
            state.account.exec_count += qids.len() as u64;
            state.account.exec_time_us += elapsed_us;
            let warm = outcome.is_ok()
                && misses == 0
                && state.overlay.pending_bytes() == state.account.overlay_bytes;
            if warm {
                state.account.last_active_us = matlang_obs::metrics::clock_us();
            } else {
                state.account_touch(name, &self.accounted_bytes);
            }
        }
        outcome.map(|_| results)
    }

    /// One-shot query: parse + typecheck + plan + evaluate, bypassing the
    /// prepared-statement machinery and its persistent cache entirely.
    /// This is the per-request-cost baseline `EXEC` is measured against.
    pub fn query(&self, name: &str, text: &str) -> Result<WireResult, ServerError> {
        self.query_shared(name, text).map(|shared| shared.to_wire())
    }

    /// [`query`](Self::query) without the copy — see
    /// [`exec_shared`](Self::exec_shared).
    pub fn query_shared(&self, name: &str, text: &str) -> Result<SharedResult, ServerError> {
        matlang_obs::counter!("query_total").inc();
        let expr = parse_traced(text)?;
        with_instance!(self, name, |state| self.query_in(state, &expr))?
    }

    fn query_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        expr: &Expr,
    ) -> Result<SharedResult, ServerError> {
        let plan = self.plan_one(state, expr)?;
        let mut exec = Executor::new(
            &plan,
            &state.instance,
            &state.registry,
            self.engine.exec_options,
        );
        let value = exec
            .run_shared(plan.roots()[0])
            .map_err(|e| ServerError::Eval {
                message: e.to_string(),
            })?;
        Ok(SharedResult::new(value, exec.stats(), (0, 0), &plan))
    }

    /// Applies in-place point updates to a matrix variable, then maintains
    /// the prepared-plan memo cache: exact **delta propagation** when the
    /// semiring and the batch allow it, dependency-scoped invalidation
    /// otherwise (see the module docs).  The [`UpdateReply`] reports
    /// which path ran and why.
    pub fn update(
        &self,
        name: &str,
        var: &str,
        entries: &[(usize, usize, f64)],
    ) -> Result<UpdateReply, ServerError> {
        matlang_obs::counter!("update_total").inc();
        let timer = matlang_obs::enabled().then(std::time::Instant::now);
        let outcome = with_instance!(self, name, |state| {
            let mut applied = 0usize;
            let outcome = self.update_in(state, var, entries, &mut applied);
            // Log exactly the applied prefix — on a mid-batch failure the
            // entries before the failing one *did* mutate the matrix, and
            // recovery must replay them.
            if applied > 0 {
                self.wal_append_in(state, name, var, &entries[..applied]);
            }
            state.account_touch(name, &self.accounted_bytes);
            outcome
        })?;
        if let Some(t) = timer {
            matlang_obs::histogram!("update_latency_us").observe(t.elapsed().as_micros() as u64);
        }
        self.maybe_shed(name);
        outcome
    }

    fn update_in<K: ServerSemiring>(
        &self,
        state: &mut BackendState<K>,
        var: &str,
        entries: &[(usize, usize, f64)],
        applied_out: &mut usize,
    ) -> Result<UpdateReply, ServerError> {
        let has_plan = state.plan.is_some();
        let matrix =
            state
                .instance
                .matrix_mut(var)
                .ok_or_else(|| ServerError::UnknownVariable {
                    var: var.to_string(),
                })?;
        // An empty batch mutates nothing and invalidates nothing: it is a
        // (trivially exact) delta application of the empty update, not a
        // fallback — and must not disturb the warm cache either way.
        if entries.is_empty() {
            return Ok(UpdateReply {
                applied: 0,
                invalidated: 0,
                delta: DeltaWire::Applied { patched: 0 },
            });
        }
        let (rows, cols) = matrix.shape();
        // Decide the path *before* mutating anything: the delta rules are
        // only exact for idempotent ⊕ and insert-only batches.
        let mut fallback = if !has_plan {
            Some(DeltaFallback::NoPlan)
        } else if !join_is_idempotent::<K>() {
            Some(DeltaFallback::NonIdempotentSemiring)
        } else {
            None
        };
        // The per-entry insert-only check, with in-batch duplicates
        // tracked through `staged` so `old` is always the value the entry
        // actually overwrites.
        let mut staged: HashMap<(usize, usize), K> = HashMap::new();
        if fallback.is_none() {
            for &(i, j, v) in entries {
                let new = K::from_f64(v);
                let old = match staged.get(&(i, j)) {
                    Some(prev) => prev.clone(),
                    None => match matrix.get_entry(i, j) {
                        Ok(old) => old,
                        // Out of bounds: the apply loop below fails at
                        // this same entry and the batch falls back.
                        Err(_) => break,
                    },
                };
                if !absorbs(&old, &new) {
                    fallback = Some(DeltaFallback::NotInsertOnly);
                    break;
                }
                staged.insert((i, j), new);
            }
        }
        let mut applied = 0usize;
        let mut failure = None;
        for &(i, j, v) in entries {
            if let Err(e) = matrix.set_entry(i, j, K::from_f64(v)) {
                failure = Some(e.into());
                break;
            }
            applied += 1;
            *applied_out = applied;
        }
        if failure.is_some() {
            // The prefix before the failing entry *did* mutate the
            // matrix; a half-applied batch never takes the delta path.
            fallback = Some(DeltaFallback::PartialBatch);
        }
        let (invalidated, disposition) = match fallback {
            None => {
                // Every entry applied and absorbs: propagate the final
                // staged values (zero-valued entries are no-ops — an
                // absorbing write over a zero was itself zero — and are
                // stripped from the delta).
                let plan = state.plan.as_ref().expect("delta path implies a plan");
                let triplets: Vec<(usize, usize, K)> = staged
                    .into_iter()
                    .filter(|(_, v)| !v.is_zero())
                    .map(|((i, j), v)| (i, j, v))
                    .collect();
                let update = SparseMatrix::from_triplets(rows, cols, triplets)
                    .expect("update entries were bounds-checked by set_entry");
                let report = propagate(plan, &mut state.cache, &mut state.overlay, var, &update);
                state.delta_patches += report.patched;
                matlang_obs::counter!("delta_applied_total").inc();
                (
                    report.invalidated,
                    DeltaWire::Applied {
                        patched: report.patched,
                    },
                )
            }
            Some(reason) => {
                // Invalidate even when a later entry of the batch failed:
                // the entries before it *did* mutate the matrix, and a
                // cache that outlives them would serve stale results.
                state.delta_fallbacks += 1;
                matlang_obs::counter!("delta_fallback_total").inc();
                let invalidated = if applied > 0 {
                    match state.plan.as_ref() {
                        Some(plan) => {
                            for &id in plan.dependents_of(var) {
                                state.overlay.clear_node(id);
                            }
                            plan.invalidate_dependents_in(&mut state.cache, var)
                        }
                        None => 0,
                    }
                } else {
                    0
                };
                let reason = reason.code().to_string();
                (invalidated, DeltaWire::Fallback { reason })
            }
        };
        match failure {
            Some(e) => Err(e),
            None => Ok(UpdateReply {
                applied,
                invalidated,
                delta: disposition,
            }),
        }
    }

    /// Plans a query against an instance **without executing it** and
    /// renders the rewritten DAG: one line per plan node with the cost
    /// model's size/work estimates and the cache/delta eligibility, plus
    /// the applied rewrites (the `EXPLAIN` wire block).
    pub fn explain(&self, name: &str, text: &str) -> Result<Vec<String>, ServerError> {
        let expr = parse_traced(text)?;
        with_instance!(self, name, |state| {
            let mut lines = vec![state.header(name)];
            lines.extend(self.plan_one(state, &expr)?.explain());
            Ok(lines)
        })?
    }

    /// Plans **and executes** a query once with per-node profiling, then
    /// renders one line per plan node with its inclusive wall time, output
    /// shape/nnz and compute/hit counts (the `PROFILE` wire block).  Like
    /// `QUERY`, this bypasses the prepared-statement cache entirely.
    pub fn profile(&self, name: &str, text: &str) -> Result<Vec<String>, ServerError> {
        let expr = parse_traced(text)?;
        with_instance!(self, name, |state| {
            let plan = self.plan_one(state, &expr)?;
            let mut options = self.engine.exec_options;
            options.profile = true;
            let timer = std::time::Instant::now();
            let mut exec = Executor::new(&plan, &state.instance, &state.registry, options);
            exec.run_shared(plan.roots()[0])
                .map_err(|e| ServerError::Eval {
                    message: e.to_string(),
                })?;
            let total_us = timer.elapsed().as_micros() as u64;
            let samples = exec.samples();
            let stats = exec.stats();
            let mut lines = vec![format!("{} total_us={total_us}", state.header(name))];
            for (id, sample) in samples.iter().enumerate() {
                lines.push(format!(
                    "#{id} {desc} | {us}us computed={computed} hits={hits} out={rows}x{cols} nnz={nnz}",
                    desc = plan.node(id).op.describe(),
                    us = sample.total_ns / 1_000,
                    computed = sample.computed,
                    hits = sample.hits,
                    rows = sample.rows,
                    cols = sample.cols,
                    nnz = sample.nnz,
                ));
            }
            lines.push(format!(
                "totals nodes={} computed={} hits={} fused={}",
                plan.nodes().len(),
                stats.cache_misses,
                stats.cache_hits,
                stats.fused_products,
            ));
            Ok(lines)
        })?
    }

    /// Reports an instance's planned-vs-current statistics — the `STATS`
    /// wire block.  One header line with the re-plan counters and the
    /// worst current drift, then one line per instance variable comparing
    /// the nnz the active plan was built against (`planned_nnz`, `-` before
    /// anything is prepared) with the instance's current nnz.
    pub fn stats(&self, name: &str) -> Result<Vec<String>, ServerError> {
        with_instance!(self, name, |state| {
            let current = InstanceStats::from_instance(&state.instance);
            // `generation=` is the plan's re-plan count, kept on the wire
            // beside `replans=` for the clients that read it.
            let replans = state.replans;
            let mut lines = vec![format!(
                "{} generation={replans} replans={replans} drift={:.2} threshold={:.2}",
                state.header(name),
                state.worst_drift(&current),
                self.config.replan_drift(),
            )];
            for (var, cur, planned, drift, referenced) in state.drifts(&current) {
                lines.push(format!(
                    "var {var} shape={}x{} planned_nnz={} current_nnz={} drift={drift:.2} referenced={}",
                    cur.rows,
                    cur.cols,
                    planned.map_or_else(|| "-".to_string(), |n| n.to_string()),
                    cur.nnz,
                    if referenced { "yes" } else { "no" },
                ));
            }
            lines
        })
    }

    /// Capacity snapshot — the `HEALTH` wire verb.  Byte figures are
    /// recomputed authoritatively from each instance's account (O(1)
    /// per-slot reads under the instance lock), so the report is truthful
    /// even while observability recording is disabled.
    pub fn health(&self) -> HealthReport {
        let handles = self.snapshot();
        let instances = handles.len();
        let mut total_bytes = 0u64;
        for (_, handle) in handles {
            let mut guard = handle.lock().expect("instance poisoned");
            total_bytes += with_state!(&mut *guard, |state| {
                state.account_refresh();
                state.account.total_bytes() as u64
            });
        }
        let budget = self.config.mem_budget();
        let status = match budget {
            Some(b) if total_bytes > b => "pressure",
            _ => "ok",
        };
        let rate = |part: u64, whole: u64| match whole {
            0 => 0.0,
            _ => part as f64 / whole as f64,
        };
        let exec_total = matlang_obs::counter!("exec_total").get();
        HealthReport {
            status,
            total_bytes,
            budget,
            instances,
            connections: matlang_obs::gauge!("connections_active").get(),
            exec_total,
            slow_rate: rate(
                matlang_obs::counter!("slow_queries_total").get(),
                exec_total,
            ),
            fallback_rate: rate(
                matlang_obs::counter!("delta_fallback_total").get(),
                matlang_obs::counter!("update_total").get(),
            ),
            pressure_evictions: matlang_obs::counter!("pressure_evictions_total").get(),
        }
    }

    /// Instances ranked by accounted bytes (ties: exec time, then name)
    /// — the `TOP` wire block.  One line per instance with the byte
    /// breakdown, memo-cache residency, execution totals and per-root
    /// cache residency (first 8 roots; `-` marks a cold root).
    pub fn top(&self, n: Option<usize>) -> Vec<String> {
        const ROOT_COLUMNS: usize = 8;
        let handles = self.snapshot();
        let mut rows = Vec::with_capacity(handles.len());
        for (name, handle) in handles {
            let mut guard = handle.lock().expect("instance poisoned");
            let (semiring, account, roots) = with_state!(&mut *guard, |state| {
                state.account_refresh();
                let mut roots = Vec::new();
                if let Some(plan) = state.plan.as_ref() {
                    for (qid, &root) in plan.roots().iter().enumerate().take(ROOT_COLUMNS) {
                        let resident = state
                            .cache
                            .get(root)
                            .and_then(|slot| slot.as_ref())
                            .map(|value| value.heap_bytes());
                        roots.push(match resident {
                            Some(bytes) => format!("q{qid}:{bytes}"),
                            None => format!("q{qid}:-"),
                        });
                    }
                    if plan.roots().len() > ROOT_COLUMNS {
                        roots.push(format!("(+{})", plan.roots().len() - ROOT_COLUMNS));
                    }
                }
                (state.semiring(), state.account, roots)
            });
            rows.push((name, semiring, account, roots));
        }
        rows.sort_by(|a, b| {
            b.2.total_bytes()
                .cmp(&a.2.total_bytes())
                .then(b.2.exec_time_us.cmp(&a.2.exec_time_us))
                .then(a.0.cmp(&b.0))
        });
        if let Some(n) = n {
            rows.truncate(n);
        }
        rows.into_iter()
            .map(|(name, semiring, account, roots)| {
                format!(
                    "instance={name} backend={BACKEND} semiring={semiring} bytes={} data={} \
                     cache_bytes={} cache_entries={} overlay={} execs={} exec_us={} roots={}",
                    account.total_bytes(),
                    account.data_bytes,
                    account.cache_bytes,
                    account.cache_entries,
                    account.overlay_bytes,
                    account.exec_count,
                    account.exec_time_us,
                    if roots.is_empty() {
                        "-".to_string()
                    } else {
                        roots.join(",")
                    },
                )
            })
            .collect()
    }

    /// Sheds memory after a mutating request when this store's accounted
    /// bytes exceed the soft budget
    /// ([`mem_budget`](StoreConfig::mem_budget)): the memo caches and
    /// overlays of idle instances — coldest `last_active_us` first —
    /// skipping `just_used` and anything currently locked
    /// (`try_lock`: shedding must never contend with or deadlock against
    /// a session holding an instance).  Primary matrix data is never
    /// shed.  Every eviction bumps `pressure_evictions_total` and leaves
    /// a trace event.
    fn maybe_shed(&self, just_used: &str) {
        if !matlang_obs::enabled() {
            return;
        }
        let Some(budget) = self.config.mem_budget() else {
            return;
        };
        let over = || self.accounted_bytes.load(Ordering::Relaxed) > budget as i64;
        if !over() {
            return;
        }
        matlang_obs::trace::event("pressure:shed");
        let mut candidates: Vec<(u64, String, Arc<Mutex<ServerInstance>>)> = Vec::new();
        for (name, handle) in self.snapshot() {
            if name == just_used {
                continue;
            }
            let idle = match handle.try_lock() {
                Ok(guard) => with_state!(&*guard, |state| {
                    let resident = state.account.cache_bytes + state.account.overlay_bytes;
                    (resident > 0).then_some(state.account.last_active_us)
                }),
                Err(_) => None,
            };
            if let Some(last_active) = idle {
                candidates.push((last_active, name, handle));
            }
        }
        candidates.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, name, handle) in candidates {
            if !over() {
                break;
            }
            let Ok(mut guard) = handle.try_lock() else {
                continue;
            };
            with_state!(&mut *guard, |state| {
                state.clear_cache();
                state.account_touch(&name, &self.accounted_bytes);
            });
            matlang_obs::counter!("pressure_evictions_total").inc();
            matlang_obs::trace::event("pressure:evict-cache");
        }
    }
}

/// Parses query text under a `parse` trace span, mapping errors to the
/// wire error kind.
fn parse_traced(text: &str) -> Result<Expr, ServerError> {
    let _span = matlang_obs::trace::active().then(|| matlang_obs::trace::span("parse"));
    parse(text).map_err(|e| ServerError::Parse {
        message: e.to_string(),
    })
}

/// Converts loaded/generated ℝ triplet data into the instance's semiring,
/// stores it in the layout its density picks, and clears the memo cache.
/// Returns the stored non-zero count.
fn assign_in<K: ServerSemiring>(
    state: &mut BackendState<K>,
    var: &str,
    sparse: &SparseMatrix<Real>,
) -> Result<usize, ServerError> {
    let triplets: Vec<(usize, usize, K)> = sparse
        .iter_entries()
        .map(|(i, j, v)| (i, j, K::from_f64(v.0)))
        .collect();
    let converted = SparseMatrix::from_triplets(sparse.rows(), sparse.cols(), triplets)?;
    let nnz = converted.nnz();
    state
        .instance
        .set_matrix(var, MatrixRepr::from_sparse(converted));
    state.clear_cache();
    Ok(nnz)
}

/// Type-checks `expr` against the schema of an instance: every matrix
/// variable is typed by matching its concrete shape against the instance's
/// size-symbol assignments (dimension 1 is the distinguished symbol `1`;
/// other values resolve to the first size symbol carrying them, in name
/// order).
fn typecheck_in<K: Semiring>(
    instance: &Instance<K, MatrixRepr<K>>,
    expr: &Expr,
) -> Result<(), ServerError> {
    let dim_for = |value: usize| -> Result<Dim, ServerError> {
        if value == 1 {
            return Ok(Dim::One);
        }
        instance
            .dims()
            .find(|&(_, n)| n == value)
            .map(|(sym, _)| Dim::sym(sym.clone()))
            .ok_or_else(|| {
                ServerError::storage(format!(
                    "no size symbol assigned the value {value} (use DIM)"
                ))
            })
    };
    let mut schema = Schema::new();
    for (var, matrix) in instance.matrices() {
        let (rows, cols) = matrix.shape();
        schema.declare(var.clone(), MatrixType::new(dim_for(rows)?, dim_for(cols)?));
    }
    typecheck(expr, &schema)
        .map(|_| ())
        .map_err(|e| ServerError::Type {
            message: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_core::evaluate;
    use matlang_matrix::Matrix;

    fn seeded_store() -> Store {
        let store = Store::new();
        store.create_instance("g", true).unwrap();
        store.set_dim("g", "n", 4).unwrap();
        store
            .load_matrix(
                "g",
                "G",
                4,
                4,
                vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)],
            )
            .unwrap();
        store
    }

    #[test]
    fn instance_lifecycle() {
        let store = seeded_store();
        assert_eq!(store.list_instances(), vec!["g".to_string()]);
        assert!(matches!(
            store.create_instance("g", false),
            Err(ServerError::InstanceExists { .. })
        ));
        store.create_instance("h", false).unwrap();
        assert_eq!(store.list_instances().len(), 2);
        let describe = |name: &str| {
            let info = store.list_detailed().into_iter().find(|i| i.name == name);
            info.map(|i| format!("{}:{}", i.backend, i.semiring))
                .unwrap()
        };
        assert_eq!(describe("h"), "adaptive:real");
        store.drop_instance("h").unwrap();
        assert!(matches!(
            store.drop_instance("h"),
            Err(ServerError::UnknownInstance { .. })
        ));
        assert!(matches!(
            store.prepare("missing", "G"),
            Err(ServerError::UnknownInstance { .. })
        ));
        store
            .create_instance_with("w", true, SemiringKind::MinPlus)
            .unwrap();
        assert_eq!(describe("w"), "adaptive:minplus");
    }

    #[test]
    fn prepare_exec_matches_local_evaluation() {
        let store = seeded_store();
        let expr = Expr::var("G").t().mm(Expr::var("G"));
        let out = store.prepare("g", &expr.to_string()).unwrap();
        assert!(!out.reused_statement);
        let results = store.exec("g", &[out.qid]).unwrap();
        let local: Instance<Real> = Instance::new().with_dim("n", 4).with_matrix(
            "G",
            Matrix::from_f64_rows(&[
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 2.0, 0.0],
                &[0.0, 0.0, 0.0, 3.0],
                &[4.0, 0.0, 0.0, 0.0],
            ])
            .unwrap(),
        );
        let expected = evaluate(&expr, &local, &FunctionRegistry::standard_field()).unwrap();
        let got = dense_of(&results[0]);
        assert_eq!(got, expected);
        // Re-executing is answered by the warm cache: one root hit.
        let again = store.exec("g", &[out.qid]).unwrap();
        assert_eq!(again[0].stats.cache_misses, 0);
        assert_eq!(again[0].stats.cache_hits, 1);
        // Re-preparing the same text reuses the statement and the cache.
        let re = store.prepare("g", &expr.to_string()).unwrap();
        assert!(re.reused_statement);
        assert_eq!(re.qid, out.qid);
        let third = store.exec("g", &[out.qid]).unwrap();
        assert_eq!(third[0].stats.cache_misses, 0);
    }

    #[test]
    fn update_invalidates_only_dependents() {
        let store = seeded_store();
        store
            .load_matrix("g", "H", 4, 4, vec![(0, 0, 1.0), (1, 1, 1.0)])
            .unwrap();
        let over_g = store.prepare("g", "(transpose(G) * G)").unwrap();
        let over_h = store.prepare("g", "(H + H)").unwrap();
        // Warm both caches.
        store.exec("g", &[over_g.qid, over_h.qid]).unwrap();
        let outcome = store.update("g", "H", &[(2, 2, 5.0)]).unwrap();
        assert_eq!(outcome.applied, 1);
        assert!(outcome.invalidated >= 2, "Var(H) and H+H must drop");
        // ℝ has no idempotent ⊕: the delta path must refuse and say why.
        assert_eq!(
            outcome.delta,
            DeltaWire::Fallback {
                reason: DeltaFallback::NonIdempotentSemiring.code().to_string()
            }
        );
        // The G query is untouched: answered fully from cache.
        let g_again = store.exec("g", &[over_g.qid]).unwrap();
        assert_eq!(g_again[0].stats.cache_misses, 0);
        // The H query recomputes and sees the new entry.
        let h_again = store.exec("g", &[over_h.qid]).unwrap();
        assert!(h_again[0].stats.cache_misses > 0);
        assert!(h_again[0]
            .entries
            .iter()
            .any(|&(i, j, v)| (i, j, v) == (2, 2, 10.0)));
        assert_eq!(h_again[0].stats.delta_fallbacks, 1, "fallback is counted");
        // Updating an unknown variable or out-of-bounds entry fails.
        assert!(matches!(
            store.update("g", "missing", &[(0, 0, 1.0)]),
            Err(ServerError::UnknownVariable { .. })
        ));
        assert!(store.update("g", "H", &[(9, 9, 1.0)]).is_err());
    }

    #[test]
    fn boolean_inserts_take_the_delta_path() {
        let store = Store::new();
        store
            .create_instance_with("b", true, SemiringKind::Boolean)
            .unwrap();
        store.set_dim("b", "n", 6).unwrap();
        store
            .load_matrix("b", "G", 6, 6, vec![(0, 1, 1.0), (1, 2, 1.0)])
            .unwrap();
        let qid = store.prepare("b", "(G * G)").unwrap().qid;
        store.exec("b", &[qid]).unwrap(); // warm
        let outcome = store.update("b", "G", &[(2, 3, 1.0)]).unwrap();
        assert!(
            matches!(outcome.delta, DeltaWire::Applied { patched } if patched > 0),
            "Boolean edge insert must be patched, got {:?}",
            outcome.delta
        );
        assert_eq!(outcome.invalidated, 0);
        let warm = store.exec("b", &[qid]).unwrap();
        assert_eq!(
            warm[0].stats.cache_misses, 0,
            "delta-maintained root must answer from cache"
        );
        assert!(warm[0].stats.delta_patches > 0);
        // Bit-identical to a cold recompute over the updated matrix.
        store
            .create_instance_with("cold", true, SemiringKind::Boolean)
            .unwrap();
        store.set_dim("cold", "n", 6).unwrap();
        store
            .load_matrix(
                "cold",
                "G",
                6,
                6,
                vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            )
            .unwrap();
        let cold = store.query("cold", "(G * G)").unwrap();
        assert_eq!(warm[0].entries, cold.entries, "delta path diverged");
        // Deleting an edge has no semiring inverse: fallback.
        let outcome = store.update("b", "G", &[(0, 1, 0.0)]).unwrap();
        assert_eq!(
            outcome.delta,
            DeltaWire::Fallback {
                reason: DeltaFallback::NotInsertOnly.code().to_string()
            }
        );
        assert!(outcome.invalidated > 0);
    }

    #[test]
    fn minplus_lowering_patches_and_raising_falls_back() {
        let store = Store::new();
        store
            .create_instance_with("w", false, SemiringKind::MinPlus)
            .unwrap();
        store.set_dim("w", "n", 4).unwrap();
        store
            .load_matrix("w", "G", 4, 4, vec![(0, 1, 5.0), (1, 2, 7.0)])
            .unwrap();
        let qid = store.prepare("w", "(G * G)").unwrap().qid;
        store.exec("w", &[qid]).unwrap(); // warm
                                          // Lowering a weight absorbs under min — patched.
        let lowered = store.update("w", "G", &[(0, 1, 2.0)]).unwrap();
        assert!(matches!(lowered.delta, DeltaWire::Applied { .. }));
        let warm = store.exec("w", &[qid]).unwrap();
        assert_eq!(warm[0].stats.cache_misses, 0);
        // The shortest 0→2 two-hop path now costs 2 + 7 = 9.
        assert!(warm[0].entries.contains(&(0, 2, 9.0)));
        // Raising it back does not absorb — fallback.
        let raised = store.update("w", "G", &[(0, 1, 6.0)]).unwrap();
        assert_eq!(
            raised.delta,
            DeltaWire::Fallback {
                reason: DeltaFallback::NotInsertOnly.code().to_string()
            }
        );
        let recomputed = store.exec("w", &[qid]).unwrap();
        assert!(recomputed[0].stats.cache_misses > 0);
        assert!(recomputed[0].entries.contains(&(0, 2, 13.0)));
    }

    #[test]
    fn failed_update_batch_still_invalidates_applied_entries() {
        let store = seeded_store();
        store
            .load_matrix("g", "H", 4, 4, vec![(0, 0, 1.0)])
            .unwrap();
        let qid = store.prepare("g", "(H + H)").unwrap().qid;
        store.exec("g", &[qid]).unwrap(); // warm
                                          // First entry applies, second is out of bounds: the batch errors,
                                          // but the applied mutation must not leave a stale cache behind.
        assert!(store.update("g", "H", &[(0, 0, 7.0), (9, 9, 1.0)]).is_err());
        let result = store.exec("g", &[qid]).unwrap();
        assert!(
            result[0].stats.cache_misses > 0,
            "cache must drop after a partially-applied UPDATE"
        );
        assert!(result[0]
            .entries
            .iter()
            .any(|&(i, j, v)| (i, j, v) == (0, 0, 14.0)));
    }

    #[test]
    fn dim_changes_clear_the_memo_cache() {
        let store = seeded_store();
        // Σv:n. vᵀ·v counts the iterations — its value IS the dimension.
        let qid = store
            .prepare("g", "(sum v:n . (transpose(v) * v))")
            .unwrap()
            .qid;
        let four = store.exec("g", &[qid]).unwrap();
        assert_eq!(four[0].entries, vec![(0, 0, 4.0)]);
        store.set_dim("g", "n", 8).unwrap();
        let eight = store.exec("g", &[qid]).unwrap();
        assert_eq!(
            eight[0].entries,
            vec![(0, 0, 8.0)],
            "a DIM change must not serve results cached under the old value"
        );
    }

    #[test]
    fn each_instance_plans_from_its_own_statistics() {
        // Two 16 × 16 instances of one schema: a 16-entry ring, for which
        // the masked product `(G · G) ∘ G` is worth fusing, and a full
        // matrix, for which it is not.
        let ring: Vec<(usize, usize, f64)> = (0..16).map(|k| (k, (k + 1) % 16, 1.0)).collect();
        let full: Vec<(usize, usize, f64)> = (0..256).map(|k| (k / 16, k % 16, 1.0)).collect();
        let seed = |store: &Store, name: &str, entries: &[(usize, usize, f64)]| {
            store.create_instance(name, true).unwrap();
            store.set_dim(name, "n", 16).unwrap();
            store
                .load_matrix(name, "G", 16, 16, entries.to_vec())
                .unwrap();
        };
        let query = "((G * G) ** G)";
        let alone = Store::new();
        seed(&alone, "full", &full);
        let planned_alone = alone.prepare("full", query).unwrap();

        let store = Store::new();
        seed(&store, "ring", &ring);
        seed(&store, "full", &full);
        store.prepare("ring", query).unwrap();
        let outcome = store.prepare("full", query).unwrap();
        assert!(!outcome.reused_plan, "another instance's plan was reused");
        assert_eq!(
            outcome.plan_fingerprint, planned_alone.plan_fingerprint,
            "`full` must get the plan it gets in a store of its own"
        );
        let results = store.exec("full", &[outcome.qid]).unwrap();
        assert_eq!(
            results[0].stats.fused_products, 0,
            "a masked sparse product ran over a full matrix"
        );
    }

    #[test]
    fn prepare_reports_the_rewritten_plan_fingerprint() {
        let store = seeded_store();
        let out = store.prepare("g", "(transpose(G) * G)").unwrap();
        assert_ne!(out.plan_fingerprint, 0);
        // Re-preparing the same text reports the same plan variant.
        let again = store.prepare("g", "(transpose(G) * G)").unwrap();
        assert!(again.reused_statement);
        assert_eq!(again.plan_fingerprint, out.plan_fingerprint);
        // Preparing another statement replaces the batch plan: new DAG,
        // new fingerprint.
        let extended = store.prepare("g", "(G + G)").unwrap();
        assert_ne!(extended.plan_fingerprint, out.plan_fingerprint);
        // EXEC echoes the fingerprint of the plan that served the result.
        let served = store.exec("g", &[extended.qid]).unwrap();
        assert_eq!(served[0].fingerprint, extended.plan_fingerprint);
    }

    #[test]
    fn diag_products_run_on_the_fused_kernels() {
        let store = seeded_store();
        store
            .load_matrix("g", "u", 4, 1, vec![(0, 0, 2.0), (2, 0, 3.0)])
            .unwrap();
        let qid = store.prepare("g", "(diag(u) * G)").unwrap().qid;
        let results = store.exec("g", &[qid]).unwrap();
        assert_eq!(results[0].stats.fused_products, 1);
        // diag([2,0,3,0]) · G scales row 0 by 2 and row 2 by 3 of the
        // 4-cycle matrix (0→1 weight 1, 2→3 weight 3).
        assert!(results[0].entries.contains(&(0, 1, 2.0)));
        assert!(results[0].entries.contains(&(2, 3, 9.0)));
        assert_eq!(results[0].entries.len(), 2);
    }

    #[test]
    fn query_is_stateless_and_prepare_rejects_bad_queries() {
        let store = seeded_store();
        let result = store.query("g", "(G + G)").unwrap();
        assert_eq!(result.rows, 4);
        assert!(matches!(
            store.prepare("g", "(G +"),
            Err(ServerError::Parse { .. })
        ));
        assert!(matches!(
            store.prepare("g", "missingvar"),
            Err(ServerError::Type { .. })
        ));
        assert!(
            store.prepare("g", "(G . G)").is_err(),
            "lexical garbage is rejected"
        );
        assert!(store.query("g", "(const 1) )").is_err());
    }

    #[test]
    fn generated_matrices_are_usable() {
        let store = Store::new();
        store.create_instance("r", false).unwrap();
        store.set_dim("r", "n", 32).unwrap();
        let nnz = store
            .generate_matrix(
                "r",
                "G",
                "n",
                GenKind::ErdosRenyi {
                    avg_degree: 3.0,
                    seed: 7,
                },
            )
            .unwrap();
        assert!(nnz > 0);
        let out = store
            .prepare("r", "(transpose(ones(G)) * (G * ones(G)))")
            .unwrap();
        let results = store.exec("r", &[out.qid]).unwrap();
        assert_eq!((results[0].rows, results[0].cols), (1, 1));
        assert!(store
            .generate_matrix(
                "r",
                "G",
                "m",
                GenKind::ErdosRenyi {
                    avg_degree: 1.0,
                    seed: 1
                }
            )
            .is_err());
    }

    #[test]
    fn dimensions_past_the_cap_are_refused_before_allocating() {
        let store = Store::new();
        store.create_instance("g", true).unwrap();
        fn storage_error<T: std::fmt::Debug>(r: Result<T, ServerError>) {
            assert!(matches!(r, Err(ServerError::Storage { .. })), "{r:?}");
        }
        // 2⁴⁰ rows would reserve 8 TiB of CSR row pointers.
        storage_error(store.load_matrix("g", "A", 1 << 40, 1, vec![]));
        storage_error(store.load_matrix("g", "A", 1, MAX_DIMENSION + 1, vec![]));
        assert_eq!(store.load_matrix("g", "A", MAX_DIMENSION, 1, vec![]), Ok(0));
        storage_error(store.set_dim("g", "n", 1 << 40));
        store.set_dim("g", "n", 64).unwrap();
        let er = |avg_degree| GenKind::ErdosRenyi {
            avg_degree,
            seed: 1,
        };
        for degree in [f64::NAN, f64::INFINITY, -1.0, MAX_DIMENSION as f64] {
            storage_error(store.generate_matrix("g", "G", "n", er(degree)));
        }
        assert!(store.generate_matrix("g", "G", "n", er(2.0)).unwrap() > 0);
    }

    #[test]
    fn drift_past_threshold_triggers_a_transparent_replan() {
        // Plan against a nearly-empty G, then fill it: the nnz ratio
        // (64+1)/(4+1) = 13 crosses the default 4× drift threshold, so the
        // next EXEC must transparently re-plan — and stay bit-identical
        // to a local evaluation over the updated instance.
        let store = Store::new();
        store.create_instance("g", true).unwrap();
        store.set_dim("g", "n", 8).unwrap();
        store
            .load_matrix(
                "g",
                "G",
                8,
                8,
                vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)],
            )
            .unwrap();
        let expr = Expr::var("G").mm(Expr::var("G"));
        let qid = store.prepare("g", &expr.to_string()).unwrap().qid;
        store.exec("g", &[qid]).unwrap();

        let mut entries = Vec::new();
        let mut dense = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                let v = (i + j + 1) as f64;
                entries.push((i, j, v));
                dense.set(i, j, Real(v)).unwrap();
            }
        }
        store.update("g", "G", &entries).unwrap();
        let results = store.exec("g", &[qid]).unwrap();

        let stats = store.stats("g").unwrap();
        assert!(
            stats[0].contains("generation=1") && stats[0].contains("replans=1"),
            "the drifted EXEC must have re-planned: {}",
            stats[0]
        );
        let local: Instance<Real> = Instance::new().with_dim("n", 8).with_matrix("G", dense);
        let expected = evaluate(&expr, &local, &FunctionRegistry::standard_field()).unwrap();
        assert_eq!(dense_of(&results[0]), expected, "re-plan changed results");
        // Steady state: no further drift, no further re-plans, warm cache.
        let again = store.exec("g", &[qid]).unwrap();
        assert_eq!(again[0].stats.cache_misses, 0);
        let stats = store.stats("g").unwrap();
        assert!(
            stats[0].contains("replans=1"),
            "spurious re-plan: {}",
            stats[0]
        );
    }

    #[test]
    fn stats_reports_planned_current_and_observed() {
        let store = seeded_store();
        let qid = store.prepare("g", "(transpose(G) * G)").unwrap().qid;
        store.exec("g", &[qid]).unwrap();
        let lines = store.stats("g").unwrap();
        assert!(
            lines[0].starts_with(
                "instance g backend=adaptive semiring=real generation=0 replans=0 drift="
            ),
            "header: {}",
            lines[0]
        );
        assert!(lines[0].contains("threshold="), "header: {}", lines[0]);
        let g_line = lines
            .iter()
            .find(|l| l.starts_with("var G "))
            .unwrap_or_else(|| panic!("no var line for G in {lines:?}"));
        assert!(
            g_line.contains("shape=4x4")
                && g_line.contains("planned_nnz=4")
                && g_line.contains("current_nnz=4")
                && g_line.contains("drift=1.00")
                && g_line.contains("referenced=yes"),
            "var line: {g_line}"
        );
        assert_eq!(
            lines.len(),
            2,
            "a header and one line per variable: {lines:?}"
        );
        assert!(matches!(
            store.stats("missing"),
            Err(ServerError::UnknownInstance { .. })
        ));
    }

    /// Rebuilds the dense matrix a [`WireResult`] denotes.
    pub fn dense_of(result: &WireResult) -> Matrix<Real> {
        let mut m = Matrix::zeros(result.rows, result.cols);
        for &(i, j, v) in &result.entries {
            m.set(i, j, Real(v)).unwrap();
        }
        m
    }
}
