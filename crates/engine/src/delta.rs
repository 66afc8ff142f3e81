//! Delta-driven incremental view maintenance over the plan DAG.
//!
//! The query server's standing queries (reachability, iterated semiring
//! products) are exactly the workloads where a point `UPDATE` should cost
//! microseconds; before this module, any update invalidated every
//! dependent plan node and the next `EXEC` recomputed full products from
//! scratch.  Here an update is instead **propagated**: the changed entries
//! of a variable flow bottom-up through the hash-consed DAG
//! ([`crate::Plan`]) as a sparse delta per node, and each cached value is
//! patched instead of recomputed — the matrix lift of the semi-naive
//! `previous_delta`/`current_delta` Datalog loop, where only the frontier
//! delta multiplies each round.
//!
//! # Exactness
//!
//! Patching is gated so results stay **bit-identical** to full
//! recomputation (the standing parity constraint):
//!
//! * the semiring's `⊕` must be **idempotent** (`a ⊕ a = a`), probed at
//!   runtime by [`join_is_idempotent`] — Boolean and the tropical
//!   min/max-plus semirings qualify, ℝ/ℕ/ℤ do not;
//! * the update must be **insert-only**: every touched entry must satisfy
//!   `old ⊕ new = new` (absorption), so overwriting equals `⊕`-merging.
//!   For Boolean that means edge insertions; for min-plus, weight
//!   *lowerings*.  Deletions have no inverse in a semiring (no
//!   subtraction), so they fall back to invalidation.
//!
//! Under those two conditions the one-sided product rule
//! `Δ(l·r) = Δl·r_new ⊕ l_new·Δr` is exact: the double-counted `Δl·Δr`
//! term collapses under idempotency, and every other operator with a
//! propagation rule ([`crate::PlanOp::supports_delta`]) is linear over
//! `⊕`.  Nodes without a rule (pointwise `apply`, the loop binders) are
//! invalidated — a *partial* fallback recorded in the [`DeltaReport`].
//!
//! # Lazy overlays
//!
//! Patching a multi-million-entry cached product for every point update
//! would cost `O(nnz)` per node per update — as bad as recomputing.
//! Instead each node's pending delta accumulates in a small sparse
//! **overlay** ([`DeltaOverlay`]); the true value of node `i` is
//! `cache[i] ⊕ overlay[i]`.  Per update only the overlay grows (by the
//! few propagated entries); the merge into the big base value is deferred
//! until either the overlay outgrows a fraction of the base (amortized
//! compaction) or an `EXEC` needs the raw cached value
//! ([`DeltaOverlay::flush_for_roots`] folds exactly the requested roots
//! when everything is warm).

use crate::exec::NodeCache;
use crate::plan::{NodeId, Plan, PlanOp};
use matlang_matrix::{MatrixError, MatrixStorage, SparseMatrix};
use matlang_semiring::Semiring;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Runtime probe: is the semiring's `⊕` idempotent (`a ⊕ a = a`) on a
/// spread of sample values?  Modeled on [`crate::constants_fold_exactly`]:
/// the engine is generic over `K`, so eligibility for exact delta
/// maintenance is decided by testing the algebra, not by naming types.
/// `Boolean`, `MinPlus` and `MaxPlus` pass; `Real`, `Nat` and `IntRing`
/// fail on the first sample.
pub fn join_is_idempotent<K: Semiring>() -> bool {
    const SAMPLES: [f64; 7] = [0.0, 1.0, 2.0, -1.5, 0.25, 7.0, 1.0e6];
    SAMPLES.iter().all(|&x| {
        let v = K::from_f64(x);
        v.add(&v) == v
    })
}

/// Whether overwriting `old` with `new` equals `⊕`-merging them — the
/// per-entry insert-only test (`old ⊕ new = new`, absorption).
pub fn absorbs<K: Semiring>(old: &K, new: &K) -> bool {
    old.add(new) == *new
}

/// Why an update (or one node of it) could not take the delta path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaFallback {
    /// `⊕` is not idempotent ([`join_is_idempotent`] failed), so patched
    /// values would double-count overlapping contributions.
    NonIdempotentSemiring,
    /// Some touched entry fails `old ⊕ new = new` (a delete or a
    /// non-absorbing overwrite).
    NotInsertOnly,
    /// No prepared plan exists for the instance, so there is no DAG to
    /// propagate through.
    NoPlan,
    /// The batch failed mid-application; dependents were invalidated to
    /// stay consistent.
    PartialBatch,
}

impl DeltaFallback {
    /// A stable, token-safe (no whitespace) wire code for the reason.
    pub fn code(&self) -> &'static str {
        match self {
            DeltaFallback::NonIdempotentSemiring => "non-idempotent-semiring",
            DeltaFallback::NotInsertOnly => "not-insert-only",
            DeltaFallback::NoPlan => "no-plan",
            DeltaFallback::PartialBatch => "partial-batch",
        }
    }
}

impl std::fmt::Display for DeltaFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// What one [`propagate`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Cached nodes whose pending overlay absorbed a non-empty delta.
    pub patched: u64,
    /// Cached nodes invalidated because no propagation rule applies below
    /// them (partial fallback).
    pub invalidated: u64,
    /// Overlays folded into their base value because they outgrew it.
    pub compacted: u64,
    /// Operation labels ([`PlanOp::label`]) that forced partial fallback,
    /// for diagnostics.
    pub unsupported: BTreeSet<&'static str>,
}

impl DeltaReport {
    /// Merge another pass's counters into this one.
    pub fn absorb(&mut self, other: DeltaReport) {
        self.patched += other.patched;
        self.invalidated += other.invalidated;
        self.compacted += other.compacted;
        self.unsupported.extend(other.unsupported);
    }
}

/// A node's change under one update, as seen by its parents.
enum NodeDelta<K: Semiring> {
    /// Value provably unchanged.
    Clean,
    /// Value changed by exactly this sparse `⊕`-delta.
    Dirty(SparseMatrix<K>),
    /// Change not expressible as a delta; the node (if cached) was
    /// invalidated and parents must follow.
    Unknown,
}

/// Pending per-node sparse overlays on top of a [`NodeCache`].
///
/// Invariant: `pending[i]` is only ever `Some` while `cache[i]` is `Some`
/// — an overlay without a base value is meaningless and is cleared
/// whenever the cache entry drops.
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay<K: Semiring> {
    pending: Vec<Option<SparseMatrix<K>>>,
}

/// Overlays are compacted into their base once `overlay_nnz * 4` exceeds
/// `base_nnz + 64`: the slack keeps tiny bases from compacting on every
/// update, the factor keeps the deferred merge amortized `O(nnz)`.
const COMPACT_FACTOR: usize = 4;
const COMPACT_SLACK: usize = 64;

impl<K: Semiring> DeltaOverlay<K> {
    /// An empty overlay for a plan with `len` nodes.
    pub fn new(len: usize) -> Self {
        DeltaOverlay {
            pending: vec![None; len],
        }
    }

    /// Drops every pending overlay and resizes to `len` (on re-plan).
    pub fn reset(&mut self, len: usize) {
        self.pending.clear();
        self.pending.resize(len, None);
    }

    /// Heap bytes held by the pending overlay patches (CSR accounting per
    /// patch).  O(pending nodes) — each patch reports in O(1).
    pub fn pending_bytes(&self) -> usize {
        self.pending.iter().flatten().map(|p| p.heap_bytes()).sum()
    }

    /// Drops the pending overlay of one node (on invalidation).
    pub fn clear_node(&mut self, id: NodeId) {
        if let Some(slot) = self.pending.get_mut(id) {
            *slot = None;
        }
    }

    fn ensure_len(&mut self, len: usize) {
        if self.pending.len() != len {
            self.reset(len);
        }
    }

    /// The node's current value at `(i, j)`: base `⊕` pending overlay.
    fn value_at<M>(&self, cache: &NodeCache<M>, id: NodeId, i: usize, j: usize) -> Option<K>
    where
        M: MatrixStorage<Elem = K>,
    {
        let base = cache.get(id)?.as_ref()?;
        let v = base.get_entry(i, j).ok()?;
        match self.pending.get(id)?.as_ref() {
            Some(p) => {
                let d = p.get(i, j).ok()?;
                if d.is_zero() {
                    Some(v)
                } else {
                    Some(v.add(&d))
                }
            }
            None => Some(v),
        }
    }

    /// Folds node `id`'s pending overlay into its cached base value.
    /// Returns whether a merge actually happened.  A failed merge (shape
    /// drift — cannot happen on a consistent plan) invalidates the node,
    /// which is always safe.
    pub fn flush_node<M>(&mut self, cache: &mut NodeCache<M>, id: NodeId) -> bool
    where
        M: MatrixStorage<Elem = K>,
    {
        let Some(pending) = self.pending.get_mut(id).and_then(Option::take) else {
            return false;
        };
        let Some(slot) = cache.get_mut(id) else {
            return false;
        };
        let Some(base) = slot.as_ref() else {
            return false;
        };
        match base.apply_delta(&pending) {
            Ok(merged) => {
                *slot = Some(Arc::new(merged));
                true
            }
            Err(_) => {
                *slot = None;
                false
            }
        }
    }

    /// Prepares the cache for executing `roots`: when every requested root
    /// is cached, only those roots' overlays need folding (the executor
    /// short-circuits on a root cache hit and never reads interior nodes);
    /// otherwise the executor may read any cached interior value, so every
    /// pending overlay is folded.  Returns the number of merges.
    pub fn flush_for_roots<M>(&mut self, cache: &mut NodeCache<M>, roots: &[NodeId]) -> u64
    where
        M: MatrixStorage<Elem = K>,
    {
        let all_roots_cached = roots
            .iter()
            .all(|&r| cache.get(r).map(|s| s.is_some()).unwrap_or(false));
        let mut flushed = 0;
        if all_roots_cached {
            for &r in roots {
                if self.flush_node(cache, r) {
                    flushed += 1;
                }
            }
        } else {
            for id in 0..self.pending.len() {
                if self.flush_node(cache, id) {
                    flushed += 1;
                }
            }
        }
        flushed
    }
}

/// Propagates one insert-only update of `var` (its changed entries with
/// their **new** values, zero entries stripped) through the plan DAG,
/// patching cached node values via their overlays and invalidating the
/// cones where no rule applies.
///
/// The caller is responsible for the exactness gate
/// ([`join_is_idempotent`] plus per-entry [`absorbs`]) **and** for having
/// already applied the update to the instance matrix itself — this
/// function only maintains the plan's memo cache.
pub fn propagate<K, M>(
    plan: &Plan,
    cache: &mut NodeCache<M>,
    overlay: &mut DeltaOverlay<K>,
    var: &str,
    update: &SparseMatrix<K>,
) -> DeltaReport
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let n = plan.nodes().len();
    overlay.ensure_len(n);
    let mut report = DeltaReport::default();
    if update.nnz() == 0 {
        return report;
    }
    let _span = matlang_obs::trace::span("delta-propagate");
    let mut deltas: Vec<NodeDelta<K>> = Vec::with_capacity(n);
    let slot = plan.slots.get(var).copied();
    // Topological (children-first) node order: every rule sees its
    // children already patched, so "current value" below always means the
    // post-update value base ⊕ overlay.
    for id in 0..n {
        let node = plan.node(id);
        if !slot.is_some_and(|slot| node.free_vars.binary_search(&slot).is_ok()) {
            deltas.push(NodeDelta::Clean);
            continue;
        }
        if cache.get(id).map(|s| s.is_none()).unwrap_or(true) {
            // Not cached: nothing to patch here, and any cached parent
            // will see `Unknown` and invalidate itself — which cannot
            // happen on a consistently maintained cache, where a cached
            // parent implies cached children.
            deltas.push(NodeDelta::Unknown);
            continue;
        }
        let computed = node_delta(plan, cache, overlay, &deltas, id, update);
        let outcome = match computed {
            NodeDelta::Dirty(d) if d.nnz() == 0 => NodeDelta::Clean,
            other => other,
        };
        match outcome {
            NodeDelta::Clean => deltas.push(NodeDelta::Clean),
            NodeDelta::Unknown => {
                if let Some(slot) = cache.get_mut(id) {
                    if slot.take().is_some() {
                        report.invalidated += 1;
                    }
                }
                overlay.clear_node(id);
                if !node.op.supports_delta() {
                    report.unsupported.insert(node.op.label());
                }
                deltas.push(NodeDelta::Unknown);
            }
            NodeDelta::Dirty(d) => {
                let merged = match overlay.pending[id].take() {
                    Some(prev) => prev.add(&d),
                    None => Ok(d.clone()),
                };
                match merged {
                    Ok(pending) => {
                        report.patched += 1;
                        let base_nnz = cache[id].as_ref().map(|b| b.nnz()).unwrap_or(0);
                        if pending.nnz() * COMPACT_FACTOR > base_nnz + COMPACT_SLACK {
                            overlay.pending[id] = Some(pending);
                            if overlay.flush_node(cache, id) {
                                report.compacted += 1;
                            }
                        } else {
                            overlay.pending[id] = Some(pending);
                        }
                        deltas.push(NodeDelta::Dirty(d));
                    }
                    Err(_) => {
                        // Shape drift between overlay generations — cannot
                        // happen on one plan, but invalidating is safe.
                        cache[id] = None;
                        overlay.clear_node(id);
                        report.invalidated += 1;
                        deltas.push(NodeDelta::Unknown);
                    }
                }
            }
        }
    }
    report
}

/// The per-operator propagation rules.  `id` is cached and depends on the
/// updated variable; children were processed first.
fn node_delta<K, M>(
    plan: &Plan,
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    deltas: &[NodeDelta<K>],
    id: NodeId,
    update: &SparseMatrix<K>,
) -> NodeDelta<K>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let node = plan.node(id);
    let child = |c: NodeId| &deltas[c];
    match &node.op {
        PlanOp::Var(..) => NodeDelta::Dirty(update.clone()),
        // `1(e)` depends only on the child's row count, which an entry
        // update never changes.
        PlanOp::Ones(_) => NodeDelta::Clean,
        PlanOp::Transpose(a) => match child(*a) {
            NodeDelta::Clean => NodeDelta::Clean,
            NodeDelta::Dirty(d) => NodeDelta::Dirty(d.transpose()),
            NodeDelta::Unknown => NodeDelta::Unknown,
        },
        PlanOp::Diag(a) => match child(*a) {
            NodeDelta::Clean => NodeDelta::Clean,
            NodeDelta::Dirty(d) => match d.diag() {
                Ok(d) => NodeDelta::Dirty(d),
                Err(_) => NodeDelta::Unknown,
            },
            NodeDelta::Unknown => NodeDelta::Unknown,
        },
        PlanOp::Add(a, b) => match (child(*a), child(*b)) {
            (NodeDelta::Unknown, _) | (_, NodeDelta::Unknown) => NodeDelta::Unknown,
            (NodeDelta::Clean, NodeDelta::Clean) => NodeDelta::Clean,
            (NodeDelta::Dirty(d), NodeDelta::Clean) | (NodeDelta::Clean, NodeDelta::Dirty(d)) => {
                NodeDelta::Dirty(d.clone())
            }
            (NodeDelta::Dirty(dl), NodeDelta::Dirty(dr)) => match dl.add(dr) {
                Ok(d) => NodeDelta::Dirty(d),
                Err(_) => NodeDelta::Unknown,
            },
        },
        PlanOp::MatMul(a, b) => matmul_delta(cache, overlay, deltas, *a, *b),
        PlanOp::Hadamard(a, b) => hadamard_delta(cache, overlay, deltas, *a, *b),
        PlanOp::MaskedMatMul {
            left, right, mask, ..
        } => masked_delta(cache, overlay, deltas, (*left, *right), *mask),
        PlanOp::ScalarMul(s, e) => {
            if !matches!(child(*s), NodeDelta::Clean) {
                // The scalar operand changed: every entry of the result
                // changes, which is not a sparse delta worth building.
                return NodeDelta::Unknown;
            }
            match child(*e) {
                NodeDelta::Clean => NodeDelta::Clean,
                NodeDelta::Unknown => NodeDelta::Unknown,
                NodeDelta::Dirty(d) => match overlay.value_at(cache, *s, 0, 0) {
                    Some(scalar) => NodeDelta::Dirty(d.scalar_mul(&scalar)),
                    None => NodeDelta::Unknown,
                },
            }
        }
        // `scale_rows(mat, vec) = diag(vec) · mat`:
        // Δ = diag(Δvec)·mat_new ⊕ diag(vec_new)·Δmat, the second term
        // computed entrywise (`vec_new[i] ⊗ Δmat[i,j]`, the kernel's
        // multiplication order).
        PlanOp::ScaleRows { vec, mat } => scaling_delta(cache, overlay, deltas, *vec, *mat, true),
        // `scale_cols(mat, vec) = mat · diag(vec)`; the entrywise term is
        // `Δmat[i,j] ⊗ vec_new[j]`.
        PlanOp::ScaleCols { mat, vec } => scaling_delta(cache, overlay, deltas, *vec, *mat, false),
        PlanOp::Const(_)
        | PlanOp::Apply(_, _)
        | PlanOp::Let { .. }
        | PlanOp::For { .. }
        | PlanOp::Sum { .. }
        | PlanOp::HProd { .. }
        | PlanOp::MProd { .. }
        | PlanOp::Select { .. }
        | PlanOp::Place { .. }
        | PlanOp::PointUpdate { .. } => NodeDelta::Unknown,
    }
}

/// `Δ(l·r) = Δl·r_new ⊕ l_new·Δr`, with each side expanded distributively
/// over `base ⊕ overlay` so only sparse-delta kernels run:
/// `Δl·r_new = Δl·r_base ⊕ Δl·r_ov` and `l_new·Δr = l_base·Δr ⊕ l_ov·Δr`.
fn matmul_delta<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    deltas: &[NodeDelta<K>],
    a: NodeId,
    b: NodeId,
) -> NodeDelta<K>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let (dl, dr) = (&deltas[a], &deltas[b]);
    if matches!(dl, NodeDelta::Unknown) || matches!(dr, NodeDelta::Unknown) {
        return NodeDelta::Unknown;
    }
    if matches!(dl, NodeDelta::Clean) && matches!(dr, NodeDelta::Clean) {
        return NodeDelta::Clean;
    }
    let terms = || -> Result<Option<SparseMatrix<K>>, MatrixError> {
        let mut acc: Option<SparseMatrix<K>> = None;
        let mut fold = |t: SparseMatrix<K>| -> Result<(), MatrixError> {
            acc = Some(match acc.take() {
                Some(prev) => prev.add(&t)?,
                None => t,
            });
            Ok(())
        };
        if let NodeDelta::Dirty(d) = dl {
            fold(delta_times_node(cache, overlay, d, b)?)?;
        }
        if let NodeDelta::Dirty(d) = dr {
            let l_base = cache[a].as_ref().ok_or(MatrixError::BadConstruction {
                message: "uncached product operand".into(),
            })?;
            fold(l_base.matmul_delta_post(d)?)?;
            if let Some(l_ov) = overlay.pending[a].as_ref() {
                fold(l_ov.matmul(d)?)?;
            }
        }
        Ok(acc)
    };
    match terms() {
        Ok(Some(d)) => NodeDelta::Dirty(d),
        Ok(None) => NodeDelta::Clean,
        Err(_) => NodeDelta::Unknown,
    }
}

/// `d · x_new` for a sparse `d` and the cached node `x`, expanded over
/// `x`'s base ⊕ overlay so only sparse-delta kernels run.
fn delta_times_node<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    d: &SparseMatrix<K>,
    x: NodeId,
) -> Result<SparseMatrix<K>, MatrixError>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let base = cache[x].as_ref().ok_or(MatrixError::BadConstruction {
        message: "uncached product operand".into(),
    })?;
    let product = base.matmul_delta_pre(d)?;
    match overlay.pending[x].as_ref() {
        Some(ov) => product.add(&d.matmul(ov)?),
        None => Ok(product),
    }
}

/// `d ∘ x_new` (`x_new ∘ d` with `node_on_left`, the kernel's `⊗` order)
/// for a sparse `d` and the cached node `x`, whose value is only read at
/// `d`'s support via [`DeltaOverlay::value_at`].
fn delta_hadamard_node<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    d: &SparseMatrix<K>,
    x: NodeId,
    node_on_left: bool,
) -> Option<SparseMatrix<K>>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let mut triplets = Vec::with_capacity(d.nnz());
    for (i, j, v) in d.iter_entries() {
        let other = overlay.value_at(cache, x, i, j)?;
        let term = if node_on_left {
            other.mul(v)
        } else {
            v.mul(&other)
        };
        if !term.is_zero() {
            triplets.push((i, j, term));
        }
    }
    SparseMatrix::from_triplets(d.rows(), d.cols(), triplets).ok()
}

/// `Δ((l·r)∘m) = Δ(l·r)∘m_new ⊕ (l_new·r_new)∘Δm` for the fused masked
/// product, whose product operand has no cached value to read.  The first
/// term is [`matmul_delta`]'s, read against the mask's current value at its
/// own support.  The second needs the product only in the rows `Δm`
/// touches: a 0/1 row selector `S` gives `S·l_new`, those rows of `l_new`,
/// and `(S·l_new)·r_new` is those rows of the product — two sparse-delta
/// products on any backend, never a full one.  Both terms multiply
/// product ⊗ mask as the kernel does, whichever side of the `∘` the mask
/// was written on.
fn masked_delta<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    deltas: &[NodeDelta<K>],
    (left, right): (NodeId, NodeId),
    mask: NodeId,
) -> NodeDelta<K>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let dp = matmul_delta(cache, overlay, deltas, left, right);
    let dm = &deltas[mask];
    if matches!(dp, NodeDelta::Unknown) || matches!(dm, NodeDelta::Unknown) {
        return NodeDelta::Unknown;
    }
    let terms = || -> Option<Option<SparseMatrix<K>>> {
        let through_product = match &dp {
            NodeDelta::Dirty(d) => Some(delta_hadamard_node(cache, overlay, d, mask, false)?),
            _ => None,
        };
        let through_mask = match dm {
            NodeDelta::Dirty(d) => {
                let mut touched: Vec<usize> = d.iter_entries().map(|(i, _, _)| i).collect();
                touched.dedup();
                let selector = SparseMatrix::from_triplets(
                    d.rows(),
                    d.rows(),
                    touched.into_iter().map(|i| (i, i, K::one())).collect(),
                )
                .ok()?;
                let l_rows = delta_times_node(cache, overlay, &selector, left).ok()?;
                let p_rows = delta_times_node(cache, overlay, &l_rows, right).ok()?;
                Some(p_rows.hadamard(d).ok()?)
            }
            _ => None,
        };
        Some(match (through_product, through_mask) {
            (Some(a), Some(b)) => Some(a.add(&b).ok()?),
            (a, b) => a.or(b),
        })
    };
    match terms() {
        Some(Some(d)) => NodeDelta::Dirty(d),
        Some(None) => NodeDelta::Clean,
        None => NodeDelta::Unknown,
    }
}

/// `Δ(l∘r) = Δl∘r_new ⊕ l_new∘Δr`, evaluated entrywise at the deltas'
/// support via [`DeltaOverlay::value_at`] (the other side's value is only
/// needed at those few positions).
fn hadamard_delta<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    deltas: &[NodeDelta<K>],
    a: NodeId,
    b: NodeId,
) -> NodeDelta<K>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let (dl, dr) = (&deltas[a], &deltas[b]);
    if matches!(dl, NodeDelta::Unknown) || matches!(dr, NodeDelta::Unknown) {
        return NodeDelta::Unknown;
    }
    if matches!(dl, NodeDelta::Clean) && matches!(dr, NodeDelta::Clean) {
        return NodeDelta::Clean;
    }
    let terms = || -> Option<SparseMatrix<K>> {
        let mut acc: Option<SparseMatrix<K>> = None;
        let mut fold = |t: SparseMatrix<K>| -> Option<()> {
            acc = Some(match acc.take() {
                Some(prev) => prev.add(&t).ok()?,
                None => t,
            });
            Some(())
        };
        if let NodeDelta::Dirty(d) = dl {
            fold(delta_hadamard_node(cache, overlay, d, b, false)?)?;
        }
        if let NodeDelta::Dirty(d) = dr {
            fold(delta_hadamard_node(cache, overlay, d, a, true)?)?;
        }
        acc
    };
    match terms() {
        Some(d) => NodeDelta::Dirty(d),
        None => NodeDelta::Unknown,
    }
}

/// Shared rule for the fused scaling kernels.  With `row_scaling` the node
/// is `diag(vec)·mat`, otherwise `mat·diag(vec)`.
fn scaling_delta<K, M>(
    cache: &NodeCache<M>,
    overlay: &DeltaOverlay<K>,
    deltas: &[NodeDelta<K>],
    vec: NodeId,
    mat: NodeId,
    row_scaling: bool,
) -> NodeDelta<K>
where
    K: Semiring,
    M: MatrixStorage<Elem = K>,
{
    let (dv, dm) = (&deltas[vec], &deltas[mat]);
    if matches!(dv, NodeDelta::Unknown) || matches!(dm, NodeDelta::Unknown) {
        return NodeDelta::Unknown;
    }
    if matches!(dv, NodeDelta::Clean) && matches!(dm, NodeDelta::Clean) {
        return NodeDelta::Clean;
    }
    let terms = || -> Option<SparseMatrix<K>> {
        let mut acc: Option<SparseMatrix<K>> = None;
        let mut fold = |t: SparseMatrix<K>| -> Option<()> {
            acc = Some(match acc.take() {
                Some(prev) => prev.add(&t).ok()?,
                None => t,
            });
            Some(())
        };
        if let NodeDelta::Dirty(d) = dv {
            // diag(Δvec)·mat_new (resp. mat_new·diag(Δvec)): expand over
            // mat's base ⊕ overlay with the sparse-delta product kernels.
            let ddiag = d.diag().ok()?;
            let m_base = cache[mat].as_ref()?;
            if row_scaling {
                fold(m_base.matmul_delta_pre(&ddiag).ok()?)?;
                if let Some(m_ov) = overlay.pending[mat].as_ref() {
                    fold(ddiag.matmul(m_ov).ok()?)?;
                }
            } else {
                fold(m_base.matmul_delta_post(&ddiag).ok()?)?;
                if let Some(m_ov) = overlay.pending[mat].as_ref() {
                    fold(m_ov.matmul(&ddiag).ok()?)?;
                }
            }
        }
        if let NodeDelta::Dirty(d) = dm {
            // vec_new[i] ⊗ Δmat[i,j] (resp. Δmat[i,j] ⊗ vec_new[j]): the
            // scaling factor looked up entrywise at the delta's support.
            let mut triplets = Vec::with_capacity(d.nnz());
            for (i, j, v) in d.iter_entries() {
                let scale_idx = if row_scaling { i } else { j };
                let s = overlay.value_at(cache, vec, scale_idx, 0)?;
                let term = if row_scaling { s.mul(v) } else { v.mul(&s) };
                if !term.is_zero() {
                    triplets.push((i, j, term));
                }
            }
            fold(SparseMatrix::from_triplets(d.rows(), d.cols(), triplets).ok()?)?;
        }
        acc
    };
    match terms() {
        Some(d) => NodeDelta::Dirty(d),
        None => NodeDelta::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use matlang_core::{Expr, FunctionRegistry, Instance};
    use matlang_matrix::{Matrix, MatrixRepr};
    use matlang_semiring::{Boolean, IntRing, MaxPlus, MinPlus, Nat, Real};

    #[test]
    fn idempotency_probe_matches_the_algebra() {
        assert!(join_is_idempotent::<Boolean>());
        assert!(join_is_idempotent::<MinPlus>());
        assert!(join_is_idempotent::<MaxPlus>());
        assert!(!join_is_idempotent::<Real>());
        assert!(!join_is_idempotent::<Nat>());
        assert!(!join_is_idempotent::<IntRing>());
    }

    #[test]
    fn absorption_is_the_insert_only_test() {
        assert!(absorbs(&Boolean(false), &Boolean(true)));
        assert!(!absorbs(&Boolean(true), &Boolean(false)));
        // Min-plus: lowering a weight absorbs, raising it does not.
        assert!(absorbs(&MinPlus(5.0), &MinPlus(3.0)));
        assert!(!absorbs(&MinPlus(3.0), &MinPlus(5.0)));
        assert!(absorbs(&MinPlus::infinity(), &MinPlus(2.0)));
    }

    #[test]
    fn fallback_codes_are_single_tokens() {
        for fb in [
            DeltaFallback::NonIdempotentSemiring,
            DeltaFallback::NotInsertOnly,
            DeltaFallback::NoPlan,
            DeltaFallback::PartialBatch,
        ] {
            assert!(!fb.code().contains(char::is_whitespace));
            assert_eq!(fb.to_string(), fb.code());
        }
    }

    /// End-to-end over a DAG with product, transpose, add and ones nodes:
    /// warm the cache, mutate the instance, propagate, flush, and compare
    /// every root against a cold recompute on the mutated instance.
    #[test]
    fn propagated_boolean_update_is_bit_identical_to_recompute() {
        let n = 12;
        let expr = Expr::var("G")
            .mm(Expr::var("G"))
            .add(Expr::var("G").t())
            .mm(Expr::var("G").ones());
        let registry = FunctionRegistry::<Boolean>::new();
        let mut dense = Matrix::<Boolean>::zeros(n, n);
        for k in 0..n {
            dense.set(k, (k + 1) % n, Boolean(true)).unwrap();
        }
        let mut inst: Instance<Boolean, MatrixRepr<Boolean>> = Instance::new()
            .with_dim("n", n)
            .with_matrix("G", MatrixRepr::from_dense_auto(dense));

        let engine = Engine::new();
        let mut plan = engine.plan(std::slice::from_ref(&expr), &inst);
        plan.mark_all_cacheable();
        let mut exec = crate::Executor::new(&plan, &inst, &registry, engine.exec_options);
        exec.run(plan.roots()[0]).unwrap();
        let mut cache = exec.into_cache();
        let mut overlay = DeltaOverlay::new(plan.nodes().len());

        // Three updates in sequence, so overlays accumulate across rounds.
        let updates = [(3usize, 7usize), (7, 2), (0, 5)];
        for &(i, j) in &updates {
            {
                let g = inst.matrix_mut("G").unwrap();
                g.set_entry(i, j, Boolean(true)).unwrap();
            }
            let delta = SparseMatrix::from_triplets(n, n, vec![(i, j, Boolean(true))]).unwrap();
            let report = propagate(&plan, &mut cache, &mut overlay, "G", &delta);
            assert_eq!(report.invalidated, 0, "every op here has a rule");
            assert!(report.patched > 0);

            overlay.flush_for_roots(&mut cache, plan.roots());
            let mut warm =
                crate::Executor::with_cache(&plan, &inst, &registry, engine.exec_options, cache);
            let patched = warm.run_shared(plan.roots()[0]).unwrap();
            assert_eq!(warm.stats().cache_misses, 0, "root must be served warm");
            cache = warm.into_cache();

            let cold = engine.evaluate(&expr, &inst, &registry).unwrap();
            assert_eq!(patched.to_dense(), cold.to_dense(), "delta path diverged");
        }
    }

    /// The fused masked product has no cached product to read: inserts into
    /// `G` reach the triangle query `(G·G)∘G` (and its commuted form)
    /// through the product's delta *and* through the mask's, over several
    /// rounds so both operands and the mask carry pending overlays.
    #[test]
    fn masked_product_inserts_are_bit_identical_to_recompute() {
        fn check<K: Semiring>(expr: &Expr, weight: impl Fn(usize) -> K) {
            let n = 12;
            let registry = FunctionRegistry::<K>::new();
            let mut ring = Matrix::<K>::zeros(n, n);
            for k in 0..n {
                ring.set(k, (k + 1) % n, weight(k)).unwrap();
            }
            let mut inst: Instance<K, MatrixRepr<K>> = Instance::new()
                .with_dim("n", n)
                .with_matrix("G", MatrixRepr::from_dense_auto(ring));
            let engine = Engine::new();
            let mut plan = engine.plan(std::slice::from_ref(expr), &inst);
            assert_eq!(plan.report.fused_products, 1, "{}", plan.report);
            plan.mark_all_cacheable();
            let root = plan.roots()[0];
            let mut exec = crate::Executor::new(&plan, &inst, &registry, engine.exec_options);
            exec.run(root).unwrap();
            let mut cache = exec.into_cache();
            let mut overlay = DeltaOverlay::new(plan.nodes().len());

            // Chords that close triangles over the ring and over each other.
            for (step, (i, j)) in [(2, 0), (0, 2), (5, 3), (4, 6), (6, 4), (3, 1), (1, 5)]
                .into_iter()
                .enumerate()
            {
                let w = weight(n + step);
                let g = inst.matrix_mut("G").unwrap();
                g.set_entry(i, j, w.clone()).unwrap();
                let delta = SparseMatrix::from_triplets(n, n, vec![(i, j, w)]).unwrap();
                let report = propagate(&plan, &mut cache, &mut overlay, "G", &delta);
                assert_eq!(report.invalidated, 0, "the masked product has a rule");
                assert!(report.unsupported.is_empty());

                overlay.flush_for_roots(&mut cache, plan.roots());
                let mut warm = crate::Executor::with_cache(
                    &plan,
                    &inst,
                    &registry,
                    engine.exec_options,
                    cache,
                );
                let patched = warm.run_shared(root).unwrap();
                assert_eq!(warm.stats().cache_misses, 0, "root must be served warm");
                cache = warm.into_cache();
                let cold = matlang_core::evaluate(expr, &inst, &registry).unwrap();
                assert_eq!(patched.to_dense(), cold.to_dense(), "step {step}: {expr}");
            }
        }
        let g = || Expr::var("G");
        for expr in [g().mm(g()).had(g()), g().had(g().mm(g()))] {
            check(&expr, |_| Boolean(true));
            check(&expr, |k| MinPlus(1.0 + (k * 7 % 5) as f64));
            check(&expr, |k| MaxPlus(1.0 + (k * 7 % 5) as f64));
        }
    }

    /// A plan with an unsupported node (pointwise apply) invalidates the
    /// cone above the update but leaves independent nodes cached.
    #[test]
    fn unsupported_ops_invalidate_partially() {
        let expr = Expr::apply("f", vec![Expr::var("G").mm(Expr::var("G"))]);
        let mut registry = FunctionRegistry::<Boolean>::new();
        registry.register("f", |vs: &[Boolean]| vs[0]);
        let mut inst: Instance<Boolean, MatrixRepr<Boolean>> = Instance::new()
            .with_dim("n", 4)
            .with_matrix("G", MatrixRepr::from_dense_auto(Matrix::identity(4)));
        let engine = Engine::new();
        let mut plan = engine.plan(std::slice::from_ref(&expr), &inst);
        plan.mark_all_cacheable();
        let mut exec = crate::Executor::new(&plan, &inst, &registry, engine.exec_options);
        exec.run(plan.roots()[0]).unwrap();
        let mut cache = exec.into_cache();
        let mut overlay = DeltaOverlay::new(plan.nodes().len());

        inst.matrix_mut("G")
            .unwrap()
            .set_entry(0, 1, Boolean(true))
            .unwrap();
        let delta = SparseMatrix::from_triplets(4, 4, vec![(0, 1, Boolean(true))]).unwrap();
        let report = propagate(&plan, &mut cache, &mut overlay, "G", &delta);
        assert!(report.invalidated >= 1, "apply node must drop");
        assert!(report.unsupported.contains("apply"));
        assert!(report.patched >= 1, "the product below apply is patched");

        // Re-execution over the half-patched cache still matches cold.
        overlay.flush_for_roots(&mut cache, plan.roots());
        let mut warm =
            crate::Executor::with_cache(&plan, &inst, &registry, engine.exec_options, cache);
        let patched = warm.run_shared(plan.roots()[0]).unwrap();
        let cold = engine.evaluate(&expr, &inst, &registry).unwrap();
        assert_eq!(patched.to_dense(), cold.to_dense());
    }

    #[test]
    fn empty_update_is_a_no_op() {
        let expr = Expr::var("G").mm(Expr::var("G"));
        let registry = FunctionRegistry::<Boolean>::new();
        let inst: Instance<Boolean, MatrixRepr<Boolean>> = Instance::new()
            .with_dim("n", 3)
            .with_matrix("G", MatrixRepr::from_dense_auto(Matrix::identity(3)));
        let engine = Engine::new();
        let mut plan = engine.plan(std::slice::from_ref(&expr), &inst);
        plan.mark_all_cacheable();
        let mut exec = crate::Executor::new(&plan, &inst, &registry, engine.exec_options);
        exec.run(plan.roots()[0]).unwrap();
        let mut cache = exec.into_cache();
        let mut overlay = DeltaOverlay::new(plan.nodes().len());
        let delta = SparseMatrix::zeros(3, 3);
        let report = propagate(&plan, &mut cache, &mut overlay, "G", &delta);
        assert_eq!(report, DeltaReport::default());
        assert_eq!(overlay.pending_bytes(), 0);
    }

    /// Repeated updates trigger overlay compaction once the pending delta
    /// outgrows the base, and the compacted value stays exact.
    #[test]
    fn overlays_compact_and_stay_exact() {
        let n = 6;
        let expr = Expr::var("G").mm(Expr::var("G"));
        let registry = FunctionRegistry::<MinPlus>::new();
        // All-∞ (the min-plus zero): every update below is a first insert,
        // so absorption holds trivially and overlays keep growing.
        let dense = Matrix::<MinPlus>::zeros(n, n);
        let mut inst: Instance<MinPlus, MatrixRepr<MinPlus>> = Instance::new()
            .with_dim("n", n)
            .with_matrix("G", MatrixRepr::from_dense_auto(dense));
        let engine = Engine::new();
        let mut plan = engine.plan(std::slice::from_ref(&expr), &inst);
        plan.mark_all_cacheable();
        let mut exec = crate::Executor::new(&plan, &inst, &registry, engine.exec_options);
        exec.run(plan.roots()[0]).unwrap();
        let mut cache = exec.into_cache();
        let mut overlay = DeltaOverlay::new(plan.nodes().len());

        let mut total = DeltaReport::default();
        for step in 0..n * n {
            let (i, j) = (step / n, step % n);
            let w = MinPlus(1.0 + step as f64);
            {
                let g = inst.matrix_mut("G").unwrap();
                let old = g.get_entry(i, j).unwrap();
                assert!(absorbs(&old, &w), "weight lowering only");
                g.set_entry(i, j, w).unwrap();
            }
            let delta = SparseMatrix::from_triplets(n, n, vec![(i, j, w)]).unwrap();
            total.absorb(propagate(&plan, &mut cache, &mut overlay, "G", &delta));
        }
        assert!(total.compacted > 0, "dense-ified G must compact overlays");
        overlay.flush_for_roots(&mut cache, plan.roots());
        let mut warm =
            crate::Executor::with_cache(&plan, &inst, &registry, engine.exec_options, cache);
        let patched = warm.run_shared(plan.roots()[0]).unwrap();
        let cold = engine.evaluate(&expr, &inst, &registry).unwrap();
        assert_eq!(patched.to_dense(), cold.to_dense());
    }
}
