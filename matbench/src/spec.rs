//! The workloads: what each loads, what one timed operation sends, and what
//! every reply must look like.  Everything the server receives is generated
//! here from the workload seed; the program under test never sees the seed.

use matlang::algorithms::{csanky, graphs, lu};

/// `1ᵀ·(((G·G)·(G·G))·1)`: the canonical standing query.  The rewriter
/// reassociates it into four mat-vecs, so a cold evaluation is cheap and a
/// warm one is a root cache hit.
pub const CHAIN: &str = "(transpose(ones(G)) * (((G * G) * (G * G)) * ones(G)))";
/// `G·G`: about 62 k entries at n = 1 000, degree 8 — a reply of ≈ 0.8 MB.
pub const SQUARE: &str = "(G * G)";
/// `1ᵀ·((G·G)·1)`: the number of two-hop paths (Boolean: is there one).
pub const TWO_HOP: &str = "(transpose(ones(G)) * ((G * G) * ones(G)))";
/// `1ᵀ·(G·1)`: the number of edges (Boolean: is there one).
pub const EDGES: &str = "(transpose(ones(G)) * (G * ones(G)))";
/// `1ᵀ·(((G·G)∘G)·1)`: the triangle count; its SpMM and Hadamard product
/// cannot be rewritten away.
pub const TRIANGLES: &str = "(transpose(ones(G)) * (((G * G) ** G) * ones(G)))";

/// Name of the one instance and of its one matrix variable and size symbol.
pub const INSTANCE: &str = "g";
pub const VAR: &str = "G";
pub const SYM: &str = "n";

/// WAL size past which the durable workload compacts.  A single-edge record
/// frames to 57 bytes, so a cycle is ≈ 575 updates and a two-second round
/// completes several.
pub const WAL_COMPACT: u64 = 32 * 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ring {
    Real,
    Bool,
}

/// How the instance matrix is made.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// `GEN … er <degree> <seed>`: Erdős–Rényi, generated by the server.
    ErdosRenyi { degree: f64 },
    /// `LOAD` of a dense diagonally dominated matrix generated here.
    DiagDominant,
}

/// One request of an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `EXEC g <qid>` of a prepared query.
    Exec(usize),
    /// `QUERY g <text>` of the workload's `oneshot[idx]`.
    Query(usize),
    /// `UPDATE g G <i> <j> 1`: a single-edge insert.
    Update(usize, usize),
}

/// What the reply to an `EXEC` must say about the memo cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Misses {
    Zero,
    Positive,
    Any,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delta {
    Applied,
    Fallback,
}

/// The heavy kernel calls a cold evaluation of the workload's query makes,
/// which the traced run replays directly against `MatrixStorage`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernels {
    /// Warm or small: no kernel worth timing on its own.
    None,
    /// `TRIANGLES`: one SpMM, one Hadamard product, one mat-vec.
    Triangles,
    /// `CHAIN` after the rewriter: four mat-vecs.
    ChainMatvecs,
}

/// The request pattern of one timed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Exec,
    /// Every one-shot text once, in order.
    QueryAll,
    Update,
    /// One `UPDATE`, then `execs` × `EXEC 0`.
    UpdateThenExec {
        execs: usize,
    },
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ring: Ring,
    pub n: usize,
    pub source: Source,
    /// Standing queries, `PREPARE`d in this order (qid = index).
    pub prepared: &'static [&'static str],
    /// One-shot query texts; `None` means the four paper algorithms.
    pub oneshot: Option<&'static [&'static str]>,
    pub op: Op,
    pub durable: bool,
    pub misses: Misses,
    pub delta: Delta,
    pub kernels: Kernels,
    /// Operations in the traced run (fixed, so its counts repeat exactly).
    pub traced_ops: usize,
}

pub static WORKLOADS: &[Workload] = &[
    Workload {
        name: "warm_point",
        why: "warm scalar EXEC: wire, session and store fixed cost over the TCP floor; engine and kernels idle",
        ring: Ring::Real,
        n: 1000,
        source: Source::ErdosRenyi { degree: 8.0 },
        prepared: &[CHAIN],
        oneshot: Some(&[]),
        op: Op::Exec,
        durable: false,
        misses: Misses::Zero,
        delta: Delta::Applied,
        kernels: Kernels::None,
        traced_ops: 4000,
    },
    Workload {
        name: "warm_stream",
        why: "warm EXEC of a 62k-entry reply: encode, flush, socket and decode dominate; engine idle",
        ring: Ring::Real,
        n: 1000,
        source: Source::ErdosRenyi { degree: 8.0 },
        prepared: &[SQUARE],
        oneshot: Some(&[]),
        op: Op::Exec,
        durable: false,
        misses: Misses::Zero,
        delta: Delta::Applied,
        kernels: Kernels::None,
        traced_ops: 20,
    },
    Workload {
        name: "oneshot_chain",
        why: "one-shot QUERY: parse, typecheck, rewrite, plan and execute per request; bypasses every cross-request cache",
        ring: Ring::Real,
        n: 1000,
        source: Source::ErdosRenyi { degree: 8.0 },
        prepared: &[],
        oneshot: Some(&[CHAIN]),
        op: Op::QueryAll,
        durable: false,
        misses: Misses::Any,
        delta: Delta::Applied,
        kernels: Kernels::ChainMatvecs,
        traced_ops: 1000,
    },
    Workload {
        name: "paper_loops",
        why: "the paper's for/sum loops bounded by the dimension (n=12): loop executor and small-matrix overhead; replies under 8 KiB",
        ring: Ring::Real,
        n: 12,
        source: Source::DiagDominant,
        prepared: &[],
        oneshot: None,
        op: Op::QueryAll,
        durable: false,
        misses: Misses::Any,
        delta: Delta::Applied,
        kernels: Kernels::None,
        traced_ops: 20,
    },
    Workload {
        name: "delta_update",
        why: "pure stream of single-edge Boolean inserts at n=10000: delta propagation and set_entry; no reads, no persistence",
        ring: Ring::Bool,
        n: 10_000,
        source: Source::ErdosRenyi { degree: 4.0 },
        prepared: &[TWO_HOP, EDGES],
        oneshot: Some(&[]),
        op: Op::Update,
        durable: false,
        misses: Misses::Any,
        delta: Delta::Applied,
        kernels: Kernels::None,
        traced_ops: 400,
    },
    Workload {
        name: "mixed_rw",
        why: "one UPDATE then four EXECs: the read after a write pays the overlay flush, so deferring update work shows here",
        ring: Ring::Bool,
        n: 10_000,
        source: Source::ErdosRenyi { degree: 4.0 },
        prepared: &[TWO_HOP, EDGES],
        oneshot: Some(&[]),
        op: Op::UpdateThenExec { execs: 4 },
        durable: false,
        misses: Misses::Any,
        delta: Delta::Applied,
        kernels: Kernels::None,
        traced_ops: 400,
    },
    Workload {
        name: "durable_update",
        why: "delta_update with PERSIST on: adds the WAL frame, fsync and compaction; the only workload where persist works",
        ring: Ring::Bool,
        n: 10_000,
        source: Source::ErdosRenyi { degree: 4.0 },
        prepared: &[TWO_HOP, EDGES],
        oneshot: Some(&[]),
        op: Op::Update,
        durable: true,
        misses: Misses::Any,
        delta: Delta::Applied,
        kernels: Kernels::None,
        // Two compaction cycles (57-byte frames against WAL_COMPACT).
        traced_ops: 1200,
    },
    Workload {
        name: "recompute_kernels",
        why: "Real UPDATE falls back to invalidation, EXEC recomputes SpMM + Hadamard at n=2000: matrix kernels dominate",
        ring: Ring::Real,
        n: 2000,
        source: Source::ErdosRenyi { degree: 8.0 },
        prepared: &[TRIANGLES],
        oneshot: Some(&[]),
        op: Op::UpdateThenExec { execs: 1 },
        durable: false,
        misses: Misses::Positive,
        delta: Delta::Fallback,
        kernels: Kernels::Triangles,
        traced_ops: 100,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The one-shot query texts.  The paper algorithms are rendered with
    /// `Expr::to_string()`, which the parser is pinned to round-trip.
    pub fn oneshot_texts(&self) -> Vec<String> {
        match self.oneshot {
            Some(texts) => texts.iter().map(|t| t.to_string()).collect(),
            None => vec![
                graphs::transitive_closure_fw(VAR, SYM).to_string(),
                graphs::triangle_count(VAR, SYM).to_string(),
                csanky::determinant(VAR, SYM).to_string(),
                lu::upper_factor(VAR, SYM).to_string(),
            ],
        }
    }

    /// The `GEN` seed: a function of the workload seed only, so every round
    /// of a run loads the same graph.
    pub fn gen_seed(&self, seed: u64) -> u64 {
        // The wire parses the seed as u64; keep it short in the request.
        SplitMix64::new(seed ^ fnv1a(self.name.as_bytes())).next_u64() >> 16
    }

    /// The entries of the `LOAD`ed matrix of a [`Source::DiagDominant`]
    /// workload: diagonal entries in [0.5, 1), off-diagonal ones in
    /// ±1/(2n), so each diagonal entry exceeds its row's absolute sum (every
    /// leading minor is non-zero: the paper's LU-factorizable precondition)
    /// and every entry is below 1.  The second property keeps the
    /// Floyd–Warshall closure, which squares as it goes, from growing: values
    /// stay O(1), print in ≈ 20 characters, and a 12 × 12 reply stays well
    /// under 8 KiB for every seed.  (With a diagonal of ≈ 7 some seeds
    /// printed 60-digit values, crossed 8 KiB and paid the 40 ms stall that
    /// this workload is meant to keep out.)
    pub fn dense_entries(&self, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut rng = SplitMix64::new(self.gen_seed(seed));
        let n = self.n;
        let mut entries = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let u = rng.unit();
                let v = if i == j {
                    0.5 + u / 2.0
                } else {
                    (2.0 * u - 1.0) / (2 * n) as f64
                };
                entries.push((i, j, v));
            }
        }
        entries
    }

    /// Requests one operation sends.
    pub fn requests_per_op(&self) -> usize {
        let mut reqs = Vec::new();
        self.ops(0).next_op(&mut reqs);
        reqs.len()
    }

    /// The stream of operations of one round.
    pub fn ops(&self, seed: u64) -> OpGen {
        OpGen {
            op: self.op,
            n: self.n,
            queries: self.oneshot_texts().len(),
            rng: SplitMix64::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(self.name.as_bytes()),
            ),
        }
    }
}

/// Generates the requests of successive operations.
pub struct OpGen {
    op: Op,
    n: usize,
    queries: usize,
    rng: SplitMix64,
}

impl OpGen {
    /// Replaces `out` with the requests of the next operation.
    pub fn next_op(&mut self, out: &mut Vec<Req>) {
        out.clear();
        match self.op {
            Op::Exec => out.push(Req::Exec(0)),
            Op::QueryAll => out.extend((0..self.queries).map(Req::Query)),
            Op::Update => out.push(self.edge()),
            Op::UpdateThenExec { execs } => {
                out.push(self.edge());
                out.extend(std::iter::repeat_n(Req::Exec(0), execs));
            }
        }
    }

    /// A uniformly random off-diagonal edge.  An edge that already exists is
    /// a legal absorbed insert, so no generated operation can fail.
    fn edge(&mut self) -> Req {
        let n = self.n as u64;
        let i = self.rng.next_u64() % n;
        let j = (i + 1 + self.rng.next_u64() % (n - 1)) % n;
        Req::Update(i as usize, j as usize)
    }
}

/// The request line of `req`, as both the TCP loop and the in-process
/// replay send it.
pub fn request_line(req: Req, oneshot: &[String]) -> String {
    match req {
        Req::Exec(qid) => format!("EXEC {INSTANCE} {qid}"),
        Req::Query(idx) => format!("QUERY {INSTANCE} {}", oneshot[idx]),
        Req::Update(i, j) => format!("UPDATE {INSTANCE} {VAR} {i} {j} 1"),
    }
}

/// A hash of the set-up and the first `ops` operations' request lines: equal
/// seeds must give equal sequences, different seeds different ones.
pub fn sequence_hash(workload: &Workload, seed: u64, ops: usize) -> u64 {
    let oneshot = workload.oneshot_texts();
    let mut hash = fnv1a(format!("{} {}", workload.name, workload.gen_seed(seed)).as_bytes());
    if workload.source == Source::DiagDominant {
        for (i, j, v) in workload.dense_entries(seed) {
            hash = fnv1a_from(hash, format!("{i} {j} {v}").as_bytes());
        }
    }
    let mut gen = workload.ops(seed);
    let mut reqs = Vec::new();
    for _ in 0..ops {
        gen.next_op(&mut reqs);
        for &req in &reqs {
            hash = fnv1a_from(hash, request_line(req, &oneshot).as_bytes());
        }
    }
    hash
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xCBF2_9CE4_8422_2325, bytes)
}

fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// splitmix64 (Steele, Lea, Flood 2014), inline because `rand` is only a
/// dev-dependency stand-in of the repository.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_different_sequence() {
        for w in WORKLOADS {
            assert_eq!(
                sequence_hash(w, 7, 50),
                sequence_hash(w, 7, 50),
                "{}",
                w.name
            );
            assert_ne!(
                sequence_hash(w, 7, 50),
                sequence_hash(w, 8, 50),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert!(std::ptr::eq(workload(w.name).unwrap(), w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn generated_edges_are_off_diagonal_and_in_bounds() {
        let w = workload("delta_update").unwrap();
        let mut gen = w.ops(3);
        let mut reqs = Vec::new();
        for _ in 0..10_000 {
            gen.next_op(&mut reqs);
            let [Req::Update(i, j)] = reqs[..] else {
                panic!("delta_update sends one UPDATE per op");
            };
            assert!(i < w.n && j < w.n && i != j);
        }
    }

    #[test]
    fn dense_matrix_is_strictly_diagonally_dominant() {
        let w = workload("paper_loops").unwrap();
        let entries = w.dense_entries(1);
        for i in 0..w.n {
            let row = &entries[i * w.n..(i + 1) * w.n];
            let off: f64 = row.iter().filter(|e| e.1 != i).map(|e| e.2.abs()).sum();
            assert!(row[i].2 > off && row.iter().all(|e| e.2.abs() < 1.0));
        }
    }

    /// `paper_loops` is there to keep wire effects out; a reply past the
    /// session's 8 KiB buffer would bring the 40 ms stall in.
    #[test]
    fn paper_replies_stay_under_8_kib_for_every_seed() {
        use crate::oracle;
        use matlang::matrix::MatrixStorage;
        use matlang::semiring::Real;
        let w = workload("paper_loops").unwrap();
        for seed in 1..=8 {
            let instance = oracle::build_instance::<Real>(w, seed);
            for text in w.oneshot_texts() {
                let value = oracle::eval(&instance, &text).expect("evaluates");
                let body: usize = value
                    .nonzero_entries()
                    .iter()
                    .map(|(i, j, v)| format!("{i} {j} {}\n", v.0).len())
                    .sum();
                assert!(body + 256 < 8192, "seed {seed}: {body} bytes");
            }
        }
    }

    #[test]
    fn paper_queries_round_trip_through_the_parser() {
        for text in workload("paper_loops").unwrap().oneshot_texts() {
            let expr = matlang::parser::parse(&text).expect("parses");
            assert_eq!(expr.to_string(), text);
        }
    }
}
