//! Byte-exact binary serialization of matrix payloads, the kernel under
//! the server's snapshot/WAL persistence.
//!
//! The encodings mirror the in-memory layouts that
//! [`heap_bytes`](crate::MatrixStorage::heap_bytes) accounts for: a dense
//! matrix is its row-major entry array, a CSR matrix is its three parallel
//! arrays (`indptr`, `indices`, `values`) written verbatim.  Element values
//! travel as little-endian `f64` via [`Semiring::to_f64`] /
//! [`Semiring::from_f64`] — every value a server instance holds originally
//! arrived as an `f64` wire token, so the round trip is exact and a decoded
//! matrix compares bit-identical to the one that was encoded.
//!
//! The payload starts with a one-byte representation tag, so an adaptive
//! [`MatrixRepr`] restores into the *same* variant it was saved from (no
//! re-normalization on load — a restore must not change performance
//! characteristics behind the caller's back).  [`MatrixCodec`] has the
//! same two implementers as [`MatrixStorage`]: [`MatrixRepr`] reads
//! either tag, and the dense [`Matrix`] decoder accepts only its own — a
//! conversion would size its allocation from the CSR header, which the
//! payload's bytes do not bound (a 41-byte CSR header can declare a
//! 2⁴⁰-entry dense matrix).
//!
//! Framing, checksums and file atomicity live a layer up in the server's
//! persistence module; this module is only the `matrix bytes ⇄ matrix`
//! kernel and therefore never touches the filesystem.

use crate::matrix::Matrix;
use crate::repr::MatrixRepr;
use crate::sparse::{CsrBuilder, SparseMatrix};
use crate::storage::MatrixStorage;
use matlang_semiring::Semiring;
use std::fmt;

/// Representation tag for a dense (row-major) payload.
pub const TAG_DENSE: u8 = 0;
/// Representation tag for a CSR payload.
pub const TAG_SPARSE: u8 = 1;

/// Why a matrix payload failed to decode.
///
/// `Truncated` means the byte stream ended before the declared payload did
/// (a torn write); `Corrupt` means the bytes are self-inconsistent (bad
/// tag, broken CSR invariants, absurd dimensions).  Callers above treat
/// both as "this snapshot/record is unusable", but the distinction matters
/// for WAL recovery, where a truncated *tail* is expected after a crash
/// while corruption mid-file is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended early: `needed` more bytes than were `available`.
    Truncated { needed: usize, available: usize },
    /// The bytes decode to an impossible matrix.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated matrix payload: needed {needed} bytes, {available} available"
                )
            }
            CodecError::Corrupt(why) => write!(f, "corrupt matrix payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-exact encode/decode for a matrix storage backend.
///
/// `decode` consumes its payload from the front of `buf`, leaving any
/// trailing bytes for the caller's framing layer — so a section reader can
/// verify it was consumed exactly.
pub trait MatrixCodec: MatrixStorage {
    /// Appends this matrix's binary payload (tag byte included) to `out`.
    fn encode_matrix(&self, out: &mut Vec<u8>);

    /// Decodes one matrix payload from the front of `buf`, advancing it
    /// past the consumed bytes.
    fn decode_matrix(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated {
            needed: n,
            available: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn read_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    Ok(take(buf, 1)?[0])
}

fn read_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(
        take(buf, 8)?.try_into().expect("8 bytes"),
    ))
}

fn read_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    Ok(f64::from_le_bytes(
        take(buf, 8)?.try_into().expect("8 bytes"),
    ))
}

/// A `u64` read from the wire, checked to fit in `usize` (a 4-billion-row
/// header on a 32-bit host must fail cleanly, not wrap).
fn read_dim(buf: &mut &[u8], what: &str) -> Result<usize, CodecError> {
    let raw = read_u64(buf)?;
    usize::try_from(raw).map_err(|_| CodecError::Corrupt(format!("{what} {raw} overflows usize")))
}

fn encode_dense<K: Semiring>(m: &Matrix<K>, out: &mut Vec<u8>) {
    let (rows, cols) = m.shape();
    out.push(TAG_DENSE);
    put_u64(out, rows as u64);
    put_u64(out, cols as u64);
    out.reserve(rows * cols * 8);
    for v in m.entries() {
        put_f64(out, v.to_f64());
    }
}

fn encode_sparse<K: Semiring>(m: &SparseMatrix<K>, out: &mut Vec<u8>) {
    out.push(TAG_SPARSE);
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    put_u64(out, m.nnz() as u64);
    out.reserve((m.rows() + 1 + m.nnz()) * 8 + m.nnz() * 8);
    for &p in m.csr_indptr() {
        put_u64(out, p as u64);
    }
    for &j in m.csr_indices() {
        put_u64(out, j as u64);
    }
    for v in m.csr_values() {
        put_f64(out, v.to_f64());
    }
}

/// Decodes a dense payload (the tag byte has already been consumed).
fn decode_dense_body<K: Semiring>(buf: &mut &[u8]) -> Result<Matrix<K>, CodecError> {
    let rows = read_dim(buf, "rows")?;
    let cols = read_dim(buf, "cols")?;
    let total = rows
        .checked_mul(cols)
        .and_then(|t| t.checked_mul(8))
        .ok_or_else(|| CodecError::Corrupt(format!("dense shape {rows}x{cols} overflows")))?;
    // Bound the allocation by the bytes actually present before reserving.
    if buf.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            available: buf.len(),
        });
    }
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(K::from_f64(read_f64(buf)?));
    }
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| CodecError::Corrupt(format!("dense reconstruction failed: {e}")))
}

/// Decodes a CSR payload (the tag byte has already been consumed),
/// validating every CSR invariant before construction so hostile bytes
/// error instead of panicking inside [`CsrBuilder`].
fn decode_sparse_body<K: Semiring>(buf: &mut &[u8]) -> Result<SparseMatrix<K>, CodecError> {
    let rows = read_dim(buf, "rows")?;
    let cols = read_dim(buf, "cols")?;
    let nnz = read_dim(buf, "nnz")?;
    let total = rows
        .checked_add(1)
        .and_then(|r| r.checked_add(nnz))
        .and_then(|w| w.checked_add(nnz))
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| CodecError::Corrupt(format!("csr sizes {rows}+{nnz} overflow")))?;
    if buf.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            available: buf.len(),
        });
    }
    let mut indptr = Vec::with_capacity(rows + 1);
    for _ in 0..rows + 1 {
        indptr.push(read_dim(buf, "indptr entry")?);
    }
    if indptr[0] != 0 {
        return Err(CodecError::Corrupt("indptr must start at 0".into()));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(CodecError::Corrupt("indptr must be non-decreasing".into()));
    }
    if *indptr.last().expect("rows+1 entries") != nnz {
        return Err(CodecError::Corrupt(format!(
            "indptr ends at {}, expected nnz {nnz}",
            indptr.last().expect("rows+1 entries")
        )));
    }
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(read_dim(buf, "column index")?);
    }
    for row in 0..rows {
        let cols_of_row = &indices[indptr[row]..indptr[row + 1]];
        if cols_of_row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Corrupt(format!(
                "row {row} columns not strictly increasing"
            )));
        }
        if cols_of_row.last().is_some_and(|&j| j >= cols) {
            return Err(CodecError::Corrupt(format!(
                "row {row} has a column past cols={cols}"
            )));
        }
    }
    let mut builder = CsrBuilder::new(rows, cols, nnz);
    for row in 0..rows {
        for &col in &indices[indptr[row]..indptr[row + 1]] {
            let value = K::from_f64(read_f64(buf)?);
            if value.is_zero() {
                // The encoder never writes semiring zeros (CSR stores
                // none), so one here means the value bytes are damaged.
                return Err(CodecError::Corrupt(format!(
                    "stored zero at ({row}, {col})"
                )));
            }
            builder.push(col, value);
        }
        builder.finish_row();
    }
    Ok(builder.build())
}

fn wrong_tag(tag: u8, expected: &str) -> CodecError {
    CodecError::Corrupt(format!("repr tag {tag}, expected {expected}"))
}

impl<K: Semiring> MatrixCodec for Matrix<K> {
    fn encode_matrix(&self, out: &mut Vec<u8>) {
        encode_dense(self, out);
    }

    fn decode_matrix(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match read_u8(buf)? {
            TAG_DENSE => decode_dense_body(buf),
            tag => Err(wrong_tag(tag, "dense")),
        }
    }
}

impl<K: Semiring> MatrixCodec for MatrixRepr<K> {
    fn encode_matrix(&self, out: &mut Vec<u8>) {
        match self {
            MatrixRepr::Dense(m) => encode_dense(m, out),
            MatrixRepr::Sparse(m) => encode_sparse(m, out),
        }
    }

    fn decode_matrix(buf: &mut &[u8]) -> Result<Self, CodecError> {
        // The tag picks the variant directly — restoring must reproduce
        // the exact pre-save representation, not re-run the density
        // heuristics (which could flip a borderline matrix and change
        // performance after a reboot).
        match read_u8(buf)? {
            TAG_DENSE => Ok(MatrixRepr::Dense(decode_dense_body(buf)?)),
            TAG_SPARSE => Ok(MatrixRepr::Sparse(decode_sparse_body(buf)?)),
            tag => Err(wrong_tag(tag, "dense or csr")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, MinPlus, Nat, Real};

    fn roundtrip<M: MatrixCodec>(m: &M) -> M {
        let mut bytes = Vec::new();
        m.encode_matrix(&mut bytes);
        let mut cursor = bytes.as_slice();
        let back = M::decode_matrix(&mut cursor).expect("decode");
        assert!(cursor.is_empty(), "payload must be consumed exactly");
        back
    }

    fn sample_sparse<K: Semiring>() -> SparseMatrix<K> {
        SparseMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 1, K::from_f64(1.0)),
                (1, 2, K::from_f64(2.0)),
                (2, 3, K::from_f64(3.0)),
                (3, 0, K::from_f64(4.0)),
                (3, 3, K::from_f64(5.0)),
            ],
        )
        .expect("triplets")
    }

    #[test]
    fn dense_roundtrips_across_semirings() {
        let real = Matrix::<Real>::from_f64_rows(&[&[1.5, 0.0], &[-2.25, 3.0]]).unwrap();
        assert_eq!(roundtrip(&real), real);
        let boolean = sample_sparse::<Boolean>().to_dense();
        assert_eq!(roundtrip(&boolean), boolean);
        let nat = sample_sparse::<Nat>().to_dense();
        assert_eq!(roundtrip(&nat), nat);
    }

    #[test]
    fn csr_roundtrips_with_identical_raw_arrays() {
        let m = sample_sparse::<Real>();
        let MatrixRepr::Sparse(back) = roundtrip(&MatrixRepr::Sparse(m.clone())) else {
            panic!("a CSR payload restores as CSR");
        };
        assert_eq!(back.csr_indptr(), m.csr_indptr());
        assert_eq!(back.csr_indices(), m.csr_indices());
        assert_eq!(back, m);
    }

    #[test]
    fn minplus_infinities_survive_the_f64_bridge() {
        // MinPlus's additive zero is +inf, so stored values are finite or
        // -inf only; the multiplicative identity 0.0 must also survive.
        let m = SparseMatrix::<MinPlus>::from_triplets(
            2,
            2,
            vec![
                (0, 0, MinPlus::from_f64(0.0)),
                (0, 1, MinPlus::from_f64(-7.5)),
                (1, 0, MinPlus::from_f64(f64::NEG_INFINITY)),
            ],
        )
        .unwrap();
        let m = MatrixRepr::Sparse(m);
        assert_eq!(roundtrip(&m), m);
        assert_eq!(roundtrip(&m.to_dense()), m.to_dense());
    }

    #[test]
    fn repr_restores_the_exact_variant() {
        let dense = MatrixRepr::Dense(sample_sparse::<Real>().to_dense());
        assert!(matches!(roundtrip(&dense), MatrixRepr::Dense(_)));
        let sparse = MatrixRepr::Sparse(sample_sparse::<Real>());
        assert!(matches!(roundtrip(&sparse), MatrixRepr::Sparse(_)));
        assert_eq!(roundtrip(&sparse), sparse);
    }

    /// The dense decoder refuses a CSR tag instead of converting —
    /// including the 41-byte CSR header (1 row, 2⁴⁰ columns, no entries)
    /// whose dense form would be an 8 TiB allocation.
    #[test]
    fn decoders_reject_the_other_tag() {
        let mut csr_bytes = Vec::new();
        MatrixRepr::Sparse(sample_sparse::<Real>()).encode_matrix(&mut csr_bytes);
        let mut huge = vec![TAG_SPARSE];
        for word in [1u64, 1 << 40, 0, 0, 0] {
            huge.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(huge.len(), 41);
        assert_eq!(
            MatrixRepr::<Real>::decode_matrix(&mut huge.as_slice())
                .unwrap()
                .shape(),
            (1, 1 << 40),
            "a valid CSR payload"
        );
        for payload in [&csr_bytes, &huge] {
            assert!(matches!(
                Matrix::<Real>::decode_matrix(&mut payload.as_slice()),
                Err(CodecError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn empty_and_degenerate_shapes_roundtrip() {
        let empty = MatrixRepr::Sparse(SparseMatrix::<Real>::zeros(0, 0));
        assert_eq!(roundtrip(&empty), empty);
        let tall = MatrixRepr::Sparse(SparseMatrix::<Real>::zeros(5, 0));
        assert_eq!(roundtrip(&tall), tall);
        let dense_empty = Matrix::<Real>::zeros(0, 3);
        assert_eq!(roundtrip(&dense_empty), dense_empty);
    }

    #[test]
    fn truncated_payloads_report_truncation() {
        let m = MatrixRepr::Sparse(sample_sparse::<Real>());
        let mut bytes = Vec::new();
        m.encode_matrix(&mut bytes);
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut cursor = &bytes[..cut];
            let err = MatrixRepr::<Real>::decode_matrix(&mut cursor).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    /// Every strict prefix and every single-bit flip of a dense and a CSR
    /// payload, on all four semirings, through [`MatrixRepr`]'s decoder —
    /// the one snapshots of either layout are read with.  A prefix must
    /// report truncation; a flip may decode or be refused, but never
    /// panics, and what it decodes into holds no more heap than the bytes
    /// it consumed.  Each allocation is sized from a length field only
    /// once the buffer is known to hold that many bytes, so a flipped high
    /// bit (a 2⁶³-row header) errors instead of aborting the process.
    #[test]
    fn every_prefix_and_bit_flip_decodes_or_errors() {
        fn sweep<K: Semiring>() -> usize {
            let sparse = sample_sparse::<K>();
            let mut accepted = 0;
            for payload in [
                MatrixRepr::Dense(sparse.to_dense()),
                MatrixRepr::Sparse(sparse),
            ]
            .iter()
            .map(|m| {
                let mut bytes = Vec::new();
                m.encode_matrix(&mut bytes);
                bytes
            }) {
                for cut in 0..payload.len() {
                    let err = MatrixRepr::<K>::decode_matrix(&mut &payload[..cut]).unwrap_err();
                    assert!(
                        matches!(err, CodecError::Truncated { .. }),
                        "cut at {cut} gave {err:?}"
                    );
                }
                for bit in 0..payload.len() * 8 {
                    let mut flipped = payload.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let mut cursor = flipped.as_slice();
                    if let Ok(m) = MatrixRepr::<K>::decode_matrix(&mut cursor) {
                        let consumed = flipped.len() - cursor.len();
                        assert!(
                            m.heap_bytes() <= consumed,
                            "bit {bit}: {} heap bytes from {consumed} payload bytes",
                            m.heap_bytes()
                        );
                        accepted += 1;
                    }
                }
            }
            accepted
        }
        // Flips in the value bytes decode (to another value); the count
        // shows the sweep reached the decoders' success paths too.
        for accepted in [
            sweep::<Real>(),
            sweep::<Boolean>(),
            sweep::<Nat>(),
            sweep::<MinPlus>(),
        ] {
            assert!(accepted > 100, "only {accepted} flipped payloads decoded");
        }
    }

    #[test]
    fn corrupt_structure_is_rejected_not_panicked() {
        let m = sample_sparse::<Real>();
        let mut bytes = Vec::new();
        MatrixRepr::Sparse(m.clone()).encode_matrix(&mut bytes);

        // Bad tag.
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 9;
        assert!(matches!(
            MatrixRepr::<Real>::decode_matrix(&mut bad_tag.as_slice()),
            Err(CodecError::Corrupt(_))
        ));

        // Break indptr monotonicity: indptr[1] lives at offset 1 + 3*8 + 8.
        let mut bad_indptr = bytes.clone();
        let off = 1 + 24 + 8;
        bad_indptr[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            MatrixRepr::<Real>::decode_matrix(&mut bad_indptr.as_slice()),
            Err(CodecError::Corrupt(_))
        ));

        // Declare absurd dims on a dense header: decoding must refuse to
        // allocate, reporting truncation against the actual buffer.
        let dense = m.to_dense();
        let mut dense_bytes = Vec::new();
        dense.encode_matrix(&mut dense_bytes);
        dense_bytes[1..9].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            Matrix::<Real>::decode_matrix(&mut dense_bytes.as_slice()),
            Err(CodecError::Truncated { .. })
        ));
    }
}
