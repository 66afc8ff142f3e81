//! Durable storage under the store: snapshot files and the write-ahead log.
//!
//! This module owns the *file formats* and their integrity story; policy
//! (when to snapshot, when to compact, how instances map to matrices)
//! lives in [`crate::store`].  Two artifacts exist per persisted instance,
//! both little-endian and CRC32-checked:
//!
//! * **Snapshot** (`<name>.snap`) — the full instance at one point in
//!   time: a magic/version header, the WAL sequence number the snapshot
//!   covers, then length-prefixed checksummed sections (meta, dims, one
//!   per variable).  Variable payloads are the byte-exact encodings of
//!   [`matlang_matrix::MatrixCodec`], opaque at this layer.  Snapshots are
//!   written to a temporary file, fsync'd, then atomically renamed over
//!   the previous one — a crash mid-write leaves the old snapshot intact.
//! * **WAL** (`<name>.wal`) — an append-only log of applied `UPDATE`
//!   batches, one CRC-framed record per batch, fsync'd per append.
//!   Opening the log replays it: records are trusted up to the first
//!   short or checksum-failing frame, and the file is truncated there, so
//!   a torn tail from a crash mid-append costs exactly the un-acked batch.
//!
//! Recovery is therefore: newest valid snapshot + the WAL records whose
//! sequence number exceeds the snapshot's covered sequence.  Corruption
//! never panics — every decoding path returns [`PersistError`] and the
//! store degrades to "this instance did not recover".

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Current snapshot file version, bumped on any layout change.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot file magic: identifies the format before any parsing.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MLSNAP01";

/// Section kinds inside a snapshot file.
const SECTION_META: u32 = 1;
const SECTION_DIMS: u32 = 2;
const SECTION_VAR: u32 = 3;

/// Why a snapshot or WAL could not be used.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes on disk are not a valid artifact (bad magic, checksum
    /// mismatch, impossible structure).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O failed: {e}"),
            PersistError::Corrupt(why) => write!(f, "persistence artifact corrupt: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum framing every snapshot section
/// and WAL record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian read/write helpers over byte buffers.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], PersistError> {
    if buf.len() < n {
        return Err(corrupt(format!(
            "{what}: needed {n} bytes, {} available",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn read_u32(buf: &mut &[u8], what: &str) -> Result<u32, PersistError> {
    Ok(u32::from_le_bytes(
        take(buf, 4, what)?.try_into().expect("4 bytes"),
    ))
}

fn read_u64(buf: &mut &[u8], what: &str) -> Result<u64, PersistError> {
    Ok(u64::from_le_bytes(
        take(buf, 8, what)?.try_into().expect("8 bytes"),
    ))
}

fn read_len(buf: &mut &[u8], what: &str) -> Result<usize, PersistError> {
    let raw = read_u64(buf, what)?;
    let len = usize::try_from(raw).map_err(|_| corrupt(format!("{what} {raw} overflows usize")))?;
    if len > buf.len() {
        return Err(corrupt(format!(
            "{what} {len} exceeds remaining {} bytes",
            buf.len()
        )));
    }
    Ok(len)
}

fn read_str(buf: &mut &[u8], what: &str) -> Result<String, PersistError> {
    let len = read_len(buf, what)?;
    let bytes = take(buf, len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// A decoded (or to-be-encoded) snapshot: everything needed to rebuild an
/// instance except the lazily-rebuilt runtime state (memo caches, plans,
/// overlays — deliberately never persisted).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Semiring tag (`real`/`bool`/`nat`/`minplus`).
    pub semiring: String,
    /// Backend tag: `adaptive` in every snapshot this server writes;
    /// `dense` in ones written by a dense instance before `dense` became an
    /// alias, still accepted on load.
    pub backend: String,
    /// The WAL sequence number this snapshot covers: replay skips records
    /// with `seq <= covered_seq`.
    pub covered_seq: u64,
    /// Size-symbol bindings, in insertion order.
    pub dims: Vec<(String, u64)>,
    /// Variable name → [`matlang_matrix::MatrixCodec`] payload bytes.
    pub vars: Vec<(String, Vec<u8>)>,
}

fn put_section(out: &mut Vec<u8>, kind: u32, payload: &[u8]) {
    let start = out.len();
    put_u32(out, kind);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    // The checksum covers the section header too — a bit-flip in the kind
    // or length must not let the payload reparse as a different section.
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

impl Snapshot {
    /// Serializes the snapshot to its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u64(&mut out, self.covered_seq);

        let mut meta = Vec::new();
        put_str(&mut meta, &self.semiring);
        put_str(&mut meta, &self.backend);
        put_section(&mut out, SECTION_META, &meta);

        let mut dims = Vec::new();
        put_u64(&mut dims, self.dims.len() as u64);
        for (sym, value) in &self.dims {
            put_str(&mut dims, sym);
            put_u64(&mut dims, *value);
        }
        put_section(&mut out, SECTION_DIMS, &dims);

        for (name, payload) in &self.vars {
            let mut var = Vec::new();
            put_str(&mut var, name);
            var.extend_from_slice(payload);
            put_section(&mut out, SECTION_VAR, &var);
        }
        out
    }

    /// Parses a snapshot from its on-disk byte form, verifying the magic,
    /// version and every section checksum.
    pub fn decode(mut bytes: &[u8]) -> Result<Snapshot, PersistError> {
        let buf = &mut bytes;
        let magic = take(buf, SNAPSHOT_MAGIC.len(), "snapshot magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(corrupt("bad snapshot magic"));
        }
        let version = read_u32(buf, "snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let covered_seq = read_u64(buf, "covered seq")?;

        let mut meta: Option<(String, String)> = None;
        let mut dims = Vec::new();
        let mut vars = Vec::new();
        while !buf.is_empty() {
            let framed: &[u8] = buf;
            let kind = read_u32(buf, "section kind")?;
            let len = read_len(buf, "section length")?;
            let payload = take(buf, len, "section payload")?;
            let stored = read_u32(buf, "section checksum")?;
            let actual = crc32(&framed[..4 + 8 + len]);
            if stored != actual {
                return Err(corrupt(format!(
                    "section kind {kind} checksum mismatch (stored {stored:08x}, computed {actual:08x})"
                )));
            }
            let mut payload = payload;
            let p = &mut payload;
            match kind {
                SECTION_META => {
                    let semiring = read_str(p, "semiring tag")?;
                    let backend = read_str(p, "backend tag")?;
                    meta = Some((semiring, backend));
                }
                SECTION_DIMS => {
                    let count = read_u64(p, "dim count")?;
                    for _ in 0..count {
                        let sym = read_str(p, "dim symbol")?;
                        let value = read_u64(p, "dim value")?;
                        dims.push((sym, value));
                    }
                }
                SECTION_VAR => {
                    let name = read_str(p, "variable name")?;
                    vars.push((name, p.to_vec()));
                }
                other => return Err(corrupt(format!("unknown section kind {other}"))),
            }
        }
        let (semiring, backend) = meta.ok_or_else(|| corrupt("snapshot has no meta section"))?;
        Ok(Snapshot {
            semiring,
            backend,
            covered_seq,
            dims,
            vars,
        })
    }

    /// Writes the snapshot to `path` crash-atomically: the bytes go to a
    /// sibling `.tmp` file which is fsync'd and then renamed over `path`
    /// (the directory is fsync'd too, so the rename itself is durable).
    /// Returns the file size in bytes.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, PersistError> {
        let bytes = self.encode();
        let tmp = path.with_extension("snap.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Durability of the rename; best-effort on filesystems where
            // directories cannot be opened for sync.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }

    /// Reads and decodes a snapshot file.
    pub fn read(path: &Path) -> Result<Snapshot, PersistError> {
        Snapshot::decode(&fs::read(path)?)
    }
}

// ---------------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------------

/// One applied `UPDATE` batch: the entries that actually mutated the
/// instance (a partially-applied batch logs only its applied prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotone per-instance sequence number, 1-based.
    pub seq: u64,
    /// The variable the batch mutated.
    pub var: String,
    /// `(row, col, value)` wire entries, in application order.
    pub entries: Vec<(u64, u64, f64)>,
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + self.var.len() + 8 + self.entries.len() * 24);
        put_u64(&mut out, self.seq);
        put_str(&mut out, &self.var);
        put_u64(&mut out, self.entries.len() as u64);
        for &(i, j, v) in &self.entries {
            put_u64(&mut out, i);
            put_u64(&mut out, j);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode_payload(mut payload: &[u8]) -> Result<WalRecord, PersistError> {
        let buf = &mut payload;
        let seq = read_u64(buf, "record seq")?;
        let var = read_str(buf, "record variable")?;
        let count = read_u64(buf, "record entry count")?;
        if count.checked_mul(24) != Some(buf.len() as u64) {
            return Err(corrupt(format!(
                "record declares {count} entries but carries {} bytes",
                buf.len()
            )));
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let i = read_u64(buf, "entry row")?;
            let j = read_u64(buf, "entry col")?;
            let v = f64::from_le_bytes(take(buf, 8, "entry value")?.try_into().expect("8 bytes"));
            entries.push((i, j, v));
        }
        Ok(WalRecord { seq, var, entries })
    }
}

/// An open write-ahead log, positioned at its valid end.
///
/// Construction *is* recovery: [`Wal::open`] parses every intact record,
/// truncates away any torn tail, and returns the records for replay.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Bytes of valid records currently in the file.
    pub bytes: u64,
    /// Number of valid records currently in the file.
    pub records: u64,
    /// Sequence number of the newest record ever appended (survives
    /// truncation so compaction does not reset the sequence space).
    pub last_seq: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying its intact
    /// prefix.  Records are trusted up to the first short frame or
    /// checksum failure; everything after that point is discarded and the
    /// file is truncated to the valid prefix, making a torn tail from a
    /// crash mid-append invisible to later appends.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        let mut records = Vec::new();
        let mut valid_end = 0usize;
        let mut cursor = raw.as_slice();
        loop {
            if cursor.len() < 8 {
                break; // clean EOF or a torn frame header
            }
            let len = u32::from_le_bytes(cursor[0..4].try_into().expect("4 bytes")) as usize;
            let stored_crc = u32::from_le_bytes(cursor[4..8].try_into().expect("4 bytes"));
            if cursor.len() < 8 + len {
                break; // torn payload
            }
            let payload = &cursor[8..8 + len];
            if crc32(payload) != stored_crc {
                break; // torn or corrupt — nothing after it is trusted
            }
            let Ok(record) = WalRecord::decode_payload(payload) else {
                break;
            };
            records.push(record);
            valid_end += 8 + len;
            cursor = &cursor[8 + len..];
        }
        if (valid_end as u64) < raw.len() as u64 {
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))?;
        let last_seq = records.last().map(|r| r.seq).unwrap_or(0);
        Ok((
            Wal {
                file,
                bytes: valid_end as u64,
                records: records.len() as u64,
                last_seq,
            },
            records,
        ))
    }

    /// Appends one record and fsyncs it.  Returns the framed size in
    /// bytes (what the `wal_bytes` gauge grows by).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        let payload = record.encode_payload();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        self.last_seq = record.seq;
        Ok(frame.len() as u64)
    }

    /// Empties the log (after a compacting snapshot has made its records
    /// redundant).  `last_seq` is preserved — the sequence space is the
    /// instance's, not the file's.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Naming and layout.
// ---------------------------------------------------------------------------

/// Whether `name` can safely become a file stem inside the data
/// directory: non-empty, ASCII alphanumerics plus `_ - .`, and not a
/// dot-only name (which would collide with directory entries).
pub fn filesystem_safe(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        && !name.chars().all(|c| c == '.')
}

/// The snapshot path for instance `name` under `dir`.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.snap"))
}

/// The WAL path for instance `name` under `dir`.
pub fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Removes the snapshot and WAL files (and any half-written snapshot
/// temp) for instance `name`, ignoring files that are already absent.
/// Returns the first real error encountered, after attempting all three.
pub fn remove_instance_files(dir: &Path, name: &str) -> Result<(), PersistError> {
    let mut first_error = None;
    for path in [
        snapshot_path(dir, name),
        wal_path(dir, name),
        snapshot_path(dir, name).with_extension("snap.tmp"),
    ] {
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                first_error.get_or_insert(PersistError::Io(e));
            }
        }
    }
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The instance names that have a snapshot file under `dir` (the unit of
/// recovery — a WAL without a snapshot cannot be replayed because the
/// base state is unknown).
pub fn scan_snapshots(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                return None;
            }
            let stem = path.file_stem()?.to_str()?;
            filesystem_safe(stem).then(|| stem.to_string())
        })
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            semiring: "real".into(),
            backend: "adaptive".into(),
            covered_seq: 42,
            dims: vec![("n".into(), 4), ("m".into(), 7)],
            vars: vec![("G".into(), vec![1, 2, 3, 4, 5]), ("W".into(), vec![])],
        }
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let snap = sample_snapshot();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn snapshot_rejects_flipped_bits() {
        let snap = sample_snapshot();
        let good = snap.encode();
        // Flip one bit in every byte position; decode must never succeed
        // with different content and never panic.
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            if let Ok(decoded) = Snapshot::decode(&bad) {
                // A flip in the covered_seq field is outside any section
                // checksum; everything else must be caught.
                assert!(
                    (8..20).contains(&pos),
                    "undetected corruption at byte {pos}"
                );
                assert_eq!(decoded.dims, snap.dims);
            }
        }
    }

    #[test]
    fn snapshot_write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("matlang-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = snapshot_path(&dir, "atomic-check");
        let snap = sample_snapshot();
        let bytes = snap.write_atomic(&path).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        assert_eq!(Snapshot::read(&path).unwrap(), snap);
        assert!(!path.with_extension("snap.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_appends_replay_and_tolerate_torn_tails() {
        let dir = std::env::temp_dir().join(format!("matlang-wal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "torn-check");
        let _ = fs::remove_file(&path);

        let records: Vec<WalRecord> = (1..=3)
            .map(|seq| WalRecord {
                seq,
                var: "G".into(),
                entries: vec![(seq, seq + 1, seq as f64 * 0.5)],
            })
            .collect();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            assert_eq!(wal.records, 3);
            assert_eq!(wal.last_seq, 3);
        }

        // Clean reopen replays everything.
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records);
        let full_len = wal.bytes;
        drop(wal);

        // Tear the tail mid-record: only the intact prefix replays, and
        // the file is truncated back to it.
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records[..2]);
        assert!(wal.bytes < full_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), wal.bytes);
        drop(wal);

        // Corrupt a checksum mid-log: replay stops before the damaged
        // record even though bytes follow it.
        let raw = fs::read(&path).unwrap();
        let mut bad = raw.clone();
        bad[4] ^= 0xFF; // first record's CRC field
        fs::write(&path, &bad).unwrap();
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.bytes, 0);
        drop(wal);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wal_truncate_keeps_the_sequence() {
        let dir = std::env::temp_dir().join(format!("matlang-walseq-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "seq-check");
        let _ = fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord {
            seq: 9,
            var: "G".into(),
            entries: vec![],
        })
        .unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.bytes, 0);
        assert_eq!(wal.records, 0);
        assert_eq!(wal.last_seq, 9);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn names_are_vetted_before_touching_the_filesystem() {
        for good in ["g", "graph-7", "a.b", "X_1"] {
            assert!(filesystem_safe(good), "{good} should be accepted");
        }
        for bad in ["", ".", "..", "a/b", "a\\b", "a b", "ü", &"x".repeat(200)] {
            assert!(!filesystem_safe(bad), "{bad:?} should be rejected");
        }
    }
}
