//! # rein-store
//!
//! The durable content-addressed cell-result store behind the grid's
//! crash-safe incremental execution (ROADMAP: "content-addressed
//! incremental evaluation"; DESIGN.md §6j).
//!
//! Results are keyed by the 16-hex FNV-1a-64 digest of a cell's
//! [`CellKey`] identity (`rein_core::cache_key`) and persisted under a
//! store root (conventionally `artifacts/store/`) as a **write-ahead
//! journal** of checksummed, length-prefixed, append-only records:
//!
//! ```text
//! file      := magic record*
//! magic     := "REINWAL2"                      (8 bytes)
//! record    := len:u32le checksum:u64le body[len]
//! checksum  := XXH64, seed 0, over the body bytes
//! body      := field(key) field(coordinate) field(payload) aux
//! aux       := 0x00 | 0x01 field(aux)          (tag byte: none | one field)
//! field(s)  := n:u32le utf8[n]
//! ```
//!
//! The checksum is XXH64 because recovery verifies every byte of every
//! record on each open: over the 1.53 MB of record bodies of the nasa
//! ×0.05 grid's 1,001 cells (median of 200 passes, 2-vCPU Xeon)
//! FNV-1a-64 took 2.65 ms, CRC-64/XZ (slicing-by-8) 1.35 ms and XXH64
//! 0.21 ms. The body is decoded by bounds-checked slicing; any
//! overrun, invalid UTF-8, unknown aux tag or trailing byte is a
//! `bad-payload`. Only this crate knows the format. A version-1 journal
//! (`REINWAL1`: FNV-1a-64 over a JSON body) is not parsed: its magic is
//! unknown, so recovery quarantines the whole file as `bad-magic`, keeps
//! its bytes under `quarantine/`, and its cells recompute.
//!
//! A commit appends records and fsyncs, so a `kill -9` loses at most
//! the batch in flight. [`Store::open`] recovers: it scans each file,
//! verifies every checksum, truncates at the first torn or corrupt
//! record, and **quarantines** the bad bytes into `<root>/quarantine/`
//! with a structured `report.json` — never silent repair, because a
//! record that fails its checksum is evidence of a storage fault the
//! operator must see, and "fixing" it would hide exactly the corruption
//! a benchmark's provenance chain exists to surface. Recovery replays
//! the surviving records (duplicates resolve last-wins, so re-running
//! an interrupted grid is idempotent).
//!
//! When the active journal tail outgrows its rotation limit, open
//! compacts the full record set into a sealed `seg-NNNN.wal` segment
//! via the hardened atomic-write pattern ([`atomic_write`]: temp file +
//! fsync + rename + parent-directory fsync) and truncates the tail —
//! crash-safe at every step because the compacted segment is a
//! superset of what it replaces.
//!
//! All filesystem *reads* are confined to [`Store::open`]: the lookup
//! and commit paths used inside `Controller::run_grid` touch only the
//! in-memory index and the already-open journal handle, which keeps the
//! grid's `cache-key-completeness` purity certificate intact.
//!
//! Past recovery, which copies each decoded field once into the index,
//! the store never copies a cell's text: it is shared `Arc<str>`. A
//! [`Store::lookup`] hands out the index's allocations, and a commit
//! moves the staged record's allocations into the index, so a payload
//! the grid staged is the very allocation a later lookup returns.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

mod atomic;
mod writer;

pub use atomic::{atomic_write, fsync_dir};
pub use writer::StoreWriter;

/// Journal file magic: identifies the format and its version.
pub const MAGIC: &[u8; 8] = b"REINWAL2";

/// The active journal tail's file name inside the store root.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Upper bound on one record's body, rejecting absurd length
/// prefixes produced by corruption before they drive a huge allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Default rotation limit for the journal tail: once the tail exceeds
/// this many bytes at open, it is compacted into a sealed segment.
pub const DEFAULT_ROTATE_TAIL_BYTES: u64 = 1 << 20;

/// One stored cell result. Its text is shared, not copied: a clone
/// (what [`Store::lookup`] returns) points at the index's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCell {
    /// The grid coordinate (`detect:…`, `repair:…#…`, `eval:…:…#…`).
    pub coordinate: Arc<str>,
    /// The cell's serialized result — exactly the bytes
    /// `Controller::run_grid` puts in its cell map.
    pub payload: Arc<str>,
    /// Auxiliary identity needed to key downstream cells without
    /// rehydrating the payload (for repair cells: the produced version's
    /// `content_identity`).
    pub aux: Option<Arc<str>>,
}

/// One journal record: a [`StoredCell`] plus its content key. A commit
/// moves its text into the index, so the record, the index and the
/// caller that staged it share one allocation per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// 16-hex FNV-1a-64 digest of the cell's `CellKey` identity.
    pub key: String,
    /// Grid coordinate.
    pub coordinate: Arc<str>,
    /// Serialized cell result.
    pub payload: Arc<str>,
    /// Auxiliary identity (see [`StoredCell::aux`]).
    pub aux: Option<Arc<str>>,
}

/// One decoded record body: its fields as validated slices of the
/// journal bytes, inserted into the index without an owned [`Record`]
/// in between.
struct Fields<'a> {
    key: &'a str,
    coordinate: &'a str,
    payload: &'a str,
    aux: Option<&'a str>,
}

/// One quarantined stretch of journal bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Journal file name (relative to the store root).
    pub file: String,
    /// Byte offset where the bad record starts.
    pub offset: u64,
    /// Diagnosis: `bad-magic`, `torn-header`, `bad-length`,
    /// `torn-payload`, `checksum-mismatch` or `bad-payload`.
    pub reason: String,
    /// Quarantine blob file holding the removed bytes (relative to the
    /// store root).
    pub quarantined_as: String,
}

/// What one [`Store::open`] recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Records replayed into the in-memory index (before last-wins
    /// deduplication).
    pub replayed: u64,
    /// Bad stretches quarantined by this open.
    pub quarantined: Vec<QuarantineEntry>,
}

/// Where a [`CrashPoint`] fires relative to a record's durable append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort before the record reaches the journal (the cell is lost
    /// and recomputed on resume).
    Before,
    /// Abort after the record is appended and fsynced (the cell
    /// survives and is a hit on resume).
    After,
}

struct Inner {
    cells: BTreeMap<String, StoredCell>,
    journal: File,
}

/// The durable cell-result store. Cheap to share behind an `Arc`:
/// lookups and commits take an internal lock, and commits only happen
/// at the grid's sequential merge points.
pub struct Store {
    root: PathBuf,
    inner: Mutex<Inner>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("cells", &self.cell_count())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `root`, running recovery
    /// and — when the journal tail outgrew [`DEFAULT_ROTATE_TAIL_BYTES`]
    /// — atomic segment rotation.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        Self::open_with_rotation(root, DEFAULT_ROTATE_TAIL_BYTES)
    }

    /// [`Store::open`] with an explicit tail rotation limit (tests).
    pub fn open_with_rotation(
        root: impl Into<PathBuf>,
        rotate_tail: u64,
    ) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut report = RecoveryReport::default();
        let mut cells: BTreeMap<String, StoredCell> = BTreeMap::new();

        // Sealed segments first (oldest first), then the journal tail:
        // replay order is file order, and within a file record order, so
        // last-wins deduplication gives the newest committed value.
        let mut files = list_segments(&root)?;
        files.push(JOURNAL_FILE.to_string());
        for name in &files {
            recover_file(&root, name, &mut cells, &mut report)?;
        }

        // Atomic segment rotation: compact everything into a fresh
        // sealed segment, then truncate the tail. Crash-safe in every
        // interleaving — the compacted segment is a superset of the
        // files it replaces, and replay is last-wins idempotent.
        let journal_path = root.join(JOURNAL_FILE);
        let tail_len = std::fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        if tail_len > rotate_tail && !cells.is_empty() {
            let next = 1 + list_segments(&root)?
                .iter()
                .filter_map(|n| segment_index(n))
                .max()
                .unwrap_or(0);
            let mut seg = Vec::from(&MAGIC[..]);
            for (key, cell) in &cells {
                let record = Record {
                    key: key.clone(),
                    coordinate: cell.coordinate.clone(),
                    payload: cell.payload.clone(),
                    aux: cell.aux.clone(),
                };
                append_frame(&mut seg, &record)?;
            }
            atomic_write(&root.join(format!("seg-{next:04}.wal")), &seg)?;
            atomic_write(&journal_path, MAGIC)?;
            for name in files.iter().filter(|n| *n != JOURNAL_FILE) {
                if segment_index(name).is_some_and(|i| i < next) {
                    let _ = std::fs::remove_file(root.join(name));
                }
            }
            fsync_dir(&root)?;
        } else if !journal_path.exists() {
            atomic_write(&journal_path, MAGIC)?;
        }

        if !report.quarantined.is_empty() {
            write_quarantine_report(&root, &report.quarantined)?;
        }

        let journal = std::fs::OpenOptions::new().append(true).open(&journal_path)?;
        rein_telemetry::counter("store_replayed").add(report.replayed);
        rein_telemetry::counter("store_quarantined").add(report.quarantined.len() as u64);
        Ok(Store { root, inner: Mutex::new(Inner { cells, journal }), recovery: report })
    }

    /// The store root directory.
    pub fn store_root(&self) -> &Path {
        &self.root
    }

    /// What this open's recovery replayed and quarantined.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of distinct cells currently in the index.
    pub fn cell_count(&self) -> usize {
        // audit:allow(panic, store lock poisoning only follows another panic)
        self.inner.lock().expect("store lock").cells.len()
    }

    /// Looks up a committed cell by its content key. Pure in-memory:
    /// no filesystem read happens outside [`Store::open`]. The returned
    /// cell shares the index's text; nothing is copied.
    pub fn lookup(&self, key: &str) -> Option<StoredCell> {
        // audit:allow(panic, store lock poisoning only follows another panic)
        self.inner.lock().expect("store lock").cells.get(key).cloned()
    }

    /// Commits every record staged in `writer` as one durable batch:
    /// the shards merge deterministically ([`StoreWriter::merge_shards`]),
    /// each record appends to the journal, and the batch fsyncs once.
    ///
    /// `crash` is the `REIN_CRASH` injection gate: when it returns a
    /// [`CrashPoint`] for a record's coordinate, the process aborts at
    /// exactly that commit point (after fsyncing what is already
    /// appended) — a faithful `kill -9` with no unwinding and no
    /// buffered-write flushing. Returns the number of records committed.
    pub fn commit_staged(
        &self,
        writer: &StoreWriter,
        crash: &dyn Fn(&str) -> Option<CrashPoint>,
    ) -> std::io::Result<usize> {
        let records = writer.merge_shards();
        if records.is_empty() {
            return Ok(0);
        }
        // audit:allow(panic, store lock poisoning only follows another panic)
        let mut inner = self.inner.lock().expect("store lock");
        let mut committed = 0usize;
        for record in records {
            let point = crash(&record.coordinate);
            if matches!(point, Some(CrashPoint::Before)) {
                inner.journal.sync_data()?;
                std::process::abort();
            }
            let mut frame = Vec::new();
            append_frame(&mut frame, &record)?;
            inner.journal.write_all(&frame)?;
            if matches!(point, Some(CrashPoint::After)) {
                inner.journal.sync_data()?;
                std::process::abort();
            }
            inner.cells.insert(
                record.key,
                StoredCell {
                    coordinate: record.coordinate,
                    payload: record.payload,
                    aux: record.aux,
                },
            );
            committed += 1;
        }
        inner.journal.sync_data()?;
        rein_telemetry::counter("store_commits").add(committed as u64);
        Ok(committed)
    }

    /// Convenience single-record commit (no crash injection).
    pub fn commit_one(
        &self,
        key: &str,
        coordinate: &str,
        payload: &str,
        aux: Option<&str>,
    ) -> std::io::Result<()> {
        let staged = StoreWriter::with_shards(1);
        staged.stage(key, coordinate, payload.into(), aux.map(Into::into));
        self.commit_staged(&staged, &|_| None).map(|_| ())
    }

    /// Path of the cumulative quarantine report.
    pub fn quarantine_report_path(root: &Path) -> PathBuf {
        root.join("quarantine").join("report.json")
    }
}

/// Sealed segment file names under `root`, oldest first: sorted by
/// [`segment_index`], not by name, so `seg-10000.wal` replays after
/// `seg-9999.wal`.
fn list_segments(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(index) = segment_index(&name) {
            out.push((index, name));
        }
    }
    out.sort();
    Ok(out.into_iter().map(|(_, name)| name).collect())
}

/// `seg-0007.wal` → `Some(7)`.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
}

/// Serializes one record into the journal frame format, appending to
/// `out`.
fn append_frame(out: &mut Vec<u8>, record: &Record) -> std::io::Result<()> {
    let fields: [&str; 3] = [&record.key, &record.coordinate, &record.payload];
    let body_len = fields.iter().map(|f| 4 + f.len()).sum::<usize>()
        + 1
        + record.aux.as_ref().map_or(0, |a| 4 + a.len());
    // Every field is shorter than the body, so once the body fits a
    // `u32` each field's length prefix does too.
    let len = u32::try_from(body_len).ok().filter(|&l| l <= MAX_RECORD_BYTES).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("record body of {body_len} bytes exceeds MAX_RECORD_BYTES"),
        )
    })?;
    out.reserve(12 + body_len);
    out.extend_from_slice(&len.to_le_bytes());
    let checksum_at = out.len();
    out.extend_from_slice(&[0; 8]);
    let body_at = out.len();
    for field in fields {
        put_field(out, field.as_bytes());
    }
    match &record.aux {
        None => out.push(0),
        Some(aux) => {
            out.push(1);
            put_field(out, aux.as_bytes());
        }
    }
    let checksum = xxh64(&out[body_at..]);
    out[checksum_at..body_at].copy_from_slice(&checksum.to_le_bytes());
    Ok(())
}

/// Appends one `field(s)`: the length as `u32le`, then the bytes.
/// [`append_frame`] has checked that the length fits.
fn put_field(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
    out.extend_from_slice(field);
}

/// Decodes one record body into slices of `body`. `None` on any
/// overrun, invalid UTF-8, unknown aux tag or trailing byte: recovery
/// reports it as `bad-payload`.
fn decode_body(body: &[u8]) -> Option<Fields<'_>> {
    let mut rest = body;
    let key = take_field(&mut rest)?;
    let coordinate = take_field(&mut rest)?;
    let payload = take_field(&mut rest)?;
    let (&tag, tail) = rest.split_first()?;
    rest = tail;
    let aux = match tag {
        0 => None,
        1 => Some(take_field(&mut rest)?),
        _ => return None,
    };
    rest.is_empty().then_some(Fields { key, coordinate, payload, aux })
}

/// Splits one `field(s)` off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a str> {
    let (len, tail) = rest.split_first_chunk::<4>()?;
    let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
    if tail.len() < len {
        return None;
    }
    let (field, tail) = tail.split_at(len);
    let field = std::str::from_utf8(field).ok()?;
    *rest = tail;
    Some(field)
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64 with seed 0 (the xxHash specification): the frame checksum.
fn xxh64(bytes: &[u8]) -> u64 {
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
    }
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc =
            [PRIME64_1.wrapping_add(PRIME64_2), PRIME64_2, 0, 0u64.wrapping_sub(PRIME64_1)];
        for stripe in &mut stripes {
            for (lane, w) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for lane in acc {
            h = (h ^ round(0, lane)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        }
        h
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w))).rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1);
        h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5)).rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Recovers one journal file: replays the good prefix into `cells`,
/// quarantines the bad suffix (if any) and truncates the file back to
/// its good prefix via the atomic-write pattern.
fn recover_file(
    root: &Path,
    name: &str,
    cells: &mut BTreeMap<String, StoredCell>,
    report: &mut RecoveryReport,
) -> std::io::Result<()> {
    let path = root.join(name);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok(());
    }
    let scan = scan_file(&bytes);
    report.replayed += scan.records.len() as u64;
    // Newest record first: the stable sort keeps each key's newest record
    // ahead of its older ones, and the dedup keeps exactly that one. The
    // index is then built in one pass, and `append` lets this file's
    // records replace those of the files replayed before it.
    let mut replayed: Vec<(String, StoredCell)> = scan
        .records
        .iter()
        .rev()
        .map(|fields| {
            let cell = StoredCell {
                coordinate: fields.coordinate.into(),
                payload: fields.payload.into(),
                aux: fields.aux.map(Into::into),
            };
            (fields.key.to_owned(), cell)
        })
        .collect();
    replayed.sort_by(|a, b| a.0.cmp(&b.0));
    replayed.dedup_by(|older, newer| older.0 == newer.0);
    cells.append(&mut replayed.into_iter().collect());
    if let Some((offset, reason)) = scan.bad {
        let blob_name = format!("quarantine/{name}.{offset}.bin");
        atomic_write(&root.join(&blob_name), &bytes[offset..])?;
        report.quarantined.push(QuarantineEntry {
            file: name.to_string(),
            offset: offset as u64,
            reason: reason.to_string(),
            quarantined_as: blob_name,
        });
        // Truncate back to the good prefix — atomically, so a crash
        // mid-recovery cannot make things worse. An all-bad file (bad
        // magic) resets to a fresh empty journal.
        let good = if scan.good_len >= MAGIC.len() { &bytes[..scan.good_len] } else { &MAGIC[..] };
        atomic_write(&path, good)?;
    }
    Ok(())
}

/// Outcome of scanning one journal file's bytes.
struct ScanOutcome<'a> {
    records: Vec<Fields<'a>>,
    /// Byte length of the valid prefix (including magic).
    good_len: usize,
    /// First bad stretch: (offset, reason). Everything from `offset` on
    /// is untrustworthy — a corrupt length prefix poisons all later
    /// framing — so recovery truncates here.
    bad: Option<(usize, &'static str)>,
}

/// The recovery state machine over one file's bytes (DESIGN.md §6j):
/// validate magic, then walk frames; stop at the first torn or corrupt
/// record.
fn scan_file(bytes: &[u8]) -> ScanOutcome<'_> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return ScanOutcome { records: Vec::new(), good_len: 0, bad: Some((0, "bad-magic")) };
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 12 {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "torn-header")) };
        }
        // The 4- and 8-byte reads are bounds-checked by the
        // `remaining >= 12` guard above.
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[offset..offset + 4]);
        let len = u32::from_le_bytes(word);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[offset + 4..offset + 12]);
        let checksum = u64::from_le_bytes(sum);
        if len > MAX_RECORD_BYTES {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "bad-length")) };
        }
        if remaining - 12 < len as usize {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "torn-payload")) };
        }
        let body = &bytes[offset + 12..offset + 12 + len as usize];
        if xxh64(body) != checksum {
            return ScanOutcome {
                records,
                good_len: offset,
                bad: Some((offset, "checksum-mismatch")),
            };
        }
        match decode_body(body) {
            Some(record) => records.push(record),
            // A checksum-valid but undecodable body means a writer bug —
            // quarantine, never guess.
            None => {
                return ScanOutcome {
                    records,
                    good_len: offset,
                    bad: Some((offset, "bad-payload")),
                }
            }
        }
        offset += 12 + len as usize;
    }
    ScanOutcome { records, good_len: bytes.len(), bad: None }
}

/// Merges this recovery's quarantine entries into the cumulative
/// structured report at `quarantine/report.json` (atomic rewrite).
fn write_quarantine_report(root: &Path, fresh: &[QuarantineEntry]) -> std::io::Result<()> {
    let path = Store::quarantine_report_path(root);
    let mut entries: Vec<QuarantineEntry> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    for entry in fresh {
        if !entries.iter().any(|e| e.file == entry.file && e.offset == entry.offset) {
            entries.push(entry.clone());
        }
    }
    let json = serde_json::to_string_pretty(&entries)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    atomic_write(&path, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rein-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn no_crash(_: &str) -> Option<CrashPoint> {
        None
    }

    #[test]
    fn commit_then_reopen_replays_every_cell() {
        let root = tmp_root("roundtrip");
        {
            let store = Store::open(&root).unwrap();
            assert_eq!(store.cell_count(), 0);
            let w = StoreWriter::with_shards(4);
            w.stage("aaaa", "detect:raha", "mask-bytes".into(), None);
            w.stage("bbbb", "repair:mm#raha", "csv\nmask\nrowmap".into(), Some("v:0123".into()));
            assert_eq!(store.commit_staged(&w, &no_crash).unwrap(), 2);
            assert_eq!(&*store.lookup("aaaa").unwrap().payload, "mask-bytes");
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 2);
        assert_eq!(store.recovery().replayed, 2);
        assert!(store.recovery().quarantined.is_empty());
        let cell = store.lookup("bbbb").unwrap();
        assert_eq!(&*cell.coordinate, "repair:mm#raha");
        assert_eq!(cell.aux.as_deref(), Some("v:0123"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lookups_share_the_committed_payload() {
        let root = tmp_root("shared");
        let payload: Arc<str> = "csv\nmask\nrowmap".into();
        {
            let store = Store::open(&root).unwrap();
            let w = StoreWriter::with_shards(2);
            w.stage("k", "repair:mm#raha", payload.clone(), Some("v:0123".into()));
            store.commit_staged(&w, &no_crash).unwrap();
            let (a, b) = (store.lookup("k").unwrap(), store.lookup("k").unwrap());
            assert!(Arc::ptr_eq(&a.payload, &b.payload), "lookups share one allocation");
            assert!(Arc::ptr_eq(&a.payload, &payload), "the index holds the staged allocation");
        }
        let store = Store::open(&root).unwrap();
        let (a, b) = (store.lookup("k").unwrap(), store.lookup("k").unwrap());
        assert!(Arc::ptr_eq(&a.payload, &b.payload), "a reopened index shares its bytes too");
        assert_eq!(&*a.payload, &*payload, "the reopened store returns the committed bytes");
        assert_eq!(&*a.coordinate, "repair:mm#raha");
        assert_eq!(a.aux.as_deref(), Some("v:0123"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_keys_replay_last_wins() {
        let root = tmp_root("lastwins");
        {
            let store = Store::open(&root).unwrap();
            store.commit_one("k", "detect:a", "old", None).unwrap();
            store.commit_one("k", "detect:a", "new", None).unwrap();
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 1);
        assert_eq!(&*store.lookup("k").unwrap().payload, "new");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_quarantined_and_truncated() {
        let root = tmp_root("torn");
        {
            let store = Store::open(&root).unwrap();
            store.commit_one("k1", "detect:a", "good", None).unwrap();
        }
        // Simulate a torn append: a partial frame at the tail.
        let path = root.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[7, 0, 0, 0, 1, 2]); // 6 bytes < 12-byte header
        std::fs::write(&path, &bytes).unwrap();

        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 1, "the good record survives");
        let q = &store.recovery().quarantined;
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].reason, "torn-header");
        assert_eq!(q[0].offset, good_len as u64);
        assert_eq!(std::fs::read(&path).unwrap().len(), good_len, "tail truncated");
        // The quarantined bytes and the structured report exist.
        assert!(root.join(&q[0].quarantined_as).exists());
        let report: Vec<QuarantineEntry> = serde_json::from_str(
            &std::fs::read_to_string(Store::quarantine_report_path(&root)).unwrap(),
        )
        .unwrap();
        assert_eq!(report, *q);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotation_compacts_into_a_sealed_segment() {
        let root = tmp_root("rotate");
        {
            let store = Store::open(&root).unwrap();
            for i in 0..20 {
                store.commit_one(&format!("k{i}"), &format!("detect:d{i}"), "x", None).unwrap();
            }
        }
        // Tiny rotation limit forces compaction on reopen.
        let store = Store::open_with_rotation(&root, 16).unwrap();
        assert_eq!(store.cell_count(), 20);
        let segs = list_segments(&root).unwrap();
        assert_eq!(segs, vec!["seg-0001.wal".to_string()]);
        let tail = std::fs::read(root.join(JOURNAL_FILE)).unwrap();
        assert_eq!(tail, MAGIC, "tail truncated to a fresh journal");
        // Everything still replays from the sealed segment.
        let again = Store::open(&root).unwrap();
        assert_eq!(again.cell_count(), 20);
        assert_eq!(&*again.lookup("k7").unwrap().coordinate, "detect:d7");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_rejects_oversized_length_prefixes_without_allocating() {
        let mut bytes = Vec::from(&MAGIC[..]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        let scan = scan_file(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.bad, Some((MAGIC.len(), "bad-length")));
    }

    #[test]
    fn bad_magic_quarantines_the_whole_file() {
        // A version-1 journal as its writer framed it: FNV-1a-64 over a
        // JSON body. It is quarantined whole, never parsed.
        let v1_body = br#"{"key":"k","coordinate":"detect:a","payload":"p","aux":null}"#;
        let mut v1 = Vec::from(&b"REINWAL1"[..]);
        v1.extend_from_slice(&(v1_body.len() as u32).to_le_bytes());
        v1.extend_from_slice(&rein_ledger::fnv1a64(v1_body).to_le_bytes());
        v1.extend_from_slice(v1_body);
        for (i, input) in [&b"NOTAWAL!rest"[..], &v1].into_iter().enumerate() {
            let root = tmp_root(&format!("badmagic-{i}"));
            std::fs::create_dir_all(&root).unwrap();
            std::fs::write(root.join(JOURNAL_FILE), input).unwrap();
            let store = Store::open(&root).unwrap();
            assert_eq!(store.cell_count(), 0);
            let q = &store.recovery().quarantined;
            assert_eq!(q.len(), 1);
            assert_eq!((q[0].offset, q[0].reason.as_str()), (0, "bad-magic"));
            assert_eq!(std::fs::read(root.join(&q[0].quarantined_as)).unwrap(), input);
            assert_eq!(std::fs::read(root.join(JOURNAL_FILE)).unwrap(), MAGIC);
            let again = Store::open(&root).unwrap();
            assert_eq!(again.cell_count(), 0);
            assert!(again.recovery().quarantined.is_empty(), "second open must be clean");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn undecodable_and_torn_bodies_are_quarantined() {
        let mut valid = Vec::new();
        for f in [&b"k2"[..], b"detect:b", b"p"] {
            put_field(&mut valid, f);
        }
        valid.push(0);
        let frame = |body: &[u8], declared: usize| {
            let mut out = (declared as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&xxh64(body).to_le_bytes());
            out.extend_from_slice(body);
            out
        };
        let overrun = [100u32.to_le_bytes().as_slice(), b"k2"].concat();
        let mut bad_utf8 = Vec::new();
        put_field(&mut bad_utf8, &[0xff, 0xfe]);
        let mut tag_2 = valid.clone();
        *tag_2.last_mut().unwrap() = 2;
        let trailing = [&valid[..], &[0]].concat();
        let cases: [(&str, Vec<u8>, &str); 5] = [
            ("field-overrun", frame(&overrun, overrun.len()), "bad-payload"),
            ("bad-utf8", frame(&bad_utf8, bad_utf8.len()), "bad-payload"),
            ("aux-tag-2", frame(&tag_2, tag_2.len()), "bad-payload"),
            ("trailing-byte", frame(&trailing, trailing.len()), "bad-payload"),
            ("past-eof", frame(&valid, valid.len() + 1), "torn-payload"),
        ];
        for (name, bad_frame, reason) in cases {
            let root = tmp_root(&format!("body-{name}"));
            {
                let store = Store::open(&root).unwrap();
                store.commit_one("k1", "detect:a", "good", None).unwrap();
            }
            let path = root.join(JOURNAL_FILE);
            let mut bytes = std::fs::read(&path).unwrap();
            let good_len = bytes.len();
            bytes.extend_from_slice(&bad_frame);
            std::fs::write(&path, &bytes).unwrap();

            let store = Store::open(&root).unwrap();
            assert_eq!(store.cell_count(), 1, "{name}: the good record survives");
            assert_eq!(&*store.lookup("k1").unwrap().payload, "good", "{name}");
            let q = &store.recovery().quarantined;
            assert_eq!(q.len(), 1, "{name}");
            assert_eq!((q[0].offset, q[0].reason.as_str()), (good_len as u64, reason), "{name}");
            assert_eq!(std::fs::read(root.join(&q[0].quarantined_as)).unwrap(), bad_frame);
            assert_eq!(std::fs::read(&path).unwrap().len(), good_len, "{name}: truncated");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn segments_replay_in_index_order_not_name_order() {
        // A crash during rotation after the new segment's rename but
        // before the old one's removal leaves both on disk.
        let root = tmp_root("segorder");
        std::fs::create_dir_all(&root).unwrap();
        for (index, payload) in [(9999, "older"), (10000, "newer")] {
            let mut seg = Vec::from(&MAGIC[..]);
            let record = Record {
                key: "k".into(),
                coordinate: "detect:a".into(),
                payload: payload.into(),
                aux: None,
            };
            append_frame(&mut seg, &record).unwrap();
            std::fs::write(root.join(format!("seg-{index:04}.wal")), seg).unwrap();
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(&*store.lookup("k").unwrap().payload, "newer");
        drop(store);
        // Rotation compacts the newest value into the next segment.
        let store = Store::open_with_rotation(&root, 0).unwrap();
        assert_eq!(list_segments(&root).unwrap(), ["seg-10001.wal"]);
        assert_eq!(&*store.lookup("k").unwrap().payload, "newer");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        let pattern = |n: usize| (0..n).map(|i| ((i * 131 + 7) % 251) as u8).collect::<Vec<u8>>();
        let cases: [(&[u8], u64); 5] = [
            (b"", 0xef46_db37_51d8_e999),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (b"The quick brown fox jumps over the lazy dog", 0x0b24_2d36_1fda_71bc),
            (&pattern(47), 0xce4f_dba7_d2e8_d11e),
            (&pattern(1000), 0xe046_69f6_18d1_3c00),
        ];
        for (bytes, want) in cases {
            assert_eq!(xxh64(bytes), want, "xxh64 of {} bytes", bytes.len());
        }
    }
}
