//! Durable, corruption-resistant checkpoint store: persistence level 0
//! of the recovery ladder.
//!
//! The in-memory checkpoints taken by the engine and farm recovery
//! loops survive every fault *inside* the simulated machine, but a host
//! crash loses the run. This module makes the newest shard-consistent
//! snapshot durable with the classic double-buffer protocol:
//!
//! * Two **generation slots** (`gen0.lck`, `gen1.lck`). A commit always
//!   overwrites the slot *not* holding the newest good generation, so
//!   the last good snapshot is never the one being replaced.
//! * Each generation file carries a versioned header, a monotonic
//!   sequence number, the per-shard checkpoint images, and a CRC-64
//!   footer (ECMA-182, the same polynomial as the stream-parity words
//!   in [`crate::bits`]) over everything before it.
//! * Commits go through [`StoreBackend::write_atomic`] — write to a
//!   temp file, fsync, atomic rename — then **read back and re-decode**
//!   the slot before the store advances to it. A write the medium
//!   quietly tore is caught here and reported as a failed commit while
//!   the previous generation is still intact.
//! * [`CheckpointStore::load_latest`] decodes both slots and returns
//!   the valid one with the highest sequence number, falling back to
//!   the older generation when the newest is torn or rotted, and
//!   reporting a structured [`LatticeError::Corrupted`] only when no
//!   intact generation exists.
//!
//! The backend trait is std-only and injectable: [`DiskBackend`] is the
//! real thing, [`MemBackend`] backs fast tests, and [`FaultyBackend`]
//! delivers torn writes, bit rot, short reads, and crash-before-rename
//! on a seeded deterministic schedule (the same SplitMix64 idiom as the
//! simulator's fault plans) for chaos soaks.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::bits;
use crate::coord::Shape;
use crate::grid::Grid;
use crate::rule::State;
use crate::units::{u64_from_usize, usize_from_u64, Ticks};
use crate::LatticeError;

/// Magic tag opening every generation file.
pub const SNAP_MAGIC: &[u8; 4] = b"LSNP";
/// Container format version written by [`CheckpointStore::commit`].
/// Version 2 added a per-shard `row0` for rectangular block shards.
/// Version-1 files are rejected as obsolete: they predate the
/// bit-plane images, so every image they hold is obsolete too.
pub const SNAP_VERSION: u16 = 2;
/// The two generation slots of the double buffer.
pub const GEN_FILES: [&str; 2] = ["gen0.lck", "gen1.lck"];

/// Fixed bytes before the shard table: magic, version, seq, time, count.
const SNAP_HEADER: usize = 4 + 2 + 8 + 8 + 4;
/// Bytes before each shard's image: col0, row0, image length.
const SHARD_HEADER: usize = 8 + 8 + 8;
/// Trailing CRC-64 footer.
const SNAP_FOOTER: usize = 8;

/// CRC-64/ECMA-182 over `bytes`, MSB first, a byte per step through
/// `bits::PARITY_BYTE`: the stream-parity table, whose polynomial
/// and fold are this CRC's, so the store needs no new math. A serve
/// step commits a few KiB and folds them twice (encode and read-back).
pub fn crc64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |crc, &b| (crc << 8) ^ bits::PARITY_BYTE[usize::from((crc >> 56) as u8 ^ b)])
}

fn store_err(site: &str, detail: String) -> LatticeError {
    LatticeError::Corrupted { site: format!("store {site}"), detail }
}

/// Abstract storage medium for generation files.
///
/// Implementations provide whole-file reads and atomic whole-file
/// replacement; the store layers the generation protocol on top. The
/// trait is std-only so a seeded [`FaultyBackend`] can wrap any
/// implementation and misbehave deterministically.
pub trait StoreBackend {
    /// Reads the full contents of `name`, or `None` if it does not exist.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError>;
    /// Atomically replaces `name` with `bytes`: after this returns
    /// `Ok`, a reader sees either the old contents or the new, never a
    /// mix — on real media via write-to-temp + fsync + rename.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError>;
    /// Names of every file on the medium, in unspecified order. The
    /// default (an empty listing) suits single-run backends; media
    /// hosting many namespaced sessions ([`SessionNamespace`]) override
    /// it so [`list_sessions`] can find them again after a restart.
    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        Ok(Vec::new())
    }
}

/// Filesystem-backed store directory.
///
/// This is the **only** module in the workspace allowed to call
/// `std::fs` write paths (enforced by the `fs-write` lattice-lint
/// rule): every durable byte goes through the audited temp-file +
/// fsync + rename commit below.
pub struct DiskBackend {
    root: PathBuf,
}

impl DiskBackend {
    /// Opens (creating if needed) a store directory.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, LatticeError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)
            .map_err(|e| LatticeError::InvalidConfig(format!("checkpoint dir {root:?}: {e}")))?;
        Ok(DiskBackend { root })
    }

    /// The directory this backend persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl StoreBackend for DiskBackend {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError> {
        match fs::read(self.root.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(store_err(name, format!("read: {e}"))),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError> {
        let tmp = self.root.join(format!("{name}.tmp"));
        let fin = self.root.join(name);
        let io = |stage: &str, e: std::io::Error| store_err(name, format!("{stage}: {e}"));
        let mut f = fs::File::create(&tmp).map_err(|e| io("create temp", e))?;
        f.write_all(bytes).map_err(|e| io("write temp", e))?;
        // Push the bytes to the medium *before* the rename publishes
        // them: a crash after this point leaves either the old file or
        // the complete new one.
        f.sync_all().map_err(|e| io("fsync temp", e))?;
        drop(f);
        fs::rename(&tmp, &fin).map_err(|e| io("rename", e))
    }

    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        let entries = fs::read_dir(&self.root)
            .map_err(|e| store_err("directory", format!("read dir {:?}: {e}", self.root)))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| store_err("directory", format!("read entry: {e}")))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }
}

/// In-memory backend for tests and the chaos soak: same semantics as
/// [`DiskBackend`] minus the actual disk.
#[derive(Default)]
pub struct MemBackend {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemBackend {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to a stored file, for corrupting it in tests.
    pub fn file_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.files.get_mut(name)
    }
}

impl StoreBackend for MemBackend {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError> {
        Ok(self.files.get(name).cloned())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError> {
        self.files.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        Ok(self.files.keys().cloned().collect())
    }
}

/// Per-class injection rates for [`FaultyBackend`], each in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoFaultRates {
    /// Probability a write is silently truncated to a strict prefix
    /// (durability lost after the rename — e.g. power cut before the
    /// directory entry hit the journal).
    pub torn_write: f64,
    /// Probability a read returns the stored bytes with one bit
    /// flipped (decay at rest, surfaced at read time).
    pub bit_rot: f64,
    /// Probability a read returns only a strict prefix of the file.
    pub short_read: f64,
    /// Probability a write errors after the temp file is written but
    /// before the rename — the destination is left untouched.
    pub crash_before_rename: f64,
}

/// Counters for faults actually delivered by a [`FaultyBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IoFaultStats {
    /// Writes silently truncated.
    pub torn_writes: u64,
    /// Reads returned with a flipped bit.
    pub bit_rots: u64,
    /// Reads returned short.
    pub short_reads: u64,
    /// Writes aborted before the rename.
    pub crashes: u64,
}

impl IoFaultStats {
    /// Total faults delivered across all classes.
    pub fn total(&self) -> u64 {
        self.torn_writes + self.bit_rots + self.short_reads + self.crashes
    }
}

/// Deterministic fault-injecting wrapper around any backend.
///
/// Every backend operation advances a monotonic op counter; whether a
/// fault fires for (seed, op, class) is a pure function of those
/// values, the same SplitMix64-mix idiom the simulator's `FaultPlan`
/// uses — so a failing chaos storm replays bit-exact from its seed.
pub struct FaultyBackend<B> {
    inner: B,
    seed: u64,
    rates: IoFaultRates,
    op: u64,
    stats: IoFaultStats,
}

/// SplitMix64 finalizer (same constants as the simulator's fault plans).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash(parts: &[u64]) -> u64 {
    parts.iter().fold(0x243f_6a88_85a3_08d3, |h, &v| mix(h ^ v))
}

/// Fault-class discriminants folded into the draw hash.
const CLASS_TORN: u64 = 1;
const CLASS_ROT: u64 = 2;
const CLASS_SHORT: u64 = 3;
const CLASS_CRASH: u64 = 4;

impl<B: StoreBackend> FaultyBackend<B> {
    /// Wraps `inner`, injecting faults per `rates` on the schedule
    /// derived from `seed`.
    pub fn new(inner: B, seed: u64, rates: IoFaultRates) -> Self {
        FaultyBackend { inner, seed, rates, op: 0, stats: IoFaultStats::default() }
    }

    /// Faults delivered so far.
    pub fn stats(&self) -> IoFaultStats {
        self.stats
    }

    /// The wrapped backend, for inspecting what actually got stored.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// True when the (seed, op, class) draw lands under `rate`.
    fn draw(&self, op: u64, class: u64, rate: f64) -> bool {
        let h = hash(&[self.seed, op, class]);
        let unit: f64 = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }

    /// A deterministic index in `1..len` for truncation/flip positions.
    fn cut_point(&self, op: u64, class: u64, len: usize) -> usize {
        let h = hash(&[self.seed, op, class, 0x5eed]);
        1 + usize_from_u64(h % u64_from_usize(len.max(2) - 1))
    }
}

impl<B: StoreBackend> StoreBackend for FaultyBackend<B> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError> {
        let op = self.op;
        self.op += 1;
        let mut bytes = match self.inner.read(name)? {
            Some(b) => b,
            None => return Ok(None),
        };
        if bytes.len() > 1 && self.draw(op, CLASS_SHORT, self.rates.short_read) {
            self.stats.short_reads += 1;
            bytes.truncate(self.cut_point(op, CLASS_SHORT, bytes.len()));
        } else if !bytes.is_empty() && self.draw(op, CLASS_ROT, self.rates.bit_rot) {
            self.stats.bit_rots += 1;
            let bit = hash(&[self.seed, op, CLASS_ROT, 0xb17]) % u64_from_usize(bytes.len() * 8);
            bytes[usize_from_u64(bit / 8)] ^= 1u8 << (bit % 8);
        }
        Ok(Some(bytes))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError> {
        let op = self.op;
        self.op += 1;
        if self.draw(op, CLASS_CRASH, self.rates.crash_before_rename) {
            self.stats.crashes += 1;
            return Err(store_err(name, "crash before rename (injected)".into()));
        }
        if bytes.len() > 1 && self.draw(op, CLASS_TORN, self.rates.torn_write) {
            self.stats.torn_writes += 1;
            let cut = self.cut_point(op, CLASS_TORN, bytes.len());
            return self.inner.write_atomic(name, &bytes[..cut]);
        }
        self.inner.write_atomic(name, bytes)
    }

    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        // Directory listings are metadata, not payload: no fault class
        // models them, so they pass through (and don't advance the op
        // counter, keeping existing chaos schedules stable).
        self.inner.list()
    }
}

impl<B: StoreBackend + ?Sized> StoreBackend for &mut B {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError> {
        (**self).read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError> {
        (**self).write_atomic(name, bytes)
    }

    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        (**self).list()
    }
}

/// Prefix every session file carries on a shared medium.
pub const SESSION_PREFIX: &str = "sess-";

/// A name-prefixing view over a shared backend: every file of one
/// serving session lives under `sess-<name>.`, so many sessions (and a
/// bare single-run store) coexist in one checkpoint directory, each
/// with its own double-buffered generation pair and meta record. The
/// prefix is pure renaming — the generation protocol, read-back
/// verification, and fault injection all compose unchanged.
pub struct SessionNamespace<B> {
    inner: B,
    prefix: String,
}

/// Whether `name` is a legal session name: 1–64 chars of
/// `[A-Za-z0-9_-]`, so a name can never escape its prefix (no `/`, no
/// `.`, no empty string) or collide with the slot file suffixes.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl<B> SessionNamespace<B> {
    /// Wraps `inner`, scoping every file under `sess-<session>.`.
    pub fn new(inner: B, session: &str) -> Result<Self, LatticeError> {
        if !valid_session_name(session) {
            return Err(LatticeError::InvalidConfig(format!(
                "session name {session:?} must be 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        Ok(SessionNamespace { inner, prefix: format!("{SESSION_PREFIX}{session}.") })
    }

    /// The wrapped backend.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }
}

impl<B: StoreBackend> StoreBackend for SessionNamespace<B> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, LatticeError> {
        self.inner.read(&format!("{}{name}", self.prefix))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), LatticeError> {
        self.inner.write_atomic(&format!("{}{name}", self.prefix), bytes)
    }

    fn list(&mut self) -> Result<Vec<String>, LatticeError> {
        Ok(self
            .inner
            .list()?
            .into_iter()
            .filter_map(|n| n.strip_prefix(&self.prefix).map(str::to_string))
            .collect())
    }
}

/// Names of every session with at least one generation slot on the
/// medium, sorted and deduplicated — how a restarted daemon finds the
/// sessions a previous life left behind.
pub fn list_sessions<B: StoreBackend>(backend: &mut B) -> Result<Vec<String>, LatticeError> {
    let mut names: Vec<String> = backend
        .list()?
        .into_iter()
        .filter_map(|n| {
            let rest = n.strip_prefix(SESSION_PREFIX)?;
            GEN_FILES.iter().find_map(|g| rest.strip_suffix(&format!(".{g}"))).map(str::to_string)
        })
        .filter(|s| valid_session_name(s))
        .collect();
    names.sort();
    names.dedup();
    Ok(names)
}

/// One shard's contribution to a snapshot: where its block sits in the
/// full lattice and its checkpoint image (the codec in the parent
/// module). Columnar slabs are blocks with `row0 = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBlob {
    /// First interior column of the shard's block in the full lattice.
    pub col0: u64,
    /// First interior row of the shard's block in the full lattice.
    pub row0: u64,
    /// Checkpoint image of the block ([`super::save`]: header +
    /// bit-planes).
    pub blob: Vec<u8>,
}

/// A decoded shard-consistent snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic commit sequence number.
    pub seq: u64,
    /// Generation stamp shared by every shard image.
    pub time: Ticks,
    /// Per-shard checkpoint images, in slab order.
    pub shards: Vec<ShardBlob>,
}

/// A snapshot returned by [`CheckpointStore::load_latest`], with
/// provenance: which slot it came from and whether the newer slot had
/// to be abandoned as corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSnapshot {
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// Which generation slot supplied it.
    pub slot: usize,
    /// True when another slot was present but failed validation, so
    /// this is the last-good fallback rather than the newest write.
    pub fell_back: bool,
}

fn encode_snapshot(seq: u64, time: Ticks, shards: &[ShardBlob]) -> Vec<u8> {
    let payload: usize = shards.iter().map(|s| SHARD_HEADER + s.blob.len()).sum();
    let mut out = Vec::with_capacity(SNAP_HEADER + payload + SNAP_FOOTER);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&time.get().to_le_bytes());
    out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for s in shards {
        out.extend_from_slice(&s.col0.to_le_bytes());
        out.extend_from_slice(&s.row0.to_le_bytes());
        out.extend_from_slice(&u64_from_usize(s.blob.len()).to_le_bytes());
        out.extend_from_slice(&s.blob);
    }
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and validates one generation file.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, LatticeError> {
    let err = |detail: String| store_err("generation", detail);
    if bytes.len() < SNAP_HEADER + SNAP_FOOTER {
        return Err(err(format!("short file: {} bytes", bytes.len())));
    }
    if &bytes[..4] != SNAP_MAGIC {
        return Err(err("bad magic".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > SNAP_VERSION {
        return Err(err(format!(
            "future container version {version} (this build reads {SNAP_VERSION})"
        )));
    }
    if version < SNAP_VERSION {
        return Err(err(format!("obsolete container version {version}")));
    }
    let word = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    };
    let body = &bytes[..bytes.len() - SNAP_FOOTER];
    let (stored, actual) = (word(body.len()), crc64(body));
    if stored != actual {
        return Err(err(format!("CRC mismatch: stored {stored:#018x}, computed {actual:#018x}")));
    }
    let (seq, time) = (word(6), Ticks::new(word(14)));
    let count = u32::from_le_bytes([bytes[22], bytes[23], bytes[24], bytes[25]]) as usize;
    let mut shards = Vec::with_capacity(count.min(1024));
    let mut pos = SNAP_HEADER;
    for i in 0..count {
        if body.len() - pos < SHARD_HEADER {
            return Err(err(format!("shard {i} header truncated")));
        }
        let (col0, row0, len) = (word(pos), word(pos + 8), word(pos + 16));
        pos += SHARD_HEADER;
        // A crafted length must not wrap `pos + len` around.
        let blob = usize::try_from(len)
            .ok()
            .and_then(|len| body.get(pos..pos.checked_add(len)?))
            .ok_or_else(|| err(format!("shard {i} blob truncated")))?;
        shards.push(ShardBlob { col0, row0, blob: blob.to_vec() });
        pos += blob.len();
    }
    if pos != body.len() {
        return Err(err("trailing bytes after shard table".into()));
    }
    Ok(Snapshot { seq, time, shards })
}

/// Double-buffered durable checkpoint store over a [`StoreBackend`].
pub struct CheckpointStore<B: StoreBackend> {
    backend: B,
    next_seq: u64,
    next_slot: usize,
    commits: u64,
    commit_failures: u64,
    bytes_written: u64,
}

impl<B: StoreBackend> CheckpointStore<B> {
    /// Opens a store over `backend`, probing both generation slots to
    /// find where the protocol left off. A completely empty medium is
    /// fine (first run); corrupt slots are tolerated here and only
    /// reported by [`Self::load_latest`].
    pub fn open(backend: B) -> Result<Self, LatticeError> {
        let mut store = CheckpointStore {
            backend,
            next_seq: 1,
            next_slot: 0,
            commits: 0,
            commit_failures: 0,
            bytes_written: 0,
        };
        let probes = store.probe()?;
        let mut best: Option<(usize, u64)> = None;
        for (slot, p) in probes.iter().enumerate() {
            if let Some(Ok(snap)) = p {
                if best.map(|(_, s)| snap.seq > s).unwrap_or(true) {
                    best = Some((slot, snap.seq));
                }
            }
        }
        if let Some((slot, seq)) = best {
            store.next_seq = seq + 1;
            store.next_slot = 1 - slot;
        }
        Ok(store)
    }

    /// Reads and decodes both slots: `None` = absent, `Some(Err)` =
    /// present but invalid, `Some(Ok)` = intact.
    #[allow(clippy::type_complexity)]
    fn probe(&mut self) -> Result<[Option<Result<Snapshot, LatticeError>>; 2], LatticeError> {
        let mut out = [None, None];
        for (slot, name) in GEN_FILES.iter().enumerate() {
            out[slot] = self.backend.read(name)?.map(|bytes| decode_snapshot(&bytes));
        }
        Ok(out)
    }

    /// Commits a shard-consistent snapshot as the next generation.
    ///
    /// The image goes to the slot *not* holding the newest good
    /// generation, is fsync'd and renamed into place by the backend,
    /// and is then read back and re-validated; only after the
    /// read-back passes does the store advance its sequence number and
    /// flip slots. Any failure (including a silently torn write caught
    /// by the read-back) leaves the previous good generation intact
    /// and is reported as a structured error.
    pub fn commit(&mut self, time: Ticks, shards: &[ShardBlob]) -> Result<u64, LatticeError> {
        let seq = self.next_seq;
        let slot = self.next_slot;
        let bytes = encode_snapshot(seq, time, shards);
        let n = u64_from_usize(bytes.len());
        let outcome = self.backend.write_atomic(GEN_FILES[slot], &bytes).and_then(|()| {
            // Read-back verification: the commit only counts if the
            // medium can hand the generation back intact.
            match self.backend.read(GEN_FILES[slot])? {
                Some(back) => {
                    let snap = decode_snapshot(&back)?;
                    if snap.seq != seq {
                        return Err(store_err(
                            GEN_FILES[slot],
                            format!("read-back seq {} != committed {seq}", snap.seq),
                        ));
                    }
                    Ok(())
                }
                None => Err(store_err(GEN_FILES[slot], "vanished before read-back".into())),
            }
        });
        match outcome {
            Ok(()) => {
                self.next_seq += 1;
                self.next_slot = 1 - slot;
                self.commits += 1;
                self.bytes_written += n;
                Ok(seq)
            }
            Err(e) => {
                self.commit_failures += 1;
                Err(e)
            }
        }
    }

    /// Loads the newest intact generation.
    ///
    /// Returns `Ok(None)` on an empty medium, the valid snapshot with
    /// the highest sequence number otherwise — with `fell_back` set
    /// when a present-but-corrupt newer slot was skipped — and a
    /// structured error only when generation files exist but none
    /// decodes.
    pub fn load_latest(&mut self) -> Result<Option<LoadedSnapshot>, LatticeError> {
        let probes = self.probe()?;
        let mut present = 0usize;
        let mut bad = 0usize;
        let mut best: Option<(usize, Snapshot)> = None;
        let mut first_err: Option<LatticeError> = None;
        for (slot, p) in probes.into_iter().enumerate() {
            match p {
                None => {}
                Some(Ok(snap)) => {
                    present += 1;
                    if best.as_ref().map(|(_, b)| snap.seq > b.seq).unwrap_or(true) {
                        best = Some((slot, snap));
                    }
                }
                Some(Err(e)) => {
                    present += 1;
                    bad += 1;
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match best {
            Some((slot, snapshot)) => {
                Ok(Some(LoadedSnapshot { snapshot, slot, fell_back: bad > 0 }))
            }
            None if present == 0 => Ok(None),
            None => {
                Err(first_err
                    .unwrap_or_else(|| store_err("generation", "no intact generation".into())))
            }
        }
    }

    /// Successful commits since open.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Failed commits since open (crash-before-rename, backend errors,
    /// read-back rejections).
    pub fn commit_failures(&self) -> u64 {
        self.commit_failures
    }

    /// Total bytes durably committed since open.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The backend, for inspecting or corrupting stored files in tests.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Durably records an opaque meta payload (the daemon stores each
    /// session's configuration here, so a restart can rebuild the farm
    /// before reassembling the lattice). Single slot, CRC-guarded,
    /// atomic-replace + read-back like a generation commit; the payload
    /// is caller-defined bytes, not interpreted by the store.
    pub fn commit_meta(&mut self, payload: &[u8]) -> Result<(), LatticeError> {
        let mut out = Vec::with_capacity(4 + 8 + payload.len() + 8);
        out.extend_from_slice(META_MAGIC);
        out.extend_from_slice(&u64_from_usize(payload.len()).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc64(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        self.backend.write_atomic(META_FILE, &out)?;
        match self.backend.read(META_FILE)? {
            Some(back) if decode_meta(&back)? == payload => Ok(()),
            Some(_) => Err(store_err(META_FILE, "read-back disagrees with commit".into())),
            None => Err(store_err(META_FILE, "vanished before read-back".into())),
        }
    }

    /// Loads the meta payload, `None` if none was ever committed.
    pub fn load_meta(&mut self) -> Result<Option<Vec<u8>>, LatticeError> {
        match self.backend.read(META_FILE)? {
            Some(bytes) => decode_meta(&bytes).map(Some),
            None => Ok(None),
        }
    }
}

/// File name of the per-store meta record.
pub const META_FILE: &str = "meta.lck";
/// Magic tag opening the meta record.
pub const META_MAGIC: &[u8; 4] = b"LMET";

/// Decodes and validates a meta record, returning the payload.
pub fn decode_meta(bytes: &[u8]) -> Result<Vec<u8>, LatticeError> {
    let err = |detail: String| store_err(META_FILE, detail);
    if bytes.len() < 4 + 8 + 8 {
        return Err(err(format!("short file: {} bytes", bytes.len())));
    }
    if &bytes[..4] != META_MAGIC {
        return Err(err("bad magic".into()));
    }
    let body = &bytes[..bytes.len() - 8];
    let mut fb = [0u8; 8];
    fb.copy_from_slice(&bytes[bytes.len() - 8..]);
    let stored = u64::from_le_bytes(fb);
    let actual = crc64(body);
    if stored != actual {
        return Err(err(format!("CRC mismatch: stored {stored:#018x}, computed {actual:#018x}")));
    }
    fb.copy_from_slice(&bytes[4..12]);
    let len = usize_from_u64(u64::from_le_bytes(fb));
    if 4 + 8 + len != body.len() {
        return Err(err(format!("payload length {len} disagrees with file")));
    }
    Ok(body[12..].to_vec())
}

/// Destination for periodic durable snapshots, object-safe so the
/// engine and farm recovery loops can take `&mut dyn SnapshotSink`
/// without being generic over the backend.
pub trait SnapshotSink {
    /// Persists one shard-consistent snapshot at generation `time`.
    fn persist(&mut self, time: Ticks, shards: &[ShardBlob]) -> Result<(), LatticeError>;
}

impl<B: StoreBackend> SnapshotSink for CheckpointStore<B> {
    fn persist(&mut self, time: Ticks, shards: &[ShardBlob]) -> Result<(), LatticeError> {
        self.commit(time, shards).map(|_| ())
    }
}

/// Rebuilds the full lattice from a snapshot's per-shard images.
///
/// Each blob must decode to a rectangular block stamped with the
/// snapshot's generation, and the blocks placed at their recorded
/// `(row0, col0)` origins must tile the lattice exactly (every site
/// covered once, no gaps, no overlap) — the layout a [`ShardBlob`]
/// records survives degraded re-partitioning and board-grid reshapes
/// because reassembly trusts the recorded geometry, not the current
/// farm configuration. The lattice is allocated only once the blocks'
/// extent holds exactly as many sites as the blocks do, so crafted
/// origins cannot size it.
pub fn reassemble<S: State>(snap: &Snapshot) -> Result<(Grid<S>, Ticks), LatticeError> {
    let err = |detail: String| store_err("snapshot", detail);
    if snap.shards.is_empty() {
        return Err(err("no shards".into()));
    }
    let mut blocks: Vec<(usize, usize, Grid<S>)> = Vec::with_capacity(snap.shards.len());
    let (mut rows, mut cols, mut sites) = (0usize, 0usize, 0usize);
    for (i, s) in snap.shards.iter().enumerate() {
        let (g, t) = super::load::<S>(&s.blob)?;
        if t != snap.time {
            return Err(err(format!(
                "shard {i} stamped generation {} but snapshot says {}",
                t.get(),
                snap.time.get()
            )));
        }
        if g.shape().rank() != 2 {
            return Err(err(format!("shard {i} is not a 2-D block")));
        }
        let (row0, col0) = (usize_from_u64(s.row0), usize_from_u64(s.col0));
        let (end_row, end_col) = row0
            .checked_add(g.shape().dims()[0])
            .zip(col0.checked_add(g.shape().dims()[1]))
            .ok_or_else(|| err(format!("shard {i} lies past the addressable lattice")))?;
        rows = rows.max(end_row);
        cols = cols.max(end_col);
        sites += g.shape().len();
        blocks.push((row0, col0, g));
    }
    if rows.checked_mul(cols) != Some(sites) {
        return Err(err(format!("shards hold {sites} sites but span a {rows}x{cols} lattice")));
    }
    let shape = Shape::grid2(rows, cols)?;
    let mut data: Vec<S> = vec![S::default(); shape.len()];
    let mut covered = vec![false; shape.len()];
    for (i, (row0, col0, g)) in blocks.iter().enumerate() {
        let (h, w) = (g.shape().dims()[0], g.shape().dims()[1]);
        for r in 0..h {
            let dst = (row0 + r) * cols + col0;
            data[dst..dst + w].copy_from_slice(&g.as_slice()[r * w..(r + 1) * w]);
            for c in &mut covered[dst..dst + w] {
                if *c {
                    return Err(err(format!("shard {i} overlaps an earlier shard")));
                }
                *c = true;
            }
        }
    }
    Ok((Grid::from_vec(shape, data)?, snap.time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use crate::coord::Coord;

    fn blob_for(rows: usize, cols: usize, col0: u64, t: u64, salt: u64) -> ShardBlob {
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = Grid::from_fn(shape, |c| {
            ((c.row() as u64 * 31 + c.col() as u64 * 7 + col0 * 13 + salt) % 16) as u8
        });
        ShardBlob { col0, row0: 0, blob: checkpoint::save(&g, Ticks::new(t)) }
    }

    fn snap_shards(t: u64, salt: u64) -> Vec<ShardBlob> {
        vec![blob_for(5, 3, 0, t, salt), blob_for(5, 4, 3, t, salt), blob_for(5, 2, 7, t, salt)]
    }

    #[test]
    fn commit_and_load_roundtrip() {
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let shards = snap_shards(4, 1);
        let seq = store.commit(Ticks::new(4), &shards).unwrap();
        assert_eq!(seq, 1);
        let loaded = store.load_latest().unwrap().unwrap();
        assert!(!loaded.fell_back);
        assert_eq!(loaded.snapshot.time, Ticks::new(4));
        assert_eq!(loaded.snapshot.shards, shards);
        let (g, t) = reassemble::<u8>(&loaded.snapshot).unwrap();
        assert_eq!(t, Ticks::new(4));
        assert_eq!(g.shape().dims(), &[5, 9]);
        // Spot-check a site against the generator of shard 1 (col0=3):
        // global col 4 is local col 1 of that slab.
        assert_eq!(g.get(Coord::c2(2, 4)), ((2u64 * 31 + 7 + 3 * 13 + 1) % 16) as u8);
    }

    #[test]
    fn commits_alternate_slots_and_reopen_resumes_seq() {
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        store.commit(Ticks::new(1), &snap_shards(1, 0)).unwrap();
        store.commit(Ticks::new(2), &snap_shards(2, 0)).unwrap();
        store.commit(Ticks::new(3), &snap_shards(3, 0)).unwrap();
        let mem = std::mem::take(store.backend_mut());
        let mut reopened = CheckpointStore::open(mem).unwrap();
        let seq = reopened.commit(Ticks::new(4), &snap_shards(4, 0)).unwrap();
        assert_eq!(seq, 4);
        let loaded = reopened.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.seq, 4);
        assert_eq!(loaded.snapshot.time, Ticks::new(4));
    }

    #[test]
    fn rotted_newest_generation_falls_back_to_last_good() {
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        store.commit(Ticks::new(1), &snap_shards(1, 0)).unwrap();
        store.commit(Ticks::new(2), &snap_shards(2, 0)).unwrap();
        // Newest generation (seq 2) lives in slot 1; rot a payload bit.
        let f = store.backend_mut().file_mut(GEN_FILES[1]).unwrap();
        let mid = f.len() / 2;
        f[mid] ^= 0x10;
        let loaded = store.load_latest().unwrap().unwrap();
        assert!(loaded.fell_back, "should fall back to the previous generation");
        assert_eq!(loaded.snapshot.seq, 1);
        assert_eq!(loaded.snapshot.time, Ticks::new(1));
        assert_eq!(loaded.snapshot.shards, snap_shards(1, 0));
    }

    #[test]
    fn both_generations_corrupt_is_a_structured_error() {
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        store.commit(Ticks::new(1), &snap_shards(1, 0)).unwrap();
        store.commit(Ticks::new(2), &snap_shards(2, 0)).unwrap();
        for name in GEN_FILES {
            let f = store.backend_mut().file_mut(name).unwrap();
            f.truncate(f.len() / 2);
        }
        match store.load_latest() {
            Err(LatticeError::Corrupted { site, .. }) => assert!(site.contains("store")),
            other => panic!("expected structured corruption, got {other:?}"),
        }
    }

    #[test]
    fn torn_write_is_caught_by_read_back_and_previous_survives() {
        let rates = IoFaultRates { torn_write: 1.0, ..Default::default() };
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        store.commit(Ticks::new(1), &snap_shards(1, 0)).unwrap();
        // Hand the same files to a backend that tears every write.
        let mem = std::mem::take(store.backend_mut());
        let mut faulty = CheckpointStore::open(FaultyBackend::new(mem, 7, rates)).unwrap();
        for attempt in 0..4u64 {
            let e = faulty.commit(Ticks::new(2 + attempt), &snap_shards(2 + attempt, 0));
            assert!(e.is_err(), "torn write must not count as a commit");
        }
        assert_eq!(faulty.commit_failures(), 4);
        let loaded = faulty.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.seq, 1, "previous good generation must survive");
        assert_eq!(loaded.snapshot.shards, snap_shards(1, 0));
    }

    #[test]
    fn crash_before_rename_leaves_previous_generation() {
        let rates = IoFaultRates { crash_before_rename: 1.0, ..Default::default() };
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        store.commit(Ticks::new(5), &snap_shards(5, 2)).unwrap();
        let mem = std::mem::take(store.backend_mut());
        let mut faulty = CheckpointStore::open(FaultyBackend::new(mem, 11, rates)).unwrap();
        assert!(faulty.commit(Ticks::new(6), &snap_shards(6, 2)).is_err());
        let loaded = faulty.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.time, Ticks::new(5));
        assert!(!loaded.fell_back, "destination untouched: newest slot is still intact");
    }

    #[test]
    fn future_container_version_rejected() {
        let shards = snap_shards(1, 0);
        let mut bytes = encode_snapshot(1, Ticks::new(1), &shards);
        bytes[4..6].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        // Re-seal so only the version is wrong.
        let n = bytes.len();
        let crc = crc64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("future container version"), "{detail}");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn disk_backend_roundtrips_and_renames_atomically() {
        let dir = std::env::temp_dir().join(format!("lck-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
        store.commit(Ticks::new(3), &snap_shards(3, 9)).unwrap();
        store.commit(Ticks::new(4), &snap_shards(4, 9)).unwrap();
        drop(store);
        // A fresh process-equivalent reopen sees the newest generation,
        // and no temp files were left behind.
        let mut back = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
        let loaded = back.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.time, Ticks::new(4));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().map(|x| x == "tmp").unwrap_or(false))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reassemble_rejects_gapped_or_disagreeing_slabs() {
        let mut shards = snap_shards(2, 0);
        shards[1].col0 = 4; // gap at col 3, overlap at cols 7..8
        let snap = Snapshot { seq: 1, time: Ticks::new(2), shards };
        assert!(reassemble::<u8>(&snap).is_err());
        let mut shards = snap_shards(2, 0);
        shards[2].blob = blob_for(5, 2, 7, 3, 0).blob; // wrong generation stamp
        let snap = Snapshot { seq: 1, time: Ticks::new(2), shards };
        assert!(reassemble::<u8>(&snap).is_err());
        let mut shards = snap_shards(2, 0);
        shards[2].row0 = 1; // hangs past the bottom edge, gap at row 0
        let snap = Snapshot { seq: 1, time: Ticks::new(2), shards };
        assert!(reassemble::<u8>(&snap).is_err());
    }

    #[test]
    fn block_snapshots_reassemble_by_recorded_rectangles() {
        // A 2×2 board grid over a 6×9 lattice: blocks carry their own
        // (row0, col0) and reassembly trusts the recorded rectangles.
        fn block(rows: usize, cols: usize, row0: u64, col0: u64) -> ShardBlob {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = Grid::from_fn(shape, |c| {
                (((row0 + c.row() as u64) * 31 + (col0 + c.col() as u64) * 7) % 16) as u8
            });
            ShardBlob { col0, row0, blob: checkpoint::save(&g, Ticks::new(3)) }
        }
        let shards =
            vec![block(3, 5, 0, 0), block(3, 4, 0, 5), block(3, 5, 3, 0), block(3, 4, 3, 5)];
        let snap = Snapshot { seq: 1, time: Ticks::new(3), shards };
        let (g, t) = reassemble::<u8>(&snap).unwrap();
        assert_eq!(t, Ticks::new(3));
        assert_eq!(g.shape().dims(), &[6, 9]);
        for r in 0..6u64 {
            for c in 0..9u64 {
                let want = ((r * 31 + c * 7) % 16) as u8;
                assert_eq!(g.get(Coord::c2(r as usize, c as usize)), want, "({r},{c})");
            }
        }
    }

    #[test]
    fn version1_containers_are_obsolete() {
        let mut bytes = encode_snapshot(9, Ticks::new(4), &snap_shards(4, 6));
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let n = bytes.len();
        let crc = crc64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert_eq!(detail, "obsolete container version 1");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_shard_length_of_u64_max_is_corrupt_not_a_panic() {
        // One shard whose image length is u64::MAX: `pos + len` used to
        // wrap to 49 and panic slicing body[50..49].
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAP_MAGIC);
        bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&0u64.to_le_bytes()); // time
        bytes.extend_from_slice(&1u32.to_le_bytes()); // shard count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // col0
        bytes.extend_from_slice(&0u64.to_le_bytes()); // row0
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // image length
        let crc = crc64(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes.len(), 58);
        match decode_snapshot(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert_eq!(detail, "shard 0 blob truncated");
            }
            other => panic!("expected structured rejection, got {other:?}"),
        }
    }

    #[test]
    fn far_flung_shard_origins_are_rejected_before_allocation() {
        // One 1x1 shard at (2^21, 2^21): its extent is a 2^42-site
        // lattice, which used to be allocated (4.4 TB) before the
        // coverage check. A CRC-valid file carries it to reassembly.
        let one = Grid::filled(Shape::grid2(1, 1).unwrap(), 5u8);
        let far =
            ShardBlob { col0: 1 << 21, row0: 1 << 21, blob: checkpoint::save(&one, Ticks::ONE) };
        let snap =
            decode_snapshot(&encode_snapshot(1, Ticks::ONE, std::slice::from_ref(&far))).unwrap();
        match reassemble::<u8>(&snap) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("hold 1 sites but span a 2097153x2097153"), "{detail}");
            }
            other => panic!("expected structured rejection, got {other:?}"),
        }
        // Origins whose end does not fit in usize are rejected too.
        let edge = ShardBlob { row0: u64::MAX, ..far };
        let snap = Snapshot { seq: 1, time: Ticks::ONE, shards: vec![edge] };
        assert!(reassemble::<u8>(&snap).is_err());
    }

    #[test]
    fn crc64_matches_known_reflection_free_vector() {
        // CRC-64/ECMA-182 ("DLC") of "123456789".
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
        assert_eq!(crc64_bitwise(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    /// The bit-at-a-time Galois fold the table replaces: the oracle.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        const POLY: u64 = 0x42F0_E1EB_A9EA_3693;
        let mut crc = 0u64;
        for &b in bytes {
            crc ^= u64::from(b) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 { (crc << 1) ^ POLY } else { crc << 1 };
            }
        }
        crc
    }

    proptest::proptest! {
        #[test]
        fn crc64_equals_the_bitwise_fold(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..5001usize),
        ) {
            proptest::prop_assert_eq!(crc64(&bytes), crc64_bitwise(&bytes));
        }
    }

    #[test]
    fn session_namespaces_isolate_stores_on_one_medium() {
        // Two sessions and a bare store share one MemBackend; each sees
        // only its own generations, and list_sessions finds exactly the
        // namespaced ones.
        let mut medium = MemBackend::new();
        {
            let ns = SessionNamespace::new(&mut medium, "alpha").unwrap();
            let mut store = CheckpointStore::open(ns).unwrap();
            store.commit(Ticks::new(3), &snap_shards(3, 1)).unwrap();
        }
        {
            let ns = SessionNamespace::new(&mut medium, "beta-2").unwrap();
            let mut store = CheckpointStore::open(ns).unwrap();
            store.commit(Ticks::new(7), &snap_shards(7, 2)).unwrap();
            store.commit(Ticks::new(9), &snap_shards(9, 2)).unwrap();
        }
        {
            let mut bare = CheckpointStore::open(&mut medium).unwrap();
            assert!(bare.load_latest().unwrap().is_none(), "bare slots are untouched");
            bare.commit(Ticks::new(1), &snap_shards(1, 3)).unwrap();
        }
        assert_eq!(list_sessions(&mut medium).unwrap(), vec!["alpha", "beta-2"]);
        let ns = SessionNamespace::new(&mut medium, "alpha").unwrap();
        let mut store = CheckpointStore::open(ns).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.time, Ticks::new(3));
        assert_eq!(loaded.snapshot.shards, snap_shards(3, 1));
    }

    #[test]
    fn session_names_are_validated() {
        for bad in ["", "a/b", "a.b", "..", "white space", &"x".repeat(65)] {
            assert!(SessionNamespace::new(MemBackend::new(), bad).is_err(), "{bad:?}");
            assert!(!valid_session_name(bad), "{bad:?}");
        }
        for good in ["a", "sess_1", "Big-Run-42", &"x".repeat(64)] {
            assert!(valid_session_name(good), "{good:?}");
        }
    }

    #[test]
    fn meta_record_roundtrips_and_rejects_rot() {
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        assert!(store.load_meta().unwrap().is_none());
        store.commit_meta(br#"{"engine":"wsa","rows":8}"#).unwrap();
        assert_eq!(store.load_meta().unwrap().unwrap(), br#"{"engine":"wsa","rows":8}"#.to_vec());
        // Overwrite wins.
        store.commit_meta(b"v2").unwrap();
        assert_eq!(store.load_meta().unwrap().unwrap(), b"v2".to_vec());
        // A rotted payload byte is caught by the CRC.
        let f = store.backend_mut().file_mut(META_FILE).unwrap();
        f[12] ^= 0x01;
        assert!(store.load_meta().is_err());
    }

    #[test]
    fn faulty_backend_composes_with_session_namespace() {
        // Namespacing under an injected torn write: the read-back
        // verification still catches it, and the error names the
        // session-scoped file.
        let rates = IoFaultRates { torn_write: 1.0, ..Default::default() };
        let faulty = FaultyBackend::new(MemBackend::new(), 11, rates);
        let ns = SessionNamespace::new(faulty, "storm").unwrap();
        let mut store = CheckpointStore::open(ns).unwrap();
        assert!(store.commit(Ticks::new(1), &snap_shards(1, 0)).is_err());
        assert_eq!(store.commit_failures(), 1);
        assert_eq!(store.backend_mut().inner_mut().stats().torn_writes, 1);
    }
}
