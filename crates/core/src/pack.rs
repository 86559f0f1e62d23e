//! phase-pack — the zero-dependency binary artifact codec behind the spill.
//!
//! phase-pack is the store's only spill format: length-prefixed records of
//! varint-packed fields, so numbers never round-trip through text and a load
//! never builds a document model; a file header carrying the format version
//! and the producing toolchain; and a per-record 64-bit checksum so a
//! bit-flipped artifact is *skipped with a structured error* instead of
//! deserialized wrong. Decoding never panics — every failure mode is a
//! [`PackError`].
//!
//! The module has three layers:
//!
//! * **Primitives** — [`PackWriter`]/[`PackReader`] over plain byte buffers
//!   (LEB128 varints, bit-exact `f64`, length-prefixed strings).
//! * **File framing** — [`write_pack_file`]/[`read_pack_file`]: magic +
//!   version + toolchain + stage header, then `(key, payload, checksum)`
//!   records.
//! * **Artifact codecs** — `encode_*`/`decode_*` pairs for every stage the
//!   store spills (catalogues, typings, IPC profiles, isolated runtimes,
//!   instrumented programs, whole simulation cells). Encoders are
//!   deterministic (sorted iteration, bit-pattern floats), so
//!   encode→decode→encode is bit-identical — the property the round-trip
//!   battery pins. A payload that carries a program (catalogues,
//!   instrumented programs and baseline twins) holds it as one
//!   length-prefixed [`encode_program`] field, so a loader can find, hash
//!   and compare those bytes without decoding them, and decode each
//!   distinct program once ([`ProgramSource`]).
//!
//! [`base64_encode`]/[`base64_decode`] also live here: the network artifact
//! cache ships these same payloads over the NDJSON wire.

use std::collections::HashMap;
use std::sync::Arc;

use phase_analysis::{BlockTyping, PhaseType};
use phase_ir::{
    AccessPattern, BasicBlock, BlockId, BranchBehavior, InstrClass, Instruction, Location, MemRef,
    ProcId, Procedure, Program, Terminator,
};
use phase_marking::{Granularity, InstrumentedProgram, MarkingConfig, PhaseMark};
use phase_online::OnlineStats;
use phase_runtime::TunerStats;
use phase_sched::{Pid, ProcessRecord, ProcessStats, SimResult};
use phase_workload::{Benchmark, BenchmarkProfile, Catalog, PhaseKind, PhaseSpec};

use crate::artifacts::{CachedCell, ContentHash, StableHasher};
use crate::pipeline::{IpcProfileArtifact, IpcProfileRow};

/// The four magic bytes opening every pack file.
pub const PACK_MAGIC: [u8; 4] = *b"PPK1";

/// The pack format version; bumped on any layout change so a stale spill is
/// rejected structurally, never deserialized wrong.
pub const PACK_VERSION: u64 = 3;

/// The toolchain tag stamped into every pack file: artifacts are only
/// reusable across processes built from the same crate version, because the
/// pipeline stages that *produced* them may differ otherwise.
pub fn toolchain_tag() -> &'static str {
    concat!("phase/", env!("CARGO_PKG_VERSION"))
}

/// FNV-1a over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every way a pack file or record can fail to decode. Decoding never
/// panics: corrupt input always surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The buffer ended before the announced data did.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The file does not start with [`PACK_MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u64,
    },
    /// The file was written by a different toolchain.
    ToolchainMismatch {
        /// Toolchain tag found in the header.
        found: String,
    },
    /// The file holds a different stage than the caller asked for.
    StageMismatch {
        /// Stage name found in the header.
        found: String,
    },
    /// A record's payload does not match its stored checksum (bit flip).
    Checksum {
        /// Index of the corrupt record within its file.
        record: usize,
    },
    /// Structurally invalid content (bad tag, out-of-range value, trailing
    /// bytes, invalid UTF-8, an IR that fails validation).
    Malformed(String),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Truncated { wanted, remaining } => {
                write!(f, "truncated: wanted {wanted} bytes, {remaining} left")
            }
            PackError::BadMagic => write!(f, "not a phase-pack file (bad magic)"),
            PackError::BadVersion { found } => {
                write!(f, "pack version {found} (this build reads {PACK_VERSION})")
            }
            PackError::ToolchainMismatch { found } => {
                write!(
                    f,
                    "toolchain '{found}' (this build is '{}')",
                    toolchain_tag()
                )
            }
            PackError::StageMismatch { found } => write!(f, "file holds stage '{found}'"),
            PackError::Checksum { record } => write!(f, "record {record} failed its checksum"),
            PackError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for PackError {}

impl From<PackError> for std::io::Error {
    fn from(error: PackError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, error.to_string())
    }
}

fn malformed(what: impl Into<String>) -> PackError {
    PackError::Malformed(what.into())
}

/// An append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct PackWriter {
    buf: Vec<u8>,
}

impl PackWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u64` as an LEB128 varint (1 byte for values < 128).
    pub fn u64(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `usize` (as a varint `u64`).
    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Appends an `f64` by bit pattern — 8 fixed little-endian bytes, so
    /// round-trips are exact (NaN payloads and `-0.0` included).
    pub fn f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Appends a `u64` as 8 fixed little-endian bytes (for hashes and
    /// checksums, whose bits are uniformly distributed — a varint would
    /// expand them).
    pub fn u64_fixed(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.usize(value.len());
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, value: &[u8]) {
        self.usize(value.len());
        self.buf.extend_from_slice(value);
    }
}

/// A checked decoder over a byte slice; every read validates bounds.
#[derive(Debug)]
pub struct PackReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> PackReader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], PackError> {
        if self.remaining() < count {
            return Err(PackError::Truncated {
                wanted: count,
                remaining: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    /// Reads an LEB128 varint `u64`.
    pub fn u64(&mut self) -> Result<u64, PackError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(malformed("varint overflows u64"));
                }
                return Ok(value);
            }
        }
        Err(malformed("varint longer than 10 bytes"))
    }

    /// Reads a varint and checks it fits a `u32`.
    pub fn u32(&mut self) -> Result<u32, PackError> {
        u32::try_from(self.u64()?).map_err(|_| malformed("value exceeds u32"))
    }

    /// Reads a varint as a `usize`.
    pub fn usize(&mut self) -> Result<usize, PackError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("value exceeds usize"))
    }

    /// Reads a strict one-byte `bool` (anything but 0/1 is malformed).
    pub fn bool(&mut self) -> Result<bool, PackError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bool byte {other}"))),
        }
    }

    /// Reads a bit-exact `f64`.
    pub fn f64(&mut self) -> Result<f64, PackError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a fixed 8-byte little-endian `u64`.
    pub fn u64_fixed(&mut self) -> Result<u64, PackError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PackError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], PackError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Asserts every byte was consumed — trailing bytes are malformed, not
    /// ignored (they would mask framing bugs and smuggled data).
    pub fn finish(&self) -> Result<(), PackError> {
        if self.remaining() != 0 {
            return Err(malformed(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// A decoded pack file: its header identity plus every readable record.
/// Records that failed their checksum (and any structural error that cut
/// reading short) are reported in `skipped` — the store loads what survives
/// and surfaces the rest as structured errors.
#[derive(Debug, Default)]
pub struct PackFile {
    /// `(key, payload)` for every intact record.
    pub records: Vec<(ContentHash, Vec<u8>)>,
    /// Why the remaining records could not be read.
    pub skipped: Vec<PackError>,
}

/// Frames `records` into one pack file for `stage`: header (magic, version,
/// toolchain, stage, count) then `key | length-prefixed payload | checksum`
/// per record.
pub fn write_pack_file(stage: &str, records: &[(ContentHash, Vec<u8>)]) -> Vec<u8> {
    let mut w = PackWriter::new();
    w.buf.extend_from_slice(&PACK_MAGIC);
    w.u64(PACK_VERSION);
    w.str(toolchain_tag());
    w.str(stage);
    w.usize(records.len());
    for (key, payload) in records {
        w.u64_fixed(key.hi);
        w.u64_fixed(key.lo);
        w.bytes(payload);
        w.u64_fixed(record_checksum(payload));
    }
    w.into_bytes()
}

/// The per-record checksum: the low half of the payload's
/// [`StableHasher::write_blob`] hash, which takes eight bytes per step so
/// that checksumming stays a small part of a spill load.
fn record_checksum(payload: &[u8]) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_blob(payload);
    hasher.finish().lo
}

/// Reads a pack file written by [`write_pack_file`].
///
/// Header mismatches (magic, version, toolchain, stage) reject the whole
/// file — a stale or foreign cache is never deserialized. Body damage is
/// contained per record: a checksum failure skips that record and keeps
/// reading; a structural failure (truncation, bad framing) stops reading and
/// reports what was lost. Either way the call returns `Ok` with every intact
/// record — callers decide whether skips are fatal.
pub fn read_pack_file(bytes: &[u8], expected_stage: &str) -> Result<PackFile, PackError> {
    let mut r = PackReader::new(bytes);
    if r.take(PACK_MAGIC.len()).map_err(|_| PackError::BadMagic)? != PACK_MAGIC {
        return Err(PackError::BadMagic);
    }
    let version = r.u64()?;
    if version != PACK_VERSION {
        return Err(PackError::BadVersion { found: version });
    }
    let toolchain = r.str()?;
    if toolchain != toolchain_tag() {
        return Err(PackError::ToolchainMismatch { found: toolchain });
    }
    let stage = r.str()?;
    if stage != expected_stage {
        return Err(PackError::StageMismatch { found: stage });
    }
    let count = r.usize()?;
    let mut file = PackFile::default();
    for record in 0..count {
        let read_one = |r: &mut PackReader<'_>| -> Result<(ContentHash, Vec<u8>, u64), PackError> {
            let hi = r.u64_fixed()?;
            let lo = r.u64_fixed()?;
            let payload = r.bytes()?.to_vec();
            let checksum = r.u64_fixed()?;
            Ok((ContentHash { hi, lo }, payload, checksum))
        };
        match read_one(&mut r) {
            Ok((key, payload, checksum)) => {
                if record_checksum(&payload) == checksum {
                    file.records.push((key, payload));
                } else {
                    // The framing survived, only the payload is damaged:
                    // skip this record and keep reading the rest.
                    file.skipped.push(PackError::Checksum { record });
                }
            }
            Err(error) => {
                // Framing damage: nothing past this point can be trusted.
                file.skipped.push(error);
                return Ok(file);
            }
        }
    }
    if let Err(error) = r.finish() {
        file.skipped.push(error);
    }
    Ok(file)
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (with padding) — how binary artifact payloads ride the
/// JSON wire.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0];
        let b1 = chunk.get(1).copied().unwrap_or(0);
        let b2 = chunk.get(2).copied().unwrap_or(0);
        out.push(BASE64[(b0 >> 2) as usize] as char);
        out.push(BASE64[((b0 & 0x03) << 4 | b1 >> 4) as usize] as char);
        out.push(if chunk.len() > 1 {
            BASE64[((b1 & 0x0f) << 2 | b2 >> 6) as usize] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            BASE64[(b2 & 0x3f) as usize] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (padding required, no whitespace).
pub fn base64_decode(text: &str) -> Result<Vec<u8>, PackError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(malformed("base64 length is not a multiple of 4"));
    }
    let value_of = |byte: u8| -> Result<u8, PackError> {
        match byte {
            b'A'..=b'Z' => Ok(byte - b'A'),
            b'a'..=b'z' => Ok(byte - b'a' + 26),
            b'0'..=b'9' => Ok(byte - b'0' + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(malformed(format!("invalid base64 byte 0x{byte:02x}"))),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (index, chunk) in bytes.chunks(4).enumerate() {
        let last = (index + 1) * 4 == bytes.len();
        let pad = chunk.iter().filter(|&&b| b == b'=').count();
        if pad > 2 || (!last && pad > 0) {
            return Err(malformed("misplaced base64 padding"));
        }
        if chunk[..4 - pad].contains(&b'=') {
            return Err(malformed("misplaced base64 padding"));
        }
        let v0 = value_of(chunk[0])?;
        let v1 = value_of(chunk[1])?;
        out.push(v0 << 2 | v1 >> 4);
        if pad < 2 {
            let v2 = value_of(chunk[2])?;
            out.push(v1 << 4 | v2 >> 2);
            if pad < 1 {
                let v3 = value_of(chunk[3])?;
                out.push(v2 << 6 | v3);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------------

fn write_location(w: &mut PackWriter, loc: Location) {
    w.u64(u64::from(loc.proc.0));
    w.u64(u64::from(loc.block.0));
}

fn read_location(r: &mut PackReader<'_>) -> Result<Location, PackError> {
    Ok(Location::new(ProcId(r.u32()?), BlockId(r.u32()?)))
}

fn write_opt_type(w: &mut PackWriter, ty: Option<PhaseType>) {
    match ty {
        Some(ty) => {
            w.bool(true);
            w.u64(u64::from(ty.0));
        }
        None => w.bool(false),
    }
}

fn read_opt_type(r: &mut PackReader<'_>) -> Result<Option<PhaseType>, PackError> {
    Ok(if r.bool()? {
        Some(PhaseType(r.u32()?))
    } else {
        None
    })
}

/// Encodes a block typing.
pub fn encode_typing(typing: &BlockTyping) -> Vec<u8> {
    let mut w = PackWriter::new();
    w.usize(typing.num_types());
    let entries = typing.sorted_entries();
    w.usize(entries.len());
    for (loc, ty) in entries {
        write_location(&mut w, loc);
        w.u64(u64::from(ty.0));
    }
    w.into_bytes()
}

/// Decodes a block typing.
pub fn decode_typing(bytes: &[u8]) -> Result<BlockTyping, PackError> {
    let mut r = PackReader::new(bytes);
    let mut typing = BlockTyping::new(r.usize()?);
    let count = r.usize()?;
    for _ in 0..count {
        let loc = read_location(&mut r)?;
        typing.assign(loc, PhaseType(r.u32()?));
    }
    r.finish()?;
    Ok(typing)
}

/// Encodes an IPC-profile artifact.
pub fn encode_profile(artifact: &IpcProfileArtifact) -> Vec<u8> {
    let mut w = PackWriter::new();
    w.usize(artifact.min_block_size);
    w.usize(artifact.rows.len());
    for row in &artifact.rows {
        write_location(&mut w, row.location);
        w.f64(row.fast_ipc);
        w.f64(row.slow_ipc);
    }
    w.into_bytes()
}

/// Decodes an IPC-profile artifact.
pub fn decode_profile(bytes: &[u8]) -> Result<IpcProfileArtifact, PackError> {
    let mut r = PackReader::new(bytes);
    let min_block_size = r.usize()?;
    let count = r.usize()?;
    let mut rows = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        rows.push(IpcProfileRow {
            location: read_location(&mut r)?,
            fast_ipc: r.f64()?,
            slow_ipc: r.f64()?,
        });
    }
    r.finish()?;
    Ok(IpcProfileArtifact {
        min_block_size,
        rows,
    })
}

/// Encodes an isolated-runtime map (sorted by benchmark name, so the bytes
/// are deterministic whatever the map's iteration order).
pub fn encode_runtimes(runtimes: &HashMap<String, f64>) -> Vec<u8> {
    let mut rows: Vec<(&String, &f64)> = runtimes.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut w = PackWriter::new();
    w.usize(rows.len());
    for (name, ns) in rows {
        w.str(name);
        w.f64(*ns);
    }
    w.into_bytes()
}

/// Decodes an isolated-runtime map.
pub fn decode_runtimes(bytes: &[u8]) -> Result<HashMap<String, f64>, PackError> {
    let mut r = PackReader::new(bytes);
    let count = r.usize()?;
    let mut runtimes = HashMap::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        let name = r.str()?;
        let ns = r.f64()?;
        runtimes.insert(name, ns);
    }
    r.finish()?;
    Ok(runtimes)
}

fn write_program(w: &mut PackWriter, program: &Program) {
    w.str(program.name());
    w.u64(u64::from(program.entry().0));
    w.usize(program.procedures().len());
    for proc in program.procedures() {
        w.u64(u64::from(proc.id().0));
        w.str(proc.name());
        w.u64(u64::from(proc.entry().0));
        w.usize(proc.blocks().len());
        for block in proc.blocks() {
            w.u64(u64::from(block.id().0));
            w.usize(block.instructions().len());
            for instr in block.instructions() {
                w.u64(instr.class().index() as u64);
                match instr.mem_ref() {
                    Some(mem) => {
                        w.bool(true);
                        match mem.pattern {
                            AccessPattern::Sequential => w.u64(0),
                            AccessPattern::Strided { stride_bytes } => {
                                w.u64(1);
                                w.u64(u64::from(stride_bytes));
                            }
                            AccessPattern::Random => w.u64(2),
                            AccessPattern::PointerChase => w.u64(3),
                        }
                        w.u64(mem.region_bytes);
                    }
                    None => w.bool(false),
                }
            }
            match *block.terminator() {
                Terminator::Jump(target) => {
                    w.u64(0);
                    w.u64(u64::from(target.0));
                }
                Terminator::Branch {
                    taken,
                    fallthrough,
                    behavior,
                } => {
                    w.u64(1);
                    w.u64(u64::from(taken.0));
                    w.u64(u64::from(fallthrough.0));
                    match behavior {
                        BranchBehavior::Counted { trip_count } => {
                            w.u64(0);
                            w.u64(u64::from(trip_count));
                        }
                        BranchBehavior::Probabilistic { taken_probability } => {
                            w.u64(1);
                            w.f64(taken_probability);
                        }
                    }
                }
                Terminator::Call { callee, return_to } => {
                    w.u64(2);
                    w.u64(u64::from(callee.0));
                    w.u64(u64::from(return_to.0));
                }
                Terminator::Return => w.u64(3),
                Terminator::Exit => w.u64(4),
            }
        }
    }
}

fn read_program(r: &mut PackReader<'_>) -> Result<Program, PackError> {
    let name = r.str()?;
    let entry = ProcId(r.u32()?);
    let proc_count = r.usize()?;
    let mut procedures = Vec::with_capacity(proc_count.min(r.remaining()));
    for _ in 0..proc_count {
        let proc_id = ProcId(r.u32()?);
        let proc_name = r.str()?;
        let proc_entry = BlockId(r.u32()?);
        let block_count = r.usize()?;
        let mut blocks = Vec::with_capacity(block_count.min(r.remaining()));
        for _ in 0..block_count {
            let block_id = BlockId(r.u32()?);
            let instr_count = r.usize()?;
            let mut instructions = Vec::with_capacity(instr_count.min(r.remaining()));
            for _ in 0..instr_count {
                let class = *InstrClass::ALL
                    .get(r.usize()?)
                    .ok_or_else(|| malformed("instruction class out of range"))?;
                let mem = if r.bool()? {
                    let pattern = match r.u64()? {
                        0 => AccessPattern::Sequential,
                        1 => AccessPattern::Strided {
                            stride_bytes: r.u32()?,
                        },
                        2 => AccessPattern::Random,
                        3 => AccessPattern::PointerChase,
                        tag => return Err(malformed(format!("access-pattern tag {tag}"))),
                    };
                    let region_bytes = r.u64()?;
                    if region_bytes == 0 {
                        return Err(malformed("memory region of zero bytes"));
                    }
                    Some(MemRef::new(pattern, region_bytes))
                } else {
                    None
                };
                // Re-apply `Instruction`'s class/memory invariant as a
                // structured error, never a constructor panic.
                instructions.push(match (class.is_memory(), mem) {
                    (true, Some(mem)) => Instruction::memory(class, mem),
                    (false, None) => Instruction::new(class),
                    (true, None) => return Err(malformed("memory instruction without a region")),
                    (false, Some(_)) => {
                        return Err(malformed("non-memory instruction with a region"))
                    }
                });
            }
            let terminator = match r.u64()? {
                0 => Terminator::Jump(BlockId(r.u32()?)),
                1 => {
                    let taken = BlockId(r.u32()?);
                    let fallthrough = BlockId(r.u32()?);
                    let behavior = match r.u64()? {
                        0 => BranchBehavior::Counted {
                            trip_count: r.u32()?,
                        },
                        1 => {
                            let p = r.f64()?;
                            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                                return Err(malformed("branch probability out of range"));
                            }
                            BranchBehavior::Probabilistic {
                                taken_probability: p,
                            }
                        }
                        tag => return Err(malformed(format!("branch-behavior tag {tag}"))),
                    };
                    Terminator::Branch {
                        taken,
                        fallthrough,
                        behavior,
                    }
                }
                2 => Terminator::Call {
                    callee: ProcId(r.u32()?),
                    return_to: BlockId(r.u32()?),
                },
                3 => Terminator::Return,
                4 => Terminator::Exit,
                tag => return Err(malformed(format!("terminator tag {tag}"))),
            };
            blocks.push(BasicBlock::new(block_id, instructions, terminator));
        }
        procedures.push(
            Procedure::new(proc_id, proc_name, proc_entry, blocks)
                .map_err(|e| malformed(format!("procedure rejected: {e}")))?,
        );
    }
    Program::new(name, entry, procedures).map_err(|e| malformed(format!("program rejected: {e}")))
}

/// Encodes a program alone: its name, procedures, blocks, instructions and
/// terminators. These bytes are what the artifact store fingerprints a
/// program by, and what every program-carrying payload embeds.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut w = PackWriter::new();
    write_program(&mut w, program);
    w.into_bytes()
}

/// Decodes and validates a program written by [`encode_program`].
pub fn decode_program(bytes: &[u8]) -> Result<Program, PackError> {
    let mut r = PackReader::new(bytes);
    let program = read_program(&mut r)?;
    r.finish()?;
    Ok(program)
}

/// Where a decoder gets the program behind an embedded [`encode_program`]
/// field: a fresh decode (as [`decode_instrumented`] does), or the artifact
/// store's intern table, which hands every payload of one program the same
/// allocation.
pub type ProgramSource<'a> = &'a dyn Fn(&[u8]) -> Result<Arc<Program>, PackError>;

fn fresh_program(bytes: &[u8]) -> Result<Arc<Program>, PackError> {
    decode_program(bytes).map(Arc::new)
}

/// Encodes an instrumented program (the underlying program as one
/// length-prefixed [`encode_program`] field, then the marking config, entry
/// type, and every phase mark).
pub fn encode_instrumented(instrumented: &InstrumentedProgram) -> Vec<u8> {
    let mut w = PackWriter::new();
    w.bytes(&encode_program(instrumented.program()));
    w.u64(match instrumented.config().granularity {
        Granularity::BasicBlock => 0,
        Granularity::Interval => 1,
        Granularity::Loop => 2,
    });
    w.usize(instrumented.config().min_section_size);
    w.usize(instrumented.config().lookahead_depth);
    write_opt_type(&mut w, instrumented.entry_type());
    w.usize(instrumented.marks().len());
    for mark in instrumented.marks() {
        write_location(&mut w, mark.from);
        write_location(&mut w, mark.to);
        w.u64(u64::from(mark.phase_type.0));
        write_opt_type(&mut w, mark.previous_type);
        w.u64(u64::from(mark.size_bytes));
    }
    w.into_bytes()
}

/// Decodes an instrumented program. Mark ids are re-derived from position
/// (the id of mark *i* is *i* — the invariant
/// [`InstrumentedProgram::from_parts`] maintains).
pub fn decode_instrumented(bytes: &[u8]) -> Result<InstrumentedProgram, PackError> {
    decode_instrumented_with(bytes, &fresh_program)
}

/// [`decode_instrumented`] with the program taken from `programs`.
pub fn decode_instrumented_with(
    bytes: &[u8],
    programs: ProgramSource<'_>,
) -> Result<InstrumentedProgram, PackError> {
    let mut r = PackReader::new(bytes);
    let program = programs(r.bytes()?)?;
    let granularity = match r.u64()? {
        0 => Granularity::BasicBlock,
        1 => Granularity::Interval,
        2 => Granularity::Loop,
        tag => return Err(malformed(format!("granularity tag {tag}"))),
    };
    let config = MarkingConfig {
        granularity,
        min_section_size: r.usize()?,
        lookahead_depth: r.usize()?,
    };
    let entry_type = read_opt_type(&mut r)?;
    let mark_count = r.usize()?;
    let mut marks = Vec::with_capacity(mark_count.min(bytes.len()));
    for index in 0..mark_count {
        marks.push(PhaseMark {
            id: phase_marking::MarkId(
                u32::try_from(index).map_err(|_| malformed("too many marks"))?,
            ),
            from: read_location(&mut r)?,
            to: read_location(&mut r)?,
            phase_type: PhaseType(r.u32()?),
            previous_type: read_opt_type(&mut r)?,
            size_bytes: r.u32()?,
        });
    }
    r.finish()?;
    Ok(InstrumentedProgram::from_parts(
        program, config, marks, entry_type,
    ))
}

/// Encodes a catalogue: per benchmark, its profile and then its program as
/// one length-prefixed [`encode_program`] field.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut w = PackWriter::new();
    w.usize(catalog.len());
    for benchmark in catalog.benchmarks() {
        let profile = benchmark.profile();
        w.str(&profile.name);
        w.u64(u64::from(profile.repeats));
        w.usize(profile.phases.len());
        for phase in &profile.phases {
            w.u64(match phase.kind {
                PhaseKind::CpuInteger => 0,
                PhaseKind::CpuFloat => 1,
                PhaseKind::MemoryStreaming => 2,
                PhaseKind::MemoryPointerChase => 3,
                PhaseKind::Balanced => 4,
            });
            w.u64(u64::from(phase.loop_trips));
            w.u64(u64::from(phase.inner_trips));
            w.usize(phase.block_size);
            w.u64(phase.working_set_bytes);
            w.bool(phase.uniform);
        }
        w.bytes(&encode_program(benchmark.program()));
    }
    w.into_bytes()
}

/// Decodes a catalogue, taking its programs from `programs`.
pub fn decode_catalog(bytes: &[u8], programs: ProgramSource<'_>) -> Result<Catalog, PackError> {
    let mut r = PackReader::new(bytes);
    let count = r.usize()?;
    let mut benchmarks = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        let name = r.str()?;
        let repeats = r.u32()?;
        let phase_count = r.usize()?;
        let mut phases = Vec::with_capacity(phase_count.min(r.remaining()));
        for _ in 0..phase_count {
            phases.push(PhaseSpec {
                kind: match r.u64()? {
                    0 => PhaseKind::CpuInteger,
                    1 => PhaseKind::CpuFloat,
                    2 => PhaseKind::MemoryStreaming,
                    3 => PhaseKind::MemoryPointerChase,
                    4 => PhaseKind::Balanced,
                    tag => return Err(malformed(format!("phase-kind tag {tag}"))),
                },
                loop_trips: r.u32()?,
                inner_trips: r.u32()?,
                block_size: r.usize()?,
                working_set_bytes: r.u64()?,
                uniform: r.bool()?,
            });
        }
        // `BenchmarkProfile::new`'s invariants, as structured errors.
        if phases.is_empty() || repeats == 0 {
            return Err(malformed(format!("benchmark '{name}' runs no phase")));
        }
        let profile = BenchmarkProfile {
            name,
            phases,
            repeats,
        };
        benchmarks.push(Benchmark::from_parts(profile, programs(r.bytes()?)?));
    }
    r.finish()?;
    Ok(Catalog::from_benchmarks(benchmarks))
}

fn write_process_stats(w: &mut PackWriter, stats: &ProcessStats) {
    w.u64(stats.instructions);
    w.f64(stats.cycles);
    w.f64(stats.cpu_time_ns);
    w.u64(stats.marks_executed);
    w.u64(stats.core_switches);
    w.u64(stats.balancer_migrations);
    for ns in stats.time_on_kind_ns {
        w.f64(ns);
    }
}

fn read_process_stats(r: &mut PackReader<'_>) -> Result<ProcessStats, PackError> {
    let mut stats = ProcessStats {
        instructions: r.u64()?,
        cycles: r.f64()?,
        cpu_time_ns: r.f64()?,
        marks_executed: r.u64()?,
        core_switches: r.u64()?,
        balancer_migrations: r.u64()?,
        time_on_kind_ns: [0.0; 4],
    };
    for slot in &mut stats.time_on_kind_ns {
        *slot = r.f64()?;
    }
    Ok(stats)
}

/// Encodes a cached simulation cell (result, records, tuner/online stats).
pub fn encode_cell(cell: &CachedCell) -> Vec<u8> {
    let mut w = PackWriter::new();
    let result = &cell.result;
    w.str(&result.label);
    w.usize(result.records.len());
    for record in &result.records {
        w.u64(u64::from(record.pid.0));
        w.str(&record.name);
        w.usize(record.slot);
        w.f64(record.arrival_ns);
        w.f64(record.release_ns);
        match record.deadline_ns {
            Some(ns) => {
                w.bool(true);
                w.f64(ns);
            }
            None => w.bool(false),
        }
        match record.completion_ns {
            Some(ns) => {
                w.bool(true);
                w.f64(ns);
            }
            None => w.bool(false),
        }
        write_process_stats(&mut w, &record.stats);
    }
    w.u64(result.total_instructions);
    w.f64(result.final_time_ns);
    w.usize(result.throughput_windows.len());
    for window in &result.throughput_windows {
        w.u64(*window);
    }
    w.usize(result.core_busy_ns.len());
    for busy in &result.core_busy_ns {
        w.f64(*busy);
    }
    w.u64(result.total_marks_executed);
    w.u64(result.total_core_switches);
    match &cell.tuner_stats {
        Some(stats) => {
            w.bool(true);
            w.u64(stats.sections_monitored);
            w.u64(stats.monitor_waits);
            w.u64(stats.assignments_decided);
            w.u64(stats.switch_requests);
        }
        None => w.bool(false),
    }
    match &cell.online_stats {
        Some(stats) => {
            w.bool(true);
            w.u64(stats.intervals_observed);
            w.u64(stats.phases_created);
            w.u64(stats.assignments_decided);
            w.u64(stats.retunes);
            w.u64(stats.switch_requests);
        }
        None => w.bool(false),
    }
    w.into_bytes()
}

/// Decodes a cached simulation cell.
pub fn decode_cell(bytes: &[u8]) -> Result<CachedCell, PackError> {
    let mut r = PackReader::new(bytes);
    let label = r.str()?;
    let record_count = r.usize()?;
    let mut records = Vec::with_capacity(record_count.min(bytes.len()));
    for _ in 0..record_count {
        records.push(ProcessRecord {
            pid: Pid(r.u32()?),
            name: r.str()?,
            slot: r.usize()?,
            arrival_ns: r.f64()?,
            release_ns: r.f64()?,
            deadline_ns: if r.bool()? { Some(r.f64()?) } else { None },
            completion_ns: if r.bool()? { Some(r.f64()?) } else { None },
            stats: read_process_stats(&mut r)?,
        });
    }
    let total_instructions = r.u64()?;
    let final_time_ns = r.f64()?;
    let window_count = r.usize()?;
    let mut throughput_windows = Vec::with_capacity(window_count.min(bytes.len()));
    for _ in 0..window_count {
        throughput_windows.push(r.u64()?);
    }
    let busy_count = r.usize()?;
    let mut core_busy_ns = Vec::with_capacity(busy_count.min(bytes.len()));
    for _ in 0..busy_count {
        core_busy_ns.push(r.f64()?);
    }
    let total_marks_executed = r.u64()?;
    let total_core_switches = r.u64()?;
    let tuner_stats = if r.bool()? {
        Some(TunerStats {
            sections_monitored: r.u64()?,
            monitor_waits: r.u64()?,
            assignments_decided: r.u64()?,
            switch_requests: r.u64()?,
        })
    } else {
        None
    };
    let online_stats = if r.bool()? {
        Some(OnlineStats {
            intervals_observed: r.u64()?,
            phases_created: r.u64()?,
            assignments_decided: r.u64()?,
            retunes: r.u64()?,
            switch_requests: r.u64()?,
        })
    } else {
        None
    };
    r.finish()?;
    Ok(CachedCell {
        result: SimResult {
            label,
            records,
            total_instructions,
            final_time_ns,
            throughput_windows,
            core_busy_ns,
            total_marks_executed,
            total_core_switches,
        },
        tuner_stats,
        online_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_boundary_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut w = PackWriter::new();
            w.u64(value);
            let bytes = w.into_bytes();
            let mut r = PackReader::new(&bytes);
            assert_eq!(r.u64().unwrap(), value);
            r.finish().unwrap();
        }
    }

    #[test]
    fn truncated_reads_are_structured_errors() {
        let mut w = PackWriter::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = PackReader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn base64_round_trips_and_rejects_garbage() {
        for len in 0..32usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let text = base64_encode(&data);
            assert_eq!(base64_decode(&text).unwrap(), data);
        }
        assert!(base64_decode("abc").is_err(), "bad length");
        assert!(base64_decode("ab=c").is_err(), "misplaced padding");
        assert!(base64_decode("a¬cd").is_err(), "non-alphabet bytes");
    }

    #[test]
    fn catalogues_round_trip_bit_identically() {
        let catalog = phase_workload::CatalogSpec::drifting(0.05, 3).build();
        let encoded = encode_catalog(&catalog);
        let decoded = decode_catalog(&encoded, &fresh_program).expect("decode");
        assert_eq!(encode_catalog(&decoded), encoded);
        for (original, copy) in catalog.benchmarks().iter().zip(decoded.benchmarks()) {
            assert_eq!(copy.profile(), original.profile());
            assert_eq!(copy.program(), original.program());
        }
        let mut truncated = encoded.clone();
        truncated.pop();
        assert!(decode_catalog(&truncated, &fresh_program).is_err());
    }

    #[test]
    fn pack_files_reject_foreign_headers_and_skip_bit_flips() {
        let records = vec![
            (ContentHash { hi: 1, lo: 2 }, vec![1u8, 2, 3]),
            (ContentHash { hi: 3, lo: 4 }, vec![4u8, 5, 6, 7]),
        ];
        let bytes = write_pack_file("typings", &records);
        let file = read_pack_file(&bytes, "typings").unwrap();
        assert_eq!(file.records, records);
        assert!(file.skipped.is_empty());

        assert!(matches!(
            read_pack_file(&bytes, "cells"),
            Err(PackError::StageMismatch { .. })
        ));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            read_pack_file(&wrong_magic, "typings"),
            Err(PackError::BadMagic)
        ));

        // Flip one payload byte: that record is skipped with a checksum
        // error, the other survives.
        let mut flipped = bytes.clone();
        let victim = bytes.len() - 9; // last payload byte of record 1
        flipped[victim] ^= 0x40;
        let file = read_pack_file(&flipped, "typings").unwrap();
        assert_eq!(file.records.len(), 1);
        assert!(matches!(file.skipped[0], PackError::Checksum { record: 1 }));
    }
}
