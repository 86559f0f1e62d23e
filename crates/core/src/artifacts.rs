//! The content-addressed artifact store behind the staged pipeline.
//!
//! Every stage of the evaluation pipeline — catalogue generation, per-block
//! IPC profiling, block typing, section summarization, instrumentation, the
//! per-benchmark isolated baseline runs, and whole simulation cells — produces
//! a value that is a pure function of its inputs. [`ArtifactStore`] keys each
//! such value by a 128-bit content hash of *(program fingerprint, stage
//! config)* and shares it behind an `Arc`, so a sweep that varies one axis
//! (the tuner threshold, the clustering error, the marking technique) reuses
//! every upstream artifact instead of recomputing it. This is the *tune once,
//! run anywhere* motto applied to the harness itself, and mirrors how
//! phase-classification work amortizes one profiling pass across many tuning
//! candidates.
//!
//! The store is one typed table of stages. Each entry holds the stage's name
//! (its trace span, counter key, spill file and wire name), its in-memory
//! cache (one `parking_lot` mutex over the map, the CLOCK ring and the
//! hit/miss/insert/eviction counters), its place in the eviction order and,
//! for the stages in [`SPILL_STAGES`], the phase-pack codec that the on-disk
//! spill and the network artifact cache share. One lock per stage is enough
//! for the measured traffic: over 10 s of each perfbench workload on a
//! 2-vCPU VM, 7 of about 36 million lock acquisitions had to wait. Values
//! are deterministic, so a racing double-compute (two service requests
//! missing one key at once) is harmless: both derive bit-identical
//! artifacts and the first insert wins. The driver never races itself: it
//! simulates each missing cell once ([`crate::Driver::run_cached`]).
//!
//! A service-scale store cannot grow without bound: every artifact type
//! reports its size through [`StoreFootprint`], and a store built with
//! [`ArtifactStore::with_budget`] enforces a byte budget with CLOCK
//! eviction ([`ClockCache`]). Admission is conservative — a new
//! artifact is only retained once eviction has made room for it, so the
//! resident footprint *never* exceeds the budget — and eviction never
//! removes an entry some caller still borrows through its `Arc`.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use phase_amp::MachineSpec;
use phase_analysis::BlockTyping;
use phase_ir::Program;
use phase_marking::{InstrumentedProgram, MarkingConfig, ProgramRegions};
use phase_online::{OnlineConfig, OnlineStats};
use phase_runtime::{TunerConfig, TunerStats};
use phase_sched::{EngineKind, JobSpec, SimConfig, SimResult};
use phase_workload::{Catalog, CatalogSpec, WorkloadSpec};

use crate::driver::Policy;
use crate::json::{parse, JsonValue};
use crate::pack;
use crate::pipeline::{
    instrument_stage, min_typed_block_size, profile_stage, regions_stage, typing_stage,
    IpcProfileArtifact, PipelineConfig, TypingStrategy,
};

/// Upper bound on the fingerprint memo maps and the program intern table:
/// each entry pins a program allocation via `Arc`, so they are cleared
/// (re-hashing is cheap and deterministic) rather than allowed to grow with
/// every catalogue a long-running service ever touches.
const FP_MEMO_CAP: usize = 4096;

/// The stages the store can persist to disk and serve over the network, in
/// spill order. Catalogues come first: regenerating one takes milliseconds
/// (4–15 ms for the quick study catalogues), and loading them first makes
/// their programs the interned copies every later instrumented and baseline
/// record shares. Region maps are rebuilt from the typing instead of being
/// spilled; a restart that finds its instrumented programs never asks for
/// them.
pub const SPILL_STAGES: [&str; 7] = [
    "catalogs",
    "typings",
    "ipc_profiles",
    "isolated_runtimes",
    "instrumented",
    "baselines",
    "cells",
];

/// The manifest `format` of a spill this build writes and reads.
const SPILL_FORMAT: &str = "phase-pack";

/// What a spill load did: artifacts offered to the store, records skipped
/// for cause, and a human-readable line per failure.
#[derive(Debug, Clone, Default)]
pub struct SpillLoadReport {
    /// Artifacts decoded and offered to the store (the budget may still
    /// have declined some).
    pub loaded: usize,
    /// Records rejected by checksum, framing, or content validation.
    pub skipped: usize,
    /// One line per rejection (stage file, key when known, cause).
    pub errors: Vec<String>,
}

/// A 128-bit content hash: the artifact key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl ContentHash {
    /// Parses the hex form produced by [`ContentHash`]'s `Display`.
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.is_ascii() {
            return None;
        }
        let hi = u64::from_str_radix(&text[..16], 16).ok()?;
        let lo = u64::from_str_radix(&text[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

/// A deterministic two-lane FNV-1a hasher producing a [`ContentHash`].
///
/// Not cryptographic — it guards a cache of deterministic recomputable
/// values, where an accidental collision is the only failure mode that
/// matters and 128 bits make it negligible.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    const OFFSET_B: u64 = 0x8422_2325_cbf2_9ce4;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Self {
        Self {
            a: Self::OFFSET_A,
            b: Self::OFFSET_B,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ u64::from(byte.rotate_left(3))).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a length-prefixed byte string eight bytes per step: several
    /// times cheaper than [`StableHasher::write_bytes`] over the kilobytes
    /// of an encoded program, and hashing to different values. Each step is
    /// a bijection of the state for a fixed word and of the word for a fixed
    /// state, so two strings of one length that differ in a single word
    /// never collide.
    pub(crate) fn write_blob(&mut self, bytes: &[u8]) {
        const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
        const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;
        self.write_usize(bytes.len());
        let mut mix = |word: u64| {
            self.a = (self.a ^ word).wrapping_mul(MUL_A).rotate_left(23);
            self.b = (self.b ^ word.rotate_left(32))
                .wrapping_mul(MUL_B)
                .rotate_left(31);
        };
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            mix(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        mix(u64::from_le_bytes(tail));
    }

    /// Feeds a `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Feeds a `bool`.
    pub fn write_bool(&mut self, value: bool) {
        self.write_bytes(&[u8::from(value)]);
    }

    /// Feeds an `f64` by bit pattern (`-0.0` and `0.0` hash differently; both
    /// sides of the cache use the same literal so this cannot split keys).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> ContentHash {
        ContentHash {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// Anything that can feed a [`StableHasher`] deterministically.
pub trait Fingerprint {
    /// Feeds this value's identity into the hasher.
    fn fingerprint(&self, hasher: &mut StableHasher);

    /// Convenience: the hash of this value alone.
    fn content_hash(&self) -> ContentHash {
        let mut hasher = StableHasher::new();
        self.fingerprint(&mut hasher);
        hasher.finish()
    }
}

impl Fingerprint for ContentHash {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u64(self.hi);
        h.write_u64(self.lo);
    }
}

impl Fingerprint for MachineSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("machine");
        h.write_str(&self.name);
        h.write_usize(self.cores.len());
        for core in &self.cores {
            h.write_f64(core.freq_ghz);
            h.write_u64(u64::from(core.kind.0));
            h.write_usize(core.l2_group);
        }
        for cache in [&self.l1, &self.l2] {
            h.write_u64(cache.capacity_bytes);
            h.write_f64(cache.latency_cycles);
        }
        h.write_f64(self.memory_latency_ns);
        h.write_u64(self.core_switch_cycles);
    }
}

impl Fingerprint for MarkingConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("marking");
        h.write_str(&self.granularity.to_string());
        h.write_usize(self.min_section_size);
        h.write_usize(self.lookahead_depth);
    }
}

impl Fingerprint for TypingStrategy {
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            TypingStrategy::StaticKMeans { seed } => {
                h.write_str("kmeans");
                h.write_u64(*seed);
            }
            TypingStrategy::ProfileGuided { ipc_threshold } => {
                h.write_str("profile");
                h.write_f64(*ipc_threshold);
            }
        }
    }
}

impl Fingerprint for PipelineConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        self.marking.fingerprint(h);
        self.typing.fingerprint(h);
        h.write_f64(self.clustering_error);
        h.write_u64(self.error_seed);
    }
}

impl Fingerprint for TunerConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("tuner");
        h.write_f64(self.ipc_threshold);
        h.write_u64(u64::from(self.samples_per_kind));
        h.write_u64(self.min_section_instructions);
        h.write_usize(self.counter_slots);
        h.write_bool(self.pin_preferred_fast);
    }
}

impl Fingerprint for OnlineConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("online");
        h.write_f64(self.sample_interval_ns);
        h.write_usize(self.max_phases);
        h.write_f64(self.distance_threshold);
        h.write_f64(self.decay);
        h.write_f64(self.ipc_weight);
        h.write_f64(self.mem_weight);
        h.write_u64(self.min_interval_instructions);
        h.write_u64(u64::from(self.samples_per_kind));
        h.write_f64(self.ipc_threshold);
        h.write_f64(self.drift_threshold);
        h.write_bool(self.pin_preferred_fast);
        h.write_u64(u64::from(self.pin_cap_per_kind));
    }
}

impl Fingerprint for SimConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("sim");
        h.write_f64(self.timeslice_ns);
        h.write_f64(self.load_balance_interval_ns);
        match self.horizon_ns {
            Some(ns) => {
                h.write_bool(true);
                h.write_f64(ns);
            }
            None => h.write_bool(false),
        }
        h.write_f64(self.throughput_window_ns);
        h.write_u64(self.seed);
        h.write_bool(self.charge_mark_overhead);
        h.write_str(match self.engine {
            EngineKind::RoundBased => "round",
            EngineKind::EventDriven => "event",
        });
        match self.sample_interval_ns {
            Some(ns) => {
                h.write_bool(true);
                h.write_f64(ns);
            }
            None => h.write_bool(false),
        }
    }
}

impl Fingerprint for Policy {
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            Policy::Stock => h.write_str("stock"),
            Policy::AllCores => h.write_str("all-cores"),
            Policy::Tuned(config) => {
                h.write_str("tuned");
                config.fingerprint(h);
            }
            Policy::Online(config) => {
                h.write_str("online-policy");
                config.fingerprint(h);
            }
            Policy::Partition => h.write_str("partition"),
        }
    }
}

impl Fingerprint for CatalogSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("catalog");
        h.write_str(self.kind.name());
        h.write_f64(self.scale);
        h.write_u64(self.seed);
    }
}

impl Fingerprint for WorkloadSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        match *self {
            WorkloadSpec::Random {
                slots,
                jobs_per_slot,
                seed,
            } => {
                h.write_str("random");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_u64(seed);
            }
            WorkloadSpec::Bursty {
                slots,
                jobs_per_slot,
                waves,
                gap_ns,
                seed,
            } => {
                h.write_str("bursty");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_usize(waves);
                h.write_f64(gap_ns);
                h.write_u64(seed);
            }
            WorkloadSpec::Drifting {
                slots,
                jobs_per_slot,
                seed,
            } => {
                h.write_str("drifting");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_u64(seed);
            }
            WorkloadSpec::OpenLoop {
                slots,
                trace,
                rate_rps,
                duration_s,
                deadline_ns,
                seed,
            } => {
                h.write_str("open-loop");
                h.write_usize(slots);
                h.write_str(trace.name());
                h.write_f64(rate_rps);
                h.write_f64(duration_s);
                match deadline_ns {
                    Some(ns) => {
                        h.write_bool(true);
                        h.write_f64(ns);
                    }
                    None => h.write_bool(false),
                }
                h.write_u64(seed);
            }
        }
    }
}

/// The outcome of one executed simulation cell, as cached by the store: the
/// raw result plus whichever tuner statistics the policy produced. The cell's
/// plan position (index, group, label) is *not* part of the artifact — it is
/// re-attached by the driver on every lookup, so content-identical cells in
/// different sweep groups share one artifact.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The simulation result, labelled by the cell that computed it. The
    /// driver hands this `Arc` out as is to cells of the same label and a
    /// relabelled copy to any other.
    pub result: Arc<SimResult>,
    /// Tuner statistics for `Policy::Tuned` cells.
    pub tuner_stats: Option<TunerStats>,
    /// Online-tuner statistics for `Policy::Online` cells.
    pub online_stats: Option<OnlineStats>,
}

/// Per-entry size accounting: how many bytes an artifact is charged against
/// the store's budget. Estimates are fine — what matters is that the charge
/// at admission equals the refund at eviction, which the accounting layer
/// guarantees by computing the footprint exactly once per entry.
pub trait StoreFootprint {
    /// The entry's size in bytes (an estimate of retained memory).
    fn footprint_bytes(&self) -> u64;
}

impl StoreFootprint for Vec<u8> {
    fn footprint_bytes(&self) -> u64 {
        self.len() as u64
    }
}

fn program_footprint(program: &Program) -> u64 {
    let stats = program.stats();
    stats.instructions as u64 * 24 + stats.blocks as u64 * 48 + 128
}

impl StoreFootprint for Catalog {
    fn footprint_bytes(&self) -> u64 {
        self.benchmarks()
            .iter()
            .map(|b| program_footprint(b.program()) + b.name().len() as u64 + 256)
            .sum()
    }
}

impl StoreFootprint for IpcProfileArtifact {
    fn footprint_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<crate::pipeline::IpcProfileRow>()) as u64 + 32
    }
}

impl StoreFootprint for BlockTyping {
    fn footprint_bytes(&self) -> u64 {
        self.iter().count() as u64 * 24 + 32
    }
}

impl StoreFootprint for ProgramRegions {
    fn footprint_bytes(&self) -> u64 {
        self.values()
            .map(|map| {
                map.regions()
                    .iter()
                    .map(|r| 64 + r.blocks().len() as u64 * 4)
                    .sum::<u64>()
                    + 48
            })
            .sum()
    }
}

impl StoreFootprint for InstrumentedProgram {
    fn footprint_bytes(&self) -> u64 {
        // The held `Arc<Program>` is the catalogue's own program (and, after
        // a spill load, the interned copy), so the catalogue artifact and
        // every instrumented and baseline artifact of one program pin one
        // allocation. Each is still charged for the whole program: the
        // budget deliberately over-counts shared allocations (an upper bound
        // stays a bound; under-counting would let evicting the catalogue
        // strand uncharged, pinned programs).
        program_footprint(self.program()) + self.marks().len() as u64 * 96 + 64
    }
}

impl StoreFootprint for HashMap<String, f64> {
    fn footprint_bytes(&self) -> u64 {
        self.keys().map(|name| name.len() as u64 + 48).sum::<u64>() + 32
    }
}

impl StoreFootprint for CachedCell {
    fn footprint_bytes(&self) -> u64 {
        let result = &self.result;
        result.label.len() as u64
            + (result.records.len() * std::mem::size_of::<phase_sched::ProcessRecord>()) as u64
            + result
                .records
                .iter()
                .map(|r| r.name.len() as u64)
                .sum::<u64>()
            + result.throughput_windows.len() as u64 * 8
            + result.core_busy_ns.len() as u64 * 8
            + std::mem::size_of::<Option<TunerStats>>() as u64
            + std::mem::size_of::<Option<OnlineStats>>() as u64
            + 64
    }
}

/// The byte budget of a bounded store: the limit plus the admission lock
/// that serializes admissions and evictions, making "resident bytes never
/// exceed the budget" a true invariant rather than an eventually-converged
/// target. The guard *carries the running resident total*, so admission is
/// O(1) per fit check and readers that take the guard can never observe a
/// torn, over-budget sum mid-admission.
#[derive(Debug)]
pub struct StoreBudget {
    max_bytes: u64,
    /// Resident bytes across every stage; every mutation (admission,
    /// eviction) happens while this lock is held.
    resident: Mutex<u64>,
}

impl StoreBudget {
    /// A budget of `max_bytes`.
    pub fn new(max_bytes: u64) -> Self {
        Self {
            max_bytes,
            resident: Mutex::new(0),
        }
    }

    /// The byte limit.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }
}

/// One CLOCK slot: the artifact, its (cached) footprint, and the reference
/// bit the sweep clears before it may evict.
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    bytes: u64,
    referenced: bool,
}

/// One stage's map, CLOCK ring, and counters. The counters live *inside*
/// the stage lock, so any snapshot taken under it is consistent:
/// `inserts - evictions == map.len()` holds exactly, never torn.
#[derive(Debug)]
struct ClockState<V> {
    map: HashMap<ContentHash, Slot<V>>,
    ring: Vec<ContentHash>,
    hand: usize,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    resident_bytes: u64,
}

impl<V> Default for ClockState<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
            resident_bytes: 0,
        }
    }
}

impl<V> ClockState<V> {
    /// One CLOCK sweep, freeing at least `need` bytes if it can. Referenced
    /// entries get their bit cleared (one pass of grace); entries currently
    /// borrowed through an outside `Arc` are never evicted. At most two full
    /// revolutions, so a fully-pinned stage cannot livelock the sweep.
    fn evict(&mut self, need: u64) -> u64 {
        let mut freed = 0;
        let mut scanned = 0;
        let limit = self.ring.len() * 2;
        while freed < need && !self.ring.is_empty() && scanned < limit {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let slot = self.map.get_mut(&key).expect("ring tracks the map");
            if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
            } else if Arc::strong_count(&slot.value) > 1 {
                // Borrowed: some caller still holds the artifact.
                self.hand += 1;
            } else {
                let slot = self.map.remove(&key).expect("checked above");
                self.ring.swap_remove(self.hand);
                self.resident_bytes -= slot.bytes;
                self.evictions += 1;
                freed += slot.bytes;
            }
            scanned += 1;
        }
        freed
    }
}

/// One stage's CLOCK cache: one lock over an insertion ring with reference
/// bits, the stage's counters, and footprint accounting. Eviction
/// approximates LRU (CLOCK second-chance) and skips entries whose `Arc` is
/// borrowed outside the cache.
#[derive(Debug)]
pub struct ClockCache<V>(Mutex<ClockState<V>>);

impl<V> Default for ClockCache<V> {
    fn default() -> Self {
        Self(Mutex::new(ClockState::default()))
    }
}

/// The phase-pack codec of a persisted stage. A decoder takes the programs
/// its payload embeds from the store's intern table.
#[derive(Debug)]
struct Codec<V> {
    encode: fn(&V) -> Vec<u8>,
    decode: fn(&[u8], pack::ProgramSource<'_>) -> Result<V, pack::PackError>,
}

/// One entry of the store's stage table: everything the store knows about
/// one stage.
#[derive(Debug)]
struct Stage<V> {
    /// The trace span, the hit/miss event prefix and the [`StoreStats`] key;
    /// for a persisted stage also its spill file and its wire name.
    name: &'static str,
    /// The cross-stage eviction preference: lower ranks are swept first.
    evict_rank: u8,
    cache: ClockCache<V>,
    /// `Some` exactly for the stages in [`SPILL_STAGES`].
    codec: Option<Codec<V>>,
}

impl<V> Stage<V> {
    /// A stage that lives in memory only.
    fn memory(name: &'static str, evict_rank: u8) -> Self {
        Self {
            name,
            evict_rank,
            cache: ClockCache::new(),
            codec: None,
        }
    }

    /// A stage the spill and the network cache carry as phase-pack.
    fn persisted(
        name: &'static str,
        evict_rank: u8,
        encode: fn(&V) -> Vec<u8>,
        decode: fn(&[u8], pack::ProgramSource<'_>) -> Result<V, pack::PackError>,
    ) -> Self {
        Self {
            codec: Some(Codec { encode, decode }),
            ..Self::memory(name, evict_rank)
        }
    }
}

/// The type-erased view of a [`Stage`]: what the store does across stages
/// (eviction, counters, the spill, the network cache) without knowing each
/// stage's artifact type. The codec methods find nothing to do on a stage
/// that is not persisted.
trait AnyStage: Send + Sync {
    fn name(&self) -> &'static str;
    fn evict_rank(&self) -> u8;
    fn evict_bytes(&self, need: u64) -> u64;
    fn stats(&self) -> StageStats;
    fn is_persisted(&self) -> bool;
    /// Every resident key, sorted.
    fn keys(&self) -> Vec<ContentHash>;
    /// Every resident artifact as a phase-pack record, sorted by key.
    fn records(&self) -> Vec<(ContentHash, Vec<u8>)>;
    /// One artifact's phase-pack payload; the lookup counts a hit or a miss.
    fn export(&self, key: ContentHash) -> Option<Vec<u8>>;
    /// Decodes `payload` and admits it through `store`'s budget; returns
    /// whether the artifact is resident afterwards.
    fn import(
        &self,
        store: &ArtifactStore,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError>;
}

impl<V: StoreFootprint + Send + Sync> AnyStage for Stage<V> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evict_rank(&self) -> u8 {
        self.evict_rank
    }

    fn evict_bytes(&self, need: u64) -> u64 {
        self.cache.evict(need)
    }

    fn stats(&self) -> StageStats {
        self.cache.snapshot()
    }

    fn is_persisted(&self) -> bool {
        self.codec.is_some()
    }

    fn keys(&self) -> Vec<ContentHash> {
        self.cache.entries().into_iter().map(|(k, _)| k).collect()
    }

    fn records(&self) -> Vec<(ContentHash, Vec<u8>)> {
        let Some(codec) = &self.codec else {
            return Vec::new();
        };
        self.cache
            .entries()
            .into_iter()
            .map(|(k, v)| (k, (codec.encode)(&v)))
            .collect()
    }

    fn export(&self, key: ContentHash) -> Option<Vec<u8>> {
        let codec = self.codec.as_ref()?;
        self.cache.lookup(key).map(|v| (codec.encode)(&v))
    }

    fn import(
        &self,
        store: &ArtifactStore,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError> {
        let Some(codec) = &self.codec else {
            return Err(pack::PackError::Malformed(format!(
                "stage '{}' is not persisted",
                self.name
            )));
        };
        let value = (codec.decode)(payload, &|bytes| store.intern_program(bytes))?;
        store.admit(&self.cache, key, Arc::new(value));
        Ok(self.cache.contains(key))
    }
}

impl<V> ClockCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, counting a hit or a miss and setting the CLOCK
    /// reference bit on a hit.
    pub fn lookup(&self, key: ContentHash) -> Option<Arc<V>> {
        let mut state = self.0.lock();
        match state.map.get_mut(&key) {
            Some(slot) => {
                slot.referenced = true;
                let value = Arc::clone(&slot.value);
                state.hits += 1;
                Some(value)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, charged at `bytes`. If a racing insert
    /// got there first the resident entry wins and is returned; otherwise
    /// the new entry is added with its reference bit set (one sweep of
    /// grace, like a fresh hit).
    fn admit_sized(&self, key: ContentHash, value: Arc<V>, bytes: u64) -> Arc<V> {
        let mut state = self.0.lock();
        match state.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => Arc::clone(&entry.get().value),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Slot {
                    value: Arc::clone(&value),
                    bytes,
                    referenced: true,
                });
                state.ring.push(key);
                state.inserts += 1;
                state.resident_bytes += bytes;
                value
            }
        }
    }

    /// A CLOCK sweep freeing at least `need` bytes if any unreferenced,
    /// unborrowed entries remain. Returns the bytes freed.
    pub fn evict(&self, need: u64) -> u64 {
        self.0.lock().evict(need)
    }

    /// Total bytes currently resident in this stage.
    pub fn resident_bytes(&self) -> u64 {
        self.0.lock().resident_bytes
    }

    /// A consistent snapshot of this stage's counters, read under its lock,
    /// so `inserts - evictions == entries` and the footprint sum hold
    /// exactly.
    pub fn snapshot(&self) -> StageStats {
        let state = self.0.lock();
        StageStats {
            entries: state.map.len(),
            hits: state.hits,
            misses: state.misses,
            inserts: state.inserts,
            evictions: state.evictions,
            resident_bytes: state.resident_bytes,
        }
    }

    /// Whether `key` is resident, without touching the hit/miss counters or
    /// the CLOCK reference bit (a pure peek, used to report admission
    /// outcomes).
    pub fn contains(&self, key: ContentHash) -> bool {
        self.0.lock().map.contains_key(&key)
    }

    /// Every entry, sorted by key (deterministic; used by the spill).
    pub fn entries(&self) -> Vec<(ContentHash, Arc<V>)> {
        let mut all: Vec<(ContentHash, Arc<V>)> = self
            .0
            .lock()
            .map
            .iter()
            .map(|(k, slot)| (*k, Arc::clone(&slot.value)))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }
}

impl<V: StoreFootprint> ClockCache<V> {
    /// Inserts `value` under `key` unbudgeted, charging its own footprint.
    /// The resident entry wins if a racing insert got there first.
    pub fn admit(&self, key: ContentHash, value: Arc<V>) -> Arc<V> {
        let bytes = value.footprint_bytes();
        self.admit_sized(key, value, bytes)
    }

    /// Returns the cached artifact for `key`, computing it outside the lock
    /// on a miss (unbudgeted). Under a racing double-miss both
    /// computations produce the same deterministic value and the first
    /// insert wins.
    pub fn get_or_insert_with(&self, key: ContentHash, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(found) = self.lookup(key) {
            return found;
        }
        self.admit(key, Arc::new(compute()))
    }
}

/// Counters of one stage: entries, lookups (hits + misses), admissions,
/// evictions, and the resident footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Distinct artifacts held.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Artifacts admitted into the cache.
    pub inserts: u64,
    /// Artifacts evicted by the CLOCK sweep.
    pub evictions: u64,
    /// Bytes currently resident (footprint accounting).
    pub resident_bytes: u64,
}

impl StageStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A snapshot of every stage's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `(stage name, counters)`, in pipeline order.
    pub stages: Vec<(&'static str, StageStats)>,
}

impl StoreStats {
    /// Total hits across stages.
    pub fn total_hits(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.hits).sum()
    }

    /// Total misses across stages.
    pub fn total_misses(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.misses).sum()
    }

    /// Total evictions across stages.
    pub fn total_evictions(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.evictions).sum()
    }

    /// Total resident bytes across stages.
    pub fn resident_bytes(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.resident_bytes).sum()
    }

    /// Counters for one stage by name.
    pub fn stage(&self, name: &str) -> Option<StageStats> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// The change in hit/miss/insert/eviction counters since `before`
    /// (entry counts and resident bytes stay absolute — they describe the
    /// store, not the interval). This is what lets one report attribute
    /// cache behavior to one study even when many studies share a store.
    pub fn delta_since(&self, before: &StoreStats) -> StoreStats {
        StoreStats {
            stages: self
                .stages
                .iter()
                .map(|(name, after)| {
                    let prior = before.stage(name).unwrap_or_default();
                    (
                        *name,
                        StageStats {
                            entries: after.entries,
                            hits: after.hits.saturating_sub(prior.hits),
                            misses: after.misses.saturating_sub(prior.misses),
                            inserts: after.inserts.saturating_sub(prior.inserts),
                            evictions: after.evictions.saturating_sub(prior.evictions),
                            resident_bytes: after.resident_bytes,
                        },
                    )
                })
                .collect(),
        }
    }

    /// The snapshot as a JSON object (stage → `{entries, hits, misses,
    /// inserts, evictions, resident_bytes}`).
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::object();
        for (name, stats) in &self.stages {
            doc = doc.field(
                name,
                JsonValue::object()
                    .field("entries", stats.entries)
                    .field("hits", stats.hits)
                    .field("misses", stats.misses)
                    .field("inserts", stats.inserts)
                    .field("evictions", stats.evictions)
                    .field("resident_bytes", stats.resident_bytes),
            );
        }
        doc
    }
}

/// An interned program and the phase-pack bytes it was decoded from.
type InternedProgram = (Arc<Program>, Vec<u8>);

/// The content-addressed artifact store. See the module docs for the design.
#[derive(Debug)]
pub struct ArtifactStore {
    catalogs: Stage<Catalog>,
    profiles: Stage<IpcProfileArtifact>,
    typings: Stage<BlockTyping>,
    regions: Stage<ProgramRegions>,
    instrumented: Stage<InstrumentedProgram>,
    baselines: Stage<InstrumentedProgram>,
    isolated: Stage<HashMap<String, f64>>,
    cells: Stage<CachedCell>,
    /// The optional byte budget. `None` (the default) grows without bound,
    /// the legacy sweep-harness behaviour; a service-scale store sets it.
    budget: Option<StoreBudget>,
    /// Program fingerprints memoized by allocation; the held `Arc` keeps the
    /// allocation alive so an address can never be reused for a different
    /// program while the memo entry exists. Because that `Arc` pins the
    /// whole program, the memo is *bounded*: once it reaches
    /// [`FP_MEMO_CAP`] entries it is cleared (dropping the pins) before the
    /// next insert — a long-running service over rotating catalogues
    /// re-hashes occasionally instead of leaking every program it ever saw.
    program_fps: Mutex<HashMap<usize, (Arc<Program>, ContentHash)>>,
    /// Same memo (and the same bound) for instrumented programs, used when
    /// hashing job slots.
    instrumented_fps: Mutex<HashMap<usize, (Arc<InstrumentedProgram>, ContentHash)>>,
    /// Programs decoded from phase-pack payloads (a spill load or an
    /// artifact put), keyed by fingerprint, each with the bytes it was
    /// decoded from: a payload whose program bytes are identical shares the
    /// entry's allocation instead of decoding another copy. Bounded by
    /// [`FP_MEMO_CAP`] like the memos.
    programs: Mutex<HashMap<ContentHash, InternedProgram>>,
}

impl Default for ArtifactStore {
    /// The stage table. Eviction ranks put simulation cells first (largest,
    /// cheapest to recompute relative to their size) and the compact
    /// analysis artifacts last.
    fn default() -> Self {
        Self {
            catalogs: Stage::persisted("catalogs", 1, pack::encode_catalog, pack::decode_catalog),
            profiles: Stage::persisted("ipc_profiles", 6, pack::encode_profile, |bytes, _| {
                pack::decode_profile(bytes)
            }),
            typings: Stage::persisted("typings", 7, pack::encode_typing, |bytes, _| {
                pack::decode_typing(bytes)
            }),
            regions: Stage::memory("regions", 4),
            instrumented: Stage::persisted(
                "instrumented",
                2,
                pack::encode_instrumented,
                pack::decode_instrumented_with,
            ),
            baselines: Stage::persisted(
                "baselines",
                3,
                pack::encode_instrumented,
                pack::decode_instrumented_with,
            ),
            isolated: Stage::persisted(
                "isolated_runtimes",
                5,
                pack::encode_runtimes,
                |bytes, _| pack::decode_runtimes(bytes),
            ),
            cells: Stage::persisted("cells", 0, pack::encode_cell, |bytes, _| {
                pack::decode_cell(bytes)
            }),
            budget: None,
            program_fps: Mutex::default(),
            instrumented_fps: Mutex::default(),
            programs: Mutex::default(),
        }
    }
}

impl ArtifactStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store bounded to `max_bytes` of resident artifacts. On
    /// admission the store evicts (CLOCK, borrowed entries skipped)
    /// until the new artifact fits; an artifact that cannot be made to fit
    /// is returned to the caller *uncached*, so the resident footprint never
    /// exceeds the budget.
    pub fn with_budget(max_bytes: u64) -> Self {
        Self {
            budget: Some(StoreBudget::new(max_bytes)),
            ..Self::default()
        }
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget.as_ref().map(StoreBudget::max_bytes)
    }

    /// Total bytes currently resident across every stage. On a bounded
    /// store this reads the budget's running total under its lock — O(1),
    /// and never a torn mid-admission sum; an unbounded store sums each
    /// stage's accounting, one stage lock at a time.
    pub fn resident_bytes(&self) -> u64 {
        match &self.budget {
            Some(budget) => *budget.resident.lock(),
            None => self.stages().iter().map(|s| s.stats().resident_bytes).sum(),
        }
    }

    /// The stage table, type-erased, in pipeline order.
    fn stages(&self) -> [&dyn AnyStage; 8] {
        [
            &self.catalogs,
            &self.profiles,
            &self.typings,
            &self.regions,
            &self.instrumented,
            &self.baselines,
            &self.isolated,
            &self.cells,
        ]
    }

    /// The persisted stage called `name`, if there is one.
    fn persisted_stage(&self, name: &str) -> Option<&dyn AnyStage> {
        self.stages()
            .into_iter()
            .find(|s| s.is_persisted() && s.name() == name)
    }

    /// The persisted stages in [`SPILL_STAGES`] order.
    fn spill_stages(&self) -> impl Iterator<Item = &dyn AnyStage> + '_ {
        SPILL_STAGES
            .iter()
            .filter_map(move |name| self.persisted_stage(name))
    }

    /// One cross-stage eviction round freeing at least `need` bytes if it
    /// can. Stages are tried in the table's fixed `evict_rank` order (cells
    /// and catalogues first) — no residency re-scan per round, since every
    /// call already runs under the budget lock and extra stage-lock
    /// round-trips there stall all other admissions. Returns the bytes
    /// freed; `0` means every remaining entry is referenced or borrowed.
    fn evict_round(&self, need: u64) -> u64 {
        let mut order = self.stages();
        order.sort_unstable_by_key(|stage| stage.evict_rank());
        let mut freed = 0;
        for stage in order {
            if freed >= need {
                break;
            }
            freed += stage.evict_bytes(need - freed);
        }
        freed
    }

    /// Admits a freshly computed artifact, enforcing the budget when one is
    /// configured. Admission is serialized by the budget's guard (which
    /// carries the running resident total), evicts until the artifact fits,
    /// and hands the artifact back *uncached* when room cannot be made
    /// (oversized artifact, or everything else pinned) — so
    /// `resident_bytes() <= budget` is an invariant, not a goal.
    fn admit<V: StoreFootprint>(
        &self,
        cache: &ClockCache<V>,
        key: ContentHash,
        value: Arc<V>,
    ) -> Arc<V> {
        let Some(budget) = &self.budget else {
            return cache.admit(key, value);
        };
        let mut resident = budget.resident.lock();
        // A racing admission may have inserted the key while we computed;
        // the resident entry wins without any new accounting.
        if let Some(found) = cache.0.lock().map.get(&key) {
            return Arc::clone(&found.value);
        }
        let bytes = value.footprint_bytes();
        if bytes > budget.max_bytes {
            return value;
        }
        while *resident + bytes > budget.max_bytes {
            let freed = self.evict_round(*resident + bytes - budget.max_bytes);
            if freed == 0 {
                return value;
            }
            *resident -= freed;
        }
        *resident += bytes;
        cache.admit_sized(key, value, bytes)
    }

    /// The budget-aware lookup-or-compute every stage accessor goes
    /// through. When tracing is on, a hit/miss event (detail
    /// `stage:content-hash`) lands on the current trace, and the recompute
    /// runs under a span named after the stage.
    fn cached<V: StoreFootprint>(
        &self,
        stage: &Stage<V>,
        key: ContentHash,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        let name = stage.name;
        if let Some(found) = stage.cache.lookup(key) {
            phase_trace::event_detail("store-hit", 0, || format!("{name}:{key}"));
            return found;
        }
        phase_trace::event_detail("store-miss", 0, || format!("{name}:{key}"));
        let _recompute = phase_trace::span(name);
        self.admit(&stage.cache, key, Arc::new(compute()))
    }

    /// The content fingerprint of a program (memoized per allocation).
    ///
    /// The fingerprint hashes the program's phase-pack encoding
    /// ([`pack::encode_program`]) — its name and every instruction, memory
    /// reference, and terminator — so two structurally identical programs
    /// share artifacts even if generated separately, and a program decoded
    /// from a payload is fingerprinted straight from the payload's bytes.
    pub fn program_fingerprint(&self, program: &Arc<Program>) -> ContentHash {
        let key = Arc::as_ptr(program) as usize;
        if let Some((_, hash)) = self.program_fps.lock().get(&key) {
            return *hash;
        }
        let hash = {
            let _span = phase_trace::span("fingerprint");
            program_bytes_fingerprint(&pack::encode_program(program))
        };
        self.remember_program(program, hash);
        hash
    }

    /// Memoizes `program`'s fingerprint.
    fn remember_program(&self, program: &Arc<Program>, hash: ContentHash) {
        let mut memo = self.program_fps.lock();
        if memo.len() >= FP_MEMO_CAP {
            memo.clear();
        }
        memo.insert(Arc::as_ptr(program) as usize, (Arc::clone(program), hash));
    }

    /// The program behind `bytes` (an [`pack::encode_program`] field of a
    /// payload being loaded): the interned allocation when an earlier
    /// payload carried identical bytes, otherwise a fresh, validated decode
    /// that later payloads will share. Either way the program's fingerprint
    /// is memoized from the bytes, so keying its artifacts re-encodes
    /// nothing.
    fn intern_program(&self, bytes: &[u8]) -> Result<Arc<Program>, pack::PackError> {
        let hash = program_bytes_fingerprint(bytes);
        if let Some((program, known)) = self.programs.lock().get(&hash) {
            if known.as_slice() == bytes {
                return Ok(Arc::clone(program));
            }
        }
        let program = Arc::new(pack::decode_program(bytes)?);
        self.remember_program(&program, hash);
        let mut table = self.programs.lock();
        if table.len() >= FP_MEMO_CAP {
            table.clear();
        }
        // A racing load may have interned these bytes first (share its
        // copy); another program under the same fingerprint keeps its entry
        // (this one stays unshared).
        let (interned, known) = table
            .entry(hash)
            .or_insert_with(|| (Arc::clone(&program), bytes.to_vec()));
        Ok(if known.as_slice() == bytes {
            Arc::clone(interned)
        } else {
            program
        })
    }

    /// The content fingerprint of an instrumented program: the underlying
    /// program plus the marking config and the exact mark set.
    pub fn instrumented_fingerprint(&self, instrumented: &Arc<InstrumentedProgram>) -> ContentHash {
        let key = Arc::as_ptr(instrumented) as usize;
        if let Some((_, hash)) = self.instrumented_fps.lock().get(&key) {
            return *hash;
        }
        let mut hasher = StableHasher::new();
        hasher.write_str("instrumented");
        self.program_fingerprint(instrumented.program())
            .fingerprint(&mut hasher);
        instrumented.config().fingerprint(&mut hasher);
        // The entry phase type is a real simulation input (it seeds each
        // process's starting phase), so zero-mark twins that differ only in
        // entry typing must not alias.
        match instrumented.entry_type() {
            Some(ty) => {
                hasher.write_bool(true);
                hasher.write_u64(u64::from(ty.0));
            }
            None => hasher.write_bool(false),
        }
        hasher.write_usize(instrumented.mark_count());
        for mark in instrumented.marks() {
            hasher.write_u64(u64::from(mark.from.proc.0));
            hasher.write_u64(u64::from(mark.from.block.0));
            hasher.write_u64(u64::from(mark.to.proc.0));
            hasher.write_u64(u64::from(mark.to.block.0));
            hasher.write_u64(u64::from(mark.phase_type.0));
            match mark.previous_type {
                Some(ty) => {
                    hasher.write_bool(true);
                    hasher.write_u64(u64::from(ty.0));
                }
                None => hasher.write_bool(false),
            }
        }
        let hash = hasher.finish();
        let mut memo = self.instrumented_fps.lock();
        if memo.len() >= FP_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, (Arc::clone(instrumented), hash));
        hash
    }

    /// Stage 1 — catalogue generation.
    pub fn catalog(&self, spec: &CatalogSpec) -> Arc<Catalog> {
        self.cached(&self.catalogs, spec.content_hash(), || spec.build())
    }

    /// Stage 2 — per-block IPC profiling on the machine's fastest and slowest
    /// kinds.
    pub fn ipc_profiles(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        min_block_size: usize,
    ) -> Arc<IpcProfileArtifact> {
        let mut hasher = StableHasher::new();
        hasher.write_str("ipc-profile");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        hasher.write_usize(min_block_size);
        self.cached(&self.profiles, hasher.finish(), || {
            profile_stage(program, machine, min_block_size)
        })
    }

    /// Stage 3 — block typing. Profile-guided typing pulls stage 2 from the
    /// store, so two pipeline configs that differ only in marking share one
    /// profiling pass.
    pub fn typing(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<BlockTyping> {
        let min_block_size = min_typed_block_size(config);
        let mut hasher = StableHasher::new();
        hasher.write_str("typing");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        config.typing.fingerprint(&mut hasher);
        hasher.write_usize(min_block_size);
        hasher.write_f64(config.clustering_error);
        hasher.write_u64(config.error_seed);
        self.cached(&self.typings, hasher.finish(), || {
            let profiles = match config.typing {
                TypingStrategy::ProfileGuided { .. } => {
                    Some(self.ipc_profiles(program, machine, min_block_size))
                }
                TypingStrategy::StaticKMeans { .. } => None,
            };
            typing_stage(program, machine, config, profiles.as_deref())
        })
    }

    /// Stage 4 — section summarization (region maps at the marking
    /// granularity, with dominant types).
    pub fn regions(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<ProgramRegions> {
        let mut hasher = StableHasher::new();
        hasher.write_str("regions");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        config.fingerprint(&mut hasher);
        self.cached(&self.regions, hasher.finish(), || {
            let typing = self.typing(program, machine, config);
            regions_stage(program, &typing, &config.marking)
        })
    }

    /// Stage 5 — instrumentation (phase-mark insertion).
    pub fn instrumented(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<InstrumentedProgram> {
        let prefix = instrumented_key_prefix(machine, config);
        self.instrumented_after(&prefix, program, machine, config)
    }

    /// Stage 5 for every benchmark of a catalogue, index-aligned with it.
    /// The key prefix (machine and pipeline config) is hashed once and
    /// cloned per program; each program is one counted lookup, exactly as
    /// [`ArtifactStore::instrumented`] would make it.
    pub fn instrumented_catalog(
        &self,
        catalog: &Catalog,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Vec<Arc<InstrumentedProgram>> {
        let prefix = instrumented_key_prefix(machine, config);
        catalog
            .benchmarks()
            .iter()
            .map(|bench| self.instrumented_after(&prefix, bench.program(), machine, config))
            .collect()
    }

    /// Stage 5 keyed by `prefix` (from [`instrumented_key_prefix`]) followed
    /// by the program's fingerprint.
    fn instrumented_after(
        &self,
        prefix: &StableHasher,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<InstrumentedProgram> {
        let mut hasher = prefix.clone();
        self.program_fingerprint(program).fingerprint(&mut hasher);
        self.cached(&self.instrumented, hasher.finish(), || {
            let regions = self.regions(program, machine, config);
            instrument_stage(program, &regions, &config.marking)
        })
    }

    /// The uninstrumented twin of a program (zero marks). Config-independent:
    /// one artifact per program, shared by every pipeline configuration —
    /// sweeps no longer rebuild the baseline per sweep point.
    pub fn baseline(&self, program: &Arc<Program>) -> Arc<InstrumentedProgram> {
        let mut hasher = StableHasher::new();
        hasher.write_str("baseline");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        self.cached(&self.baselines, hasher.finish(), || {
            crate::pipeline::uninstrumented(program)
        })
    }

    /// The uninstrumented twin of every benchmark of a catalogue,
    /// index-aligned with it: one counted lookup per program, in catalogue
    /// order, exactly as [`ArtifactStore::baseline`] would make them.
    pub fn baseline_catalog(&self, catalog: &Catalog) -> Vec<Arc<InstrumentedProgram>> {
        catalog
            .benchmarks()
            .iter()
            .map(|bench| self.baseline(bench.program()))
            .collect()
    }

    /// Per-benchmark isolated runtimes for a catalogue on a machine
    /// (config-independent like the baseline twins; the stretch metric's
    /// denominator).
    pub fn isolated_runtimes(
        &self,
        catalog_spec: &CatalogSpec,
        machine: &MachineSpec,
        sim: &SimConfig,
        compute: impl FnOnce() -> HashMap<String, f64>,
    ) -> Arc<HashMap<String, f64>> {
        let mut hasher = StableHasher::new();
        hasher.write_str("isolated");
        catalog_spec.fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        sim.fingerprint(&mut hasher);
        self.cached(&self.isolated, hasher.finish(), compute)
    }

    /// The cache key of a simulation cell: machine, policy, sim parameters,
    /// and the full job-slot content (names, release times, binary
    /// fingerprints). Plan position is deliberately excluded.
    pub fn cell_key(
        &self,
        machine: &MachineSpec,
        policy: &Policy,
        sim: &SimConfig,
        slots: &[Vec<JobSpec>],
    ) -> ContentHash {
        let mut hasher = StableHasher::new();
        hasher.write_str("cell");
        machine.fingerprint(&mut hasher);
        policy.fingerprint(&mut hasher);
        sim.fingerprint(&mut hasher);
        hasher.write_usize(slots.len());
        for queue in slots {
            hasher.write_usize(queue.len());
            for job in queue {
                hasher.write_str(&job.name);
                hasher.write_f64(job.release_ns);
                match job.deadline_ns {
                    Some(ns) => {
                        hasher.write_bool(true);
                        hasher.write_f64(ns);
                    }
                    None => hasher.write_bool(false),
                }
                self.instrumented_fingerprint(&job.instrumented)
                    .fingerprint(&mut hasher);
            }
        }
        hasher.finish()
    }

    /// Looks up or computes a whole simulation cell.
    pub fn cell(&self, key: ContentHash, compute: impl FnOnce() -> CachedCell) -> Arc<CachedCell> {
        self.cached(&self.cells, key, compute)
    }

    /// Whether the cell under `key` is resident: an uncounted peek that
    /// leaves the hit/miss counters and the CLOCK reference bit alone. The
    /// driver asks it to pick the cells a plan must simulate.
    pub(crate) fn has_cell(&self, key: ContentHash) -> bool {
        self.cells.cache.contains(key)
    }

    /// A consistent snapshot of every stage's counters, in pipeline order.
    ///
    /// Each stage's counters are read under its lock, so the
    /// invariants `hits + misses == lookups` and
    /// `inserts - evictions == entries` hold exactly in the returned value —
    /// readers can never observe a torn combination (an insert counted but
    /// its entry not yet visible, or vice versa). On a bounded store the
    /// snapshot additionally holds the budget guard, so the cross-stage
    /// resident sum is taken with no admission or eviction in flight and
    /// can never exceed the budget. Both the study runner and the tuning
    /// service report through this one method.
    pub fn snapshot(&self) -> StoreStats {
        let _guard = self.budget.as_ref().map(|b| b.resident.lock());
        StoreStats {
            stages: self
                .stages()
                .iter()
                .map(|s| (s.name(), s.stats()))
                .collect(),
        }
    }

    /// Spills the persistable stages to `dir` as phase-pack.
    ///
    /// Writes `index.json` (every stage's counters), one phase-pack file per
    /// stage in [`SPILL_STAGES`] — catalogues, typings, IPC profiles,
    /// isolated runtimes, instrumented programs, baseline twins and whole
    /// simulation cells — and `manifest.json` (format name, pack version,
    /// producing toolchain, and a content hash over every spilled key — the
    /// value CI cache keys hang off).
    pub fn spill_to_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = phase_trace::span("store-spill");
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let index_path = dir.join("index.json");
        std::fs::write(&index_path, self.snapshot().to_json().render())?;
        written.push(index_path);

        let mut stage_docs = Vec::new();
        let mut manifest_hasher = StableHasher::new();
        manifest_hasher.write_str("spill-manifest");
        manifest_hasher.write_str(pack::toolchain_tag());
        for entry in self.spill_stages() {
            let stage = entry.name();
            let records = entry.records();
            manifest_hasher.write_str(stage);
            manifest_hasher.write_usize(records.len());
            for (key, _) in &records {
                key.fingerprint(&mut manifest_hasher);
            }
            let file = format!("{stage}.ppk");
            let path = dir.join(&file);
            std::fs::write(&path, pack::write_pack_file(stage, &records))?;
            stage_docs.push(
                JsonValue::object()
                    .field("stage", stage)
                    .field("file", file)
                    .field("entries", records.len()),
            );
            written.push(path);
        }
        let manifest = JsonValue::object()
            .field("format", SPILL_FORMAT)
            .field("version", pack::PACK_VERSION)
            .field("toolchain", pack::toolchain_tag())
            .field("content_hash", manifest_hasher.finish().to_string())
            .field("stages", stage_docs);
        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, manifest.render())?;
        written.push(manifest_path);
        Ok(written)
    }

    /// Serializes one artifact for the network cache: `Some(phase-pack
    /// payload)` when `(stage, key)` is resident, `None` on a miss or an
    /// unknown stage. The lookup counts as a normal hit/miss on the stage.
    pub fn export_artifact(&self, stage: &str, key: ContentHash) -> Option<Vec<u8>> {
        self.persisted_stage(stage)?.export(key)
    }

    /// Decodes and admits one artifact payload (the put side of the network
    /// cache; the spill load admits each record the same way). Decoding is
    /// fully validated — corrupt payloads return a [`pack::PackError`],
    /// never panic — and admission goes through the byte budget like any
    /// computed artifact. Returns whether the artifact is resident
    /// afterwards (`false` means the budget declined it).
    pub fn import_artifact(
        &self,
        stage: &str,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError> {
        self.persisted_stage(stage)
            .ok_or_else(|| pack::PackError::Malformed(format!("unknown stage '{stage}'")))?
            .import(self, key, payload)
    }

    /// Every resident key of every persistable stage, sorted within each
    /// stage — the inventory a remote worker walks to warm itself from this
    /// store.
    pub fn artifact_keys(&self) -> Vec<(&'static str, Vec<ContentHash>)> {
        self.spill_stages()
            .map(|stage| (stage.name(), stage.keys()))
            .collect()
    }

    /// Reloads a directory written by [`ArtifactStore::spill_to_dir`],
    /// reporting what loaded, what was skipped, and why. `loaded` counts the
    /// artifacts *offered* to the store: a bounded store admits them through
    /// the usual budget gate and may decline some.
    ///
    /// Loads are *structurally* guarded: a manifest that is missing, not
    /// UTF-8, unparseable, or names another format, pack version or
    /// toolchain rejects the whole directory as one recorded error with zero
    /// loads (a stale or foreign cache is a cold start, not a crash), and a
    /// truncated or bit-flipped record is skipped with a structured error
    /// while the intact remainder still loads. `Err` is reserved for I/O
    /// failures other than a missing file.
    pub fn load_spill_report(&self, dir: &Path) -> io::Result<SpillLoadReport> {
        let _span = phase_trace::span("store-load");
        let mut report = SpillLoadReport::default();
        match manifest_rejection(dir)? {
            Some(error) => report.errors.push(error),
            None => self.load_pack_files(dir, &mut report),
        }
        Ok(report)
    }

    /// Loads the per-stage pack files: per-file header validation, then
    /// per-record checksum + decode validation, all failure contained as
    /// skipped entries.
    fn load_pack_files(&self, dir: &Path, report: &mut SpillLoadReport) {
        for entry in self.spill_stages() {
            let stage = entry.name();
            let path = dir.join(format!("{stage}.ppk"));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(error) if error.kind() == io::ErrorKind::NotFound => continue,
                Err(error) => {
                    report.errors.push(format!("{stage}.ppk: {error}"));
                    continue;
                }
            };
            let file = match pack::read_pack_file(&bytes, stage) {
                Ok(file) => file,
                Err(error) => {
                    // Header mismatch: the whole file is foreign or stale.
                    report.errors.push(format!("{stage}.ppk: {error}"));
                    continue;
                }
            };
            for error in &file.skipped {
                report.skipped += 1;
                report.errors.push(format!("{stage}.ppk: {error}"));
            }
            for (key, payload) in file.records {
                match entry.import(self, key, &payload) {
                    Ok(_) => report.loaded += 1,
                    Err(error) => {
                        report.skipped += 1;
                        report.errors.push(format!("{stage}.ppk {key}: {error}"));
                    }
                }
            }
        }
    }
}

/// The hasher state of an `instrumented` key before its program: the stage
/// tag, the machine and the pipeline config. Hashing the shared part first
/// lets a catalogue hash it once and clone it per program
/// ([`ArtifactStore::instrumented_catalog`]).
fn instrumented_key_prefix(machine: &MachineSpec, config: &PipelineConfig) -> StableHasher {
    let mut hasher = StableHasher::new();
    hasher.write_str("instrument");
    machine.fingerprint(&mut hasher);
    config.fingerprint(&mut hasher);
    hasher
}

/// The fingerprint of a program's [`pack::encode_program`] bytes.
fn program_bytes_fingerprint(bytes: &[u8]) -> ContentHash {
    let mut hasher = StableHasher::new();
    hasher.write_str("program");
    hasher.write_blob(bytes);
    hasher.finish()
}

/// Why `dir`'s manifest rules the directory out, or `None` when it names a
/// phase-pack spill of this pack version and toolchain. Only failing to read
/// a manifest that exists is an `Err`.
fn manifest_rejection(dir: &Path) -> io::Result<Option<String>> {
    let bytes = match std::fs::read(dir.join("manifest.json")) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == io::ErrorKind::NotFound => {
            return Ok(Some(format!(
                "manifest.json: missing, so not a {SPILL_FORMAT} spill"
            )));
        }
        Err(error) => return Err(error),
    };
    let manifest = match std::str::from_utf8(&bytes)
        .map_err(|error| error.to_string())
        .and_then(|text| parse(text).map_err(|error| error.to_string()))
    {
        Ok(manifest) => manifest,
        Err(error) => return Ok(Some(format!("manifest.json: {error}"))),
    };
    let format = manifest
        .get("format")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    if format != SPILL_FORMAT {
        return Ok(Some(format!(
            "manifest.json: format '{format}' (this build reads '{SPILL_FORMAT}')"
        )));
    }
    let version = manifest
        .get("version")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    if version != pack::PACK_VERSION {
        return Ok(Some(
            pack::PackError::BadVersion { found: version }.to_string(),
        ));
    }
    let toolchain = manifest
        .get("toolchain")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    if toolchain != pack::toolchain_tag() {
        return Ok(Some(
            pack::PackError::ToolchainMismatch {
                found: toolchain.to_string(),
            }
            .to_string(),
        ));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_workload::CatalogSpec;

    #[test]
    fn content_hash_round_trips_through_hex() {
        let hash = ContentHash {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(ContentHash::from_hex(&hash.to_string()), Some(hash));
        assert_eq!(ContentHash::from_hex("xyz"), None);
    }

    #[test]
    fn hasher_distinguishes_field_order_and_values() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes split boundaries");
        assert_ne!(
            MarkingConfig::loop_level(45).content_hash(),
            MarkingConfig::loop_level(30).content_hash()
        );
        assert_ne!(
            MarkingConfig::basic_block(15, 0).content_hash(),
            MarkingConfig::interval(15).content_hash()
        );
        assert_eq!(
            PipelineConfig::paper_best().content_hash(),
            PipelineConfig::paper_best().content_hash()
        );
    }

    #[test]
    fn catalog_stage_hits_on_equal_specs() {
        let store = ArtifactStore::new();
        let spec = CatalogSpec::standard(0.04, 7);
        let first = store.catalog(&spec);
        let second = store.catalog(&spec);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = store.snapshot().stage("catalogs").unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        let other = store.catalog(&CatalogSpec::standard(0.04, 8));
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(store.snapshot().stage("catalogs").unwrap().entries, 2);
    }

    #[test]
    fn interning_shares_only_identical_program_bytes() {
        let store = ArtifactStore::new();
        let catalog = CatalogSpec::standard(0.04, 7).build();
        let (a, b) = (
            catalog.benchmarks()[0].program(),
            catalog.benchmarks()[1].program(),
        );
        let (a_bytes, b_bytes) = (pack::encode_program(a), pack::encode_program(b));
        let first = store.intern_program(&a_bytes).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &store.intern_program(&a_bytes).unwrap()
        ));
        assert_eq!(
            store.program_fingerprint(&first),
            store.program_fingerprint(a)
        );

        // Plant `a` under `b`'s fingerprint, as a hash collision would:
        // `b`'s bytes must still come back as `b`.
        store.programs.lock().insert(
            program_bytes_fingerprint(&b_bytes),
            (Arc::clone(a), a_bytes.clone()),
        );
        let second = store.intern_program(&b_bytes).unwrap();
        assert!(!Arc::ptr_eq(&second, a));
        assert_eq!(pack::encode_program(&second), b_bytes);
    }

    #[test]
    fn program_fingerprints_are_structural() {
        let store = ArtifactStore::new();
        let a = CatalogSpec::standard(0.04, 7).build();
        let b = CatalogSpec::standard(0.04, 7).build();
        // Different allocations, same content: same fingerprint.
        let fa = store.program_fingerprint(a.benchmarks()[0].program());
        let fb = store.program_fingerprint(b.benchmarks()[0].program());
        assert_eq!(fa, fb);
        let other = store.program_fingerprint(a.benchmarks()[1].program());
        assert_ne!(fa, other);
    }
}
