//! Cheap structured tracing for the phase-tuning stack.
//!
//! The crate records two shapes of data — RAII **spans** (wall-clock
//! durations around real work) and point **events** (phase transitions,
//! migrations, store hits) — into bounded per-thread ring buffers. Everything
//! is gated behind one process-wide runtime switch: when tracing is disabled
//! every probe site costs a single relaxed atomic load and nothing else (a
//! bench gates this), so instrumentation can live permanently in hot paths.
//!
//! Records carry no wall-clock ordering guarantees across threads; instead
//! every record is stamped with a logical coordinate `(trace_id, lane,
//! scope, seq)` assigned from the context set by [`install`], and exports
//! sort by that coordinate. Simulated-time events therefore serialize
//! bit-identically whatever the worker-thread count — the property the
//! golden-trace and thread-equivalence tests pin.
//!
//! The crate is dependency-free by design (it sits below `phase-sched` in
//! the workspace layering); NDJSON rendering of [`TraceRecord`]s lives in
//! `phase_core::trace_export`, next to the JSON document model.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default bound on one thread's ring: when full, the oldest record is
/// overwritten and the global [`dropped`] counter is bumped.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Whether tracing is recording. This is the whole disabled-path cost: one
/// relaxed load per probe site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Records already in the rings are
/// kept either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the per-thread ring bound (clamped to at least 8). Applies to
/// subsequent recording; existing rings shrink lazily as they record.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(8), Ordering::Relaxed);
}

/// Records overwritten because a thread's ring was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// A fresh process-unique trace id (never zero).
pub fn new_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the process's tracing epoch (first use). Monotonic.
pub fn wall_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Which part of the stack emitted a record. The lane's rank is the second
/// sort key of the logical coordinate, so a timeline always reads wire →
/// executor → study cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Connection worker: parse, serialize, the root request span.
    Wire,
    /// Executor worker: queue wait, study execution.
    Exec,
    /// Driver cell workers (scope = cell index).
    Study,
    /// Standalone bench / test harnesses.
    Bench,
}

impl Lane {
    /// Sort rank within a trace.
    pub fn rank(self) -> u8 {
        match self {
            Lane::Wire => 0,
            Lane::Exec => 1,
            Lane::Study => 2,
            Lane::Bench => 3,
        }
    }

    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Wire => "wire",
            Lane::Exec => "exec",
            Lane::Study => "study",
            Lane::Bench => "bench",
        }
    }
}

/// Which clock a record's `t_ns` reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// [`wall_now_ns`] — real elapsed time, varies run to run.
    Wall,
    /// The scheduler engine's simulated clock — deterministic.
    Sim,
}

impl Domain {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Wall => "wall",
            Domain::Sim => "sim",
        }
    }
}

/// What a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A span began; `value` is 0.
    SpanOpen,
    /// A span ended; `value` is its duration in nanoseconds.
    SpanClose,
    /// A point event; `value` is event-specific.
    Event,
}

impl Kind {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpanOpen => "span_open",
            Kind::SpanClose => "span_close",
            Kind::Event => "event",
        }
    }
}

/// One recorded span edge or event. `(trace_id, lane.rank(), scope, seq)` is
/// the logical coordinate exports sort by; `seq` is assigned per installed
/// context in emission order, so nesting within one coordinate group is
/// always well-parenthesized.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The request/run this record belongs to.
    pub trace_id: u64,
    /// Emitting lane.
    pub lane: Lane,
    /// Sub-ordering within the lane (e.g. driver cell index).
    pub scope: u32,
    /// Emission order within `(trace_id, lane, scope)`.
    pub seq: u32,
    /// Span edge or event.
    pub kind: Kind,
    /// Which clock `t_ns` reads.
    pub domain: Domain,
    /// Static probe name (`"request"`, `"phase-transition"`, …).
    pub name: &'static str,
    /// Timestamp in the record's domain, nanoseconds.
    pub t_ns: u64,
    /// Span duration (close records) or event payload.
    pub value: u64,
    /// Optional free-form payload (e.g. `stage:content-hash`).
    pub detail: Option<Box<str>>,
}

struct CtxState {
    trace_id: u64,
    lane: Lane,
    scope: u32,
    seq: u32,
}

type Ring = Arc<Mutex<VecDeque<TraceRecord>>>;

fn registry() -> &'static Mutex<Vec<Ring>> {
    static REGISTRY: OnceLock<Mutex<Vec<Ring>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CTX: RefCell<Vec<CtxState>> = const { RefCell::new(Vec::new()) };
    static LOCAL_RING: Ring = {
        let ring: Ring = Arc::new(Mutex::new(VecDeque::new()));
        registry().lock().expect("trace registry lock").push(Arc::clone(&ring));
        ring
    };
}

fn push_record(record: TraceRecord) {
    LOCAL_RING.with(|ring| {
        let mut ring = ring.lock().expect("trace ring lock");
        let capacity = RING_CAPACITY.load(Ordering::Relaxed);
        while ring.len() >= capacity {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    });
}

/// Emits one record under the current context; a no-op without one.
fn emit(
    kind: Kind,
    domain: Domain,
    name: &'static str,
    t_ns: u64,
    value: u64,
    detail: Option<Box<str>>,
) {
    CTX.with(|stack| {
        let mut stack = stack.borrow_mut();
        let Some(ctx) = stack.last_mut() else { return };
        let seq = ctx.seq;
        ctx.seq += 1;
        push_record(TraceRecord {
            trace_id: ctx.trace_id,
            lane: ctx.lane,
            scope: ctx.scope,
            seq,
            kind,
            domain,
            name,
            t_ns,
            value,
            detail,
        });
    });
}

/// Pops the context [`install`] pushed. Not `Send`: a context belongs to the
/// thread that installed it.
pub struct CtxGuard {
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.armed {
            CTX.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Installs a tracing context on this thread for the guard's lifetime.
/// Contexts nest (the innermost wins); when tracing is disabled the guard is
/// inert and [`current_trace_id`] stays `None`.
pub fn install(trace_id: u64, lane: Lane, scope: u32) -> CtxGuard {
    if !enabled() {
        return CtxGuard {
            armed: false,
            _not_send: PhantomData,
        };
    }
    CTX.with(|stack| {
        stack.borrow_mut().push(CtxState {
            trace_id,
            lane,
            scope,
            seq: 0,
        });
    });
    CtxGuard {
        armed: true,
        _not_send: PhantomData,
    }
}

/// The innermost installed context's trace id, if any. This is how a parent
/// thread's identity is carried into scoped workers: capture it, then
/// [`install`] it on the worker with its own lane/scope.
pub fn current_trace_id() -> Option<u64> {
    CTX.with(|stack| stack.borrow().last().map(|ctx| ctx.trace_id))
}

/// An open wall-clock span; emits its close (with duration) on drop.
pub struct Span {
    name: &'static str,
    open_ns: u64,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            let close_ns = wall_now_ns();
            emit(
                Kind::SpanClose,
                Domain::Wall,
                self.name,
                close_ns,
                close_ns.saturating_sub(self.open_ns),
                None,
            );
        }
    }
}

/// Opens a wall-clock span under the current context; inert when tracing is
/// disabled or no context is installed.
pub fn span(name: &'static str) -> Span {
    let armed = enabled() && current_trace_id().is_some();
    let open_ns = if armed { wall_now_ns() } else { 0 };
    if armed {
        emit(Kind::SpanOpen, Domain::Wall, name, open_ns, 0, None);
    }
    Span {
        name,
        open_ns,
        armed,
        _not_send: PhantomData,
    }
}

/// Records a wall-clock span retroactively, open and close together — for
/// intervals whose start was measured on another thread (e.g. queue wait,
/// stamped at submit and recorded by the executor worker).
pub fn span_closed(name: &'static str, open_ns: u64, close_ns: u64) {
    if !enabled() {
        return;
    }
    emit(Kind::SpanOpen, Domain::Wall, name, open_ns, 0, None);
    emit(
        Kind::SpanClose,
        Domain::Wall,
        name,
        close_ns,
        close_ns.saturating_sub(open_ns),
        None,
    );
}

/// Records a wall-clock point event.
pub fn event(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    emit(Kind::Event, Domain::Wall, name, wall_now_ns(), value, None);
}

/// Records a wall-clock point event with a free-form detail payload. The
/// detail closure only runs when the record is actually emitted.
pub fn event_detail(name: &'static str, value: u64, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    emit(
        Kind::Event,
        Domain::Wall,
        name,
        wall_now_ns(),
        value,
        Some(detail().into_boxed_str()),
    );
}

/// Records a simulated-time point event (the scheduler engine's clock).
pub fn event_sim(name: &'static str, t_ns: u64, value: u64) {
    if !enabled() {
        return;
    }
    emit(Kind::Event, Domain::Sim, name, t_ns, value, None);
}

/// [`event_sim`] with a detail payload (built only when recording).
pub fn event_sim_detail(
    name: &'static str,
    t_ns: u64,
    value: u64,
    detail: impl FnOnce() -> String,
) {
    if !enabled() {
        return;
    }
    emit(
        Kind::Event,
        Domain::Sim,
        name,
        t_ns,
        value,
        Some(detail().into_boxed_str()),
    );
}

fn sort_records(records: &mut [TraceRecord]) {
    records.sort_by(|a, b| {
        (a.trace_id, a.lane.rank(), a.scope, a.seq).cmp(&(
            b.trace_id,
            b.lane.rank(),
            b.scope,
            b.seq,
        ))
    });
}

fn sweep(mut keep: impl FnMut(&TraceRecord) -> bool) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let mut rings = registry().lock().expect("trace registry lock");
    rings.retain(|ring| {
        let mut buffer = ring.lock().expect("trace ring lock");
        let mut kept = VecDeque::new();
        for record in buffer.drain(..) {
            if keep(&record) {
                kept.push_back(record);
            } else {
                out.push(record);
            }
        }
        *buffer = kept;
        // Prune rings whose thread exited (our Arc is the only one left)
        // once they are empty.
        drop(buffer);
        Arc::strong_count(ring) > 1 || !ring.lock().expect("trace ring lock").is_empty()
    });
    drop(rings);
    sort_records(&mut out);
    out
}

/// Removes and returns every record of one trace, across all threads'
/// rings, sorted by logical coordinate.
pub fn take(trace_id: u64) -> Vec<TraceRecord> {
    sweep(|record| record.trace_id != trace_id)
}

/// Removes and returns every record in every ring, sorted by logical
/// coordinate.
pub fn drain_all() -> Vec<TraceRecord> {
    sweep(|_| false)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn: the enabled flag and rings are process-global, so the
    // cases run sequentially here instead of racing as separate #[test]s.
    #[test]
    fn record_collect_and_bound_semantics() {
        set_enabled(true);

        // Nothing is recorded without an installed context.
        event("orphan", 1);
        assert!(drain_all().is_empty());

        // Spans nest and close in LIFO order with consecutive seqs.
        let id = new_trace_id();
        {
            let _ctx = install(id, Lane::Bench, 0);
            let outer = span("outer");
            {
                let _inner = span("inner");
                event("tick", 7);
            }
            drop(outer);
        }
        let records = take(id);
        let names: Vec<_> = records.iter().map(|r| (r.kind, r.name)).collect();
        assert_eq!(
            names,
            vec![
                (Kind::SpanOpen, "outer"),
                (Kind::SpanOpen, "inner"),
                (Kind::Event, "tick"),
                (Kind::SpanClose, "inner"),
                (Kind::SpanClose, "outer"),
            ]
        );
        let seqs: Vec<_> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(records[2].value, 7);

        // take() only removes the requested trace.
        let keep = new_trace_id();
        let grab = new_trace_id();
        {
            let _ctx = install(keep, Lane::Bench, 0);
            event("keep", 0);
        }
        {
            let _ctx = install(grab, Lane::Bench, 0);
            event("grab", 0);
        }
        let grabbed = take(grab);
        assert_eq!(grabbed.len(), 1);
        assert_eq!(grabbed[0].name, "grab");
        let kept = drain_all();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "keep");

        // Sim events keep their timestamps and sort by logical coordinate
        // (scope), not emission interleaving.
        let id = new_trace_id();
        {
            let _ctx = install(id, Lane::Study, 5);
            event_sim("late-scope", 100, 0);
        }
        {
            let _ctx = install(id, Lane::Study, 2);
            event_sim("early-scope", 900, 0);
        }
        let records = take(id);
        assert_eq!(records[0].name, "early-scope");
        assert_eq!(records[0].t_ns, 900);
        assert_eq!(records[1].name, "late-scope");

        // A full ring overwrites its oldest record and counts the drop.
        set_ring_capacity(8);
        let id = new_trace_id();
        {
            let _ctx = install(id, Lane::Bench, 0);
            for i in 0..20u64 {
                event("flood", i);
            }
        }
        let records = take(id);
        assert_eq!(records.len(), 8);
        assert_eq!(records[0].value, 12, "oldest records were overwritten");
        assert!(dropped() >= 12);
        set_ring_capacity(DEFAULT_RING_CAPACITY);

        // Cross-thread: records land in each thread's ring but collect
        // into one sorted timeline.
        let id = new_trace_id();
        {
            let _ctx = install(id, Lane::Wire, 0);
            event("parent", 0);
        }
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                scope.spawn(move || {
                    let _ctx = install(id, Lane::Study, worker);
                    event("cell", u64::from(worker));
                });
            }
        });
        let records = take(id);
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].lane, Lane::Wire);
        let scopes: Vec<_> = records[1..].iter().map(|r| r.scope).collect();
        assert_eq!(scopes, vec![0, 1, 2, 3]);

        // Disabled: probes are inert and install() is a no-op.
        set_enabled(false);
        let _ctx = install(new_trace_id(), Lane::Bench, 0);
        assert_eq!(current_trace_id(), None);
        event("dark", 1);
        let _span = span("dark");
        span_closed("dark", 0, 10);
        assert!(drain_all().is_empty());
    }
}
