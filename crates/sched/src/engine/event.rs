//! The event-driven driver.
//!
//! Instead of visiting every timeslice round and scanning every core, this
//! driver keeps a queue of the moments where the schedule can actually
//! change:
//!
//! * [`EventKind::QuantumExpiry`] — a core's previous quantum has expired and
//!   it should dispatch again at the next round boundary;
//! * [`EventKind::JobArrival`] — a queued job's release/arrival time falls in
//!   a future round, so the cores sleep until that round instead of spinning;
//! * [`EventKind::LoadBalance`] — the periodic pull-balancing tick.
//!
//! Events live in a [`BucketQueue`]: a calendar of per-round buckets covering
//! the near future (every event the driver schedules lands a handful of
//! rounds ahead), with a binary-heap fallback for far-future times. Pushes
//! and pops are O(1) bucket operations in the common case instead of
//! O(log n) heap sifts, and all events sharing a timestamp are drained into
//! one reusable batch and applied in a single pass per iteration. The
//! property tests hold the bucket queue to exactly the pop order of a plain
//! binary heap over the same events.
//!
//! Time jumps from event to event, so rounds in which no core could act
//! (bursty arrival gaps, horizon tails with future-only work) cost nothing.
//! Mark hits and completions are discovered *while* executing a quantum —
//! they cannot be scheduled ahead of time without doing the execution work —
//! so they are handled inline by `EngineCore::run_round_fast` exactly as the
//! reference engine does, and only their consequences (a job spawned into a
//! queue, a migration, a drained core) feed back into the queue as wake-ups.
//!
//! Equivalence with the round-based reference is maintained by three rules:
//! all events are aligned to round boundaries; a popped round executes the
//! same core-index-order scan as the reference (skipping only cores that are
//! provably no-ops); and wake-ups are scheduled conservatively — whenever any
//! run queue is non-empty, every core is woken for the round in which the
//! earliest queued arrival becomes runnable, because an idle core may steal
//! queued work from any other core.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use phase_amp::CoreId;

use crate::hooks::{IntervalHook, PhaseHook};
use crate::sim::SimResult;

use super::EngineCore;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A queued job becomes runnable on (or stealable by) this core.
    JobArrival {
        /// The core to wake.
        core: CoreId,
    },
    /// The periodic load-balancing tick.
    LoadBalance,
    /// The periodic hardware-counter sampling tick
    /// (`SimConfig::sample_interval_ns`): every process's elapsed-interval
    /// counters are rolled into `IntervalObservation`s for the hook.
    SampleInterval,
    /// The core's previous quantum expired; dispatch again.
    QuantumExpiry {
        /// The core to dispatch on.
        core: CoreId,
    },
}

impl EventKind {
    /// Tie-break rank for events that share a timestamp: arrivals are
    /// processed first, then the balance tick, then the sampling tick, then
    /// quantum dispatches — mirroring the reference loop, which enqueues
    /// arrivals, balances, and samples before scanning cores.
    fn rank(self) -> u8 {
        match self {
            EventKind::JobArrival { .. } => 0,
            EventKind::LoadBalance => 1,
            EventKind::SampleInterval => 2,
            EventKind::QuantumExpiry { .. } => 3,
        }
    }

    fn core_index(self) -> u32 {
        match self {
            EventKind::JobArrival { core } | EventKind::QuantumExpiry { core } => core.0,
            EventKind::LoadBalance | EventKind::SampleInterval => 0,
        }
    }
}

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    time_ns: f64,
    kind: EventKind,
    seq: u64,
}

impl Event {
    /// When the event fires, in simulated nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }

    /// What the event does.
    pub fn kind(&self) -> EventKind {
        self.kind
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_ns
            .total_cmp(&other.time_ns)
            .then_with(|| self.kind.rank().cmp(&other.kind.rank()))
            .then_with(|| self.kind.core_index().cmp(&other.kind.core_index()))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Number of per-round buckets the calendar window spans. Driver-scheduled
/// events land at most a few rounds ahead (the next quantum, the next
/// balance/sample tick); only bursty far-future release times overflow to the
/// heap.
const BUCKET_WINDOW: usize = 256;

/// A calendar queue over round-width time buckets with a binary-heap overflow
/// for far-future events; pops in (timestamp, kind, core, insertion) order.
///
/// Events within `BUCKET_WINDOW` rounds of the window base go into a dense
/// ring of per-round buckets (push is a `Vec::push`, pop a min-scan of one
/// small bucket); later events wait in the overflow heap and migrate into the
/// window as the base advances. Ordering holds because bucket `k` only holds
/// timestamps in `[(base+k)·w, (base+k+1)·w)` — every event in an earlier
/// bucket sorts before every event in a later one, and overflow events sort
/// after the whole window.
#[derive(Debug)]
pub struct BucketQueue {
    width_ns: f64,
    /// Round index of bucket zero.
    base_round: u64,
    window: VecDeque<Vec<Event>>,
    far: BinaryHeap<std::cmp::Reverse<Event>>,
    len: usize,
    next_seq: u64,
}

impl BucketQueue {
    /// Creates an empty queue whose buckets are `width_ns` wide (the round
    /// timeslice, for the event driver).
    ///
    /// # Panics
    ///
    /// Panics if `width_ns` is not a positive finite time.
    pub fn new(width_ns: f64) -> Self {
        assert!(
            width_ns.is_finite() && width_ns > 0.0,
            "bucket width must be a positive time, got {width_ns}"
        );
        Self {
            width_ns,
            base_round: 0,
            window: (0..BUCKET_WINDOW).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    fn round_of(&self, time_ns: f64) -> u64 {
        // Negative times saturate to round zero (`as` is a saturating cast);
        // a stale past-time push therefore lands in the current bucket, where
        // the full-`Ord` min-scan still pops it first.
        (time_ns / self.width_ns).floor() as u64
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is not finite.
    pub fn push(&mut self, time_ns: f64, kind: EventKind) {
        assert!(time_ns.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { time_ns, kind, seq };
        let round = self.round_of(time_ns);
        self.len += 1;
        if round < self.base_round + BUCKET_WINDOW as u64 {
            let slot = round.saturating_sub(self.base_round) as usize;
            self.window[slot].push(event);
        } else {
            self.far.push(std::cmp::Reverse(event));
        }
    }

    /// Moves every overflow event whose round now falls inside the window
    /// into its bucket. Called whenever `base_round` advances, so the
    /// overflow heap always holds strictly-later times than the window.
    fn migrate_far(&mut self) {
        while let Some(std::cmp::Reverse(event)) = self.far.peek() {
            let round = self.round_of(event.time_ns);
            if round >= self.base_round + BUCKET_WINDOW as u64 {
                break;
            }
            let event = self.far.pop().expect("peeked event exists").0;
            let slot = round.saturating_sub(self.base_round) as usize;
            self.window[slot].push(event);
        }
    }

    /// Advances the window so bucket zero is the first non-empty bucket
    /// (rotating empty buckets to the back to reuse their allocations), or
    /// rebase onto the earliest overflow event when the window is drained.
    fn normalize(&mut self) {
        debug_assert!(self.len > 0);
        match self.window.iter().position(|b| !b.is_empty()) {
            Some(0) => {}
            Some(gap) => {
                for _ in 0..gap {
                    let bucket = self.window.pop_front().expect("window has a fixed size");
                    debug_assert!(bucket.is_empty());
                    self.window.push_back(bucket);
                    self.base_round += 1;
                }
                self.migrate_far();
            }
            None => {
                let earliest = self
                    .far
                    .peek()
                    .expect("non-empty queue with a drained window has overflow events");
                self.base_round = self.round_of(earliest.0.time_ns);
                self.migrate_far();
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        let bucket = &mut self.window[0];
        let mut best = 0;
        for index in 1..bucket.len() {
            if bucket[index] < bucket[best] {
                best = index;
            }
        }
        let event = bucket.swap_remove(best);
        self.len -= 1;
        Some(event)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        self.window[0].iter().map(|e| e.time_ns).reduce(f64::min)
    }

    /// Drains every event sharing the earliest pending timestamp into
    /// `batch` (cleared first), in pop order, returning that timestamp.
    pub fn drain_at_earliest(&mut self, batch: &mut Vec<Event>) -> Option<f64> {
        batch.clear();
        let first = self.pop()?;
        let time = first.time_ns;
        batch.push(first);
        while self.peek_time() == Some(time) {
            batch.push(self.pop().expect("peeked event exists"));
        }
        Some(time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Runs the simulation to completion (or to the configured horizon) with the
/// event-driven loop.
pub(crate) fn run<H: PhaseHook + IntervalHook>(mut core: EngineCore<H>) -> SimResult {
    let quantum = core.config.timeslice_ns;
    let interval = core.config.load_balance_interval_ns;
    let sample_interval = core.config.sample_interval_ns;
    let ncores = core.cores.len();

    let round_floor = |t: f64| -> u64 { (t / quantum).floor() as u64 };
    let round_ceil = |t: f64| -> u64 { (t / quantum).ceil() as u64 };
    let round_time = |r: u64| -> f64 { r as f64 * quantum };

    let mut queue = BucketQueue::new(quantum);
    // All same-timestamp events are applied in one pass from this reusable
    // batch instead of one pop/apply cycle each.
    let mut batch: Vec<Event> = Vec::new();
    // Lazy-deletion bookkeeping: the one live wake-up per core (and the one
    // live balance tick); queue entries that no longer match are stale and
    // dropped when drained.
    let mut core_wake: Vec<Option<u64>> = vec![None; ncores];
    let mut next_balance_ns = interval;
    let mut has_event = vec![false; ncores];

    // Initial wake-ups: the first jobs were enqueued at construction time;
    // the first interesting round is the one containing the earliest arrival
    // (round zero unless every slot is release-delayed).
    let first_round = round_floor(core.earliest_queued_arrival());
    for (index, wake) in core_wake.iter_mut().enumerate() {
        *wake = Some(first_round);
        queue.push(
            round_time(first_round),
            EventKind::JobArrival {
                core: CoreId(index as u32),
            },
        );
    }
    let initial_balance = round_ceil(next_balance_ns);
    let mut balance_wake: Option<u64> = Some(initial_balance);
    queue.push(round_time(initial_balance), EventKind::LoadBalance);
    // The sampling tick mirrors the balance tick: one live event, rescheduled
    // after every firing, so idle stretches still sample at the same
    // round-aligned times the reference loop would visit.
    let mut next_sample_ns = sample_interval.unwrap_or(f64::INFINITY);
    let mut sample_wake: Option<u64> = None;
    if sample_interval.is_some() {
        let initial_sample = round_ceil(next_sample_ns);
        sample_wake = Some(initial_sample);
        queue.push(round_time(initial_sample), EventKind::SampleInterval);
    }

    let final_time_ns = loop {
        let Some(next_time) = queue.peek_time() else {
            // Unreachable while work remains (queued work always schedules a
            // wake-up), but break defensively rather than spin.
            debug_assert!(core.all_work_done_fast());
            break core.clock_ns;
        };
        if let Some(horizon) = core.config.horizon_ns {
            if next_time >= horizon {
                // The reference loop would keep visiting (no-op) rounds until
                // its clock reached the horizon; jump straight there.
                break round_time(round_ceil(horizon.max(0.0)));
            }
        }

        let this_round = round_floor(next_time);
        let t = queue
            .drain_at_earliest(&mut batch)
            .expect("peeked queue is non-empty");
        debug_assert_eq!(t, next_time);
        has_event.fill(false);
        let mut fire_balance = false;
        let mut fire_sample = false;
        for event in &batch {
            match event.kind() {
                EventKind::LoadBalance => {
                    if balance_wake == Some(this_round) {
                        balance_wake = None;
                        fire_balance = true;
                    }
                }
                EventKind::SampleInterval => {
                    if sample_wake == Some(this_round) {
                        sample_wake = None;
                        fire_sample = true;
                    }
                }
                EventKind::JobArrival { core: c } | EventKind::QuantumExpiry { core: c } => {
                    if core_wake[c.index()] == Some(this_round) {
                        core_wake[c.index()] = None;
                        has_event[c.index()] = true;
                    }
                }
            }
        }

        core.clock_ns = t;
        if fire_balance {
            core.load_balance();
            next_balance_ns = t + interval;
        }
        if balance_wake.is_none() {
            let target = round_ceil(next_balance_ns);
            balance_wake = Some(target);
            queue.push(round_time(target), EventKind::LoadBalance);
        }
        if fire_sample {
            core.sample_intervals();
            next_sample_ns = t + sample_interval.expect("sampling tick fired only when enabled");
        }
        if sample_interval.is_some() && sample_wake.is_none() {
            let target = round_ceil(next_sample_ns);
            sample_wake = Some(target);
            queue.push(round_time(target), EventKind::SampleInterval);
        }

        core.run_round_fast(&has_event);

        if core.all_work_done_fast() {
            break t + quantum;
        }

        // Conservative wake-up rule: any queued process may be run (or
        // stolen) by any core at the round where the earliest queued arrival
        // becomes runnable.
        let earliest = core.earliest_queued_arrival();
        debug_assert!(earliest.is_finite(), "unfinished work must be queued");
        let wake_round = (this_round + 1).max(round_floor(earliest));
        for (index, wake) in core_wake.iter_mut().enumerate() {
            if wake.is_none_or(|r| r > wake_round) {
                *wake = Some(wake_round);
                let core_id = CoreId(index as u32);
                let kind = if wake_round > this_round + 1 {
                    EventKind::JobArrival { core: core_id }
                } else {
                    EventKind::QuantumExpiry { core: core_id }
                };
                queue.push(round_time(wake_round), kind);
            }
        }
    };

    // The reference loop's run_round extends the throughput windows on every
    // visited round, including idle ones this driver skipped.
    core.pad_windows_to(final_time_ns - quantum);
    core.clock_ns = final_time_ns;
    core.into_result(final_time_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_at_earliest_batches_exactly_one_timestamp() {
        let mut queue = BucketQueue::new(100.0);
        queue.push(200.0, EventKind::LoadBalance);
        queue.push(200.0, EventKind::QuantumExpiry { core: CoreId(0) });
        queue.push(300.0, EventKind::QuantumExpiry { core: CoreId(1) });
        let mut batch = Vec::new();
        let t = queue.drain_at_earliest(&mut batch);
        assert_eq!(t, Some(200.0));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].kind(), EventKind::LoadBalance);
        assert_eq!(queue.len(), 1);
        let t = queue.drain_at_earliest(&mut batch);
        assert_eq!(t, Some(300.0));
        assert_eq!(batch.len(), 1);
        assert!(queue.drain_at_earliest(&mut batch).is_none());
        assert!(batch.is_empty());
    }

    #[test]
    fn far_future_events_migrate_into_the_window() {
        let width = 10.0;
        let mut queue = BucketQueue::new(width);
        // One event far past the window, then a near one.
        let far_round = 3 * BUCKET_WINDOW as u64;
        queue.push(far_round as f64 * width, EventKind::LoadBalance);
        queue.push(width, EventKind::SampleInterval);
        assert_eq!(
            queue.pop().map(|e| e.kind()),
            Some(EventKind::SampleInterval)
        );
        // Draining the window rebases onto the overflow event.
        assert_eq!(queue.pop().map(|e| e.kind()), Some(EventKind::LoadBalance));
        assert!(queue.pop().is_none());
    }
}
