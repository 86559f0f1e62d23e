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
//! * [`EventKind::LoadBalance`] — the periodic pull-balancing tick;
//! * [`EventKind::SampleInterval`] — the periodic counter-sampling tick, when
//!   sampling is enabled.
//!
//! Events live in an [`EventQueue`], a binary min-heap a few events deep.
//! All events sharing a timestamp are drained into one reusable batch and
//! applied in a single pass per iteration.
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

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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

/// A binary min-heap of events, popping in (timestamp, kind rank, core,
/// insertion) order. The driver keeps one live wake-up per core plus the
/// balance and sampling ticks, so the heap stays a handful of events deep.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
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
        self.heap.push(Reverse(Event { time_ns, kind, seq }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(event)| event)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(event)| event.time_ns)
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
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The start of round `r`: every event the loop schedules lands on one.
fn round_time(r: u64, quantum: f64) -> f64 {
    r as f64 * quantum
}

/// The last round starting at or before `t`: the largest `r` with
/// `round_time(r) <= t` (0 when none does). The quotient `t / quantum` can
/// land one round off when the multiples of `quantum` are not exact in
/// `f64`, so it is stepped back onto the inverse of [`round_time`].
fn round_floor(t: f64, quantum: f64) -> u64 {
    let r = (t / quantum).floor() as u64;
    if r > 0 && round_time(r, quantum) > t {
        r - 1
    } else if r < u64::MAX && round_time(r + 1, quantum) <= t {
        r + 1
    } else {
        r
    }
}

/// The first round starting at or after `t`: the smallest `r` with
/// `round_time(r) >= t`, stepped onto the inverse of [`round_time`] like
/// [`round_floor`].
fn round_ceil(t: f64, quantum: f64) -> u64 {
    let r = (t / quantum).ceil() as u64;
    if r > 0 && round_time(r - 1, quantum) >= t {
        r - 1
    } else if r < u64::MAX && round_time(r, quantum) < t {
        r + 1
    } else {
        r
    }
}

/// Runs the simulation to completion (or to the configured horizon) with the
/// event-driven loop.
pub(crate) fn run<H: PhaseHook + IntervalHook>(mut core: EngineCore<H>) -> SimResult {
    let quantum = core.config.timeslice_ns;
    let interval = core.config.load_balance_interval_ns;
    let sample_interval = core.config.sample_interval_ns;
    let ncores = core.cores.len();

    let round_floor = |t: f64| round_floor(t, quantum);
    let round_ceil = |t: f64| round_ceil(t, quantum);
    let round_time = |r: u64| round_time(r, quantum);

    let mut queue = EventQueue::new();
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
        let mut queue = EventQueue::new();
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
    fn round_floor_and_round_ceil_invert_round_time() {
        // 6.036, 7.7, 3.3 and 0.1 have inexact multiples: at 6.036 the plain
        // quotient `(t / quantum).floor()` gives `r - 1` for 158 of the first
        // 2000 rounds.
        for quantum in [6.036, 7.7, 3.3, 0.1, 20_000.0] {
            for r in 0..100_000u64 {
                let t = round_time(r, quantum);
                assert_eq!(round_floor(t, quantum), r, "floor, r = {r} at {quantum}");
                assert_eq!(round_ceil(t, quantum), r, "ceil, r = {r} at {quantum}");
                // The neighbouring doubles, where the quotient can round
                // onto `r` but the exact answer is one round away.
                assert_eq!(round_floor(t.next_up(), quantum), r);
                assert_eq!(round_ceil(t.next_up(), quantum), r + 1);
                if r > 0 {
                    assert_eq!(round_floor(t.next_down(), quantum), r - 1);
                    assert_eq!(round_ceil(t.next_down(), quantum), r);
                }
            }
        }
        assert_eq!(round_floor(-1.0, 3.3), 0);
        assert_eq!(round_ceil(-1.0, 3.3), 0);
    }

    #[test]
    fn round_helpers_match_the_plain_quotient_at_the_shipped_timeslice() {
        // Every shipped configuration runs 20 000 ns rounds, whose multiples
        // are exact: there the stepping never fires.
        let quantum = 20_000.0;
        for r in 0..1_000_000u64 {
            let t = round_time(r, quantum);
            assert_eq!(round_floor(t, quantum), (t / quantum).floor() as u64);
            assert_eq!(round_ceil(t, quantum), (t / quantum).ceil() as u64);
        }
    }
}
