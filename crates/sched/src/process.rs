//! Processes: running instances of (possibly instrumented) benchmarks.
//!
//! Per-process state lives in a struct-of-arrays [`ProcessTable`] owned by
//! the engine: every field is a dense `Vec` indexed by [`Pid`]. The counters
//! the inner execution loop writes on *every block* are grouped into one
//! [`HotCounters`] record per process, so a whole quantum's accounting hits a
//! handful of adjacent cache lines instead of pointer-chasing through a
//! scattered `Vec<Process>` of large mixed-purpose structs.

use std::sync::Arc;

use phase_amp::{AffinityMask, CoreId};
use phase_analysis::PhaseType;
use phase_marking::InstrumentedProgram;
use serde::{Deserialize, Serialize};

use crate::interp::Interpreter;

/// Process identifier, unique within one simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Pid(pub u32);

impl Pid {
    /// The pid as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Run-state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessState {
    /// Waiting on some core's run queue.
    Ready,
    /// Currently executing on a core.
    Running,
    /// Finished execution.
    Finished,
}

/// Per-process accounting, accumulated by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProcessStats {
    /// Instructions retired (including phase-mark instructions).
    pub instructions: u64,
    /// Core cycles consumed.
    pub cycles: f64,
    /// CPU time in nanoseconds.
    pub cpu_time_ns: f64,
    /// Phase marks executed.
    pub marks_executed: u64,
    /// Core switches actually performed (migrations caused by affinity
    /// changes from phase marks).
    pub core_switches: u64,
    /// Migrations performed by the load balancer (not caused by tuning).
    pub balancer_migrations: u64,
    /// CPU time spent on each core kind, indexed by kind id.
    pub time_on_kind_ns: [f64; 4],
}

impl ProcessStats {
    /// Average IPC over the whole execution so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }
}

/// One elapsed sampling interval's raw counters, rolled out of the process
/// table at each sampling tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalCounters {
    /// Zero-based index of the emitted observation.
    pub seq: u64,
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// Core cycles consumed during the interval.
    pub cycles: f64,
    /// Memory accesses issued during the interval.
    pub mem_accesses: u64,
    /// Cycles per core kind, indexed by kind id.
    pub kind_cycles: [f64; 4],
}

/// The counters the inner execution loop updates on every executed block,
/// packed contiguously per process: lifetime statistics, the current phase
/// section, and the current sampling interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HotCounters {
    pub(crate) stats: ProcessStats,
    /// The phase type of the section currently executing, when known. The
    /// event engine's block loop sets it when it resolves a mark inline.
    pub(crate) section_phase: Option<PhaseType>,
    /// Instructions/cycles accumulated since the last phase mark.
    pub(crate) section_instructions: u64,
    pub(crate) section_cycles: f64,
    /// Counters accumulated since the last elapsed sampling interval.
    pub(crate) interval_instructions: u64,
    pub(crate) interval_cycles: f64,
    pub(crate) interval_mem_accesses: u64,
    pub(crate) interval_kind_cycles: [f64; 4],
}

impl HotCounters {
    /// Adds the cost of one executed block to the current section, the
    /// current sampling interval, and the global statistics.
    ///
    /// This is the round engine's in-memory charge; [`BlockTally::charge`]
    /// is its register-held mirror for the event engine and must add the
    /// same value to the same accumulator, one addition per block.
    #[inline]
    pub(crate) fn charge_block(
        &mut self,
        instructions: u64,
        cycles: f64,
        nanos: f64,
        kind_index: usize,
    ) {
        self.stats.instructions += instructions;
        self.stats.cycles += cycles;
        self.stats.cpu_time_ns += nanos;
        if kind_index < self.stats.time_on_kind_ns.len() {
            self.stats.time_on_kind_ns[kind_index] += nanos;
        }
        self.section_instructions += instructions;
        self.section_cycles += cycles;
        self.interval_instructions += instructions;
        self.interval_cycles += cycles;
        if kind_index < self.interval_kind_cycles.len() {
            self.interval_kind_cycles[kind_index] += cycles;
        }
    }

    /// The per-block accumulators for a block run on a core of kind
    /// `kind_index`, copied out as scalars.
    #[inline]
    pub(crate) fn tally(&self, kind_index: usize) -> BlockTally {
        let kind = |slots: &[f64; 4]| slots.get(kind_index).copied().unwrap_or(0.0);
        BlockTally {
            instructions: self.stats.instructions,
            cycles: self.stats.cycles,
            cpu_time_ns: self.stats.cpu_time_ns,
            kind_time_ns: kind(&self.stats.time_on_kind_ns),
            section_instructions: self.section_instructions,
            section_cycles: self.section_cycles,
            interval_instructions: self.interval_instructions,
            interval_cycles: self.interval_cycles,
            interval_kind_cycles: kind(&self.interval_kind_cycles),
            interval_mem_accesses: self.interval_mem_accesses,
        }
    }

    /// Writes a [`tally`](Self::tally) back. A kind index past the
    /// kind-indexed slots leaves them untouched.
    #[inline]
    pub(crate) fn store_tally(&mut self, tally: &BlockTally, kind_index: usize) {
        self.stats.instructions = tally.instructions;
        self.stats.cycles = tally.cycles;
        self.stats.cpu_time_ns = tally.cpu_time_ns;
        if let Some(slot) = self.stats.time_on_kind_ns.get_mut(kind_index) {
            *slot = tally.kind_time_ns;
        }
        self.section_instructions = tally.section_instructions;
        self.section_cycles = tally.section_cycles;
        self.interval_instructions = tally.interval_instructions;
        self.interval_cycles = tally.interval_cycles;
        if let Some(slot) = self.interval_kind_cycles.get_mut(kind_index) {
            *slot = tally.interval_kind_cycles;
        }
        self.interval_mem_accesses = tally.interval_mem_accesses;
    }
}

/// A process's per-block accumulators as plain scalars, with the
/// kind-indexed slots narrowed to one core kind's.
///
/// The event engine's block loop holds a tally in locals for a whole run of
/// blocks; a copy of [`HotCounters`] itself, with its kind-indexed arrays,
/// would stay in memory. [`charge`](Self::charge) mirrors
/// [`HotCounters::charge_block`], which the round engine keeps in memory so
/// that its loop compiles as before. The mirror is load-bearing: the
/// engines' bit-for-bit equivalence relies on every accumulator seeing the
/// same sequence of floating-point additions, and a unit test holds the two
/// to identical counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockTally {
    instructions: u64,
    cycles: f64,
    cpu_time_ns: f64,
    kind_time_ns: f64,
    section_instructions: u64,
    section_cycles: f64,
    interval_instructions: u64,
    interval_cycles: f64,
    interval_kind_cycles: f64,
    interval_mem_accesses: u64,
}

impl BlockTally {
    /// Adds the cost of one executed block.
    #[inline(always)]
    pub(crate) fn charge(&mut self, instructions: u64, cycles: f64, nanos: f64) {
        self.instructions += instructions;
        self.cycles += cycles;
        self.cpu_time_ns += nanos;
        self.kind_time_ns += nanos;
        self.section_instructions += instructions;
        self.section_cycles += cycles;
        self.interval_instructions += instructions;
        self.interval_cycles += cycles;
        self.interval_kind_cycles += cycles;
    }

    /// Adds memory accesses to the current sampling interval.
    #[inline(always)]
    pub(crate) fn note_mem_accesses(&mut self, accesses: u64) {
        self.interval_mem_accesses += accesses;
    }

    /// Starts a new phase section, as [`ProcessTable::roll_section`] does
    /// for the in-memory counters.
    #[inline(always)]
    pub(crate) fn roll_section(&mut self) {
        self.section_instructions = 0;
        self.section_cycles = 0.0;
    }
}

/// Struct-of-arrays storage for every process in a simulation.
///
/// All vectors share one length and are indexed by `Pid::index()`. The
/// fields are grouped by access pattern: `hot` is written per executed block,
/// `interps` is stepped per block, and the rest are read or written only at
/// scheduling decision points (dispatch, preemption, marks, sampling).
#[derive(Debug, Default)]
pub(crate) struct ProcessTable {
    names: Vec<String>,
    slots: Vec<usize>,
    instrumented: Vec<Arc<InstrumentedProgram>>,
    pub(crate) interps: Vec<Interpreter>,
    pub(crate) hot: Vec<HotCounters>,
    affinity: Vec<AffinityMask>,
    state: Vec<ProcessState>,
    current_core: Vec<Option<CoreId>>,
    arrival_ns: Vec<f64>,
    /// Earliest time the process may next be dispatched; starts at the
    /// arrival time and is pushed forward by migration costs incurred while
    /// the process was queued (interval-driven core switches).
    eligible_ns: Vec<f64>,
    completion_ns: Vec<Option<f64>>,
    /// Whether the tuner armed monitoring for the current section.
    monitoring: Vec<bool>,
    /// Number of interval observations emitted per process so far.
    interval_seq: Vec<u64>,
}

impl ProcessTable {
    /// Number of processes spawned so far.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Spawns a process for an instrumented benchmark, returning its pid.
    pub(crate) fn spawn(
        &mut self,
        name: impl Into<String>,
        slot: usize,
        instrumented: Arc<InstrumentedProgram>,
        affinity: AffinityMask,
        arrival_ns: f64,
        seed: u64,
    ) -> Pid {
        let pid = Pid(self.len() as u32);
        let interp = Interpreter::new(Arc::clone(instrumented.program()), seed);
        self.hot.push(HotCounters {
            section_phase: instrumented.entry_type(),
            ..HotCounters::default()
        });
        self.names.push(name.into());
        self.slots.push(slot);
        self.instrumented.push(instrumented);
        self.interps.push(interp);
        self.affinity.push(affinity);
        self.state.push(ProcessState::Ready);
        self.current_core.push(None);
        self.arrival_ns.push(arrival_ns);
        self.eligible_ns.push(arrival_ns);
        self.completion_ns.push(None);
        self.monitoring.push(false);
        self.interval_seq.push(0);
        pid
    }

    /// The benchmark name a process runs.
    pub(crate) fn name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// The workload slot a process occupies.
    pub(crate) fn slot(&self, index: usize) -> usize {
        self.slots[index]
    }

    /// The instrumented program a process executes.
    pub(crate) fn instrumented(&self, index: usize) -> &Arc<InstrumentedProgram> {
        &self.instrumented[index]
    }

    /// A process's current affinity mask.
    pub(crate) fn affinity(&self, index: usize) -> AffinityMask {
        self.affinity[index]
    }

    /// Replaces a process's affinity mask.
    pub(crate) fn set_affinity(&mut self, index: usize, mask: AffinityMask) {
        self.affinity[index] = mask;
    }

    /// A process's current run state.
    pub(crate) fn state(&self, index: usize) -> ProcessState {
        self.state[index]
    }

    /// Whether every spawned process has finished.
    pub(crate) fn all_finished(&self) -> bool {
        self.state.iter().all(|s| *s == ProcessState::Finished)
    }

    /// Marks a process as running on a core.
    pub(crate) fn set_running(&mut self, index: usize, core: CoreId) {
        self.state[index] = ProcessState::Running;
        self.current_core[index] = Some(core);
    }

    /// Marks a process as ready (not on any core).
    pub(crate) fn set_ready(&mut self, index: usize) {
        self.state[index] = ProcessState::Ready;
        self.current_core[index] = None;
    }

    /// Marks a process as finished at the given time.
    pub(crate) fn set_finished(&mut self, index: usize, now_ns: f64) {
        self.state[index] = ProcessState::Finished;
        self.current_core[index] = None;
        self.completion_ns[index] = Some(now_ns);
    }

    /// The core a process is currently on, if running.
    #[cfg(test)]
    pub(crate) fn current_core(&self, index: usize) -> Option<CoreId> {
        self.current_core[index]
    }

    /// Arrival time in nanoseconds.
    pub(crate) fn arrival_ns(&self, index: usize) -> f64 {
        self.arrival_ns[index]
    }

    /// Earliest time a process may next be dispatched: its arrival time,
    /// pushed forward by any migration cost paid while queued.
    pub(crate) fn ready_ns(&self, index: usize) -> f64 {
        self.arrival_ns[index].max(self.eligible_ns[index])
    }

    /// Delays a process's next dispatch to no earlier than `until_ns`
    /// (charging a queued-migration latency).
    pub(crate) fn delay_until(&mut self, index: usize, until_ns: f64) {
        if until_ns > self.eligible_ns[index] {
            self.eligible_ns[index] = until_ns;
        }
    }

    /// Completion time in nanoseconds, once finished.
    pub(crate) fn completion_ns(&self, index: usize) -> Option<f64> {
        self.completion_ns[index]
    }

    /// A process's accumulated statistics.
    pub(crate) fn stats(&self, index: usize) -> &ProcessStats {
        &self.hot[index].stats
    }

    /// Mutable access to a process's statistics.
    pub(crate) fn stats_mut(&mut self, index: usize) -> &mut ProcessStats {
        &mut self.hot[index].stats
    }

    /// The phase type of a process's currently executing section, when known.
    #[cfg(test)]
    pub(crate) fn current_phase(&self, index: usize) -> Option<PhaseType> {
        self.hot[index].section_phase
    }

    /// Whether monitoring is armed for a process's current section.
    pub(crate) fn is_monitoring(&self, index: usize) -> bool {
        self.monitoring[index]
    }

    /// Arms or disarms monitoring for a process's current section.
    pub(crate) fn set_monitoring(&mut self, index: usize, monitoring: bool) {
        self.monitoring[index] = monitoring;
    }

    /// Adds the cost of one executed block to a process's counters.
    #[inline]
    pub(crate) fn charge_block(
        &mut self,
        index: usize,
        instructions: u64,
        cycles: f64,
        nanos: f64,
        kind_index: usize,
    ) {
        self.hot[index].charge_block(instructions, cycles, nanos, kind_index);
    }

    /// Records memory accesses for a process's current sampling interval
    /// (only called when interval sampling is enabled).
    pub(crate) fn note_interval_mem_accesses(&mut self, index: usize, accesses: u64) {
        self.hot[index].interval_mem_accesses += accesses;
    }

    /// Whether a process executed anything since the last elapsed sampling
    /// interval.
    pub(crate) fn has_interval_activity(&self, index: usize) -> bool {
        self.hot[index].interval_instructions > 0
    }

    /// Closes a process's current sampling interval, returning its raw
    /// counters and starting the next one.
    pub(crate) fn roll_interval(&mut self, index: usize) -> IntervalCounters {
        let hot = &mut self.hot[index];
        let counters = IntervalCounters {
            seq: self.interval_seq[index],
            instructions: hot.interval_instructions,
            cycles: hot.interval_cycles,
            mem_accesses: hot.interval_mem_accesses,
            kind_cycles: hot.interval_kind_cycles,
        };
        self.interval_seq[index] += 1;
        hot.interval_instructions = 0;
        hot.interval_cycles = 0.0;
        hot.interval_mem_accesses = 0;
        hot.interval_kind_cycles = [0.0; 4];
        counters
    }

    /// Closes a process's current section (because a phase mark fired),
    /// returning its accumulated instructions and cycles and starting a new
    /// section of the given phase type.
    pub(crate) fn roll_section(
        &mut self,
        index: usize,
        new_phase: PhaseType,
    ) -> (u64, f64, Option<PhaseType>) {
        let hot = &mut self.hot[index];
        let finished = (
            hot.section_instructions,
            hot.section_cycles,
            hot.section_phase,
        );
        hot.section_instructions = 0;
        hot.section_cycles = 0.0;
        hot.section_phase = Some(new_phase);
        self.monitoring[index] = false;
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_analysis::{BlockTyping, PhaseType};
    use phase_ir::{Instruction, ProgramBuilder, Terminator};
    use phase_marking::{instrument, MarkingConfig};

    fn instrumented_program() -> Arc<InstrumentedProgram> {
        let mut builder = ProgramBuilder::new("bench");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let a = body.add_block();
        let b = body.add_block();
        body.push_all(a, std::iter::repeat_n(Instruction::int_alu(), 20));
        body.push_all(b, std::iter::repeat_n(Instruction::fp_mul(), 20));
        body.terminate(a, Terminator::Jump(b));
        body.terminate(b, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        let program = builder.build().unwrap();
        let mut typing = BlockTyping::new(2);
        typing.assign(phase_ir::Location::new(main, a), PhaseType(0));
        typing.assign(phase_ir::Location::new(main, b), PhaseType(1));
        Arc::new(instrument(
            &program,
            &typing,
            &MarkingConfig::basic_block(10, 0),
        ))
    }

    fn table() -> (ProcessTable, usize) {
        let mut table = ProcessTable::default();
        let pid = table.spawn(
            "bench",
            0,
            instrumented_program(),
            AffinityMask::from_cores([CoreId(0), CoreId(1)]),
            0.0,
            42,
        );
        (table, pid.index())
    }

    #[test]
    fn spawned_process_starts_ready_with_entry_phase() {
        let (t, p) = table();
        assert_eq!(t.len(), 1);
        assert_eq!(t.state(p), ProcessState::Ready);
        assert_eq!(t.current_phase(p), Some(PhaseType(0)));
        assert_eq!(t.current_core(p), None);
        assert_eq!(t.stats(p).instructions, 0);
        assert!(!t.is_monitoring(p));
    }

    #[test]
    fn spawn_assigns_sequential_pids() {
        let (mut t, first) = table();
        assert_eq!(first, 0);
        let second = t.spawn(
            "bench2",
            1,
            instrumented_program(),
            AffinityMask::single(CoreId(0)),
            5.0,
            43,
        );
        assert_eq!(second, Pid(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(1), "bench2");
        assert_eq!(t.slot(1), 1);
        assert_eq!(t.arrival_ns(1), 5.0);
    }

    #[test]
    fn state_transitions() {
        let (mut t, p) = table();
        t.set_running(p, CoreId(1));
        assert_eq!(t.state(p), ProcessState::Running);
        assert_eq!(t.current_core(p), Some(CoreId(1)));
        t.set_ready(p);
        assert_eq!(t.state(p), ProcessState::Ready);
        assert!(!t.all_finished());
        t.set_finished(p, 123.0);
        assert_eq!(t.state(p), ProcessState::Finished);
        assert_eq!(t.completion_ns(p), Some(123.0));
        assert!(t.all_finished());
    }

    #[test]
    fn charging_blocks_accumulates_section_and_total() {
        let (mut t, p) = table();
        t.charge_block(p, 100, 80.0, 33.0, 0);
        t.charge_block(p, 50, 40.0, 16.0, 1);
        let stats = t.stats(p);
        assert_eq!(stats.instructions, 150);
        assert!((stats.cycles - 120.0).abs() < 1e-9);
        assert!((stats.time_on_kind_ns[0] - 33.0).abs() < 1e-9);
        assert!((stats.time_on_kind_ns[1] - 16.0).abs() < 1e-9);
        assert!((stats.ipc() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn a_block_tally_charges_exactly_like_the_in_memory_counters() {
        // Costs whose sums round, on an in-range and an out-of-range kind.
        let blocks = [
            (7, 0.1, 0.3),
            (13, 2.7, 1.1),
            (3, 1e-3, 0.7),
            (11, 0.2, 0.9),
        ];
        for kind_index in [1, 9] {
            let mut start = HotCounters::default();
            start.stats.cycles = 0.3;
            start.stats.time_on_kind_ns = [0.1, 0.2, 0.4, 0.8];
            start.interval_kind_cycles = [0.7, 0.6, 0.5, 0.4];
            start.interval_mem_accesses = 2;
            let mut in_memory = start.clone();
            let mut tally = start.tally(kind_index);
            for &(instructions, cycles, nanos) in blocks.iter().cycle().take(64) {
                in_memory.charge_block(instructions, cycles, nanos, kind_index);
                in_memory.interval_mem_accesses += 5;
                tally.charge(instructions, cycles, nanos);
                tally.note_mem_accesses(5);
            }
            let mut held = start;
            held.store_tally(&tally, kind_index);
            assert_eq!(held, in_memory, "kind index {kind_index}");
        }
    }

    #[test]
    fn rolling_a_section_returns_its_totals_and_switches_phase() {
        let (mut t, p) = table();
        t.charge_block(p, 100, 50.0, 20.0, 0);
        t.set_monitoring(p, true);
        let (instructions, cycles, phase) = t.roll_section(p, PhaseType(1));
        assert_eq!(instructions, 100);
        assert!((cycles - 50.0).abs() < 1e-9);
        assert_eq!(phase, Some(PhaseType(0)));
        assert_eq!(t.current_phase(p), Some(PhaseType(1)));
        assert!(!t.is_monitoring(p), "monitoring disarms on section roll");
        // A fresh section accumulates from zero.
        let (i2, c2, _) = t.roll_section(p, PhaseType(0));
        assert_eq!(i2, 0);
        assert_eq!(c2, 0.0);
    }

    #[test]
    fn rolling_an_interval_returns_counters_and_advances_the_sequence() {
        let (mut t, p) = table();
        assert!(!t.has_interval_activity(p));
        t.charge_block(p, 100, 80.0, 33.0, 0);
        t.charge_block(p, 60, 90.0, 56.0, 1);
        t.note_interval_mem_accesses(p, 12);
        assert!(t.has_interval_activity(p));
        let first = t.roll_interval(p);
        assert_eq!(first.seq, 0);
        assert_eq!(first.instructions, 160);
        assert!((first.cycles - 170.0).abs() < 1e-9);
        assert_eq!(first.mem_accesses, 12);
        assert!((first.kind_cycles[0] - 80.0).abs() < 1e-9);
        assert!((first.kind_cycles[1] - 90.0).abs() < 1e-9);
        // The next interval starts from zero with the next sequence number.
        assert!(!t.has_interval_activity(p));
        t.charge_block(p, 5, 5.0, 2.0, 0);
        let second = t.roll_interval(p);
        assert_eq!(second.seq, 1);
        assert_eq!(second.instructions, 5);
        assert_eq!(second.mem_accesses, 0);
    }

    #[test]
    fn interval_counters_do_not_disturb_sections() {
        let (mut t, p) = table();
        t.charge_block(p, 100, 50.0, 20.0, 0);
        let _ = t.roll_interval(p);
        let (instructions, cycles, _) = t.roll_section(p, PhaseType(1));
        assert_eq!(instructions, 100, "section survives an interval roll");
        assert!((cycles - 50.0).abs() < 1e-9);
    }

    #[test]
    fn queued_migration_delay_pushes_readiness_forward_only() {
        let (mut t, p) = table();
        assert_eq!(t.ready_ns(p), t.arrival_ns(p));
        t.delay_until(p, 500.0);
        assert_eq!(t.ready_ns(p), 500.0);
        // Delays never move backwards, and arrival time is untouched (flow
        // metrics stay anchored to the true arrival).
        t.delay_until(p, 200.0);
        assert_eq!(t.ready_ns(p), 500.0);
        assert_eq!(t.arrival_ns(p), 0.0);
    }

    #[test]
    fn affinity_can_be_replaced() {
        let (mut t, p) = table();
        let new_mask = AffinityMask::single(CoreId(3));
        t.set_affinity(p, new_mask);
        assert_eq!(t.affinity(p), new_mask);
    }
}
