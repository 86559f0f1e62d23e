//! The simulation engines.
//!
//! [`EngineCore`] owns every piece of simulated machine state — the
//! struct-of-arrays process table, per-core run queues, the cost model,
//! accounting — together with the scheduling primitives (quantum execution,
//! phase-mark handling, load balancing, job launch). Two drivers advance its
//! clock:
//!
//! * [`round`] — the reference round-based loop: every core executes one
//!   quantum per round and the clock advances by one timeslice per round,
//!   whether or not a core had work. Its quantum path is written as the
//!   slow-but-obvious specification.
//! * [`event`] — the event-driven loop: a bucketed [`BucketQueue`] of
//!   quantum-expiry, job-arrival, and load-balance events decides which
//!   rounds and which cores to touch, so fully idle stretches (bursty
//!   arrival gaps, drained queues) cost nothing. Its quantum path
//!   (`run_core_quantum_fast`) steps pre-compiled dense control flow and a
//!   flat per-block [`HotSlab`] arena with hoisted borrows.
//!
//! Both drivers mutate the *same* `EngineCore` state with the same arithmetic
//! in the same order, which is what makes the event-driven engine bit-for-bit
//! equivalent to the reference loop (see `tests/engine_equivalence.rs` at the
//! workspace root).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use phase_amp::{AffinityMask, CoreId, CoreKind, CostModel, MachineSpec, SharingContext};
use phase_ir::Location;
use phase_marking::{MARK_DECISION_INSTRUCTIONS, MARK_MONITOR_INSTRUCTIONS};

use crate::hooks::{IntervalHook, IntervalObservation, MarkContext, PhaseHook, SectionObservation};
use crate::interp::Interpreter;
use crate::process::{HotCounters, Pid, ProcessState, ProcessTable};
use crate::sim::{JobSpec, ProcessRecord, SimConfig, SimResult};

pub(crate) mod dense;
pub(crate) mod event;
pub(crate) mod round;

use dense::DenseProgram;

pub use event::{BucketQueue, Event, EventKind};

#[derive(Debug, Default)]
pub(crate) struct CoreState {
    pub(crate) runqueue: VecDeque<Pid>,
    pub(crate) running: Option<Pid>,
    pub(crate) busy_ns: f64,
}

#[derive(Debug)]
struct SlotState {
    jobs: Vec<JobSpec>,
    next: usize,
}

/// `BlockRecord` flag: the cost fields have been computed.
const COST_FILLED: u8 = 1 << 0;
/// `BlockRecord` flag: the block has at least one outgoing phase mark.
const HAS_MARK: u8 = 1 << 1;

/// Everything the inner execution loop needs about one block, packed into a
/// single 32-byte record: its (lazily memoised) cost, its memory-access
/// count, and whether any outgoing edge carries a phase mark.
#[derive(Debug, Clone, Copy, Default)]
struct BlockRecord {
    instructions: u64,
    cycles: f64,
    nanos: f64,
    mem_accesses: u32,
    flags: u8,
}

/// Flat per-block arena for one `(instrumented program, core kind, sharing)`
/// context.
///
/// The inner execution loop used to consult three parallel structures per
/// executed block — a cost slab, a mark bitmap, and a mem-access table — each
/// behind its own double indirection. One slab of [`BlockRecord`]s is
/// resolved *once per dispatch* (one small hash) and each step is then a
/// single dense index into one contiguous table.
#[derive(Debug)]
struct HotSlab {
    /// Starting dense index of each procedure's blocks.
    block_base: Vec<usize>,
    records: Vec<BlockRecord>,
}

impl HotSlab {
    /// Builds the slab with the mem-access counts and mark flags filled
    /// eagerly (both are cheap, pure per-block facts); costs are memoised on
    /// first execution like before.
    fn new(instrumented: &phase_marking::InstrumentedProgram) -> Self {
        let program = instrumented.program();
        let (block_base, total) = program_layout(program);
        let mut records = vec![BlockRecord::default(); total];
        for (loc, block) in program.iter_blocks() {
            records[block_base[loc.proc.index()] + loc.block.index()].mem_accesses =
                block.memory_access_count() as u32;
        }
        for mark in instrumented.marks() {
            records[block_base[mark.from.proc.index()] + mark.from.block.index()].flags |= HAS_MARK;
        }
        Self {
            block_base,
            records,
        }
    }

    fn dense(&self, loc: Location) -> usize {
        self.block_base[loc.proc.index()] + loc.block.index()
    }
}

/// Dense block numbering of a program: per-procedure base offsets and the
/// total block count.
pub(crate) fn program_layout(program: &phase_ir::Program) -> (Vec<usize>, usize) {
    let mut block_base = Vec::with_capacity(program.procedures().len());
    let mut total = 0;
    for proc in program.procedures() {
        block_base.push(total);
        total += proc.block_count();
    }
    (block_base, total)
}

/// The machine/scheduler state shared by both engines, plus the scheduling
/// primitives that mutate it. Drivers only decide *when* each primitive runs.
pub(crate) struct EngineCore<H: PhaseHook + IntervalHook> {
    pub(crate) label: String,
    pub(crate) cost: CostModel,
    pub(crate) config: SimConfig,
    pub(crate) hook: H,
    /// Initial affinity of every job a slot spawns: all cores by default,
    /// a single pinned core under static partitioning.
    slot_affinities: Vec<AffinityMask>,
    pub(crate) procs: ProcessTable,
    pub(crate) cores: Vec<CoreState>,
    slots: Vec<SlotState>,
    pub(crate) clock_ns: f64,
    /// Slab index per `(instrumented program identity, kind index, sharers
    /// bucket)`.
    slab_lookup: HashMap<(usize, usize, usize), usize>,
    slabs: Vec<HotSlab>,
    /// Dense control-flow compilation per program identity (event fast path).
    dense_lookup: HashMap<usize, usize>,
    dense_programs: Vec<Arc<DenseProgram>>,
    /// Whether `config.sample_interval_ns` is set (cached for the hot loop).
    sampling: bool,
    /// Total processes currently sitting on any run queue, maintained
    /// incrementally at every queue mutation so the event engine's per-core
    /// skip check is O(1) instead of a scan over all cores.
    queued: usize,
    /// Jobs not yet launched across all slots, and launched-but-unfinished
    /// processes — together an O(1) `all_work_done` for the event loop.
    pending_jobs: usize,
    unfinished: usize,
    /// Reusable per-round scratch for the L2 sharers histogram (event path).
    sharers_scratch: Vec<usize>,
    /// Scheduled release per spawned process, indexed by pid (parallel to
    /// the process table; filled in spawn order by `start_next_job`).
    releases: Vec<f64>,
    /// Absolute completion deadline per spawned process, indexed by pid.
    deadlines: Vec<Option<f64>>,
    pub(crate) total_instructions: u64,
    pub(crate) throughput_windows: Vec<u64>,
}

impl<H: PhaseHook + IntervalHook> EngineCore<H> {
    /// Creates the initial state: one job queue per slot, with the first job
    /// of every slot launched at its release time.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or any slot has no jobs.
    pub(crate) fn new(
        label: impl Into<String>,
        machine: MachineSpec,
        slots: Vec<Vec<JobSpec>>,
        hook: H,
        config: SimConfig,
    ) -> Self {
        let affinities = vec![AffinityMask::all_cores(&machine); slots.len()];
        Self::with_slot_affinities(label, machine, slots, hook, config, affinities)
    }

    /// Like [`new`](Self::new), but every job of slot `i` spawns with
    /// `slot_affinities[i]` instead of the all-cores mask (static
    /// partitioning).
    pub(crate) fn with_slot_affinities(
        label: impl Into<String>,
        machine: MachineSpec,
        slots: Vec<Vec<JobSpec>>,
        hook: H,
        config: SimConfig,
        slot_affinities: Vec<AffinityMask>,
    ) -> Self {
        assert!(!slots.is_empty(), "a simulation needs at least one slot");
        assert!(
            slots.iter().all(|s| !s.is_empty()),
            "every slot needs at least one job"
        );
        assert_eq!(
            slot_affinities.len(),
            slots.len(),
            "one initial affinity per slot"
        );
        if let Some(interval) = config.sample_interval_ns {
            // A zero/negative/NaN period would re-arm the event engine's
            // sampling tick at the same round forever, pinning its clock.
            assert!(
                interval.is_finite() && interval > 0.0,
                "sample interval must be a positive time, got {interval}"
            );
        }
        let core_count = machine.core_count();
        let sampling = config.sample_interval_ns.is_some();
        let pending_jobs = slots.iter().map(|s| s.len()).sum();
        let mut core = Self {
            label: label.into(),
            cost: CostModel::new(machine),
            config,
            hook,
            slot_affinities,
            procs: ProcessTable::default(),
            cores: (0..core_count).map(|_| CoreState::default()).collect(),
            slots: slots
                .into_iter()
                .map(|jobs| SlotState { jobs, next: 0 })
                .collect(),
            clock_ns: 0.0,
            slab_lookup: HashMap::new(),
            slabs: Vec::new(),
            dense_lookup: HashMap::new(),
            dense_programs: Vec::new(),
            sampling,
            queued: 0,
            pending_jobs,
            unfinished: 0,
            sharers_scratch: Vec::new(),
            releases: Vec::new(),
            deadlines: Vec::new(),
            total_instructions: 0,
            throughput_windows: Vec::new(),
        };
        // Launch the first job of every slot at time zero (or its release
        // time, for bursty workloads), spread over the least-loaded cores
        // like a fork-time balancer would.
        for slot in 0..core.slots.len() {
            core.start_next_job(slot, 0.0);
        }
        core
    }

    /// The machine being simulated.
    pub(crate) fn machine(&self) -> &MachineSpec {
        self.cost.spec()
    }

    pub(crate) fn all_work_done(&self) -> bool {
        let queues_empty = self.slots.iter().all(|s| s.next >= s.jobs.len());
        let processes_done = self.procs.all_finished();
        queues_empty && processes_done
    }

    /// O(1) variant of [`all_work_done`](Self::all_work_done) from the
    /// incrementally maintained counters (event engine, once per round).
    pub(crate) fn all_work_done_fast(&self) -> bool {
        let done = self.pending_jobs == 0 && self.unfinished == 0;
        debug_assert_eq!(done, self.all_work_done());
        done
    }

    /// The earliest time any queued (not yet finished, not currently running)
    /// process becomes dispatchable — its arrival time pushed forward by any
    /// queued-migration delay — or infinity when every queue is empty.
    pub(crate) fn earliest_queued_arrival(&self) -> f64 {
        self.cores
            .iter()
            .flat_map(|c| c.runqueue.iter())
            .map(|pid| self.procs.ready_ns(pid.index()))
            .fold(f64::INFINITY, f64::min)
    }

    /// Executes one scheduling round at the current clock: one quantum per
    /// core, in core-index order, scanning every core (the reference
    /// behaviour).
    pub(crate) fn run_round(&mut self) {
        let window_index = (self.clock_ns / self.config.throughput_window_ns) as usize;
        let before = self.total_instructions;

        let sharers_per_group = self.active_sharers_per_group();
        for core_index in 0..self.cores.len() {
            let core = CoreId(core_index as u32);
            self.run_core_quantum(core, &sharers_per_group);
        }

        let committed = self.total_instructions - before;
        if self.throughput_windows.len() <= window_index {
            self.throughput_windows.resize(window_index + 1, 0);
        }
        self.throughput_windows[window_index] += committed;
    }

    /// The event engine's round: a core is scanned only if it was explicitly
    /// scheduled (`has_event`) or any run queue is non-empty at its turn —
    /// the cases where the reference scan could act at all; skipped cores are
    /// provably no-ops, so both rounds produce identical state. The queue
    /// check reads the incrementally maintained `queued` counter, which stays
    /// current across quanta within the round.
    pub(crate) fn run_round_fast(&mut self, has_event: &[bool]) {
        debug_assert_eq!(
            self.queued,
            self.cores.iter().map(|c| c.runqueue.len()).sum::<usize>(),
            "incremental queued counter diverged from the run queues"
        );
        let window_index = (self.clock_ns / self.config.throughput_window_ns) as usize;
        let before = self.total_instructions;

        let mut sharers = std::mem::take(&mut self.sharers_scratch);
        self.active_sharers_into(&mut sharers);
        debug_assert_eq!(has_event.len(), self.cores.len());
        for (core_index, &scheduled) in has_event.iter().enumerate() {
            if !scheduled && self.queued == 0 {
                continue;
            }
            let core = CoreId(core_index as u32);
            self.run_core_quantum_fast(core, &sharers);
        }
        self.sharers_scratch = sharers;

        let committed = self.total_instructions - before;
        if self.throughput_windows.len() <= window_index {
            self.throughput_windows.resize(window_index + 1, 0);
        }
        self.throughput_windows[window_index] += committed;
    }

    /// Extends the throughput windows with the trailing zeros the reference
    /// loop would have produced by visiting every round up to
    /// `last_round_clock_ns`. Used by the event engine after skipping idle
    /// rounds.
    pub(crate) fn pad_windows_to(&mut self, last_round_clock_ns: f64) {
        if last_round_clock_ns < 0.0 {
            return;
        }
        let window_index = (last_round_clock_ns / self.config.throughput_window_ns) as usize;
        if self.throughput_windows.len() <= window_index {
            self.throughput_windows.resize(window_index + 1, 0);
        }
    }

    /// Number of runnable processes per L2 group at the start of a round,
    /// used as the cache-sharing pressure for the whole quantum.
    fn active_sharers_per_group(&self) -> Vec<usize> {
        let mut sharers = Vec::new();
        self.active_sharers_into(&mut sharers);
        sharers
    }

    fn active_sharers_into(&self, sharers: &mut Vec<usize>) {
        let spec = self.cost.spec();
        sharers.clear();
        sharers.resize(spec.l2_group_count(), 0);
        for (idx, core) in self.cores.iter().enumerate() {
            let group = spec.core(CoreId(idx as u32)).l2_group;
            let active = usize::from(core.running.is_some()) + core.runqueue.len();
            sharers[group] += active.min(1);
        }
        for s in sharers.iter_mut() {
            *s = (*s).max(1);
        }
    }

    /// The reference quantum: slow-but-obvious per-step code, resolving the
    /// interpreter location and indexing the slab on every block.
    fn run_core_quantum(&mut self, core: CoreId, sharers_per_group: &[usize]) {
        let kind_index = self.cost.spec().kind_of(core).index();
        let freq = self.cost.spec().core(core).freq_ghz;
        let group = self.cost.spec().core(core).l2_group;
        let sharing = SharingContext::shared_by(sharers_per_group[group]);

        // The core keeps working until its quantum budget is used up; if the
        // current process finishes or migrates away mid-quantum, the next
        // ready process takes over the remaining time (the scheduler is work
        // conserving).
        let mut consumed = 0.0;
        while consumed < self.config.timeslice_ns {
            // Cores execute their quanta sequentially within a round, so a
            // job spawned mid-quantum on an earlier core may already sit in
            // this core's queue with an arrival time ahead of this core's
            // local clock. Causality: it must not run (and in particular not
            // complete) before it arrived, so only processes that have
            // arrived by the core-local clock are eligible; if none are, the
            // core idles up to the earliest arrival in its own queue (or for
            // the rest of the round when that lies beyond this quantum).
            let now_ns = self.clock_ns + consumed;
            let pid = match self.pick_process(core, now_ns) {
                Some(pid) => pid,
                None => {
                    let earliest = self.cores[core.index()]
                        .runqueue
                        .iter()
                        .map(|pid| self.procs.ready_ns(pid.index()))
                        .fold(f64::INFINITY, f64::min);
                    let offset = earliest - self.clock_ns;
                    if offset.is_finite() && offset < self.config.timeslice_ns {
                        debug_assert!(offset > consumed, "pick skipped an arrived process");
                        consumed = offset;
                        continue;
                    }
                    break;
                }
            };
            let pid_i = pid.index();
            self.procs.set_running(pid_i, core);
            self.cores[core.index()].running = Some(pid);

            let budget = self.config.timeslice_ns - consumed;
            let mut elapsed = 0.0;
            let mut migrated = false;
            let mut finished = false;

            // Resolve this dispatch's block arena once; every step below is
            // then a direct dense-index lookup and the edge-map hash only
            // runs for blocks that actually carry marks.
            let instrumented = Arc::clone(self.procs.instrumented(pid_i));
            let program = Arc::clone(instrumented.program());
            let slab = self.hot_slab(&instrumented, kind_index, sharing);

            while elapsed < budget {
                let loc = self.procs.interps[pid_i].current_location();
                let dense = self.slabs[slab].dense(loc);
                let rec = self.block_record_at(slab, dense, loc, &program, core, sharing);
                self.procs
                    .charge_block(pid_i, rec.instructions, rec.cycles, rec.nanos, kind_index);
                if self.sampling {
                    let accesses = u64::from(rec.mem_accesses);
                    if accesses > 0 {
                        self.procs.note_interval_mem_accesses(pid_i, accesses);
                    }
                }
                self.total_instructions += rec.instructions;
                elapsed += rec.nanos;

                let step = self.procs.interps[pid_i]
                    .step()
                    .expect("running process is not finished");

                match step.next {
                    None => {
                        finished = true;
                        break;
                    }
                    Some(next_loc) => {
                        let mark = if rec.flags & HAS_MARK != 0 {
                            instrumented.mark_on_edge(step.executed, next_loc).copied()
                        } else {
                            None
                        };
                        if let Some(mark) = mark {
                            let now = self.clock_ns + consumed + elapsed;
                            let (extra_ns, did_migrate) =
                                self.execute_mark(pid, core, &mark, now, freq, kind_index);
                            elapsed += extra_ns;
                            if did_migrate {
                                migrated = true;
                                break;
                            }
                        }
                    }
                }
            }

            self.cores[core.index()].busy_ns += elapsed.min(budget);
            consumed += elapsed;

            if self.finish_dispatch(pid, core, consumed, finished, migrated) {
                continue;
            }
            break;
        }
    }

    /// The event engine's quantum: identical scheduling decisions and
    /// arithmetic to [`run_core_quantum`](Self::run_core_quantum), but the
    /// per-block loop runs over pre-compiled dense control flow with the
    /// slab, interpreter, and hot counters borrowed once per dispatch.
    fn run_core_quantum_fast(&mut self, core: CoreId, sharers_per_group: &[usize]) {
        let kind_index = self.cost.spec().kind_of(core).index();
        let freq = self.cost.spec().core(core).freq_ghz;
        let group = self.cost.spec().core(core).l2_group;
        let sharing = SharingContext::shared_by(sharers_per_group[group]);

        let mut consumed = 0.0;
        while consumed < self.config.timeslice_ns {
            let now_ns = self.clock_ns + consumed;
            let pid = match self.pick_process(core, now_ns) {
                Some(pid) => pid,
                None => {
                    let earliest = self.cores[core.index()]
                        .runqueue
                        .iter()
                        .map(|pid| self.procs.ready_ns(pid.index()))
                        .fold(f64::INFINITY, f64::min);
                    let offset = earliest - self.clock_ns;
                    if offset.is_finite() && offset < self.config.timeslice_ns {
                        debug_assert!(offset > consumed, "pick skipped an arrived process");
                        consumed = offset;
                        continue;
                    }
                    break;
                }
            };
            let pid_i = pid.index();
            self.procs.set_running(pid_i, core);
            self.cores[core.index()].running = Some(pid);

            let budget = self.config.timeslice_ns - consumed;
            let mut elapsed = 0.0;
            let mut migrated = false;
            let mut finished = false;

            let instrumented = Arc::clone(self.procs.instrumented(pid_i));
            let program = Arc::clone(instrumented.program());
            let dp = self.dense_program(&program);
            let slab_i = self.hot_slab(&instrumented, kind_index, sharing);
            let mut cur = dp.dense_of(self.procs.interps[pid_i].current_location());
            let mut committed: u64 = 0;

            loop {
                let outcome = {
                    let slab = &mut self.slabs[slab_i];
                    let interp = &mut self.procs.interps[pid_i];
                    let hot = &mut self.procs.hot[pid_i];
                    run_blocks_fast(
                        slab,
                        interp,
                        hot,
                        &dp,
                        &self.cost,
                        &program,
                        core,
                        sharing,
                        kind_index,
                        self.sampling,
                        budget,
                        &mut elapsed,
                        &mut cur,
                        &mut committed,
                    )
                };
                match outcome {
                    BlockRun::Budget => break,
                    BlockRun::Finished => {
                        finished = true;
                        break;
                    }
                    BlockRun::MarkedEdge { next } => {
                        let mark = instrumented
                            .mark_on_edge(dp.location(cur), dp.location(next))
                            .copied();
                        cur = next;
                        if let Some(mark) = mark {
                            let now = self.clock_ns + consumed + elapsed;
                            let (extra_ns, did_migrate) =
                                self.execute_mark(pid, core, &mark, now, freq, kind_index);
                            elapsed += extra_ns;
                            if did_migrate {
                                migrated = true;
                                break;
                            }
                        }
                    }
                }
            }
            self.total_instructions += committed;
            self.procs.interps[pid_i].sync_location(dp.location(cur));

            self.cores[core.index()].busy_ns += elapsed.min(budget);
            consumed += elapsed;

            if self.finish_dispatch(pid, core, consumed, finished, migrated) {
                continue;
            }
            break;
        }
    }

    /// Shared tail of a dispatch: retire a finished process (launching its
    /// slot's next job), release a migrated one, or preempt and requeue.
    /// Returns whether the core should look for more work in this quantum.
    fn finish_dispatch(
        &mut self,
        pid: Pid,
        core: CoreId,
        consumed: f64,
        finished: bool,
        migrated: bool,
    ) -> bool {
        let pid_i = pid.index();
        if finished {
            let completion = self.clock_ns + consumed;
            let slot = self.procs.slot(pid_i);
            self.procs.set_finished(pid_i, completion);
            self.unfinished -= 1;
            self.hook.on_process_exit(pid);
            phase_trace::event_sim("process-exit", completion as u64, u64::from(pid.0));
            self.cores[core.index()].running = None;
            self.start_next_job(slot, completion);
            return true;
        }
        if migrated {
            // execute_mark already queued the process elsewhere.
            self.cores[core.index()].running = None;
            return true;
        }
        // Quantum expired for this process: preempt and requeue.
        self.procs.set_ready(pid_i);
        self.cores[core.index()].running = None;
        let affinity = self.procs.affinity(pid_i);
        if affinity.allows(core) {
            self.cores[core.index()].runqueue.push_back(pid);
            self.queued += 1;
        } else {
            self.enqueue_on_allowed_core(pid);
        }
        false
    }

    /// Executes a phase mark: calls the hook, charges the mark's cost, and
    /// performs the core switch if the new affinity excludes the current
    /// core. Returns the wall-clock time consumed and whether the process
    /// migrated away.
    fn execute_mark(
        &mut self,
        pid: Pid,
        core: CoreId,
        mark: &phase_marking::PhaseMark,
        now_ns: f64,
        freq_ghz: f64,
        kind_index: usize,
    ) -> (f64, bool) {
        let pid_i = pid.index();
        let core_kind = self.cost.spec().kind_of(core);
        let (sec_instr, sec_cycles, sec_phase) = self.procs.roll_section(pid_i, mark.phase_type);
        let completed_section = sec_phase.map(|phase_type| SectionObservation {
            phase_type,
            instructions: sec_instr,
            cycles: sec_cycles,
            core_kind,
        });
        let ctx = MarkContext {
            pid,
            mark,
            core,
            core_kind,
            completed_section,
            now_ns,
        };
        let response = self.hook.on_phase_mark(&ctx);
        self.procs.set_monitoring(pid_i, response.monitoring);
        self.procs.stats_mut(pid_i).marks_executed += 1;
        // Simulated-time trace event (value packs `pid << 32 | phase_type`);
        // disabled tracing costs one relaxed load here.
        phase_trace::event_sim(
            "phase-transition",
            now_ns as u64,
            (u64::from(pid.0) << 32) | u64::from(mark.phase_type.0),
        );

        let mut extra_ns = 0.0;
        if self.config.charge_mark_overhead {
            let overhead_instructions = if response.monitoring {
                MARK_MONITOR_INSTRUCTIONS
            } else {
                MARK_DECISION_INSTRUCTIONS
            };
            let overhead_cycles = overhead_instructions as f64;
            let overhead_ns = overhead_cycles / freq_ghz;
            self.procs.charge_block(
                pid_i,
                overhead_instructions,
                overhead_cycles,
                overhead_ns,
                kind_index,
            );
            self.total_instructions += overhead_instructions;
            extra_ns += overhead_ns;
        }

        let mut migrated = false;
        if let Some(mask) = response.new_affinity {
            if mask != self.procs.affinity(pid_i) {
                self.procs.set_affinity(pid_i, mask);
            }
            if !mask.allows(core) && !mask.is_empty() {
                // A real core switch: charge the migration cost and move the
                // process to an allowed core's run queue.
                let (switch_cycles, switch_ns) = self.cost.core_switch_cost(core);
                self.procs
                    .charge_block(pid_i, 0, switch_cycles as f64, switch_ns, kind_index);
                extra_ns += switch_ns;
                self.procs.stats_mut(pid_i).core_switches += 1;
                self.procs.set_ready(pid_i);
                let target = self.enqueue_on_allowed_core(pid);
                phase_trace::event_sim(
                    "migration",
                    now_ns as u64,
                    (u64::from(pid.0) << 32) | u64::from(target.0),
                );
                migrated = true;
            }
        }
        (extra_ns, migrated)
    }

    /// Picks the next process eligible to run on `core` at core-local time
    /// `now_ns`: its own queue first, then an idle-steal from the most loaded
    /// core. Jobs spawned mid-round by an earlier core may carry arrival
    /// times ahead of `now_ns`; those are left queued so already-arrived
    /// work behind them is never starved.
    fn pick_process(&mut self, core: CoreId, now_ns: f64) -> Option<Pid> {
        let arrived = |procs: &ProcessTable, pid: &Pid| procs.ready_ns(pid.index()) <= now_ns;
        if let Some(position) = self.cores[core.index()]
            .runqueue
            .iter()
            .position(|pid| arrived(&self.procs, pid))
        {
            let pid = self.cores[core.index()].runqueue.remove(position);
            self.queued -= 1;
            return pid;
        }
        // Idle balancing: steal a ready, arrived process that may run here
        // from the most loaded core.
        let donor = self
            .cores
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != core.index())
            .max_by_key(|(_, c)| c.runqueue.len())
            .map(|(i, _)| i)?;
        let position = self.cores[donor].runqueue.iter().position(|pid| {
            self.procs.affinity(pid.index()).allows(core) && arrived(&self.procs, pid)
        })?;
        let pid = self.cores[donor].runqueue.remove(position)?;
        self.queued -= 1;
        self.procs.stats_mut(pid.index()).balancer_migrations += 1;
        Some(pid)
    }

    /// Periodic load balancing: move waiting processes from the most loaded
    /// to the least loaded core when the imbalance exceeds one.
    pub(crate) fn load_balance(&mut self) {
        loop {
            let (busiest, busiest_len) = match self
                .cores
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.runqueue.len())
            {
                Some((i, c)) => (i, c.runqueue.len()),
                None => return,
            };
            let (idlest, idlest_len) = match self
                .cores
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.runqueue.len())
            {
                Some((i, c)) => (i, c.runqueue.len()),
                None => return,
            };
            if busiest_len <= idlest_len + 1 {
                return;
            }
            let target = CoreId(idlest as u32);
            let position = self.cores[busiest]
                .runqueue
                .iter()
                .position(|pid| self.procs.affinity(pid.index()).allows(target));
            match position {
                Some(pos) => {
                    let pid = self.cores[busiest]
                        .runqueue
                        .remove(pos)
                        .expect("position valid");
                    self.procs.stats_mut(pid.index()).balancer_migrations += 1;
                    self.cores[idlest].runqueue.push_back(pid);
                }
                None => return,
            }
        }
    }

    /// Starts the next job of a slot, if the queue is not exhausted. The new
    /// process arrives at `now_ns` or at the job's release time, whichever is
    /// later.
    fn start_next_job(&mut self, slot: usize, now_ns: f64) {
        let state = &mut self.slots[slot];
        if state.next >= state.jobs.len() {
            return;
        }
        let job = state.jobs[state.next].clone();
        state.next += 1;
        self.pending_jobs -= 1;
        self.unfinished += 1;
        let next_pid = Pid(self.procs.len() as u32);
        let seed = self
            .config
            .seed
            .wrapping_add(next_pid.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let arrival_ns = now_ns.max(job.release_ns);
        let pid = self.procs.spawn(
            job.name,
            slot,
            Arc::clone(&job.instrumented),
            self.slot_affinities[slot],
            arrival_ns,
            seed,
        );
        debug_assert_eq!(pid, next_pid);
        self.releases.push(job.release_ns);
        self.deadlines.push(job.deadline_ns);
        debug_assert_eq!(self.releases.len(), self.procs.len());
        self.hook.on_process_start(pid, &job.instrumented);
        phase_trace::event_sim("process-start", arrival_ns as u64, u64::from(pid.0));
        self.enqueue_on_allowed_core(pid);
    }

    /// Puts a ready process on the least-loaded core its affinity allows,
    /// returning the chosen core.
    fn enqueue_on_allowed_core(&mut self, pid: Pid) -> CoreId {
        let affinity = self.procs.affinity(pid.index());
        let target = self
            .cores
            .iter()
            .enumerate()
            .filter(|(i, _)| affinity.allows(CoreId(*i as u32)) || affinity.is_empty())
            .min_by_key(|(_, c)| c.runqueue.len() + usize::from(c.running.is_some()))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.cores[target].runqueue.push_back(pid);
        self.queued += 1;
        CoreId(target as u32)
    }

    /// Closes the elapsed sampling interval: every live process that executed
    /// anything since the previous tick emits one [`IntervalObservation`] to
    /// the hook (in pid order), and any affinity mask the hook answers with is
    /// applied. A process migrated off an excluded core's queue pays the
    /// core-switch cost twice over, like a mark-driven switch does: the
    /// cycles land in its own counters, and its next dispatch is delayed by
    /// the switch latency (a queued process cannot consume core time, so the
    /// latency is charged as ineligibility instead of quantum time).
    ///
    /// Both engines call this at the same round-aligned times, so it cannot
    /// break their bit-for-bit equivalence.
    pub(crate) fn sample_intervals(&mut self) {
        for index in 0..self.procs.len() {
            if self.procs.state(index) == ProcessState::Finished {
                continue;
            }
            if !self.procs.has_interval_activity(index) {
                continue;
            }
            let pid = Pid(index as u32);
            let counters = self.procs.roll_interval(index);
            // Attribute the interval to the kind it mostly ran on; ties go to
            // the lower kind index for determinism.
            let mut kind = 0usize;
            for (candidate, cycles) in counters.kind_cycles.iter().enumerate().skip(1) {
                if *cycles > counters.kind_cycles[kind] {
                    kind = candidate;
                }
            }
            let observation = IntervalObservation {
                pid,
                seq: counters.seq,
                instructions: counters.instructions,
                cycles: counters.cycles,
                mem_accesses: counters.mem_accesses,
                core_kind: CoreKind(kind as u32),
                now_ns: self.clock_ns,
            };
            phase_trace::event_sim(
                "sample-interval",
                self.clock_ns as u64,
                (u64::from(pid.0) << 32) | (observation.seq & 0xffff_ffff),
            );
            let Some(mask) = self.hook.on_sample_interval(&observation) else {
                continue;
            };
            if mask.is_empty() || mask == self.procs.affinity(index) {
                continue;
            }
            self.procs.set_affinity(index, mask);
            phase_trace::event_sim_detail(
                "retune",
                self.clock_ns as u64,
                (u64::from(pid.0) << 32) | mask.core_count() as u64,
                || {
                    mask.iter()
                        .map(|core| core.0.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                },
            );
            // Between rounds every unfinished process waits on some core's
            // run queue; if that core is now excluded, perform the switch.
            let located = self.cores.iter().enumerate().find_map(|(c, core)| {
                core.runqueue
                    .iter()
                    .position(|p| p.index() == index)
                    .map(|pos| (c, pos))
            });
            if let Some((core_index, position)) = located {
                let source = CoreId(core_index as u32);
                if !mask.allows(source) {
                    self.cores[core_index].runqueue.remove(position);
                    self.queued -= 1;
                    let target = self.enqueue_on_allowed_core(pid);
                    phase_trace::event_sim(
                        "migration",
                        self.clock_ns as u64,
                        (u64::from(pid.0) << 32) | u64::from(target.0),
                    );
                    // Cost basis is the core being left, matching the
                    // mark-driven path in `execute_mark`, so identical
                    // migrations cost the same under either tuner.
                    let (switch_cycles, switch_ns) = self.cost.core_switch_cost(source);
                    let kind_index = self.cost.spec().kind_of(source).index();
                    self.procs
                        .charge_block(index, 0, switch_cycles as f64, switch_ns, kind_index);
                    self.procs.delay_until(index, self.clock_ns + switch_ns);
                    self.procs.stats_mut(index).core_switches += 1;
                }
            }
        }
    }

    /// The dense control-flow compilation for a program, created lazily on
    /// first use (event fast path only).
    fn dense_program(&mut self, program: &Arc<phase_ir::Program>) -> Arc<DenseProgram> {
        let key = Arc::as_ptr(program) as usize;
        if let Some(&index) = self.dense_lookup.get(&key) {
            return Arc::clone(&self.dense_programs[index]);
        }
        let dp = Arc::new(DenseProgram::new(program));
        self.dense_lookup.insert(key, self.dense_programs.len());
        self.dense_programs.push(Arc::clone(&dp));
        dp
    }

    /// The block arena for an `(instrumented program, core kind, sharing)`
    /// context, created lazily on first use.
    fn hot_slab(
        &mut self,
        instrumented: &Arc<phase_marking::InstrumentedProgram>,
        kind_index: usize,
        sharing: SharingContext,
    ) -> usize {
        let key = (
            Arc::as_ptr(instrumented) as usize,
            kind_index,
            sharing.l2_sharers.min(8),
        );
        if let Some(&index) = self.slab_lookup.get(&key) {
            return index;
        }
        let index = self.slabs.len();
        self.slabs.push(HotSlab::new(instrumented));
        self.slab_lookup.insert(key, index);
        index
    }

    /// A block's record from the given slab, computing and memoising its cost
    /// on the first visit.
    fn block_record_at(
        &mut self,
        slab: usize,
        dense: usize,
        loc: Location,
        program: &phase_ir::Program,
        core: CoreId,
        sharing: SharingContext,
    ) -> BlockRecord {
        let rec = self.slabs[slab].records[dense];
        if rec.flags & COST_FILLED != 0 {
            return rec;
        }
        let block = program
            .block(loc)
            .expect("interpreter location points at an existing block");
        let cost = self.cost.block_cost(core, block, sharing);
        let rec = &mut self.slabs[slab].records[dense];
        rec.instructions = cost.instructions;
        rec.cycles = cost.cycles;
        rec.nanos = cost.nanos;
        rec.flags |= COST_FILLED;
        *rec
    }

    /// Consumes the state into the public result, with the given end time.
    pub(crate) fn into_result(self, final_time_ns: f64) -> SimResult {
        let records: Vec<ProcessRecord> = (0..self.procs.len())
            .map(|i| ProcessRecord {
                pid: Pid(i as u32),
                name: self.procs.name(i).to_string(),
                slot: self.procs.slot(i),
                arrival_ns: self.procs.arrival_ns(i),
                release_ns: self.releases[i],
                deadline_ns: self.deadlines[i],
                completion_ns: self.procs.completion_ns(i),
                stats: *self.procs.stats(i),
            })
            .collect();
        let total_marks_executed = records.iter().map(|r| r.stats.marks_executed).sum();
        let total_core_switches = records.iter().map(|r| r.stats.core_switches).sum();
        SimResult {
            label: self.label,
            records,
            total_instructions: self.total_instructions,
            final_time_ns,
            throughput_windows: self.throughput_windows,
            core_busy_ns: self.cores.iter().map(|c| c.busy_ns).collect(),
            total_marks_executed,
            total_core_switches,
        }
    }
}

/// Why the fast block loop returned control to the dispatch loop.
enum BlockRun {
    /// The quantum budget is used up.
    Budget,
    /// The process exited.
    Finished,
    /// The executed block has a marked outgoing edge; `next` is where control
    /// flows (the dense cursor still points at the executed block so the
    /// caller can resolve the edge).
    MarkedEdge { next: u32 },
}

/// The event engine's inner block loop: all hot state is borrowed once and
/// held across iterations, and control flow steps through the pre-compiled
/// dense table. Bit-identical to the reference loop in `run_core_quantum` —
/// same per-accumulator addition order, same RNG draws, same lazily memoised
/// costs.
#[allow(clippy::too_many_arguments)]
fn run_blocks_fast(
    slab: &mut HotSlab,
    interp: &mut Interpreter,
    hot: &mut HotCounters,
    dp: &DenseProgram,
    cost: &CostModel,
    program: &phase_ir::Program,
    core: CoreId,
    sharing: SharingContext,
    kind_index: usize,
    sampling: bool,
    budget: f64,
    elapsed: &mut f64,
    cur: &mut u32,
    committed: &mut u64,
) -> BlockRun {
    while *elapsed < budget {
        let rec = &mut slab.records[*cur as usize];
        if rec.flags & COST_FILLED == 0 {
            let block = program
                .block(dp.location(*cur))
                .expect("dense index maps to an existing block");
            let c = cost.block_cost(core, block, sharing);
            rec.instructions = c.instructions;
            rec.cycles = c.cycles;
            rec.nanos = c.nanos;
            rec.flags |= COST_FILLED;
        }
        let (instructions, cycles, nanos, mem, flags) = (
            rec.instructions,
            rec.cycles,
            rec.nanos,
            rec.mem_accesses,
            rec.flags,
        );
        hot.charge_block(instructions, cycles, nanos, kind_index);
        if sampling && mem > 0 {
            hot.interval_mem_accesses += u64::from(mem);
        }
        *committed += instructions;
        *elapsed += nanos;

        match interp.step_dense(dp, *cur) {
            None => return BlockRun::Finished,
            Some(next) => {
                if flags & HAS_MARK != 0 {
                    return BlockRun::MarkedEdge { next };
                }
                *cur = next;
            }
        }
    }
    BlockRun::Budget
}
