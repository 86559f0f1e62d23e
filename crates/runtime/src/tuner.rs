//! The phase-based tuner: the dynamic half of the paper's technique.
//!
//! The tuner implements the [`PhaseHook`] interface of `phase-sched`. For each
//! process it tracks, per phase type, the IPC observed on each core kind from
//! a small number of *representative* sections. Once every core kind has been
//! sampled, Algorithm 2 picks the phase type's core assignment; from then on
//! every mark of that type "reduces to simply making appropriate core
//! switching decisions" (Section II) and monitoring stops — the positional,
//! monitor-once behaviour that keeps the runtime overhead negligible.
//!
//! A decided mark is a table read: the process's state is indexed by pid,
//! its assignments sit in a small ordered map, and the machine's kinds,
//! fastest kind and affinity masks are computed once, when the tuner is
//! built. It hashes nothing and allocates nothing; `tests/mark_path_alloc.rs` counts
//! the allocations of 10 000 decided marks and expects zero.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use phase_amp::{AffinityMask, CoreKind, CounterBank, MachineSpec};
use phase_analysis::PhaseType;
use phase_marking::InstrumentedProgram;
use phase_sched::{IntervalHook, MarkContext, MarkResponse, PhaseHook, Pid, SectionObservation};

use crate::algorithm::{select_core_kind, ObservedIpc};

/// Configuration of the dynamic tuner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Algorithm 2's IPC-difference threshold `δ`. The paper sweeps this in
    /// Figure 6 and uses 0.15–0.2 for its headline results.
    pub ipc_threshold: f64,
    /// How many monitored sections per `(phase type, core kind)` pair are
    /// required before the assignment decision is made.
    pub samples_per_kind: u32,
    /// Monitored sections shorter than this many instructions are discarded
    /// as unrepresentative.
    pub min_section_instructions: u64,
    /// Number of hardware-counter slots available machine-wide; monitoring
    /// requests beyond this wait (the paper's Section III behaviour).
    pub counter_slots: usize,
    /// Whether phase types whose best kind is the *fastest* kind are pinned
    /// to it. The paper's prototype pins both ways; leaving fast-preferring
    /// phases unpinned (the default here) keeps the slow cores busy whenever
    /// the workload's compute share exceeds the fast cores' capacity share,
    /// and is exposed as an ablation knob.
    pub pin_preferred_fast: bool,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            ipc_threshold: 0.2,
            samples_per_kind: 1,
            min_section_instructions: 30,
            counter_slots: 8,
            pin_preferred_fast: false,
        }
    }
}

impl TunerConfig {
    /// The configuration of the paper's Table 1 run: `Loop[45]` marking with
    /// a 0.2 IPC threshold.
    pub fn paper_table1() -> Self {
        Self {
            ipc_threshold: 0.2,
            ..Self::default()
        }
    }

    /// The configuration behind the paper's best fairness results
    /// (Section IV-D): a slightly looser threshold that keeps a little more
    /// work on the fast cores.
    pub fn paper_best_fairness() -> Self {
        Self {
            ipc_threshold: 0.25,
            ..Self::default()
        }
    }
}

/// Aggregate statistics about what the tuner did, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TunerStats {
    /// Sections whose IPC was recorded.
    pub sections_monitored: u64,
    /// Monitoring requests that had to be skipped because no hardware counter
    /// slot was free.
    pub monitor_waits: u64,
    /// Phase-type assignment decisions made (across all processes).
    pub assignments_decided: u64,
    /// Core-switch requests issued (affinity changes that excluded the
    /// current core).
    pub switch_requests: u64,
}

#[derive(Debug, Default)]
struct IpcAccumulator {
    instructions: u64,
    cycles: f64,
    sections: u32,
}

impl IpcAccumulator {
    fn record(&mut self, observation: &SectionObservation) {
        self.instructions += observation.instructions;
        self.cycles += observation.cycles;
        self.sections += 1;
    }

    fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }
}

#[derive(Debug, Default)]
struct ProcessTuning {
    /// Observed IPC per (phase type, core kind). A process meets a handful
    /// of phase types, so an ordered map's short scan beats hashing.
    samples: BTreeMap<(PhaseType, CoreKind), IpcAccumulator>,
    /// Decided assignments per phase type.
    assignments: BTreeMap<PhaseType, CoreKind>,
    /// Phase type currently being monitored (a counter slot is held).
    monitoring: Option<PhaseType>,
    /// Slot handle held while monitoring.
    counter_slot: Option<phase_amp::CounterSlot>,
    /// Whether the process is currently pinned to a kind only so that a
    /// not-yet-sampled kind could be measured; the pin is released as soon as
    /// it has served its purpose so undecided processes keep the scheduler's
    /// freedom.
    sampling_pinned: bool,
}

impl ProcessTuning {
    /// Closes out the monitoring armed at the previous mark, recording the
    /// completed section if it is a representative one of the monitored type.
    fn finish_monitoring(
        &mut self,
        observation: Option<&SectionObservation>,
        config: &TunerConfig,
        counters: &mut CounterBank,
        stats: &mut TunerStats,
    ) {
        let Some(monitored_type) = self.monitoring.take() else {
            return;
        };
        if let Some(slot) = self.counter_slot.take() {
            counters.release(slot);
        }
        let Some(observation) = observation else {
            return;
        };
        if observation.phase_type != monitored_type
            || observation.instructions < config.min_section_instructions
        {
            return;
        }
        self.samples
            .entry((monitored_type, observation.core_kind))
            .or_default()
            .record(observation);
        stats.sections_monitored += 1;
    }

    /// Decides the assignment for a phase type if enough samples exist.
    fn try_decide(
        &mut self,
        phase_type: PhaseType,
        machine: &MachineSpec,
        facts: &MachineFacts,
        config: &TunerConfig,
        stats: &mut TunerStats,
    ) -> Option<CoreKind> {
        if let Some(kind) = self.assignments.get(&phase_type) {
            return Some(*kind);
        }
        let enough = facts.kinds.iter().all(|(kind, _)| {
            self.samples
                .get(&(phase_type, *kind))
                .is_some_and(|acc| acc.sections >= config.samples_per_kind)
        });
        if !enough {
            return None;
        }
        let observations: Vec<ObservedIpc> = facts
            .kinds
            .iter()
            .map(|(kind, _)| ObservedIpc {
                kind: *kind,
                ipc: self.samples[&(phase_type, *kind)].ipc(),
            })
            .collect();
        let chosen = select_core_kind(machine, &observations, config.ipc_threshold)?;
        self.assignments.insert(phase_type, chosen);
        stats.assignments_decided += 1;
        Some(chosen)
    }

    /// The core kind this phase type still needs samples from, preferring the
    /// kind the process is currently on.
    fn kind_needing_samples(
        &self,
        phase_type: PhaseType,
        current: CoreKind,
        facts: &MachineFacts,
        config: &TunerConfig,
    ) -> Option<CoreKind> {
        let needs = |kind: CoreKind| {
            self.samples
                .get(&(phase_type, kind))
                .is_none_or(|acc| acc.sections < config.samples_per_kind)
        };
        if needs(current) {
            return Some(current);
        }
        facts
            .kinds
            .iter()
            .map(|(kind, _)| *kind)
            .find(|kind| needs(*kind))
    }
}

/// The [`MachineSpec`] facts the mark path reads, computed once per tuner so
/// a mark never rebuilds a kind list or a core list.
#[derive(Debug)]
struct MachineFacts {
    /// Every distinct core kind, ordered by kind id, with the mask of its
    /// cores.
    kinds: Vec<(CoreKind, AffinityMask)>,
    fastest: CoreKind,
    all_cores: AffinityMask,
    core_count: usize,
}

impl MachineFacts {
    fn new(machine: &MachineSpec) -> Self {
        Self {
            kinds: machine
                .kinds()
                .into_iter()
                .map(|kind| (kind, AffinityMask::kind(machine, kind)))
                .collect(),
            fastest: machine.fastest_kind(),
            all_cores: AffinityMask::all_cores(machine),
            core_count: machine.core_count(),
        }
    }

    /// The mask of every core of `kind` (empty for a kind the machine lacks,
    /// as [`AffinityMask::kind`] gives).
    fn kind_mask(&self, kind: CoreKind) -> AffinityMask {
        self.kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(AffinityMask::from_cores([]), |(_, mask)| *mask)
    }
}

struct TunerInner {
    machine: Arc<MachineSpec>,
    facts: MachineFacts,
    config: TunerConfig,
    /// Per-process state indexed by pid (pids are dense spawn indices);
    /// `None` before a process starts and after it exits.
    processes: Vec<Option<ProcessTuning>>,
    counters: CounterBank,
    stats: TunerStats,
}

/// The phase-based tuner, shared between the simulation (as its hook) and the
/// experiment harness (for statistics).
///
/// Cloning the tuner clones a handle to the same shared state.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use phase_amp::MachineSpec;
/// use phase_runtime::{PhaseTuner, TunerConfig};
///
/// let machine = Arc::new(MachineSpec::core2_quad_amp());
/// let tuner = PhaseTuner::new(Arc::clone(&machine), TunerConfig::default());
/// let handle = tuner.clone();
/// // `tuner` is handed to the simulation as its hook; `handle` can read the
/// // statistics afterwards.
/// assert_eq!(handle.stats().assignments_decided, 0);
/// ```
#[derive(Clone)]
pub struct PhaseTuner {
    inner: Arc<Mutex<TunerInner>>,
}

impl PhaseTuner {
    /// Creates a tuner for the given machine.
    pub fn new(machine: Arc<MachineSpec>, config: TunerConfig) -> Self {
        let counters = CounterBank::new(config.counter_slots.max(1));
        Self {
            inner: Arc::new(Mutex::new(TunerInner {
                facts: MachineFacts::new(&machine),
                machine,
                config,
                processes: Vec::new(),
                counters,
                stats: TunerStats::default(),
            })),
        }
    }

    /// A snapshot of the tuner's aggregate statistics.
    pub fn stats(&self) -> TunerStats {
        self.inner.lock().stats
    }

    /// The assignment the tuner decided for a phase type of a process, if it
    /// has been decided.
    pub fn assignment(&self, pid: Pid, phase_type: PhaseType) -> Option<CoreKind> {
        self.inner
            .lock()
            .processes
            .get(pid.index())
            .and_then(Option::as_ref)
            .and_then(|p| p.assignments.get(&phase_type).copied())
    }
}

impl std::fmt::Debug for PhaseTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PhaseTuner")
            .field("config", &inner.config)
            .field("stats", &inner.stats)
            .field("processes", &inner.processes.iter().flatten().count())
            .finish()
    }
}

/// The tuning state of `pid`, created empty if the process has none yet.
fn process_state(processes: &mut Vec<Option<ProcessTuning>>, pid: Pid) -> &mut ProcessTuning {
    let index = pid.index();
    if index >= processes.len() {
        processes.resize_with(index + 1, || None);
    }
    processes[index].get_or_insert_with(ProcessTuning::default)
}

/// The static tuner acts only at phase marks; the interval sample stream is
/// ignored (the online tuner in `phase-online` is its counterpart there).
impl IntervalHook for PhaseTuner {}

impl PhaseHook for PhaseTuner {
    fn on_process_start(&mut self, pid: Pid, _program: &InstrumentedProgram) {
        let mut inner = self.inner.lock();
        *process_state(&mut inner.processes, pid) = ProcessTuning::default();
    }

    fn on_phase_mark(&mut self, ctx: &MarkContext<'_>) -> MarkResponse {
        let mut inner = self.inner.lock();
        let TunerInner {
            machine,
            facts,
            config,
            processes,
            counters,
            stats,
        } = &mut *inner;
        let state = process_state(processes, ctx.pid);

        // 1. Close out any monitoring armed at the previous mark.
        state.finish_monitoring(ctx.completed_section.as_ref(), config, counters, stats);

        let phase_type = ctx.mark.phase_type;

        // 2. If the assignment is (or just became) known, this mark reduces
        //    to a core-switch decision.
        if let Some(kind) = state.try_decide(phase_type, machine, facts, config, stats) {
            let was_pinned = std::mem::replace(&mut state.sampling_pinned, false);
            let mask = if kind == facts.fastest && !config.pin_preferred_fast {
                // The phase gains nothing from occupying a particular kind;
                // hand it back to the OS so no core type starves.
                facts.all_cores
            } else {
                facts.kind_mask(kind)
            };
            if mask.allows(ctx.core) && !was_pinned && mask.core_count() < facts.core_count {
                return MarkResponse::none();
            }
            if mask.allows(ctx.core) {
                // Affinity widens (or already matches); apply it without
                // counting a core switch.
                return MarkResponse::switch_to(mask);
            }
            stats.switch_requests += 1;
            return MarkResponse::switch_to(mask);
        }

        // 3. Otherwise keep gathering samples from representative sections.
        let was_pinned = state.sampling_pinned;
        let Some(wanted_kind) =
            state.kind_needing_samples(phase_type, ctx.core_kind, facts, config)
        else {
            // Nothing left to sample for this type but the decision is still
            // pending (e.g. sections were too short); release any sampling
            // pin so the scheduler stays free.
            if was_pinned {
                state.sampling_pinned = false;
                return MarkResponse::switch_to(facts.all_cores);
            }
            return MarkResponse::none();
        };

        let mut response = MarkResponse::none();
        if wanted_kind != ctx.core_kind {
            // Move the process to the kind we still need a measurement from;
            // the next mark of this type will monitor there. The pin is
            // temporary and released once the sample is in.
            stats.switch_requests += 1;
            state.sampling_pinned = true;
            response.new_affinity = Some(facts.kind_mask(wanted_kind));
            return response;
        }

        // Monitor the upcoming section on the current core kind, if a
        // hardware counter slot is free. A process pinned here purely for
        // sampling is released back to every core: the upcoming section still
        // starts on this kind, which is all the measurement needs.
        if was_pinned {
            state.sampling_pinned = false;
            response.new_affinity = Some(facts.all_cores);
        }
        match counters.try_acquire() {
            Some(slot) => {
                state.monitoring = Some(phase_type);
                state.counter_slot = Some(slot);
                response.monitoring = true;
            }
            None => {
                stats.monitor_waits += 1;
            }
        }
        response
    }

    fn on_process_exit(&mut self, pid: Pid) {
        let mut inner = self.inner.lock();
        let exited = inner.processes.get_mut(pid.index()).and_then(Option::take);
        if let Some(mut state) = exited {
            if let Some(slot) = state.counter_slot.take() {
                inner.counters.release(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_amp::CoreId;
    use phase_analysis::PhaseType;
    use phase_ir::{BlockId, Location, ProcId};
    use phase_marking::{MarkId, PhaseMark};

    fn machine() -> Arc<MachineSpec> {
        Arc::new(MachineSpec::core2_quad_amp())
    }

    fn mark(phase: u32) -> PhaseMark {
        PhaseMark {
            id: MarkId(0),
            from: Location::new(ProcId(0), BlockId(0)),
            to: Location::new(ProcId(0), BlockId(1)),
            phase_type: PhaseType(phase),
            previous_type: None,
            size_bytes: 78,
        }
    }

    fn observation(phase: u32, kind: CoreKind, ipc: f64) -> SectionObservation {
        SectionObservation {
            phase_type: PhaseType(phase),
            instructions: 10_000,
            cycles: 10_000.0 / ipc,
            core_kind: kind,
        }
    }

    fn ctx<'a>(
        pid: u32,
        mark: &'a PhaseMark,
        core: CoreId,
        kind: CoreKind,
        completed: Option<SectionObservation>,
    ) -> MarkContext<'a> {
        MarkContext {
            pid: Pid(pid),
            mark,
            core,
            core_kind: kind,
            completed_section: completed,
            now_ns: 0.0,
        }
    }

    /// Drives the tuner through monitoring on both kinds for one phase type,
    /// feeding it the given IPCs, then returns the decided assignment.
    fn drive_to_decision(fast_ipc: f64, slow_ipc: f64, threshold: f64) -> CoreKind {
        let machine = machine();
        let mut tuner = PhaseTuner::new(
            Arc::clone(&machine),
            TunerConfig {
                ipc_threshold: threshold,
                samples_per_kind: 1,
                min_section_instructions: 1,
                counter_slots: 4,
                pin_preferred_fast: false,
            },
        );
        let m = mark(0);
        let fast_core = CoreId(0);
        let slow_core = CoreId(2);

        // First mark on a fast core: no samples yet, so the tuner monitors.
        let r1 = tuner.on_phase_mark(&ctx(1, &m, fast_core, CoreKind(0), None));
        assert!(r1.monitoring);

        // Second mark: the monitored fast-core section completes; the tuner
        // now needs a slow-core sample, so it requests a switch.
        let r2 = tuner.on_phase_mark(&ctx(
            1,
            &m,
            fast_core,
            CoreKind(0),
            Some(observation(0, CoreKind(0), fast_ipc)),
        ));
        assert_eq!(
            r2.new_affinity,
            Some(AffinityMask::kind(&machine, CoreKind(1)))
        );

        // Third mark, now on a slow core: monitor there.
        let r3 = tuner.on_phase_mark(&ctx(1, &m, slow_core, CoreKind(1), None));
        assert!(r3.monitoring);

        // Fourth mark: the slow-core sample arrives; the decision is made.
        let _ = tuner.on_phase_mark(&ctx(
            1,
            &m,
            slow_core,
            CoreKind(1),
            Some(observation(0, CoreKind(1), slow_ipc)),
        ));
        tuner
            .assignment(Pid(1), PhaseType(0))
            .expect("assignment decided after sampling both kinds")
    }

    #[test]
    fn memory_bound_phase_is_assigned_to_slow_cores() {
        // Big IPC gain on the slow core: worth occupying it.
        assert_eq!(drive_to_decision(0.3, 0.7, 0.2), CoreKind(1));
    }

    #[test]
    fn cpu_bound_phase_is_assigned_to_fast_cores() {
        // No IPC difference: stay where the clock is fastest.
        assert_eq!(drive_to_decision(1.0, 1.02, 0.2), CoreKind(0));
    }

    #[test]
    fn threshold_controls_the_decision_boundary() {
        assert_eq!(drive_to_decision(0.5, 0.65, 0.2), CoreKind(0));
        assert_eq!(drive_to_decision(0.5, 0.65, 0.1), CoreKind(1));
    }

    #[test]
    fn decided_phase_types_switch_without_monitoring() {
        let machine = machine();
        let mut tuner = PhaseTuner::new(
            Arc::clone(&machine),
            TunerConfig {
                samples_per_kind: 1,
                min_section_instructions: 1,
                ..TunerConfig::default()
            },
        );
        // Decide phase 0 -> slow cores by driving samples through directly.
        let m = mark(0);
        tuner.on_phase_mark(&ctx(1, &m, CoreId(0), CoreKind(0), None));
        tuner.on_phase_mark(&ctx(
            1,
            &m,
            CoreId(0),
            CoreKind(0),
            Some(observation(0, CoreKind(0), 0.3)),
        ));
        tuner.on_phase_mark(&ctx(1, &m, CoreId(2), CoreKind(1), None));
        tuner.on_phase_mark(&ctx(
            1,
            &m,
            CoreId(2),
            CoreKind(1),
            Some(observation(0, CoreKind(1), 0.8)),
        ));
        assert_eq!(tuner.assignment(Pid(1), PhaseType(0)), Some(CoreKind(1)));

        // A later mark of the same type on a fast core: pure switch, no
        // monitoring.
        let response = tuner.on_phase_mark(&ctx(1, &m, CoreId(1), CoreKind(0), None));
        assert!(!response.monitoring);
        assert_eq!(
            response.new_affinity,
            Some(AffinityMask::kind(&machine, CoreKind(1)))
        );
        // And on a slow core: nothing at all to do.
        let response = tuner.on_phase_mark(&ctx(1, &m, CoreId(3), CoreKind(1), None));
        assert_eq!(response, MarkResponse::none());
        assert!(tuner.stats().assignments_decided >= 1);
    }

    #[test]
    fn counter_slot_exhaustion_counts_waits() {
        let machine = machine();
        let mut tuner = PhaseTuner::new(
            Arc::clone(&machine),
            TunerConfig {
                counter_slots: 1,
                samples_per_kind: 5,
                min_section_instructions: 1,
                ..TunerConfig::default()
            },
        );
        let m = mark(0);
        // Process 1 grabs the only slot.
        let r1 = tuner.on_phase_mark(&ctx(1, &m, CoreId(0), CoreKind(0), None));
        assert!(r1.monitoring);
        // Process 2 cannot monitor and is recorded as a wait.
        let r2 = tuner.on_phase_mark(&ctx(2, &m, CoreId(1), CoreKind(0), None));
        assert!(!r2.monitoring);
        assert_eq!(tuner.stats().monitor_waits, 1);
        // When process 1 exits, its slot is released and process 2 can
        // monitor.
        tuner.on_process_exit(Pid(1));
        let r3 = tuner.on_phase_mark(&ctx(2, &m, CoreId(1), CoreKind(0), None));
        assert!(r3.monitoring);
    }

    #[test]
    fn short_sections_are_discarded() {
        let machine = machine();
        let mut tuner = PhaseTuner::new(
            Arc::clone(&machine),
            TunerConfig {
                samples_per_kind: 1,
                min_section_instructions: 1_000_000,
                ..TunerConfig::default()
            },
        );
        let m = mark(0);
        tuner.on_phase_mark(&ctx(1, &m, CoreId(0), CoreKind(0), None));
        tuner.on_phase_mark(&ctx(
            1,
            &m,
            CoreId(0),
            CoreKind(0),
            Some(observation(0, CoreKind(0), 1.0)),
        ));
        assert_eq!(tuner.stats().sections_monitored, 0);
        assert_eq!(tuner.assignment(Pid(1), PhaseType(0)), None);
    }

    #[test]
    fn per_process_state_is_independent() {
        let machine = machine();
        let tuner = PhaseTuner::new(Arc::clone(&machine), TunerConfig::default());
        let handle = tuner.clone();
        assert_eq!(handle.assignment(Pid(1), PhaseType(0)), None);
        assert_eq!(handle.stats(), TunerStats::default());
    }
}
