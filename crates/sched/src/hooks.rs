//! The interface between the scheduler simulation and the dynamic tuner.
//!
//! When a process crosses a phase-mark edge, the simulation calls into a
//! [`PhaseHook`] with everything the mark's inserted code would know at run
//! time: which mark fired, which core the process is on, and the performance
//! (instructions/cycles) of the section that just ended. The hook answers
//! with a [`MarkResponse`]: optionally a new affinity mask (a core switch)
//! and whether it armed monitoring for the upcoming section.
//!
//! The stock-Linux baseline simply runs uninstrumented binaries and never
//! invokes a hook; the phase-based tuner in `phase-runtime` implements
//! Algorithm 2 behind this trait.
//!
//! Once a phase type's core kind is decided, its marks "reduce to simply
//! making appropriate core switching decisions" (Section II), and most of them
//! change nothing at all. [`PhaseHook::settled`] lets a hook say so: for a
//! process and a phase type it may answer a [`MarkFilter`], the situations in
//! which a later mark of that type is a pure no-op. The event engine then
//! resolves such marks inside its block loop, with the same counters, trace
//! event and mark charge, and without calling the hook. The round engine
//! never asks and calls the hook at every mark, which keeps it the exact
//! reference the event engine is checked against.
//!
//! Independently of marks, the engines can deliver a periodic hardware-counter
//! sample stream: when [`crate::SimConfig::sample_interval_ns`] is set, every
//! elapsed interval produces one [`IntervalObservation`] per process that
//! executed during it, delivered to the [`IntervalHook`] half of the hook.
//! This is the substrate for *online* phase detection (`phase-online`), which
//! tunes programs the static pipeline could not mark; hooks that only care
//! about marks inherit the trait's do-nothing default.

use phase_amp::{AffinityMask, CoreId, CoreKind};
use phase_analysis::PhaseType;
use phase_marking::{InstrumentedProgram, PhaseMark};

use crate::process::Pid;

/// Performance observed for one just-completed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectionObservation {
    /// The phase type of the section (as recorded by the mark that opened it,
    /// or the program's entry type for the first section).
    pub phase_type: PhaseType,
    /// Instructions retired in the section.
    pub instructions: u64,
    /// Core cycles consumed by the section.
    pub cycles: f64,
    /// The kind of core the section ran on.
    pub core_kind: CoreKind,
}

impl SectionObservation {
    /// Instructions per cycle of the section.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }
}

/// Everything the phase-mark code knows when it executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkContext<'a> {
    /// The process executing the mark.
    pub pid: Pid,
    /// The mark that fired.
    pub mark: &'a PhaseMark,
    /// The core the process is currently running on.
    pub core: CoreId,
    /// That core's kind.
    pub core_kind: CoreKind,
    /// Performance of the section that just ended, when its phase type was
    /// known (the first mark of a process may have no preceding section).
    pub completed_section: Option<SectionObservation>,
    /// Current simulation time in nanoseconds.
    pub now_ns: f64,
}

/// What the phase-mark code decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MarkResponse {
    /// A new affinity mask to apply (a core switch request), if any.
    pub new_affinity: Option<AffinityMask>,
    /// Whether the mark armed performance monitoring for the upcoming
    /// section; monitoring marks execute more instructions.
    pub monitoring: bool,
}

impl MarkResponse {
    /// Do nothing: keep the current affinity, no monitoring.
    pub fn none() -> Self {
        Self::default()
    }

    /// Request a core switch to the given mask.
    pub fn switch_to(mask: AffinityMask) -> Self {
        Self {
            new_affinity: Some(mask),
            monitoring: false,
        }
    }

    /// Arm monitoring for the upcoming section without switching.
    pub fn monitor() -> Self {
        Self {
            new_affinity: None,
            monitoring: true,
        }
    }
}

/// When a later mark of one phase type is a pure no-op for one process: the
/// hook's answer would arm no monitoring and apply no affinity change, and the
/// call would change no hook state and no statistic.
///
/// A mark is a no-op when the process runs on a core in `cores` (any core when
/// `None`) and, when `affinity` is set, holds exactly that affinity. The
/// default filter, both fields `None`, makes every such mark a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkFilter {
    /// The cores on which the mark changes nothing; any core when `None`.
    pub cores: Option<AffinityMask>,
    /// The affinity the process must hold for the mark to change nothing;
    /// any affinity when `None`.
    pub affinity: Option<AffinityMask>,
}

impl MarkFilter {
    /// Whether a mark by a process holding `affinity`, running on `core`, is
    /// a no-op under this filter.
    #[inline]
    pub fn passes(&self, core: CoreId, affinity: AffinityMask) -> bool {
        self.cores.is_none_or(|cores| cores.allows(core))
            && self.affinity.is_none_or(|held| held == affinity)
    }
}

/// What the hardware counters recorded for one process over one elapsed
/// sampling interval ([`crate::SimConfig::sample_interval_ns`]).
///
/// Unlike a [`SectionObservation`], which exists only where a static phase
/// mark fired, interval observations are produced for *any* running process —
/// marked or not — which is what makes online phase detection possible on
/// binaries the static pipeline could not mark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalObservation {
    /// The process the interval belongs to.
    pub pid: Pid,
    /// Zero-based index of this observation in the process's sample stream
    /// (intervals in which the process executed nothing are skipped).
    pub seq: u64,
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// Core cycles consumed during the interval.
    pub cycles: f64,
    /// Memory accesses (loads + stores) issued during the interval.
    pub mem_accesses: u64,
    /// The core kind the interval predominantly ran on (most cycles; ties go
    /// to the lower kind index).
    pub core_kind: CoreKind,
    /// Simulation time at the end of the interval, in nanoseconds.
    pub now_ns: f64,
}

impl IntervalObservation {
    /// Instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Fraction of the interval's instructions that accessed memory.
    pub fn mem_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / self.instructions as f64
        }
    }
}

/// The interval-sample side of a simulation hook: called once per process per
/// elapsed sampling interval (in pid order), it may answer with a new affinity
/// mask to apply — the online tuner's retuning channel.
///
/// The default implementation ignores the stream, so mark-only hooks opt in
/// by doing nothing.
pub trait IntervalHook: Send {
    /// Called with one process's observation for the interval that just
    /// elapsed. Returning `Some(mask)` replaces the process's affinity; if
    /// the process waits on a core the mask excludes it is migrated (and the
    /// core-switch cost charged) before its next dispatch.
    fn on_sample_interval(&mut self, _observation: &IntervalObservation) -> Option<AffinityMask> {
        None
    }
}

/// The dynamic-analysis side of a phase mark.
///
/// Implementations must be `Send` so simulations can be moved across threads
/// by the benchmark harness.
pub trait PhaseHook: Send {
    /// Called once when a process starts executing an instrumented program.
    fn on_process_start(&mut self, _pid: Pid, _program: &InstrumentedProgram) {}

    /// Called whenever a process crosses a marked edge.
    fn on_phase_mark(&mut self, ctx: &MarkContext<'_>) -> MarkResponse;

    /// Whether later marks of `phase_type` by `pid` are settled: `Some`
    /// names when such a mark is a pure no-op ([`MarkFilter`]), and the event
    /// engine then resolves it without calling
    /// [`on_phase_mark`](Self::on_phase_mark).
    ///
    /// The contract, which the round engine (calling the hook at every mark)
    /// checks through the engines' exact equivalence:
    ///
    /// * answer `Some` only while the process's hook state is quiet, so that
    ///   no mark of a settled type can change it;
    /// * every filter answered since the last `None` for a process stays
    ///   valid for as long as the answers for it are `Some`.
    ///
    /// The event engine asks after each mark it hands the hook, and forgets
    /// a process's filters whenever the answer is `None` and whenever it
    /// calls [`IntervalHook::on_sample_interval`] for the process. The
    /// default, `None`, hands the hook every mark.
    fn settled(&self, _pid: Pid, _phase_type: PhaseType) -> Option<MarkFilter> {
        None
    }

    /// Called when a process exits (its per-process state can be dropped).
    fn on_process_exit(&mut self, _pid: Pid) {}
}

/// A hook that never switches cores and never monitors: instrumented binaries
/// behave like uninstrumented ones except for the marks' execution cost.
/// Used by the paper's time-overhead experiment baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl PhaseHook for NullHook {
    fn on_phase_mark(&mut self, _ctx: &MarkContext<'_>) -> MarkResponse {
        MarkResponse::none()
    }

    /// Every mark of every type is a no-op.
    fn settled(&self, _pid: Pid, _phase_type: PhaseType) -> Option<MarkFilter> {
        Some(MarkFilter::default())
    }
}

impl IntervalHook for NullHook {}

/// A hook reproducing the paper's time-overhead measurement: "instead of
/// switching to a specific core, we switch to 'all cores'", i.e. every mark
/// performs the affinity system call with a mask containing every core, so
/// the full mark + switch-API cost is paid without constraining placement.
#[derive(Debug, Clone, Copy)]
pub struct AllCoresHook {
    mask: AffinityMask,
}

impl AllCoresHook {
    /// Creates the hook for a machine with the given all-cores mask.
    pub fn new(mask: AffinityMask) -> Self {
        Self { mask }
    }
}

impl PhaseHook for AllCoresHook {
    fn on_phase_mark(&mut self, _ctx: &MarkContext<'_>) -> MarkResponse {
        MarkResponse::switch_to(self.mask)
    }

    /// A mark changes nothing once the process holds the hook's mask.
    fn settled(&self, _pid: Pid, _phase_type: PhaseType) -> Option<MarkFilter> {
        Some(MarkFilter {
            cores: None,
            affinity: Some(self.mask),
        })
    }
}

impl IntervalHook for AllCoresHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_ipc() {
        let obs = SectionObservation {
            phase_type: PhaseType(0),
            instructions: 100,
            cycles: 80.0,
            core_kind: CoreKind(0),
        };
        assert!((obs.ipc() - 1.25).abs() < 1e-12);
        let empty = SectionObservation { cycles: 0.0, ..obs };
        assert_eq!(empty.ipc(), 0.0);
    }

    #[test]
    fn interval_observation_ratios() {
        let obs = IntervalObservation {
            pid: Pid(3),
            seq: 0,
            instructions: 200,
            cycles: 400.0,
            mem_accesses: 50,
            core_kind: CoreKind(1),
            now_ns: 1_000.0,
        };
        assert!((obs.ipc() - 0.5).abs() < 1e-12);
        assert!((obs.mem_ratio() - 0.25).abs() < 1e-12);
        let empty = IntervalObservation {
            instructions: 0,
            cycles: 0.0,
            mem_accesses: 0,
            ..obs
        };
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.mem_ratio(), 0.0);
    }

    #[test]
    fn default_interval_hook_is_inert() {
        let obs = IntervalObservation {
            pid: Pid(0),
            seq: 0,
            instructions: 10,
            cycles: 10.0,
            mem_accesses: 1,
            core_kind: CoreKind(0),
            now_ns: 0.0,
        };
        assert_eq!(NullHook.on_sample_interval(&obs), None);
        let mask = AffinityMask::from_cores([CoreId(0)]);
        assert_eq!(AllCoresHook::new(mask).on_sample_interval(&obs), None);
    }

    #[test]
    fn response_constructors() {
        assert_eq!(MarkResponse::none(), MarkResponse::default());
        let mask = AffinityMask::from_cores([CoreId(1)]);
        let switch = MarkResponse::switch_to(mask);
        assert_eq!(switch.new_affinity, Some(mask));
        assert!(!switch.monitoring);
        assert!(MarkResponse::monitor().monitoring);
    }

    #[test]
    fn null_hook_never_acts() {
        let mut hook = NullHook;
        let mark = PhaseMark {
            id: phase_marking::MarkId(0),
            from: phase_ir::Location::new(phase_ir::ProcId(0), phase_ir::BlockId(0)),
            to: phase_ir::Location::new(phase_ir::ProcId(0), phase_ir::BlockId(1)),
            phase_type: PhaseType(0),
            previous_type: None,
            size_bytes: 78,
        };
        let ctx = MarkContext {
            pid: Pid(1),
            mark: &mark,
            core: CoreId(0),
            core_kind: CoreKind(0),
            completed_section: None,
            now_ns: 0.0,
        };
        assert_eq!(hook.on_phase_mark(&ctx), MarkResponse::none());
    }

    #[test]
    fn all_cores_hook_requests_full_mask_every_time() {
        let mask = AffinityMask::from_cores([CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        let mut hook = AllCoresHook::new(mask);
        let mark = PhaseMark {
            id: phase_marking::MarkId(1),
            from: phase_ir::Location::new(phase_ir::ProcId(0), phase_ir::BlockId(0)),
            to: phase_ir::Location::new(phase_ir::ProcId(0), phase_ir::BlockId(1)),
            phase_type: PhaseType(1),
            previous_type: Some(PhaseType(0)),
            size_bytes: 78,
        };
        let ctx = MarkContext {
            pid: Pid(7),
            mark: &mark,
            core: CoreId(2),
            core_kind: CoreKind(1),
            completed_section: None,
            now_ns: 5.0,
        };
        let response = hook.on_phase_mark(&ctx);
        assert_eq!(response.new_affinity, Some(mask));
    }
}
