//! # phase-sched
//!
//! The operating-system substrate of the phase-based-tuning reproduction
//! (Sondag & Rajan, CGO 2011): a discrete-event simulation of an unmodified,
//! asymmetry-oblivious multicore scheduler in the style of Linux's O(1)
//! scheduler — per-core run queues, fixed timeslices, periodic pull-based
//! load balancing, and affinity masks honoured on every decision.
//!
//! Phase-based tuning never replaces this scheduler. Exactly as in the paper,
//! the instrumented binaries' phase marks call into a [`PhaseHook`] that may
//! set a process's affinity mask ("core switches are done using the standard
//! process affinity API"); the baseline simply runs without marks.
//!
//! Contents:
//!
//! * [`Interpreter`] — deterministic block-by-block CFG execution;
//! * [`ProcessStats`] / [`ProcessState`] — per-process accounting and
//!   run-state (the processes themselves live in a struct-of-arrays table
//!   owned by the engine);
//! * [`PhaseHook`] / [`MarkContext`] / [`MarkResponse`] / [`MarkFilter`] —
//!   the phase-mark runtime interface implemented by `phase-runtime`;
//! * [`Simulation`] — the machine + scheduler simulation producing
//!   [`SimResult`]s with per-process records and throughput windows, run by
//!   either the reference round-based engine or the default event-driven
//!   engine ([`EngineKind`], [`EventQueue`]);
//! * [`run_in_isolation`] — single-benchmark runs for Table 1 and the
//!   stretch metric's isolated processing times, a thin wrapper over the
//!   same engine path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod engine;
mod hooks;
mod interp;
mod process;
mod sim;

pub use engine::{Event, EventKind, EventQueue};
pub use hooks::{
    AllCoresHook, IntervalHook, IntervalObservation, MarkContext, MarkFilter, MarkResponse,
    NullHook, PhaseHook, SectionObservation,
};
pub use interp::{Interpreter, Step};
pub use process::{IntervalCounters, Pid, ProcessState, ProcessStats};
pub use sim::{
    run_in_isolation, windows_before, EngineKind, JobSpec, ProcessRecord, SimConfig, SimResult,
    Simulation,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ProcessStats>();
        assert_send::<SimResult>();
        assert_send::<SimConfig>();
        assert_send::<Simulation<NullHook>>();
    }
}
