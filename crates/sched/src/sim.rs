//! The discrete-event multicore simulation.
//!
//! The simulation plays the role of the paper's physical Core 2 Quad plus the
//! unmodified Linux 2.6.22 kernel: per-core run queues with fixed timeslices
//! and periodic pull-based load balancing (an O(1)-scheduler-style baseline
//! that knows nothing about asymmetry), on top of the `phase-amp` machine
//! model. Phase-based tuning does not replace this scheduler — exactly as in
//! the paper, it only *sets affinity masks* from the phase-mark hook, and the
//! scheduler honours them.
//!
//! Two interchangeable engines advance the clock (see [`EngineKind`]): the
//! reference round-based loop and the default event-driven loop, which skips
//! rounds and cores that provably cannot act. Both produce bit-identical
//! [`SimResult`]s; the golden-equivalence tests at the workspace root hold
//! them to that.

use std::sync::Arc;

use phase_amp::{AffinityMask, CoreId, MachineSpec};
use phase_marking::InstrumentedProgram;
use serde::{Deserialize, Serialize};

use crate::engine::{event, round, EngineCore};
use crate::hooks::{IntervalHook, PhaseHook};
use crate::process::{Pid, ProcessStats};

/// Which engine advances the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineKind {
    /// The reference loop: every core executes one quantum per fixed
    /// timeslice round, idle or not. Kept as the golden baseline.
    RoundBased,
    /// The event queue (`EventQueue`): time advances event-to-event
    /// (quantum expiry, job arrival, load-balance tick) and idle rounds
    /// cost nothing.
    #[default]
    EventDriven,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::RoundBased => write!(f, "round-based"),
            EngineKind::EventDriven => write!(f, "event-driven"),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Scheduling quantum in nanoseconds.
    pub timeslice_ns: f64,
    /// Interval between load-balancing passes in nanoseconds.
    pub load_balance_interval_ns: f64,
    /// Stop the simulation at this time even if work remains (`None` runs
    /// until every queued job completes).
    pub horizon_ns: Option<f64>,
    /// Width of the throughput-measurement windows in nanoseconds.
    pub throughput_window_ns: f64,
    /// Seed for per-process interpreters.
    pub seed: u64,
    /// Whether phase marks add instruction/cycle overhead when executed.
    pub charge_mark_overhead: bool,
    /// Which engine advances the clock.
    pub engine: EngineKind,
    /// Period of the hardware-counter sampling tick feeding
    /// [`crate::IntervalHook`], in nanoseconds (`None`, the default, disables
    /// interval sampling entirely). Both engines fire the tick at the same
    /// round-aligned times, so their bit-for-bit equivalence holds with
    /// sampling enabled.
    pub sample_interval_ns: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            timeslice_ns: 20_000.0,              // 20 µs quantum
            load_balance_interval_ns: 200_000.0, // 200 µs balancing period
            horizon_ns: None,
            throughput_window_ns: 1_000_000.0, // 1 ms windows
            seed: 0xC60_2011,
            charge_mark_overhead: true,
            engine: EngineKind::EventDriven,
            sample_interval_ns: None,
        }
    }
}

/// One job of a workload slot: a named instrumented benchmark.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Benchmark name (for reporting).
    pub name: String,
    /// The program (with or without phase marks) to run.
    pub instrumented: Arc<InstrumentedProgram>,
    /// Earliest time the job may start, in nanoseconds. The job arrives at
    /// this time or when its slot predecessor completes, whichever is later;
    /// zero (the default) reproduces the paper's back-to-back queues, later
    /// values model bursty arrivals.
    pub release_ns: f64,
    /// Absolute completion deadline in nanoseconds (`None` disables deadline
    /// accounting). Deadlines are advisory: the scheduler does not act on
    /// them, they only feed the deadline-miss accounting on the job's
    /// [`ProcessRecord`].
    pub deadline_ns: Option<f64>,
}

impl JobSpec {
    /// Creates a job released at time zero.
    pub fn new(name: impl Into<String>, instrumented: Arc<InstrumentedProgram>) -> Self {
        Self {
            name: name.into(),
            instrumented,
            release_ns: 0.0,
            deadline_ns: None,
        }
    }

    /// Sets the job's release time (for bursty-arrival workloads).
    pub fn released_at(mut self, release_ns: f64) -> Self {
        self.release_ns = release_ns;
        self
    }

    /// Sets the job's absolute completion deadline (for SLO accounting).
    pub fn with_deadline(mut self, deadline_ns: f64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }
}

/// Final accounting for one process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessRecord {
    /// The process id.
    pub pid: Pid,
    /// Benchmark name.
    pub name: String,
    /// Workload slot the process occupied.
    pub slot: usize,
    /// Arrival time in nanoseconds.
    pub arrival_ns: f64,
    /// Scheduled release time in nanoseconds (zero for back-to-back queues).
    /// Request latency is charged from here — an open-loop client counts
    /// queueing delay from the moment it *sent* the request, not from when a
    /// worker got around to starting it.
    pub release_ns: f64,
    /// Absolute completion deadline in nanoseconds, if the job carried one.
    pub deadline_ns: Option<f64>,
    /// Completion time in nanoseconds (`None` if still running at the end).
    pub completion_ns: Option<f64>,
    /// Accumulated execution statistics.
    pub stats: ProcessStats,
}

impl ProcessRecord {
    /// Flow time (`C_j - a_j`), the paper's per-process latency measure; only
    /// defined for completed processes.
    pub fn flow_ns(&self) -> Option<f64> {
        self.completion_ns.map(|c| c - self.arrival_ns)
    }

    /// Whether the process missed its deadline: it completed after
    /// `deadline_ns`, or carried a deadline and never completed at all.
    /// Always `false` for jobs without a deadline.
    pub fn missed_deadline(&self) -> bool {
        match (self.deadline_ns, self.completion_ns) {
            (Some(deadline), Some(completion)) => completion > deadline,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Label of the run (scheduler/technique name).
    pub label: String,
    /// Records for every process that was started.
    pub records: Vec<ProcessRecord>,
    /// Total instructions committed by all processes (marks included).
    pub total_instructions: u64,
    /// Simulation end time in nanoseconds.
    pub final_time_ns: f64,
    /// Instructions committed per throughput window.
    pub throughput_windows: Vec<u64>,
    /// Busy time per core in nanoseconds.
    pub core_busy_ns: Vec<f64>,
    /// Total phase marks executed across all processes.
    pub total_marks_executed: u64,
    /// Total core switches (affinity-driven migrations) across all processes.
    pub total_core_switches: u64,
}

impl SimResult {
    /// Records of processes that finished.
    pub fn completed(&self) -> impl Iterator<Item = &ProcessRecord> {
        self.records.iter().filter(|r| r.completion_ns.is_some())
    }

    /// Number of completed processes.
    pub fn completed_count(&self) -> usize {
        self.completed().count()
    }

    /// Instructions committed up to the given time (sum of whole windows).
    pub fn instructions_before(&self, time_ns: f64, window_ns: f64) -> u64 {
        let windows = windows_before(time_ns, window_ns);
        self.throughput_windows.iter().take(windows).sum()
    }
}

/// Number of whole throughput windows before `time_ns`.
///
/// `(time_ns / window_ns).floor()` is wrong once `time_ns` exceeds 2^53: the
/// f64 quotient rounds to the nearest representable value, which near a
/// window boundary can land on the *next* integer and misbin the sample
/// (e.g. `3·2^53 + 4` over a 3 ns window rounds up to `2^53 + 2` windows
/// where the true count is `2^53 + 1`). Timestamps and window widths are
/// integral nanosecond counts in practice, so the division is done exactly
/// over `u64`; fractional or out-of-range inputs keep the f64 fallback.
pub fn windows_before(time_ns: f64, window_ns: f64) -> usize {
    let integral = |v: f64| v.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&v);
    if window_ns > 0.0 && integral(time_ns) && integral(window_ns) {
        (time_ns as u64 / window_ns as u64) as usize
    } else {
        (time_ns / window_ns).floor() as usize
    }
}

/// The simulation engine façade: builds the machine/scheduler state and runs
/// it under the engine selected by [`SimConfig::engine`].
pub struct Simulation<H: PhaseHook + IntervalHook> {
    core: EngineCore<H>,
}

impl<H: PhaseHook + IntervalHook> Simulation<H> {
    /// Creates a simulation of the given machine running one job queue per
    /// slot, under the given phase-mark hook.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty, any slot has no jobs, or a period of
    /// `config` (timeslice, balance interval, throughput window, sample
    /// interval) is not a positive finite time.
    pub fn new(
        label: impl Into<String>,
        machine: MachineSpec,
        slots: Vec<Vec<JobSpec>>,
        hook: H,
        config: SimConfig,
    ) -> Self {
        Self {
            core: EngineCore::new(label, machine, slots, hook, config),
        }
    }

    /// Creates a statically partitioned simulation: slot `i` is pinned to
    /// core `i % core_count` for its whole lifetime — every job of the slot
    /// spawns with that single-core affinity, so neither the load balancer
    /// nor idle stealing ever moves it. This is the asymmetry-oblivious
    /// static-partitioning baseline the datacenter tail-latency sweep judges
    /// phase-aware policies against. Hooks still run and may widen a
    /// process's affinity if they choose to.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty, any slot has no jobs, or a period of
    /// `config` (timeslice, balance interval, throughput window, sample
    /// interval) is not a positive finite time.
    pub fn partitioned(
        label: impl Into<String>,
        machine: MachineSpec,
        slots: Vec<Vec<JobSpec>>,
        hook: H,
        config: SimConfig,
    ) -> Self {
        let core_count = machine.core_count();
        let affinities = (0..slots.len())
            .map(|slot| AffinityMask::single(CoreId((slot % core_count) as u32)))
            .collect();
        Self {
            core: EngineCore::with_slot_affinities(label, machine, slots, hook, config, affinities),
        }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineSpec {
        self.core.machine()
    }

    /// Runs the simulation to completion (or to the configured horizon) and
    /// returns the result.
    pub fn run(self) -> SimResult {
        match self.core.config.engine {
            EngineKind::RoundBased => round::run(self.core),
            EngineKind::EventDriven => event::run(self.core),
        }
    }
}

/// Runs a single benchmark alone on the machine (no co-runners), returning
/// its record. This is the paper's "runtime in isolation" measurement used by
/// Table 1 and by the stretch metric's per-process processing time `t_i`.
/// It is a thin wrapper over [`Simulation`] — isolation runs share the exact
/// engine path of full workloads.
pub fn run_in_isolation<H: PhaseHook + IntervalHook>(
    name: &str,
    instrumented: Arc<InstrumentedProgram>,
    machine: MachineSpec,
    hook: H,
    config: SimConfig,
) -> ProcessRecord {
    let sim = Simulation::new(
        format!("isolation-{name}"),
        machine,
        vec![vec![JobSpec::new(name, instrumented)]],
        hook,
        config,
    );
    let result = sim.run();
    result
        .records
        .into_iter()
        .next()
        .expect("isolation run starts exactly one process")
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use super::*;
    use crate::hooks::{MarkContext, NullHook};
    use phase_amp::AffinityMask;
    use phase_analysis::{BlockTyping, PhaseType};
    use phase_ir::{Instruction, Location as IrLocation, ProgramBuilder, Terminator};
    use phase_marking::{instrument, MarkingConfig};

    /// A small two-phase benchmark with marks between the phases.
    fn small_benchmark(loop_trips: u32) -> Arc<InstrumentedProgram> {
        let mut builder = ProgramBuilder::new("small");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let cpu = body.add_block();
        let mem = body.add_block();
        let latch = body.add_block();
        let exit = body.add_block();
        body.push_all(cpu, std::iter::repeat_n(Instruction::fp_mul(), 20));
        body.push_all(
            mem,
            std::iter::repeat_n(
                Instruction::load(phase_ir::MemRef::new(
                    phase_ir::AccessPattern::Random,
                    64 * 1024 * 1024,
                )),
                20,
            ),
        );
        body.push_all(latch, std::iter::repeat_n(Instruction::int_alu(), 20));
        body.terminate(cpu, Terminator::Jump(mem));
        body.terminate(mem, Terminator::Jump(latch));
        body.loop_branch(latch, cpu, exit, loop_trips);
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        let program = builder.build().unwrap();

        let mut typing = BlockTyping::new(2);
        typing.assign(IrLocation::new(main, cpu), PhaseType(0));
        typing.assign(IrLocation::new(main, mem), PhaseType(1));
        typing.assign(IrLocation::new(main, latch), PhaseType(0));
        typing.assign(IrLocation::new(main, exit), PhaseType(0));
        Arc::new(instrument(
            &program,
            &typing,
            &MarkingConfig::basic_block(10, 0),
        ))
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            timeslice_ns: 50_000.0,
            load_balance_interval_ns: 200_000.0,
            horizon_ns: None,
            throughput_window_ns: 1_000_000.0,
            seed: 1,
            charge_mark_overhead: true,
            engine: EngineKind::EventDriven,
            sample_interval_ns: None,
        }
    }

    #[test]
    fn single_process_runs_to_completion() {
        let bench = small_benchmark(50);
        let record = run_in_isolation(
            "small",
            bench,
            MachineSpec::core2_quad_amp(),
            NullHook,
            quick_config(),
        );
        assert!(record.completion_ns.is_some());
        assert!(record.stats.instructions > 0);
        assert!(record.stats.marks_executed > 0);
        assert_eq!(record.stats.core_switches, 0, "null hook never switches");
        assert!(record.flow_ns().unwrap() > 0.0);
    }

    #[test]
    fn multi_slot_workload_completes_all_jobs() {
        let bench = small_benchmark(20);
        let slots = vec![
            vec![
                JobSpec::new("a", Arc::clone(&bench)),
                JobSpec::new("b", Arc::clone(&bench)),
            ],
            vec![JobSpec::new("c", Arc::clone(&bench))],
            vec![JobSpec::new("d", Arc::clone(&bench))],
        ];
        let sim = Simulation::new(
            "test",
            MachineSpec::core2_quad_amp(),
            slots,
            NullHook,
            quick_config(),
        );
        let result = sim.run();
        assert_eq!(result.records.len(), 4);
        assert_eq!(result.completed_count(), 4);
        assert!(result.total_instructions > 0);
        assert_eq!(result.core_busy_ns.len(), 4);
        // Queued job b starts only after a finishes.
        let a = result.records.iter().find(|r| r.name == "a").unwrap();
        let b = result.records.iter().find(|r| r.name == "b").unwrap();
        assert!(b.arrival_ns >= a.completion_ns.unwrap());
    }

    #[test]
    fn horizon_stops_the_simulation_early() {
        let bench = small_benchmark(100_000);
        let config = SimConfig {
            horizon_ns: Some(2_000_000.0),
            ..quick_config()
        };
        let sim = Simulation::new(
            "horizon",
            MachineSpec::core2_quad_amp(),
            vec![vec![JobSpec::new("huge", bench)]],
            NullHook,
            config,
        );
        let result = sim.run();
        assert!(result.final_time_ns >= 2_000_000.0);
        assert!(result.final_time_ns < 4_000_000.0);
        assert_eq!(result.completed_count(), 0);
        assert!(result.total_instructions > 0);
        assert!(!result.throughput_windows.is_empty());
    }

    #[test]
    fn affinity_switching_hook_causes_migrations() {
        /// A hook that pins every process to the slow cores on its first mark.
        struct PinToSlow;
        impl crate::hooks::IntervalHook for PinToSlow {}
        impl PhaseHook for PinToSlow {
            fn on_phase_mark(&mut self, ctx: &MarkContext<'_>) -> crate::hooks::MarkResponse {
                let spec = MachineSpec::core2_quad_amp();
                let slow = AffinityMask::kind(&spec, spec.slowest_kind());
                if slow.allows(ctx.core) {
                    crate::hooks::MarkResponse::none()
                } else {
                    crate::hooks::MarkResponse::switch_to(slow)
                }
            }
        }
        let bench = small_benchmark(50);
        let record = run_in_isolation(
            "pinned",
            bench,
            MachineSpec::core2_quad_amp(),
            PinToSlow,
            quick_config(),
        );
        assert!(record.stats.core_switches >= 1);
        // After pinning, time accumulates on the slow kind (kind index 1).
        assert!(record.stats.time_on_kind_ns[1] > 0.0);
    }

    #[test]
    fn mark_overhead_can_be_disabled() {
        let bench = small_benchmark(50);
        let with = run_in_isolation(
            "with",
            Arc::clone(&bench),
            MachineSpec::core2_quad_amp(),
            NullHook,
            quick_config(),
        );
        let without = run_in_isolation(
            "without",
            bench,
            MachineSpec::core2_quad_amp(),
            NullHook,
            SimConfig {
                charge_mark_overhead: false,
                ..quick_config()
            },
        );
        assert!(with.stats.instructions > without.stats.instructions);
        assert_eq!(with.stats.marks_executed, without.stats.marks_executed);
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let bench = small_benchmark(30);
        let run = |engine: EngineKind| {
            let slots = vec![
                vec![JobSpec::new("a", Arc::clone(&bench))],
                vec![JobSpec::new("b", Arc::clone(&bench))],
            ];
            Simulation::new(
                "det",
                MachineSpec::core2_quad_amp(),
                slots,
                NullHook,
                SimConfig {
                    engine,
                    ..quick_config()
                },
            )
            .run()
        };
        for engine in [EngineKind::EventDriven, EngineKind::RoundBased] {
            let r1 = run(engine);
            let r2 = run(engine);
            assert_eq!(r1.total_instructions, r2.total_instructions);
            assert_eq!(r1.final_time_ns, r2.final_time_ns);
            assert_eq!(r1.records, r2.records);
        }
    }

    #[test]
    fn engines_agree_on_a_multi_slot_workload() {
        let bench = small_benchmark(25);
        let run = |engine: EngineKind| {
            let slots = vec![
                vec![
                    JobSpec::new("a", Arc::clone(&bench)),
                    JobSpec::new("b", Arc::clone(&bench)),
                ],
                vec![JobSpec::new("c", Arc::clone(&bench))],
                vec![JobSpec::new("d", Arc::clone(&bench)).released_at(1_234_567.0)],
            ];
            Simulation::new(
                "golden",
                MachineSpec::core2_quad_amp(),
                slots,
                NullHook,
                SimConfig {
                    engine,
                    ..quick_config()
                },
            )
            .run()
        };
        let round = run(EngineKind::RoundBased);
        let event = run(EngineKind::EventDriven);
        assert_eq!(round.records, event.records);
        assert_eq!(round.total_instructions, event.total_instructions);
        assert_eq!(round.final_time_ns, event.final_time_ns);
        assert_eq!(round.throughput_windows, event.throughput_windows);
        assert_eq!(round.core_busy_ns, event.core_busy_ns);
    }

    #[test]
    fn released_jobs_never_start_before_their_release_time() {
        let bench = small_benchmark(10);
        let release = 2_000_000.0;
        let slots = vec![
            vec![JobSpec::new("early", Arc::clone(&bench))],
            vec![JobSpec::new("late", bench).released_at(release)],
        ];
        let sim = Simulation::new(
            "bursty",
            MachineSpec::core2_quad_amp(),
            slots,
            NullHook,
            quick_config(),
        );
        let result = sim.run();
        let late = result.records.iter().find(|r| r.name == "late").unwrap();
        assert_eq!(late.arrival_ns, release);
        assert!(late.completion_ns.unwrap() > release);
    }

    /// An interval hook that records every observation and pins every sampled
    /// process to the slow cores.
    struct SampleToSlow {
        observations: Vec<IntervalObservation>,
    }
    impl PhaseHook for SampleToSlow {
        fn on_phase_mark(&mut self, _ctx: &MarkContext<'_>) -> crate::hooks::MarkResponse {
            crate::hooks::MarkResponse::none()
        }
    }
    impl crate::hooks::IntervalHook for SampleToSlow {
        fn on_sample_interval(
            &mut self,
            observation: &IntervalObservation,
        ) -> Option<AffinityMask> {
            self.observations.push(*observation);
            let spec = MachineSpec::core2_quad_amp();
            Some(AffinityMask::kind(&spec, spec.slowest_kind()))
        }
    }

    use crate::hooks::IntervalObservation;

    #[test]
    fn interval_sampling_delivers_observations_and_applies_affinity() {
        let bench = small_benchmark(20_000);
        let config = SimConfig {
            sample_interval_ns: Some(100_000.0),
            ..quick_config()
        };
        let sim = Simulation::new(
            "sampled",
            MachineSpec::core2_quad_amp(),
            vec![
                vec![JobSpec::new("a", Arc::clone(&bench))],
                vec![JobSpec::new("b", bench)],
            ],
            SampleToSlow {
                observations: Vec::new(),
            },
            config,
        );
        let result = sim.run();
        assert_eq!(result.completed_count(), 2);
        // Pinned to the slow kind after the first tick, both processes must
        // have accumulated slow-kind time and performed interval-driven
        // switches where the pin excluded their queue's core.
        for record in &result.records {
            assert!(record.stats.time_on_kind_ns[1] > 0.0, "{}", record.name);
        }
        assert!(result.total_core_switches > 0);
    }

    #[test]
    fn interval_observations_carry_consistent_counters() {
        use std::sync::Mutex;
        /// Records every observation into a shared log without interfering.
        struct Collect(Arc<Mutex<Vec<IntervalObservation>>>);
        impl PhaseHook for Collect {
            fn on_phase_mark(&mut self, _ctx: &MarkContext<'_>) -> crate::hooks::MarkResponse {
                crate::hooks::MarkResponse::none()
            }
        }
        impl crate::hooks::IntervalHook for Collect {
            fn on_sample_interval(
                &mut self,
                observation: &IntervalObservation,
            ) -> Option<AffinityMask> {
                self.0.lock().unwrap().push(*observation);
                None
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let bench = small_benchmark(20_000);
        let record = run_in_isolation(
            "sampled",
            bench,
            MachineSpec::core2_quad_amp(),
            Collect(Arc::clone(&log)),
            SimConfig {
                sample_interval_ns: Some(100_000.0),
                ..quick_config()
            },
        );
        assert!(record.completion_ns.is_some());
        let observations = log.lock().unwrap();
        assert!(
            !observations.is_empty(),
            "sampling produced no observations (completion at {:?})",
            record.completion_ns
        );
        let mut total_instructions = 0;
        for (expected_seq, obs) in observations.iter().enumerate() {
            assert_eq!(obs.pid, Pid(0));
            assert_eq!(obs.seq, expected_seq as u64, "sample stream has gaps");
            assert!(obs.instructions > 0, "empty intervals are skipped");
            assert!(obs.cycles > 0.0);
            assert!(obs.mem_accesses <= obs.instructions);
            assert!((0.0..=1.0).contains(&obs.mem_ratio()));
            assert!(obs.ipc() > 0.0);
            total_instructions += obs.instructions;
        }
        // Interval counters never exceed the process's own accounting (the
        // tail after the last tick is not sampled).
        assert!(total_instructions <= record.stats.instructions);
        // The benchmark's memory phase must be visible in at least one
        // interval's memory ratio.
        assert!(observations.iter().any(|o| o.mem_accesses > 0));
    }

    #[test]
    fn engines_agree_with_interval_sampling_enabled() {
        let bench = small_benchmark(8_000);
        let run = |engine: EngineKind| {
            let slots = vec![
                vec![
                    JobSpec::new("a", Arc::clone(&bench)),
                    JobSpec::new("b", Arc::clone(&bench)),
                ],
                vec![JobSpec::new("c", Arc::clone(&bench))],
                vec![JobSpec::new("d", Arc::clone(&bench)).released_at(777_777.0)],
            ];
            Simulation::new(
                "sampled-golden",
                MachineSpec::core2_quad_amp(),
                slots,
                SampleToSlow {
                    observations: Vec::new(),
                },
                SimConfig {
                    engine,
                    sample_interval_ns: Some(150_000.0),
                    ..quick_config()
                },
            )
            .run()
        };
        let round = run(EngineKind::RoundBased);
        let event = run(EngineKind::EventDriven);
        assert_eq!(round.records, event.records);
        assert_eq!(round.total_instructions, event.total_instructions);
        assert_eq!(round.final_time_ns, event.final_time_ns);
        assert_eq!(round.throughput_windows, event.throughput_windows);
        assert_eq!(round.core_busy_ns, event.core_busy_ns);
        assert!(round.total_core_switches > 0, "sampling pin migrated work");
    }

    #[test]
    fn non_positive_periods_are_rejected() {
        let bench = small_benchmark(10);
        type SetPeriod = fn(&mut SimConfig, f64);
        let periods: [(&str, SetPeriod); 4] = [
            ("timeslice", |config, ns| config.timeslice_ns = ns),
            ("load-balance interval", |config, ns| {
                config.load_balance_interval_ns = ns
            }),
            ("throughput window", |config, ns| {
                config.throughput_window_ns = ns
            }),
            ("sample interval", |config, ns| {
                config.sample_interval_ns = Some(ns)
            }),
        ];
        for (name, set) in periods {
            for ns in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let mut config = SimConfig::default();
                set(&mut config, ns);
                // Construct only: a bad period can hang or panic a run.
                let built = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    Simulation::new(
                        "bad-period",
                        MachineSpec::core2_quad_amp(),
                        vec![vec![JobSpec::new("a", Arc::clone(&bench))]],
                        NullHook,
                        config,
                    )
                }));
                let Err(payload) = built else {
                    panic!("a {name} of {ns} was accepted");
                };
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.starts_with(&format!("{name} must be a positive time")),
                    "a {name} of {ns} panicked with {message:?}"
                );
            }
        }
    }

    #[test]
    fn window_binning_is_exact_past_2_pow_53() {
        // 3·2^53 + 4 ns sits exactly representable in f64 (ulp = 4 there);
        // its true quotient over a 3 ns window is 2^53 + 4/3, which the f64
        // division rounds UP to 2^53 + 2 (ulp = 2 past 2^53) — the old
        // `(t / w).floor()` path misbinned the timestamp into the next
        // window.
        let time_ns: f64 = 27_021_597_764_222_980.0; // 3 * 2^53 + 4
        let window_ns: f64 = 3.0;
        let broken = (time_ns / window_ns).floor() as usize;
        assert_eq!(
            broken, 9_007_199_254_740_994,
            "f64 rounds across the boundary"
        );
        assert_eq!(windows_before(time_ns, window_ns), 9_007_199_254_740_993);
        // Exactness holds on the boundary itself and just before it.
        assert_eq!(
            windows_before(27_021_597_764_222_976.0, 3.0),
            9_007_199_254_740_992
        );
        // Ordinary small values and fractional windows keep their behaviour.
        assert_eq!(windows_before(0.0, 1_000_000.0), 0);
        assert_eq!(windows_before(999_999.0, 1_000_000.0), 0);
        assert_eq!(windows_before(1_000_000.0, 1_000_000.0), 1);
        assert_eq!(windows_before(2_500_000.0, 1_000_000.0), 2);
        assert_eq!(windows_before(1_500.5, 1_000.0), 1);
        assert_eq!(windows_before(750.0, 500.5), 1);
    }

    #[test]
    fn instructions_before_uses_exact_binning() {
        let result = SimResult {
            label: "windows".into(),
            records: Vec::new(),
            total_instructions: 60,
            final_time_ns: 3_000_000.0,
            throughput_windows: vec![10, 20, 30],
            core_busy_ns: Vec::new(),
            total_marks_executed: 0,
            total_core_switches: 0,
        };
        assert_eq!(result.instructions_before(1_000_000.0, 1_000_000.0), 10);
        assert_eq!(result.instructions_before(2_999_999.0, 1_000_000.0), 30);
        // A huge timestamp takes every window without overflowing the bin
        // index.
        assert_eq!(
            result.instructions_before(27_021_597_764_222_980.0, 3.0),
            60
        );
    }

    #[test]
    fn partitioned_simulation_pins_each_slot_to_one_core() {
        let bench = small_benchmark(30);
        let slots = vec![
            vec![JobSpec::new("a", Arc::clone(&bench))],
            vec![JobSpec::new("b", Arc::clone(&bench))],
            vec![JobSpec::new("c", Arc::clone(&bench))],
            vec![JobSpec::new("d", Arc::clone(&bench))],
            vec![JobSpec::new("e", bench)],
        ];
        let sim = Simulation::partitioned(
            "partition",
            MachineSpec::core2_quad_amp(),
            slots,
            NullHook,
            quick_config(),
        );
        let result = sim.run();
        assert_eq!(result.completed_count(), 5);
        // No migrations of any kind: every process lives and dies on its
        // slot's core (slot 4 wraps back onto core 0).
        assert_eq!(result.total_core_switches, 0);
        for record in &result.records {
            assert_eq!(record.stats.balancer_migrations, 0, "{}", record.name);
            let kind = MachineSpec::core2_quad_amp()
                .kind_of(phase_amp::CoreId((record.slot % 4) as u32))
                .index();
            assert!(
                record.stats.time_on_kind_ns[kind] > 0.0,
                "{} ran off its partition",
                record.name
            );
            assert_eq!(
                record.stats.time_on_kind_ns[1 - kind],
                0.0,
                "{} leaked onto the other kind",
                record.name
            );
        }
    }

    #[test]
    fn deadlines_flow_into_records_and_miss_accounting() {
        let bench = small_benchmark(30);
        let slots = vec![
            // An impossible deadline (1 ns) and a generous one.
            vec![JobSpec::new("tight", Arc::clone(&bench)).with_deadline(1.0)],
            vec![JobSpec::new("slack", Arc::clone(&bench)).with_deadline(1e12)],
            vec![JobSpec::new("none", bench)],
        ];
        let sim = Simulation::new(
            "deadlines",
            MachineSpec::core2_quad_amp(),
            slots,
            NullHook,
            quick_config(),
        );
        let result = sim.run();
        let by_name = |name: &str| result.records.iter().find(|r| r.name == name).unwrap();
        assert_eq!(by_name("tight").deadline_ns, Some(1.0));
        assert!(by_name("tight").missed_deadline());
        assert!(!by_name("slack").missed_deadline());
        assert_eq!(by_name("none").deadline_ns, None);
        assert!(!by_name("none").missed_deadline());
        assert!(result.records.iter().all(|r| r.release_ns == 0.0));
    }

    #[test]
    fn release_times_are_recorded_for_latency_charging() {
        let bench = small_benchmark(10);
        let release = 2_000_000.0;
        let slots = vec![vec![
            JobSpec::new("first", Arc::clone(&bench)),
            JobSpec::new("second", bench).released_at(release),
        ]];
        let result = Simulation::new(
            "released",
            MachineSpec::core2_quad_amp(),
            slots,
            NullHook,
            quick_config(),
        )
        .run();
        let second = result.records.iter().find(|r| r.name == "second").unwrap();
        assert_eq!(second.release_ns, release);
        // Queueing delay counts from the scheduled release even when the
        // slot predecessor finished later than the release.
        assert!(second.arrival_ns >= second.release_ns);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_slot_list_is_rejected() {
        let _ = Simulation::new(
            "bad",
            MachineSpec::core2_quad_amp(),
            vec![],
            NullHook,
            SimConfig::default(),
        );
    }
}
