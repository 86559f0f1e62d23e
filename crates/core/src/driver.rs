//! The parallel experiment driver.
//!
//! The paper's evaluation is a sweep over many *cells* — combinations of a
//! workload, a machine, and a scheduling policy. [`ExperimentPlan`] describes
//! such a sweep (including the full cross-product via
//! [`ExperimentPlan::cross`]); [`Driver`] fans the cells out across
//! `std::thread::scope` workers. Each cell is an independent simulation with
//! a deterministic seed derived from its position in the plan, so the outcome
//! is bit-identical whatever the worker count — `--threads=1` and
//! `--threads=8` produce the same [`PlanOutcome`] (see
//! `tests/driver_determinism.rs` at the workspace root).
//!
//! Through the artifact store ([`Driver::run_cached`]) a plan whose every
//! cell is already stored is only lookups, so it is answered on the calling
//! thread without spawning workers, as a one-worker driver or a one-cell plan
//! always is. Results are shared, not copied: a hit hands out the stored
//! `Arc<SimResult>`.
//!
//! The integer counters ([`PlanAggregate`]) and the floating-point summaries
//! ([`PlanOutcome::flow_summary`], through `phase-metrics`) are computed over
//! the results in plan order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use phase_amp::{AffinityMask, MachineSpec};
use phase_marking::InstrumentedProgram;
use phase_metrics::SummaryStats;
use phase_online::{OnlineConfig, OnlineStats, OnlineTuner};
use phase_runtime::{PhaseTuner, TunerConfig, TunerStats};
use phase_sched::{AllCoresHook, JobSpec, NullHook, SimConfig, SimResult, Simulation};

use crate::artifacts::{ArtifactStore, CachedCell, ContentHash};

/// The scheduling policy a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The stock, asymmetry-oblivious scheduler (no hook).
    Stock,
    /// Marks execute and pay the affinity-call cost but never constrain
    /// placement (the paper's Figure 4 overhead measurement).
    AllCores,
    /// The phase-based tuner with the given configuration.
    Tuned(TunerConfig),
    /// The online tuner (`phase-online`): no static marks — phases are
    /// detected from the periodic hardware-counter sample stream, so online
    /// cells run the *uninstrumented* binaries, exactly like `Stock`.
    Online(OnlineConfig),
    /// Static partitioning: slot `i` is pinned to core `i % core_count` for
    /// its whole lifetime ([`Simulation::partitioned`]), with uninstrumented
    /// binaries and no hook. The classic asymmetry-oblivious datacenter
    /// baseline the tail-latency sweep judges phase-aware policies against.
    Partition,
}

impl Policy {
    /// Short name used in labels.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Stock => "stock",
            Policy::AllCores => "all-cores",
            Policy::Tuned(_) => "tuned",
            Policy::Online(_) => "online",
            Policy::Partition => "partition",
        }
    }

    /// Whether cells under this policy run the phase-marked binaries.
    /// `Stock`, `Online`, and `Partition` run the uninstrumented twins: the
    /// first by definition, online detection needs no marks, and a static
    /// partition ignores marks entirely.
    pub fn runs_instrumented(&self) -> bool {
        match self {
            Policy::Stock | Policy::Online(_) | Policy::Partition => false,
            Policy::AllCores | Policy::Tuned(_) => true,
        }
    }
}

/// One experiment cell: a workload on a machine under a policy.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Grouping key for result lookup (e.g. the technique-variant name);
    /// cells of one baseline-versus-tuned comparison share a group.
    pub group: String,
    /// Human-readable label, also used as the simulation label.
    pub label: String,
    /// The machine to simulate.
    pub machine: MachineSpec,
    /// The slot job queues to run, shared with every other cell of the
    /// same queues.
    pub slots: Arc<[Vec<JobSpec>]>,
    /// The scheduling policy.
    pub policy: Policy,
    /// Simulation parameters (timeslice, horizon, seed, engine).
    pub sim: SimConfig,
}

impl CellSpec {
    /// A single-benchmark isolation cell (the paper's Table 1 / Figure 5
    /// measurements): one slot, one job, run to completion.
    pub fn isolation(
        name: impl Into<String>,
        instrumented: Arc<InstrumentedProgram>,
        machine: MachineSpec,
        policy: Policy,
        sim: SimConfig,
    ) -> Self {
        let name = name.into();
        Self {
            group: name.clone(),
            label: format!("isolation-{name}"),
            machine,
            slots: Arc::new([vec![JobSpec::new(name, instrumented)]]),
            policy,
            sim: SimConfig {
                horizon_ns: None,
                ..sim
            },
        }
    }
}

/// A named workload with both binary variants, ready to be crossed with
/// machines and policies (stock cells run the baseline binaries, every other
/// policy runs the instrumented ones).
#[derive(Debug, Clone)]
pub struct PlannedWorkload {
    /// Workload name, used in cell groups and labels.
    pub name: String,
    /// Slot queues with uninstrumented binaries.
    pub baseline_slots: Arc<[Vec<JobSpec>]>,
    /// Slot queues with phase-marked binaries.
    pub tuned_slots: Arc<[Vec<JobSpec>]>,
}

/// An ordered list of experiment cells.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPlan {
    cells: Vec<CellSpec>,
}

impl ExperimentPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a cell, returning its index.
    pub fn push(&mut self, cell: CellSpec) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Appends every cell of another plan.
    pub fn extend(&mut self, other: ExperimentPlan) {
        self.cells.extend(other.cells);
    }

    /// The full cross-product of workloads × machines × policies.
    ///
    /// Each cell's RNG seed is derived deterministically from `base_seed`
    /// and the *workload's* position, so (a) re-running the plan — with any
    /// worker count — reproduces it bit-for-bit, and (b) every policy sees
    /// the same per-process seeds on a given workload, keeping comparisons
    /// within a group fair (the paper's identical-queues rule).
    pub fn cross(
        workloads: &[PlannedWorkload],
        machines: &[MachineSpec],
        policies: &[Policy],
        sim: SimConfig,
        base_seed: u64,
    ) -> Self {
        let mut plan = Self::new();
        for (windex, workload) in workloads.iter().enumerate() {
            let seed = cell_seed(base_seed, windex as u64);
            for machine in machines {
                for policy in policies {
                    let slots = if policy.runs_instrumented() {
                        &workload.tuned_slots
                    } else {
                        &workload.baseline_slots
                    };
                    plan.push(CellSpec {
                        group: format!("{}/{}", workload.name, machine.name),
                        label: format!("{}/{}/{}", workload.name, machine.name, policy.name()),
                        machine: machine.clone(),
                        slots: Arc::clone(slots),
                        policy: *policy,
                        sim: SimConfig { seed, ..sim },
                    });
                }
            }
        }
        plan
    }

    /// The cells, in plan order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Deterministic per-cell seed derivation (SplitMix64 over the cell index).
pub fn cell_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of one executed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index of the cell in the plan.
    pub index: usize,
    /// The cell's group key.
    pub group: String,
    /// The cell's label.
    pub label: String,
    /// The policy the cell ran under.
    pub policy: Policy,
    /// The simulation result, labelled with this cell's label; a store hit
    /// shares the stored result when the labels already match.
    pub result: Arc<SimResult>,
    /// What the tuner did, for `Policy::Tuned` cells.
    pub tuner_stats: Option<TunerStats>,
    /// What the online tuner did, for `Policy::Online` cells.
    pub online_stats: Option<OnlineStats>,
}

/// Plan-wide counters; every field is an integer sum over the cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanAggregate {
    /// Cells executed.
    pub cells_completed: usize,
    /// Instructions committed across all cells.
    pub total_instructions: u64,
    /// Processes that ran to completion across all cells.
    pub completed_processes: u64,
    /// Phase marks executed across all cells.
    pub total_marks_executed: u64,
    /// Core switches performed across all cells.
    pub total_core_switches: u64,
}

impl PlanAggregate {
    fn absorb(&mut self, result: &SimResult) {
        self.cells_completed += 1;
        self.total_instructions += result.total_instructions;
        self.completed_processes += result.completed_count() as u64;
        self.total_marks_executed += result.total_marks_executed;
        self.total_core_switches += result.total_core_switches;
    }
}

/// Everything a plan run produced: per-cell results in plan order plus the
/// aggregate.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Per-cell results, index-aligned with the plan.
    pub cells: Vec<CellResult>,
    /// The plan-wide counters.
    pub aggregate: PlanAggregate,
}

impl PlanOutcome {
    /// The cells of a group, in plan order.
    pub fn group(&self, group: &str) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| c.group == group).collect()
    }

    /// The first cell of a group run under the given policy kind, if any.
    pub fn find(&self, group: &str, policy: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.group == group && c.policy.name() == policy)
    }

    /// Five-number summary (through `phase-metrics`) of the flow times of
    /// every completed process across all cells, computed in plan order so
    /// it is independent of worker scheduling.
    pub fn flow_summary(&self) -> SummaryStats {
        let flows: Vec<f64> = self
            .cells
            .iter()
            .flat_map(|cell| cell.result.completed())
            .filter_map(|record| record.flow_ns())
            .collect();
        SummaryStats::of(&flows)
    }
}

/// Fans a plan's cells across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    threads: usize,
}

impl Default for Driver {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

impl Driver {
    /// A driver with the given worker count (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of the plan and returns the results in plan order.
    ///
    /// Cells are claimed from a shared cursor, so long cells do not leave
    /// workers idle; each cell's simulation is fully independent (own
    /// processes, own hook, own seed), which is what makes the fan-out safe
    /// and deterministic.
    pub fn run(&self, plan: ExperimentPlan) -> PlanOutcome {
        self.run_inner(plan, None)
    }

    /// Like [`Driver::run`], but answering content-identical cells from the
    /// artifact store. Because every cell is a deterministic function of its
    /// spec, a cache hit is bit-identical to a recomputation — warm sweeps
    /// skip the simulation entirely, and repeated cells *within* one plan
    /// (e.g. the identical stock baselines of a threshold sweep) are run
    /// once and shared.
    ///
    /// Every cell's key is derived on the calling thread, inside the cell's
    /// trace context. When every key is resident (an uncounted peek), the
    /// plan is answered on the calling thread; otherwise it fans out as
    /// [`Driver::run`] does. Either way each cell makes one counted lookup.
    pub fn run_cached(&self, plan: ExperimentPlan, store: &ArtifactStore) -> PlanOutcome {
        self.run_inner(plan, Some(store))
    }

    fn run_inner(&self, plan: ExperimentPlan, store: Option<&ArtifactStore>) -> PlanOutcome {
        let _span = phase_trace::span("driver");
        let cells = plan.cells;
        let cell_count = cells.len();
        // A cell's records carry the ambient trace id in the study lane with
        // the cell's plan index as the scope, whatever thread emits them:
        // scoped workers do not inherit the caller's thread-local context, so
        // it is captured here and installed per cell.
        let ambient_trace = phase_trace::current_trace_id();
        let cell_context = |index: usize| {
            ambient_trace.map(|trace_id| {
                phase_trace::install(trace_id, phase_trace::Lane::Study, index as u32)
            })
        };
        // Every cell's store key, derived on this thread inside its context.
        let keys: Vec<ContentHash> = match store {
            Some(store) => cells
                .iter()
                .enumerate()
                .map(|(index, spec)| {
                    let _ctx = cell_context(index);
                    let _span = phase_trace::span("cell-key");
                    store.cell_key(&spec.machine, &spec.policy, &spec.sim, &spec.slots)
                })
                .collect(),
            None => Vec::new(),
        };
        let run = |index: usize| {
            let _ctx = cell_context(index);
            run_cell(
                index,
                &cells[index],
                store.map(|store| (store, keys[index])),
            )
        };

        // A plan whose every cell is resident is only lookups: answer it on
        // this thread, as a one-worker driver or a one-cell plan always is.
        let all_resident = store.is_some_and(|store| keys.iter().all(|&key| store.has_cell(key)));
        let workers = if all_resident {
            1
        } else {
            self.threads.min(cell_count)
        };
        let cells: Vec<CellResult> = if workers <= 1 {
            (0..cell_count).map(run).collect()
        } else {
            let results: Vec<Mutex<Option<CellResult>>> =
                (0..cell_count).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some((start, end)) = claim_chunk(&cursor, cell_count, workers) {
                            for (index, slot) in (start..end).zip(&results[start..end]) {
                                *slot.lock() = Some(run(index));
                            }
                        }
                    });
                }
            });
            results
                .into_iter()
                .map(|slot| slot.into_inner().expect("every cell was executed"))
                .collect()
        };
        let mut aggregate = PlanAggregate::default();
        for cell in &cells {
            aggregate.absorb(&cell.result);
        }
        PlanOutcome { cells, aggregate }
    }
}

/// Claims the next chunk of cell indices `[start, end)` from the shared
/// cursor, or `None` when the plan is exhausted.
///
/// Guided self-scheduling: each claim takes a quarter of the remaining
/// cells per worker, so early claims are large (few contended atomics on
/// big sweeps) while late claims shrink to single cells (no worker sits
/// idle behind a straggler holding a fixed-size tail chunk). Which worker
/// runs which cell never affects the outcome — results are written by
/// index and the aggregate is order-independent — so chunking is purely a
/// scheduling optimisation.
fn claim_chunk(cursor: &AtomicUsize, cell_count: usize, workers: usize) -> Option<(usize, usize)> {
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= cell_count {
            return None;
        }
        let remaining = cell_count - start;
        let chunk = (remaining / (workers * 4)).max(1);
        match cursor.compare_exchange_weak(
            start,
            start + chunk,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some((start, start + chunk)),
            Err(current) => start = current,
        }
    }
}

/// Executes one cell, answering from the store under `cached`'s key when
/// one is given.
fn run_cell(
    index: usize,
    spec: &CellSpec,
    cached: Option<(&ArtifactStore, ContentHash)>,
) -> CellResult {
    let cell = match cached {
        Some((store, key)) => store.cell(key, || compute_cell(spec)),
        None => Arc::new(compute_cell(spec)),
    };
    // The cached artifact excludes plan position; re-attach it. A result
    // shared across sweep groups carries the label of the cell that computed
    // it, so a cell of another label gets a relabelled copy.
    let result = if cell.result.label == spec.label {
        Arc::clone(&cell.result)
    } else {
        let mut result = SimResult::clone(&cell.result);
        result.label = spec.label.clone();
        Arc::new(result)
    };
    CellResult {
        index,
        group: spec.group.clone(),
        label: spec.label.clone(),
        policy: spec.policy,
        result,
        tuner_stats: cell.tuner_stats,
        online_stats: cell.online_stats,
    }
}

/// Runs one cell's simulation under its policy.
fn compute_cell(spec: &CellSpec) -> CachedCell {
    let (result, tuner_stats, online_stats) = match &spec.policy {
        Policy::Stock => {
            let sim = Simulation::new(
                spec.label.clone(),
                spec.machine.clone(),
                spec.slots.to_vec(),
                NullHook,
                spec.sim,
            );
            (sim.run(), None, None)
        }
        Policy::AllCores => {
            let hook = AllCoresHook::new(AffinityMask::all_cores(&spec.machine));
            let sim = Simulation::new(
                spec.label.clone(),
                spec.machine.clone(),
                spec.slots.to_vec(),
                hook,
                spec.sim,
            );
            (sim.run(), None, None)
        }
        Policy::Tuned(config) => {
            let tuner = PhaseTuner::new(Arc::new(spec.machine.clone()), *config);
            let handle = tuner.clone();
            let sim = Simulation::new(
                spec.label.clone(),
                spec.machine.clone(),
                spec.slots.to_vec(),
                tuner,
                spec.sim,
            );
            (sim.run(), Some(handle.stats()), None)
        }
        Policy::Online(config) => {
            let tuner = OnlineTuner::new(Arc::new(spec.machine.clone()), *config);
            let handle = tuner.clone();
            // The policy carries the sampling period; the cell's SimConfig
            // gains it here so callers don't have to keep the two in sync.
            let sim_config = SimConfig {
                sample_interval_ns: Some(config.sample_interval_ns),
                ..spec.sim
            };
            let sim = Simulation::new(
                spec.label.clone(),
                spec.machine.clone(),
                spec.slots.to_vec(),
                tuner,
                sim_config,
            );
            (sim.run(), None, Some(handle.stats()))
        }
        Policy::Partition => {
            let sim = Simulation::partitioned(
                spec.label.clone(),
                spec.machine.clone(),
                spec.slots.to_vec(),
                NullHook,
                spec.sim,
            );
            (sim.run(), None, None)
        }
    };
    CachedCell {
        result: Arc::new(result),
        tuner_stats,
        online_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_workload::Catalog;

    use crate::experiment::{baseline_catalog, build_slots, instrument_catalog};
    use crate::pipeline::PipelineConfig;

    fn planned_workload(name: &str, slots: usize) -> PlannedWorkload {
        let catalog = Catalog::tiny(7);
        let workload = phase_workload::Workload::random(&catalog, slots, 1, 11);
        let machine = MachineSpec::core2_quad_amp();
        let pipeline = PipelineConfig::paper_best();
        PlannedWorkload {
            name: name.into(),
            baseline_slots: build_slots(&workload, &catalog, &baseline_catalog(&catalog)).into(),
            tuned_slots: build_slots(
                &workload,
                &catalog,
                &instrument_catalog(&catalog, &machine, &pipeline),
            )
            .into(),
        }
    }

    fn quick_sim() -> SimConfig {
        SimConfig {
            horizon_ns: Some(2_000_000.0),
            ..SimConfig::default()
        }
    }

    #[test]
    fn cross_product_builds_every_cell() {
        let workloads = vec![planned_workload("w0", 2), planned_workload("w1", 2)];
        let machines = vec![MachineSpec::core2_quad_amp(), MachineSpec::three_core_amp()];
        let policies = vec![Policy::Stock, Policy::Tuned(TunerConfig::default())];
        let plan = ExperimentPlan::cross(&workloads, &machines, &policies, quick_sim(), 1);
        assert_eq!(plan.len(), 2 * 2 * 2);
        // Policies within one (workload, machine) group share a seed; cells
        // of different workloads do not.
        let cells = plan.cells();
        assert_eq!(cells[0].sim.seed, cells[1].sim.seed);
        assert_ne!(cells[0].sim.seed, cells[4].sim.seed);
        assert_eq!(cells[0].group, cells[1].group);
        assert_ne!(cells[0].label, cells[1].label);
    }

    #[test]
    fn driver_runs_all_cells_and_orders_results() {
        let workloads = vec![planned_workload("w", 3)];
        let machines = vec![MachineSpec::core2_quad_amp()];
        let policies = vec![
            Policy::Stock,
            Policy::AllCores,
            Policy::Tuned(TunerConfig::default()),
        ];
        let plan = ExperimentPlan::cross(&workloads, &machines, &policies, quick_sim(), 3);
        let outcome = Driver::new(3).run(plan);
        assert_eq!(outcome.cells.len(), 3);
        assert_eq!(outcome.aggregate.cells_completed, 3);
        assert!(outcome.aggregate.total_instructions > 0);
        for (index, cell) in outcome.cells.iter().enumerate() {
            assert_eq!(cell.index, index);
        }
        let group = &outcome.cells[0].group;
        assert!(outcome.find(group, "stock").is_some());
        assert!(outcome.find(group, "tuned").is_some());
        assert!(outcome
            .find(group, "tuned")
            .and_then(|c| c.tuner_stats)
            .is_some());
        assert!(outcome.find(group, "stock").unwrap().tuner_stats.is_none());
    }

    #[test]
    fn online_cells_run_unmarked_binaries_and_report_online_stats() {
        use phase_online::OnlineConfig;
        let workloads = vec![planned_workload("w", 4)];
        let machines = vec![MachineSpec::core2_quad_amp()];
        let policies = vec![
            Policy::Stock,
            Policy::Online(OnlineConfig {
                sample_interval_ns: 100_000.0,
                ..OnlineConfig::default()
            }),
        ];
        let sim = SimConfig {
            horizon_ns: Some(6_000_000.0),
            ..SimConfig::default()
        };
        let plan = ExperimentPlan::cross(&workloads, &machines, &policies, sim, 11);
        // Online cells must carry the baseline (uninstrumented) binaries.
        for cell in plan.cells() {
            if matches!(cell.policy, Policy::Online(_)) {
                for job in cell.slots.iter().flatten() {
                    assert_eq!(job.instrumented.mark_count(), 0, "{} is marked", job.name);
                }
            }
        }
        let outcome = Driver::new(2).run(plan);
        let group = &outcome.cells[0].group;
        let online = outcome.find(group, "online").expect("online cell ran");
        assert_eq!(online.result.total_marks_executed, 0);
        let stats = online.online_stats.expect("online stats recorded");
        assert!(stats.intervals_observed > 0, "sampling stream was empty");
        assert!(stats.phases_created > 0);
        assert!(outcome.find(group, "stock").unwrap().online_stats.is_none());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let workloads = vec![planned_workload("w", 4)];
        let machines = vec![MachineSpec::core2_quad_amp()];
        let policies = vec![Policy::Stock, Policy::Tuned(TunerConfig::default())];
        let build = || ExperimentPlan::cross(&workloads, &machines, &policies, quick_sim(), 0xFEED);
        let sequential = Driver::new(1).run(build());
        let parallel = Driver::new(8).run(build());
        assert_eq!(sequential.aggregate, parallel.aggregate);
        for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn claim_chunk_covers_every_cell_exactly_once() {
        for (cell_count, workers) in [(0, 4), (1, 4), (7, 3), (64, 4), (100, 1), (5, 16)] {
            let cursor = AtomicUsize::new(0);
            let mut next_expected = 0;
            while let Some((start, end)) = claim_chunk(&cursor, cell_count, workers) {
                assert_eq!(start, next_expected, "chunks must be contiguous");
                assert!(end > start && end <= cell_count);
                next_expected = end;
            }
            assert_eq!(next_expected, cell_count, "every cell claimed");
            assert!(claim_chunk(&cursor, cell_count, workers).is_none());
        }
    }

    #[test]
    fn claim_chunk_shrinks_toward_the_tail() {
        let cursor = AtomicUsize::new(0);
        let mut sizes = Vec::new();
        while let Some((start, end)) = claim_chunk(&cursor, 256, 4) {
            sizes.push(end - start);
        }
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "sizes decay: {sizes:?}"
        );
        assert_eq!(
            *sizes.first().unwrap(),
            16,
            "first claim is remaining/(workers*4)"
        );
        assert_eq!(*sizes.last().unwrap(), 1, "tail claims are single cells");
    }

    #[test]
    fn cell_seed_is_deterministic_and_spread() {
        assert_eq!(cell_seed(1, 0), cell_seed(1, 0));
        assert_ne!(cell_seed(1, 0), cell_seed(1, 1));
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0));
    }

    #[test]
    fn empty_plan_is_fine() {
        let outcome = Driver::new(4).run(ExperimentPlan::new());
        assert!(outcome.cells.is_empty());
        assert_eq!(outcome.aggregate, PlanAggregate::default());
    }
}
