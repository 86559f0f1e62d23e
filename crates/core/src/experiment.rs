//! The experiment runner: baseline-versus-tuned comparisons over workloads.
//!
//! This module glues the whole reproduction together the way the paper's
//! evaluation does (Section IV): build a workload of randomly selected
//! benchmarks, run it once under the stock (asymmetry-oblivious) scheduler
//! with uninstrumented binaries, run it again with phase-marked binaries and
//! the dynamic tuner, and compare throughput and fairness on identical job
//! queues.

use std::collections::HashMap;
use std::sync::Arc;

use phase_amp::MachineSpec;
use phase_marking::InstrumentedProgram;
use phase_metrics::{
    FairnessComparison, FairnessReport, ProcessTiming, ThroughputComparison, ThroughputSeries,
};
use phase_runtime::{TunerConfig, TunerStats};
use phase_sched::{IntervalHook, JobSpec, PhaseHook, SimConfig, SimResult, Simulation};
use phase_workload::{Catalog, CatalogSpec, Workload};
use serde::{Deserialize, Serialize};

use crate::artifacts::ArtifactStore;
use crate::driver::{CellSpec, Driver, ExperimentPlan, PlanOutcome, PlannedWorkload, Policy};
use crate::pipeline::{prepare_program, uninstrumented, PipelineConfig};

/// Everything needed to run one baseline-versus-tuned comparison.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The machine to simulate.
    pub machine: MachineSpec,
    /// The static pipeline configuration (marking technique, typing, error).
    pub pipeline: PipelineConfig,
    /// The dynamic tuner configuration (IPC threshold `δ`, sampling).
    pub tuner: TunerConfig,
    /// Scheduler simulation parameters (timeslice, horizon, ...).
    pub sim: SimConfig,
    /// Number of workload slots (simultaneously running benchmarks).
    pub workload_slots: usize,
    /// Jobs queued per slot.
    pub jobs_per_slot: usize,
    /// Seed for workload construction.
    pub workload_seed: u64,
    /// Scale factor applied to the benchmark catalogue.
    pub catalog_scale: f64,
    /// Worker threads used by the experiment [`Driver`] when a comparison's
    /// cells are fanned out (`1` runs sequentially).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            machine: MachineSpec::core2_quad_amp(),
            pipeline: PipelineConfig::paper_best(),
            tuner: TunerConfig::default(),
            sim: SimConfig {
                horizon_ns: Some(40_000_000.0), // 40 simulated milliseconds
                ..SimConfig::default()
            },
            workload_slots: 18,
            jobs_per_slot: 6,
            workload_seed: 0xC60_2011,
            catalog_scale: 1.0,
            threads: 1,
        }
    }
}

impl ExperimentConfig {
    /// A drastically scaled-down configuration for tests and smoke runs.
    pub fn smoke_test() -> Self {
        Self {
            workload_slots: 6,
            jobs_per_slot: 1,
            catalog_scale: 0.05,
            sim: SimConfig {
                horizon_ns: Some(4_000_000.0),
                ..SimConfig::default()
            },
            ..Self::default()
        }
    }
}

/// A workload whose programs have been generated and instrumented, ready to
/// run under any hook. The baseline and tuned variants are built from the
/// same catalogue and the same job queues.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Slot queues for the stock-scheduler baseline (no phase marks).
    pub baseline_slots: Arc<[Vec<JobSpec>]>,
    /// Slot queues with phase-marked binaries.
    pub tuned_slots: Arc<[Vec<JobSpec>]>,
    /// Isolated runtime (nanoseconds) per benchmark name, used for stretch
    /// (the store's own artifact on the cached path).
    pub isolated_ns: Arc<HashMap<String, f64>>,
    /// Per-benchmark instrumented programs, index-aligned with the catalogue.
    pub instrumented: Vec<Arc<InstrumentedProgram>>,
}

/// Instruments every benchmark of a catalogue with the given pipeline.
pub fn instrument_catalog(
    catalog: &Catalog,
    machine: &MachineSpec,
    pipeline: &PipelineConfig,
) -> Vec<Arc<InstrumentedProgram>> {
    catalog
        .benchmarks()
        .iter()
        .map(|b| Arc::new(prepare_program(b.program(), machine, pipeline)))
        .collect()
}

/// Builds the uninstrumented twins of a catalogue (the baseline binaries).
pub fn baseline_catalog(catalog: &Catalog) -> Vec<Arc<InstrumentedProgram>> {
    catalog
        .benchmarks()
        .iter()
        .map(|b| Arc::new(uninstrumented(b.program())))
        .collect()
}

/// Expands a workload's job queues into scheduler slot queues, picking each
/// benchmark's program from `programs` (index-aligned with the catalogue).
/// Every job carries its scheduled release (a queue's release time lands on
/// its first job; open-loop queues release every position individually), and
/// open-loop queues' relative deadlines become absolute deadlines measured
/// from each job's release.
pub fn build_slots(
    workload: &Workload,
    catalog: &Catalog,
    programs: &[Arc<InstrumentedProgram>],
) -> Vec<Vec<JobSpec>> {
    workload
        .slots()
        .iter()
        .map(|queue| {
            queue
                .jobs()
                .iter()
                .enumerate()
                .map(|(position, &id)| {
                    let bench = catalog.get(id).expect("workload references the catalogue");
                    let release_ns = queue.job_release_ns(position);
                    let job = JobSpec::new(bench.name(), Arc::clone(&programs[id.0]))
                        .released_at(release_ns);
                    match queue.deadline_ns() {
                        Some(deadline) => job.with_deadline(release_ns + deadline),
                        None => job,
                    }
                })
                .collect()
        })
        .collect()
}

/// Measures every benchmark's runtime in isolation on the machine (stock
/// scheduler, uninstrumented binary), for the stretch metric's `t_j`. The
/// per-benchmark runs are independent, so they fan out across `threads`
/// driver workers.
pub fn isolated_runtimes(
    catalog: &Catalog,
    baseline: &[Arc<InstrumentedProgram>],
    machine: &MachineSpec,
    sim: &SimConfig,
    threads: usize,
) -> HashMap<String, f64> {
    isolated_runtimes_inner(catalog, baseline, machine, sim, threads, None)
}

fn isolated_runtimes_inner(
    catalog: &Catalog,
    baseline: &[Arc<InstrumentedProgram>],
    machine: &MachineSpec,
    sim: &SimConfig,
    threads: usize,
    store: Option<&ArtifactStore>,
) -> HashMap<String, f64> {
    let isolation_config = SimConfig {
        horizon_ns: None,
        ..*sim
    };
    let mut plan = ExperimentPlan::new();
    for (bench, program) in catalog.benchmarks().iter().zip(baseline) {
        plan.push(CellSpec::isolation(
            bench.name(),
            Arc::clone(program),
            machine.clone(),
            Policy::Stock,
            isolation_config,
        ));
    }
    let driver = Driver::new(threads);
    let outcome = match store {
        Some(store) => driver.run_cached(plan, store),
        None => driver.run(plan),
    };
    outcome
        .cells
        .iter()
        .map(|cell| {
            let record = cell
                .result
                .records
                .first()
                .expect("isolation run starts exactly one process");
            let runtime =
                record.completion_ns.expect("isolation runs complete") - record.arrival_ns;
            (record.name.clone(), runtime)
        })
        .collect()
}

/// The isolated runtimes of a catalogue, keyed in the artifact store by
/// *(catalogue spec, machine, isolation sim config)* — config-independent
/// like the baseline twins, so every sweep point over one catalogue shares a
/// single measurement pass. The individual isolation cells also go through
/// the store's cell cache.
#[allow(clippy::too_many_arguments)]
pub fn isolated_runtimes_cached(
    catalog_spec: &CatalogSpec,
    catalog: &Catalog,
    baseline: &[Arc<InstrumentedProgram>],
    machine: &MachineSpec,
    sim: &SimConfig,
    threads: usize,
    store: &ArtifactStore,
) -> Arc<HashMap<String, f64>> {
    let isolation_config = SimConfig {
        horizon_ns: None,
        ..*sim
    };
    store.isolated_runtimes(catalog_spec, machine, &isolation_config, || {
        isolated_runtimes_inner(catalog, baseline, machine, sim, threads, Some(store))
    })
}

/// Prepares a full workload: catalogue generation, instrumentation, job
/// queues, and isolated runtimes.
pub fn prepare_workload(config: &ExperimentConfig) -> PreparedWorkload {
    let catalog = Catalog::standard(config.catalog_scale, config.workload_seed);
    let workload = Workload::random(
        &catalog,
        config.workload_slots,
        config.jobs_per_slot,
        config.workload_seed,
    );
    let instrumented = instrument_catalog(&catalog, &config.machine, &config.pipeline);
    let baseline = baseline_catalog(&catalog);
    let isolated_ns = isolated_runtimes(
        &catalog,
        &baseline,
        &config.machine,
        &config.sim,
        config.threads,
    );
    PreparedWorkload {
        baseline_slots: build_slots(&workload, &catalog, &baseline).into(),
        tuned_slots: build_slots(&workload, &catalog, &instrumented).into(),
        isolated_ns: Arc::new(isolated_ns),
        instrumented,
    }
}

/// Like [`prepare_workload`], but chaining every stage through the artifact
/// store: the catalogue, the per-stage instrumentation pipeline, the
/// config-independent baseline twins, and the isolated-runtime measurements
/// are all cached by content hash, so sweep points that share an upstream
/// input share the artifact instead of recomputing it.
pub fn prepare_workload_cached(
    config: &ExperimentConfig,
    store: &ArtifactStore,
) -> PreparedWorkload {
    let catalog_spec = CatalogSpec::standard(config.catalog_scale, config.workload_seed);
    let catalog = store.catalog(&catalog_spec);
    let workload = Workload::random(
        &catalog,
        config.workload_slots,
        config.jobs_per_slot,
        config.workload_seed,
    );
    let instrumented = store.instrumented_catalog(&catalog, &config.machine, &config.pipeline);
    let baseline = store.baseline_catalog(&catalog);
    let isolated_ns = isolated_runtimes_cached(
        &catalog_spec,
        &catalog,
        &baseline,
        &config.machine,
        &config.sim,
        config.threads,
        store,
    );
    PreparedWorkload {
        baseline_slots: build_slots(&workload, &catalog, &baseline).into(),
        tuned_slots: build_slots(&workload, &catalog, &instrumented).into(),
        isolated_ns,
        instrumented,
    }
}

/// Runs one workload under the given hook.
pub fn run_with_hook<H: PhaseHook + IntervalHook>(
    label: &str,
    machine: MachineSpec,
    slots: Vec<Vec<JobSpec>>,
    hook: H,
    sim: SimConfig,
) -> SimResult {
    Simulation::new(label, machine, slots, hook, sim).run()
}

/// Fairness report of a run, using per-benchmark isolated runtimes for the
/// stretch denominator.
pub fn fairness_of(result: &SimResult, isolated_ns: &HashMap<String, f64>) -> FairnessReport {
    let timings: Vec<ProcessTiming> = result
        .completed()
        .filter_map(|record| {
            isolated_ns.get(&record.name).map(|isolated| ProcessTiming {
                arrival_ns: record.arrival_ns,
                completion_ns: record.completion_ns.expect("completed record"),
                isolated_ns: *isolated,
            })
        })
        .collect();
    FairnessReport::from_timings(&timings)
}

/// Throughput series of a run.
pub fn throughput_of(result: &SimResult, sim: &SimConfig) -> ThroughputSeries {
    ThroughputSeries::new(
        result.throughput_windows.clone(),
        sim.throughput_window_ns as u64,
    )
}

/// The outcome of one baseline-versus-tuned comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Raw result of the stock-scheduler baseline run (shared with the
    /// driver outcome it came from).
    pub baseline: Arc<SimResult>,
    /// Raw result of the phase-tuned run (shared likewise).
    pub tuned: Arc<SimResult>,
    /// Throughput improvement of the tuned run over the baseline.
    pub throughput: ThroughputComparison,
    /// Fairness report of the baseline run.
    pub baseline_fairness: FairnessReport,
    /// Fairness report of the tuned run.
    pub tuned_fairness: FairnessReport,
    /// Table-2-style comparison (positive numbers are improvements).
    pub fairness: FairnessComparison,
    /// What the dynamic tuner did during the tuned run.
    pub tuner_stats: TunerStats,
}

impl ComparisonResult {
    /// The headline number of the paper: percent decrease in average process
    /// completion time relative to the stock scheduler.
    pub fn average_time_reduction_pct(&self) -> f64 {
        self.fairness.avg_time_decrease_pct
    }
}

/// Runs the full baseline-versus-tuned comparison described by a
/// configuration.
pub fn run_comparison(config: &ExperimentConfig) -> ComparisonResult {
    let prepared = prepare_workload(config);
    run_comparison_prepared(config, &prepared)
}

/// Like [`run_comparison`], but reusing an already prepared workload (useful
/// when sweeping tuner parameters over the same queues). The two cells run
/// through the experiment [`Driver`] with `config.threads` workers.
pub fn run_comparison_prepared(
    config: &ExperimentConfig,
    prepared: &PreparedWorkload,
) -> ComparisonResult {
    let group = "comparison";
    let plan = comparison_plan(group, config, prepared);
    let outcome = Driver::new(config.threads).run(plan);
    comparison_result(group, &outcome, config, prepared)
        .expect("comparison plan contains a stock and a tuned cell")
}

/// Converts a prepared workload into the named form [`ExperimentPlan::cross`]
/// consumes.
pub fn planned_workload(name: impl Into<String>, prepared: &PreparedWorkload) -> PlannedWorkload {
    PlannedWorkload {
        name: name.into(),
        baseline_slots: Arc::clone(&prepared.baseline_slots),
        tuned_slots: Arc::clone(&prepared.tuned_slots),
    }
}

/// The two cells of one baseline-versus-tuned comparison (the paper's
/// identical-queues rule: both cells share the same seed and queues), grouped
/// under `group`. Multiple comparisons can be extended into one plan and
/// fanned out together.
pub fn comparison_plan(
    group: impl Into<String>,
    config: &ExperimentConfig,
    prepared: &PreparedWorkload,
) -> ExperimentPlan {
    let group = group.into();
    let mut plan = ExperimentPlan::new();
    plan.push(CellSpec {
        group: group.clone(),
        label: "stock-linux".to_string(),
        machine: config.machine.clone(),
        slots: Arc::clone(&prepared.baseline_slots),
        policy: Policy::Stock,
        sim: config.sim,
    });
    plan.push(CellSpec {
        group,
        label: format!("phase-tuned-{}", config.pipeline.marking),
        machine: config.machine.clone(),
        slots: Arc::clone(&prepared.tuned_slots),
        policy: Policy::Tuned(config.tuner),
        sim: config.sim,
    });
    plan
}

/// Assembles a [`ComparisonResult`] from a group's stock and tuned cells in
/// a driver outcome; `None` when the group is missing either cell.
pub fn comparison_result(
    group: &str,
    outcome: &PlanOutcome,
    config: &ExperimentConfig,
    prepared: &PreparedWorkload,
) -> Option<ComparisonResult> {
    let baseline_cell = outcome.find(group, "stock")?;
    let tuned_cell = outcome.find(group, "tuned")?;
    let baseline = Arc::clone(&baseline_cell.result);
    let tuned = Arc::clone(&tuned_cell.result);

    let measure_ns = config
        .sim
        .horizon_ns
        .unwrap_or_else(|| baseline.final_time_ns.min(tuned.final_time_ns));
    let throughput = ThroughputComparison::over_prefix(
        &throughput_of(&baseline, &config.sim),
        &throughput_of(&tuned, &config.sim),
        measure_ns as u64,
    );

    let baseline_fairness = fairness_of(&baseline, &prepared.isolated_ns);
    let tuned_fairness = fairness_of(&tuned, &prepared.isolated_ns);
    let fairness = FairnessComparison::against_baseline(&baseline_fairness, &tuned_fairness);

    Some(ComparisonResult {
        baseline,
        tuned,
        throughput,
        baseline_fairness,
        tuned_fairness,
        fairness,
        tuner_stats: tuned_cell.tuner_stats.unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_marking::MarkingConfig;

    #[test]
    fn prepared_workload_has_matching_queue_shapes() {
        let config = ExperimentConfig::smoke_test();
        let prepared = prepare_workload(&config);
        assert_eq!(prepared.baseline_slots.len(), config.workload_slots);
        assert_eq!(prepared.tuned_slots.len(), config.workload_slots);
        for (b, t) in prepared
            .baseline_slots
            .iter()
            .zip(prepared.tuned_slots.iter())
        {
            assert_eq!(b.len(), t.len());
            for (bj, tj) in b.iter().zip(t.iter()) {
                assert_eq!(bj.name, tj.name, "same queues for both techniques");
            }
        }
        assert_eq!(prepared.instrumented.len(), 15);
        assert!(!prepared.isolated_ns.is_empty());
        assert!(prepared.isolated_ns.values().all(|v| *v > 0.0));
    }

    #[test]
    fn baseline_binaries_have_no_marks_and_tuned_ones_do() {
        let config = ExperimentConfig::smoke_test();
        let catalog = Catalog::standard(config.catalog_scale, config.workload_seed);
        let baseline = baseline_catalog(&catalog);
        let tuned = instrument_catalog(&catalog, &config.machine, &config.pipeline);
        assert!(baseline.iter().all(|p| p.mark_count() == 0));
        assert!(tuned.iter().any(|p| p.mark_count() > 0));
    }

    #[test]
    fn smoke_comparison_runs_and_reports_consistent_numbers() {
        let config = ExperimentConfig {
            pipeline: PipelineConfig::with_marking(MarkingConfig::loop_level(30)),
            ..ExperimentConfig::smoke_test()
        };
        let result = run_comparison(&config);
        assert!(result.baseline.total_instructions > 0);
        assert!(result.tuned.total_instructions > 0);
        assert!(result.tuned.total_marks_executed > 0);
        // The comparison percentages are derived from the two reports.
        let recomputed =
            FairnessComparison::against_baseline(&result.baseline_fairness, &result.tuned_fairness);
        assert_eq!(recomputed, result.fairness);
        assert_eq!(
            result.average_time_reduction_pct(),
            result.fairness.avg_time_decrease_pct
        );
    }
}
