//! The declarative study layer: spec in, unified report out.
//!
//! A *study* is one of the paper's tables or figures described as data — a
//! [`StudySpec`] names the swept axes (marking configs, tuner thresholds,
//! clustering errors, machines, workload families, policies) and the study
//! mode, and [`run_study`] expands it into an [`ExperimentPlan`], fans the
//! cells across the parallel [`Driver`](crate::Driver) through the
//! [`ArtifactStore`], and collects a [`StudyReport`] with one metrics row per
//! sweep point. Every study `phase-bench` runs is a thin spec over this one
//! runner, and the unified report schema serializes to `BENCH_*.json`
//! through [`crate::json`].

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use phase_amp::MachineSpec;
use phase_analysis::{assign_block_types, StaticTypingConfig};
use phase_cfg::{CallGraph, Cfg, DominatorTree, IntervalPartition, LoopForest};
use phase_ir::Program;
use phase_marking::{InstrumentedProgram, MarkingConfig};
use phase_metrics::SummaryStats;
use phase_runtime::{PhaseTuner, TunerConfig};
use phase_sched::{EngineKind, IntervalHook, JobSpec, NullHook, PhaseHook, SimConfig};
use phase_workload::{CatalogSpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::artifacts::{ArtifactStore, StoreStats};
use crate::driver::{cell_seed, CellSpec, Driver, ExperimentPlan, Policy};
use crate::experiment::{
    build_slots, comparison_plan, comparison_result, fairness_of, isolated_runtimes_cached,
    prepare_workload_cached, run_with_hook, ExperimentConfig,
};
use crate::json::JsonValue;
use crate::pipeline::{prepare_program, PipelineConfig};

/// One typed metric value in a study row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counters).
    UInt(u64),
    /// A float.
    Float(f64),
    /// A short string (policy tags and the like).
    Text(String),
    /// A latency CDF curve: `(bucket_upper_ns, cumulative_fraction)` points
    /// (see `LogHistogram::cdf`), serialized as an array of two-element
    /// arrays.
    Cdf(Vec<(u64, f64)>),
}

impl MetricValue {
    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::UInt(v) => Some(*v as f64),
            MetricValue::Float(v) => Some(*v),
            MetricValue::Text(_) | MetricValue::Cdf(_) => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::UInt(v) => Some(*v),
            MetricValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            MetricValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a JSON node (shared by the report writer and the
    /// tuning service's wire format, so the two can never diverge).
    pub fn to_json(&self) -> JsonValue {
        match self {
            MetricValue::Int(v) => JsonValue::Int(*v),
            MetricValue::UInt(v) => JsonValue::UInt(*v),
            MetricValue::Float(v) => JsonValue::Float(*v),
            MetricValue::Text(s) => JsonValue::Str(s.clone()),
            MetricValue::Cdf(points) => JsonValue::from(
                points
                    .iter()
                    .map(|(upper, fraction)| {
                        JsonValue::from(vec![JsonValue::from(*upper), JsonValue::from(*fraction)])
                    })
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// One row of a study report: a sweep-point label plus named metrics in
/// insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRow {
    /// The sweep-point label (technique name, threshold, benchmark, ...).
    pub label: String,
    /// Named metrics, in a deterministic order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl StudyRow {
    /// A row with no metrics yet.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric, returning `self` for chaining.
    pub fn metric(mut self, name: &str, value: MetricValue) -> Self {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A float metric, panicking with a useful message if absent.
    pub fn f64(&self, name: &str) -> f64 {
        self.get(name)
            .and_then(MetricValue::as_f64)
            .unwrap_or_else(|| panic!("row '{}' has no numeric metric '{name}'", self.label))
    }

    /// An unsigned-integer metric, panicking with a useful message if absent.
    pub fn u64(&self, name: &str) -> u64 {
        self.get(name)
            .and_then(MetricValue::as_u64)
            .unwrap_or_else(|| panic!("row '{}' has no integer metric '{name}'", self.label))
    }

    /// A text metric, panicking with a useful message if absent.
    pub fn text(&self, name: &str) -> &str {
        self.get(name)
            .and_then(MetricValue::as_str)
            .unwrap_or_else(|| panic!("row '{}' has no text metric '{name}'", self.label))
    }
}

/// One point of a comparison sweep: a label and the full experiment
/// configuration derived for it.
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// Row label (also the plan group key).
    pub label: String,
    /// The derived configuration.
    pub config: ExperimentConfig,
}

/// One named workload timed by an engine-performance study.
#[derive(Debug, Clone)]
pub struct PerfWorkload {
    /// Name; rows are labelled `<name>/round` and `<name>/event`.
    pub name: String,
    /// The workload queued over the catalogue.
    pub workload: WorkloadSpec,
    /// Horizon for this workload (`None` runs every queue to completion).
    pub horizon_ns: Option<f64>,
}

/// One workload family of a policy-matrix study.
#[derive(Debug, Clone)]
pub struct FamilySpec {
    /// Family name (row label and plan group).
    pub name: String,
    /// The catalogue to generate.
    pub catalog: CatalogSpec,
    /// The workload to queue from it.
    pub workload: WorkloadSpec,
}

/// What a study measures.
#[derive(Debug, Clone)]
pub enum StudyMode {
    /// Static space-overhead statistics per marking variant, summarized over
    /// the catalogue (Figure 3). Rows: `space_min/q1/median/q3/max` (already
    /// in percent) and `marks_mean`.
    MarkStatsPerVariant {
        /// Catalogue to instrument.
        catalog: CatalogSpec,
        /// Machine whose cost model seeds the typing.
        machine: MachineSpec,
        /// The marking variants to compare.
        variants: Vec<MarkingConfig>,
    },
    /// Static mark statistics per benchmark for one pipeline (Sections III /
    /// IV-B). Rows: `marks`, `added_bytes`, `space_overhead_pct`.
    MarkStatsPerBenchmark {
        /// Catalogue to instrument.
        catalog: CatalogSpec,
        /// Machine whose cost model seeds the typing.
        machine: MachineSpec,
        /// The pipeline configuration.
        pipeline: PipelineConfig,
    },
    /// Per-benchmark isolation runs under the phase tuner (Table 1 /
    /// Figure 5). Rows: `switches`, `runtime_ns`, `marks_executed`,
    /// `instructions`, `cycles`.
    Isolation {
        /// Catalogue to run.
        catalog: CatalogSpec,
        /// Machine to simulate.
        machine: MachineSpec,
        /// The static pipeline.
        pipeline: PipelineConfig,
        /// The dynamic tuner.
        tuner: TunerConfig,
        /// Simulation parameters (horizon is cleared per isolation cell).
        sim: SimConfig,
    },
    /// Mark time-overhead measurement (Figure 4): identical queues run
    /// uninstrumented (stock) and instrumented with all-cores marks. Rows:
    /// `marks_executed`, `baseline_instructions`, `run_instructions`,
    /// `overhead_pct`.
    MarkOverhead {
        /// Catalogue to run.
        catalog: CatalogSpec,
        /// Machine to simulate.
        machine: MachineSpec,
        /// The workload queued over the catalogue.
        workload: WorkloadSpec,
        /// The marking variants to measure.
        variants: Vec<MarkingConfig>,
        /// Simulation parameters.
        sim: SimConfig,
    },
    /// Baseline-versus-tuned comparison sweep (Figures 6–8, Table 2, the
    /// lookahead and minimum-size sweeps, the 3-core machine). Rows:
    /// `throughput_improvement_pct`, `avg_time_decrease_pct`,
    /// `max_flow_decrease_pct`, `max_stretch_decrease_pct`,
    /// `tuned_max_stretch`, `stock_max_stretch`, `tuned_core_switches`,
    /// `tuned_marks_executed`, `static_marks`.
    Comparison {
        /// The sweep points.
        points: Vec<ComparisonPoint>,
    },
    /// Workload families × scheduling policies on identical queues
    /// (online-versus-static). One row per (family, policy) with `policy`,
    /// `policy_kind`, `speedup` (vs. the family's stock cell), `completed`,
    /// `instructions`, `max_stretch`, `switches`, and for online cells
    /// `phases_created`, `retunes`, `interval_ns`, `max_phases`.
    PolicyMatrix {
        /// The workload families.
        families: Vec<FamilySpec>,
        /// The policies every family runs under.
        policies: Vec<Policy>,
        /// Machine to simulate.
        machine: MachineSpec,
        /// The static pipeline behind `Policy::Tuned` cells.
        pipeline: PipelineConfig,
        /// Simulation parameters.
        sim: SimConfig,
        /// Base seed; family `i` uses `cell_seed(base_seed, i)`.
        base_seed: u64,
    },
    /// Datacenter tail-latency study: open-loop service-pipeline families
    /// (one per arrival-trace shape) × machine asymmetries × scheduling
    /// policies, all on identical request queues, judged on per-request
    /// completion latency charged from the scheduled release. One row per
    /// (family, machine, policy) labeled `family/machine` with `policy`,
    /// `policy_kind`, `requests`, `completed`, `p50_ns`, `p99_ns`, `p999_ns`,
    /// `slo_violation`, `deadline_misses`, `underflows`, `switches`, and the
    /// full latency `cdf`.
    TailLatency {
        /// The workload families (open-loop arrival traces over the service
        /// catalog).
        families: Vec<FamilySpec>,
        /// The machine asymmetries to sweep.
        machines: Vec<MachineSpec>,
        /// The policies every (family, machine) cell runs under.
        policies: Vec<Policy>,
        /// The static pipeline behind instrumented policies.
        pipeline: PipelineConfig,
        /// Simulation parameters. Leave the horizon unset so every request
        /// runs to completion — a deadline miss then means the request was
        /// *late*, not that the simulation was truncated under it.
        sim: SimConfig,
        /// Base seed; (family, machine) group `i` uses `cell_seed(base_seed, i)`.
        base_seed: u64,
    },
    /// Wall-clock engine and driver throughput (the continuous perf gate).
    /// For every workload × engine pair: one row with `wall_s` (best of
    /// `samples`), `sims_per_sec` (full simulations per second, `1 / wall_s`),
    /// `instructions`, `marks_executed` and `minstr_per_s`; event rows add
    /// `speedup_vs_round` and assert identical committed work and marks
    /// against the round engine. The first workload then runs again on
    /// `BB[15,0]`-marked binaries under a [`PhaseTuner`] built from `tuner`
    /// (rows `<name>-marked/round` and `<name>-marked/event`), so the phase
    /// mark path is timed too; the other engine rows run unmarked binaries
    /// with no hook and execute no marks. For every driver thread count:
    /// one `table1/threads=N` row with `wall_s`, `cells`, `sims_per_sec`
    /// (cells per second) and `parallel_speedup` versus the first listed
    /// count. Then seven `layer/<stage>` rows, each
    /// timing one pass of a static-pipeline stage over every program in
    /// `catalog` (`cfg+dominators+loops`, `interval-partition`, `call-graph`,
    /// `block-typing-kmeans`, and `prepare/<marking>` for one basic-block,
    /// one interval and one loop marking) with `wall_s` and `sims_per_sec`
    /// (passes per second). Perf cells deliberately bypass the artifact
    /// store — a cache hit would time the cache, not the engine.
    EnginePerf {
        /// Catalogue the engine workloads queue over (uninstrumented twins).
        catalog: CatalogSpec,
        /// Catalogue behind the driver-scaling isolation plan.
        isolation_catalog: CatalogSpec,
        /// Machine to simulate.
        machine: MachineSpec,
        /// The workloads to time under both engines.
        workloads: Vec<PerfWorkload>,
        /// The static pipeline behind the isolation plan's tuned cells.
        pipeline: PipelineConfig,
        /// The tuner the isolation plan runs under.
        tuner: TunerConfig,
        /// Driver worker counts to time on the isolation plan.
        thread_counts: Vec<usize>,
        /// Simulation parameters (per-workload horizons override).
        sim: SimConfig,
        /// Wall-clock samples per measurement; the best is reported.
        samples: usize,
    },
}

/// A study: name, human title, and mode.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Machine-readable name (also the `BENCH_<name>.json` stem).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// What to measure.
    pub mode: StudyMode,
}

/// The unified report every study produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyReport {
    /// The study's machine-readable name.
    pub study: String,
    /// The study's title.
    pub title: String,
    /// One row per sweep point (or benchmark), in sweep order.
    pub rows: Vec<StudyRow>,
    /// Artifact-store counters for this run: hit/miss deltas attributable to
    /// this study (entry counts are absolute store sizes), so reports from a
    /// shared store and from a fresh one are comparable.
    pub store: StoreStats,
    /// Wall-clock of the run in seconds.
    pub elapsed_s: f64,
}

impl StudyReport {
    /// Rows whose `label` equals `label`, in report order.
    pub fn rows_labeled(&self, label: &str) -> Vec<&StudyRow> {
        self.rows.iter().filter(|r| r.label == label).collect()
    }

    /// The report as a JSON document (rows flattened into objects).
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with(&[])
    }

    /// Like [`StudyReport::to_json`], with extra metadata fields spliced in
    /// after the title (harness settings and the like).
    pub fn to_json_with(&self, meta: &[(&str, JsonValue)]) -> JsonValue {
        let mut doc = JsonValue::object()
            .field("study", self.study.as_str())
            .field("title", self.title.as_str());
        for (name, value) in meta {
            doc = doc.field(name, value.clone());
        }
        doc.field("elapsed_s", self.elapsed_s)
            .field(
                "rows",
                self.rows
                    .iter()
                    .map(|row| {
                        row.metrics.iter().fold(
                            JsonValue::object().field("label", row.label.as_str()),
                            |doc, (name, value)| doc.field(name, value.to_json()),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
            .field("store", self.store.to_json())
    }
}

/// Short per-cell policy tag: `stock`, `tuned`, `all-cores`, or
/// `online[i=<µs>,p=<phases>]`.
pub fn policy_tag(policy: &Policy) -> String {
    match policy {
        Policy::Online(config) => format!(
            "online[i={}us,p={}]",
            (config.sample_interval_ns / 1_000.0).round() as u64,
            config.max_phases
        ),
        other => other.name().to_string(),
    }
}

/// Runs a study through the artifact store with `threads` driver workers.
pub fn run_study(spec: &StudySpec, store: &ArtifactStore, threads: usize) -> StudyReport {
    let _span = phase_trace::span("run_study");
    let start = Instant::now();
    let counters_before = store.snapshot();
    let rows = match &spec.mode {
        StudyMode::MarkStatsPerVariant {
            catalog,
            machine,
            variants,
        } => mark_stats_per_variant(store, catalog, machine, variants),
        StudyMode::MarkStatsPerBenchmark {
            catalog,
            machine,
            pipeline,
        } => mark_stats_per_benchmark(store, catalog, machine, pipeline),
        StudyMode::Isolation {
            catalog,
            machine,
            pipeline,
            tuner,
            sim,
        } => isolation(store, threads, catalog, machine, pipeline, tuner, sim),
        StudyMode::MarkOverhead {
            catalog,
            machine,
            workload,
            variants,
            sim,
        } => mark_overhead(store, threads, catalog, machine, workload, variants, sim),
        StudyMode::Comparison { points } => comparison(store, threads, points),
        StudyMode::PolicyMatrix {
            families,
            policies,
            machine,
            pipeline,
            sim,
            base_seed,
        } => policy_matrix(
            store, threads, families, policies, machine, pipeline, sim, *base_seed,
        ),
        StudyMode::TailLatency {
            families,
            machines,
            policies,
            pipeline,
            sim,
            base_seed,
        } => tail_latency(
            store, threads, families, machines, policies, pipeline, sim, *base_seed,
        ),
        StudyMode::EnginePerf {
            catalog,
            isolation_catalog,
            machine,
            workloads,
            pipeline,
            tuner,
            thread_counts,
            sim,
            samples,
        } => engine_perf(
            store,
            catalog,
            isolation_catalog,
            machine,
            workloads,
            pipeline,
            tuner,
            thread_counts,
            sim,
            *samples,
        ),
    };
    StudyReport {
        study: spec.name.clone(),
        title: spec.title.clone(),
        rows,
        // Hit/miss counters attributable to THIS study even on a shared
        // store (entry counts stay absolute).
        store: store.snapshot().delta_since(&counters_before),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

fn mark_stats_per_variant(
    store: &ArtifactStore,
    catalog: &CatalogSpec,
    machine: &MachineSpec,
    variants: &[MarkingConfig],
) -> Vec<StudyRow> {
    let catalog = store.catalog(catalog);
    variants
        .iter()
        .map(|marking| {
            let pipeline = PipelineConfig::with_marking(*marking);
            let mut overheads = Vec::new();
            let mut marks = Vec::new();
            for bench in catalog.benchmarks() {
                let instrumented = store.instrumented(bench.program(), machine, &pipeline);
                overheads.push(instrumented.stats().space_overhead * 100.0);
                marks.push(instrumented.mark_count() as f64);
            }
            let stats = SummaryStats::of(&overheads);
            let mark_stats = SummaryStats::of(&marks);
            StudyRow::new(marking.to_string())
                .metric("space_min", MetricValue::Float(stats.min))
                .metric("space_q1", MetricValue::Float(stats.q1))
                .metric("space_median", MetricValue::Float(stats.median))
                .metric("space_q3", MetricValue::Float(stats.q3))
                .metric("space_max", MetricValue::Float(stats.max))
                .metric("marks_mean", MetricValue::Float(mark_stats.mean))
        })
        .collect()
}

fn mark_stats_per_benchmark(
    store: &ArtifactStore,
    catalog: &CatalogSpec,
    machine: &MachineSpec,
    pipeline: &PipelineConfig,
) -> Vec<StudyRow> {
    let catalog = store.catalog(catalog);
    catalog
        .benchmarks()
        .iter()
        .map(|bench| {
            let instrumented = store.instrumented(bench.program(), machine, pipeline);
            StudyRow::new(bench.name())
                .metric("marks", MetricValue::UInt(instrumented.mark_count() as u64))
                .metric(
                    "added_bytes",
                    MetricValue::UInt(instrumented.stats().added_bytes),
                )
                .metric(
                    "space_overhead_pct",
                    MetricValue::Float(instrumented.stats().space_overhead * 100.0),
                )
        })
        .collect()
}

fn isolation(
    store: &ArtifactStore,
    threads: usize,
    catalog: &CatalogSpec,
    machine: &MachineSpec,
    pipeline: &PipelineConfig,
    tuner: &TunerConfig,
    sim: &SimConfig,
) -> Vec<StudyRow> {
    let catalog = store.catalog(catalog);
    let mut plan = ExperimentPlan::new();
    for bench in catalog.benchmarks() {
        let instrumented = store.instrumented(bench.program(), machine, pipeline);
        plan.push(CellSpec::isolation(
            bench.name(),
            instrumented,
            machine.clone(),
            Policy::Tuned(*tuner),
            *sim,
        ));
    }
    let outcome = Driver::new(threads).run_cached(plan, store);
    outcome
        .cells
        .iter()
        .map(|cell| {
            let record = cell
                .result
                .records
                .first()
                .expect("isolation cell ran one process");
            StudyRow::new(cell.group.clone())
                .metric("switches", MetricValue::UInt(record.stats.core_switches))
                .metric(
                    "runtime_ns",
                    MetricValue::Float(
                        record.completion_ns.unwrap_or_default() - record.arrival_ns,
                    ),
                )
                .metric(
                    "marks_executed",
                    MetricValue::UInt(record.stats.marks_executed),
                )
                .metric("instructions", MetricValue::UInt(record.stats.instructions))
                .metric("cycles", MetricValue::Float(record.stats.cycles))
        })
        .collect()
}

fn mark_overhead(
    store: &ArtifactStore,
    threads: usize,
    catalog_spec: &CatalogSpec,
    machine: &MachineSpec,
    workload: &WorkloadSpec,
    variants: &[MarkingConfig],
    sim: &SimConfig,
) -> Vec<StudyRow> {
    let catalog = store.catalog(catalog_spec);
    let workload = workload.build(&catalog);
    let plain: Vec<Arc<InstrumentedProgram>> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.baseline(b.program()))
        .collect();
    let mut plan = ExperimentPlan::new();
    plan.push(CellSpec {
        group: "baseline".into(),
        label: "uninstrumented".into(),
        machine: machine.clone(),
        slots: build_slots(&workload, &catalog, &plain),
        policy: Policy::Stock,
        sim: *sim,
    });
    for marking in variants {
        let pipeline = PipelineConfig::with_marking(*marking);
        let instrumented: Vec<Arc<InstrumentedProgram>> = catalog
            .benchmarks()
            .iter()
            .map(|b| store.instrumented(b.program(), machine, &pipeline))
            .collect();
        plan.push(CellSpec {
            group: marking.to_string(),
            label: format!("all-cores-{marking}"),
            machine: machine.clone(),
            slots: build_slots(&workload, &catalog, &instrumented),
            policy: Policy::AllCores,
            sim: *sim,
        });
    }
    let outcome = Driver::new(threads).run_cached(plan, store);
    let baseline = &outcome.cells[0].result;
    let baseline_busy: f64 = baseline.core_busy_ns.iter().sum();
    let baseline_rate = baseline.total_instructions as f64 / baseline_busy;
    outcome.cells[1..]
        .iter()
        .map(|cell| {
            let run = &cell.result;
            // Time overhead: extra busy time needed for the same committed
            // work, approximated by the change in instructions per busy
            // nanosecond.
            let run_busy: f64 = run.core_busy_ns.iter().sum();
            let mark_instructions =
                run.total_marks_executed * phase_marking::MARK_DECISION_INSTRUCTIONS;
            let run_rate = (run.total_instructions - mark_instructions) as f64 / run_busy;
            let overhead_pct = phase_metrics::percent_change(run_rate, baseline_rate);
            StudyRow::new(cell.group.clone())
                .metric(
                    "marks_executed",
                    MetricValue::UInt(run.total_marks_executed),
                )
                .metric(
                    "baseline_instructions",
                    MetricValue::UInt(baseline.total_instructions),
                )
                .metric(
                    "run_instructions",
                    MetricValue::UInt(run.total_instructions),
                )
                .metric("overhead_pct", MetricValue::Float(overhead_pct))
        })
        .collect()
}

fn comparison(store: &ArtifactStore, threads: usize, points: &[ComparisonPoint]) -> Vec<StudyRow> {
    let mut plan = ExperimentPlan::new();
    let mut prepared_points = Vec::new();
    for point in points {
        let prepared = prepare_workload_cached(&point.config, store);
        plan.extend(comparison_plan(&point.label, &point.config, &prepared));
        prepared_points.push(prepared);
    }
    let outcome = Driver::new(threads).run_cached(plan, store);
    points
        .iter()
        .zip(&prepared_points)
        .map(|(point, prepared)| {
            let result = comparison_result(&point.label, &outcome, &point.config, prepared)
                .expect("plan holds both cells of the point");
            let static_marks: usize = prepared.instrumented.iter().map(|p| p.mark_count()).sum();
            StudyRow::new(point.label.clone())
                .metric(
                    "throughput_improvement_pct",
                    MetricValue::Float(result.throughput.improvement_pct),
                )
                .metric(
                    "avg_time_decrease_pct",
                    MetricValue::Float(result.fairness.avg_time_decrease_pct),
                )
                .metric(
                    "max_flow_decrease_pct",
                    MetricValue::Float(result.fairness.max_flow_decrease_pct),
                )
                .metric(
                    "max_stretch_decrease_pct",
                    MetricValue::Float(result.fairness.max_stretch_decrease_pct),
                )
                .metric(
                    "tuned_max_stretch",
                    MetricValue::Float(result.tuned_fairness.max_stretch),
                )
                .metric(
                    "stock_max_stretch",
                    MetricValue::Float(result.baseline_fairness.max_stretch),
                )
                .metric(
                    "tuned_core_switches",
                    MetricValue::UInt(result.tuned.total_core_switches),
                )
                .metric(
                    "tuned_marks_executed",
                    MetricValue::UInt(result.tuned.total_marks_executed),
                )
                .metric("static_marks", MetricValue::UInt(static_marks as u64))
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn policy_matrix(
    store: &ArtifactStore,
    threads: usize,
    families: &[FamilySpec],
    policies: &[Policy],
    machine: &MachineSpec,
    pipeline: &PipelineConfig,
    sim: &SimConfig,
    base_seed: u64,
) -> Vec<StudyRow> {
    struct PreparedFamily {
        baseline_slots: Vec<Vec<phase_sched::JobSpec>>,
        tuned_slots: Vec<Vec<phase_sched::JobSpec>>,
        isolated_ns: Arc<HashMap<String, f64>>,
    }
    let prepared: Vec<PreparedFamily> = families
        .iter()
        .map(|family| {
            let catalog = store.catalog(&family.catalog);
            let instrumented: Vec<Arc<InstrumentedProgram>> = catalog
                .benchmarks()
                .iter()
                .map(|b| store.instrumented(b.program(), machine, pipeline))
                .collect();
            let plain: Vec<Arc<InstrumentedProgram>> = catalog
                .benchmarks()
                .iter()
                .map(|b| store.baseline(b.program()))
                .collect();
            let isolated_ns = isolated_runtimes_cached(
                &family.catalog,
                &catalog,
                &plain,
                machine,
                sim,
                threads,
                store,
            );
            let workload = family.workload.build(&catalog);
            PreparedFamily {
                baseline_slots: build_slots(&workload, &catalog, &plain),
                tuned_slots: build_slots(&workload, &catalog, &instrumented),
                isolated_ns,
            }
        })
        .collect();

    // One plan over everything: per family, one cell per policy, all on
    // identical queues and seeds (the paper's identical-queues rule).
    let mut plan = ExperimentPlan::new();
    for (index, (family, prep)) in families.iter().zip(&prepared).enumerate() {
        let seed = cell_seed(base_seed, index as u64);
        for policy in policies {
            let slots = if policy.runs_instrumented() {
                prep.tuned_slots.clone()
            } else {
                prep.baseline_slots.clone()
            };
            plan.push(CellSpec {
                group: family.name.clone(),
                label: format!("{}/{}", family.name, policy_tag(policy)),
                machine: machine.clone(),
                slots,
                policy: *policy,
                sim: SimConfig { seed, ..*sim },
            });
        }
    }
    let outcome = Driver::new(threads).run_cached(plan, store);

    let mut rows = Vec::new();
    for (family, prep) in families.iter().zip(&prepared) {
        let cells = outcome.group(&family.name);
        let stock = cells
            .iter()
            .find(|c| c.policy.name() == "stock")
            .expect("every family runs a stock cell");
        let stock_instructions = stock.result.total_instructions;
        for cell in &cells {
            let speedup = cell.result.total_instructions as f64 / stock_instructions as f64;
            let fairness = fairness_of(&cell.result, &prep.isolated_ns);
            let mut row = StudyRow::new(family.name.clone())
                .metric("policy", MetricValue::Text(policy_tag(&cell.policy)))
                .metric(
                    "policy_kind",
                    MetricValue::Text(cell.policy.name().to_string()),
                )
                .metric("speedup", MetricValue::Float(speedup))
                .metric(
                    "completed",
                    MetricValue::UInt(cell.result.completed_count() as u64),
                )
                .metric(
                    "instructions",
                    MetricValue::UInt(cell.result.total_instructions),
                )
                .metric("max_stretch", MetricValue::Float(fairness.max_stretch))
                .metric(
                    "switches",
                    MetricValue::UInt(cell.result.total_core_switches),
                );
            if let (Policy::Online(config), Some(stats)) = (&cell.policy, &cell.online_stats) {
                row = row
                    .metric("phases_created", MetricValue::UInt(stats.phases_created))
                    .metric("retunes", MetricValue::UInt(stats.retunes))
                    .metric("interval_ns", MetricValue::Float(config.sample_interval_ns))
                    .metric("max_phases", MetricValue::UInt(config.max_phases as u64));
            }
            rows.push(row);
        }
    }
    rows
}

/// The tail-latency sweep: every (family, machine) pair shares one seed and
/// identical request queues across all policies (the paper's identical-queues
/// rule, applied to open-loop serving), and every cell's per-request records
/// fold into a [`LatencyAccounting`] for the quantile and SLO readout.
#[allow(clippy::too_many_arguments)]
fn tail_latency(
    store: &ArtifactStore,
    threads: usize,
    families: &[FamilySpec],
    machines: &[MachineSpec],
    policies: &[Policy],
    pipeline: &PipelineConfig,
    sim: &SimConfig,
    base_seed: u64,
) -> Vec<StudyRow> {
    struct PreparedGroup {
        name: String,
        baseline_slots: Vec<Vec<phase_sched::JobSpec>>,
        tuned_slots: Vec<Vec<phase_sched::JobSpec>>,
        machine: MachineSpec,
    }
    let mut prepared = Vec::new();
    for family in families {
        let catalog = store.catalog(&family.catalog);
        let plain: Vec<Arc<InstrumentedProgram>> = catalog
            .benchmarks()
            .iter()
            .map(|b| store.baseline(b.program()))
            .collect();
        // The workload (arrival trace, request mix, deadlines) depends only
        // on the family spec: every machine replays the *same* request
        // stream, so quantile differences are the machine's and policy's.
        let workload = family.workload.build(&catalog);
        let baseline_slots = build_slots(&workload, &catalog, &plain);
        for machine in machines {
            let instrumented: Vec<Arc<InstrumentedProgram>> = catalog
                .benchmarks()
                .iter()
                .map(|b| store.instrumented(b.program(), machine, pipeline))
                .collect();
            prepared.push(PreparedGroup {
                name: format!("{}/{}", family.name, machine.name),
                baseline_slots: baseline_slots.clone(),
                tuned_slots: build_slots(&workload, &catalog, &instrumented),
                machine: machine.clone(),
            });
        }
    }

    let mut plan = ExperimentPlan::new();
    for (index, group) in prepared.iter().enumerate() {
        let seed = cell_seed(base_seed, index as u64);
        for policy in policies {
            let slots = if policy.runs_instrumented() {
                group.tuned_slots.clone()
            } else {
                group.baseline_slots.clone()
            };
            plan.push(CellSpec {
                group: group.name.clone(),
                label: format!("{}/{}", group.name, policy_tag(policy)),
                machine: group.machine.clone(),
                slots,
                policy: *policy,
                sim: SimConfig { seed, ..*sim },
            });
        }
    }
    let outcome = Driver::new(threads).run_cached(plan, store);

    let mut rows = Vec::new();
    for group in &prepared {
        for cell in &outcome.group(&group.name) {
            let accounting = crate::latency::LatencyAccounting::from_records(&cell.result.records);
            let (p50, p99, p999) = accounting.p50_p99_p999();
            rows.push(
                StudyRow::new(group.name.clone())
                    .metric("policy", MetricValue::Text(policy_tag(&cell.policy)))
                    .metric(
                        "policy_kind",
                        MetricValue::Text(cell.policy.name().to_string()),
                    )
                    .metric("requests", MetricValue::UInt(accounting.requests()))
                    .metric("completed", MetricValue::UInt(accounting.completed()))
                    .metric("p50_ns", MetricValue::UInt(p50))
                    .metric("p99_ns", MetricValue::UInt(p99))
                    .metric("p999_ns", MetricValue::UInt(p999))
                    .metric(
                        "slo_violation",
                        MetricValue::Float(accounting.slo_violation_fraction()),
                    )
                    .metric(
                        "deadline_misses",
                        MetricValue::UInt(accounting.deadline_misses()),
                    )
                    .metric("underflows", MetricValue::UInt(accounting.underflows()))
                    .metric(
                        "switches",
                        MetricValue::UInt(cell.result.total_core_switches),
                    )
                    .metric("cdf", MetricValue::Cdf(accounting.cdf())),
            );
        }
    }
    rows
}

/// Best wall-clock seconds of `samples` runs (at least one), each timing
/// `run` on a fresh input from the untimed `setup`, plus the last output.
fn best_of<S, R>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..samples.max(1) {
        let input = setup();
        let start = Instant::now();
        let output = run(input);
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(output);
    }
    (best, last.expect("at least one sample ran"))
}

/// Times both engines on each workload (and on the first workload's
/// basic-block-marked binaries under the tuner), the driver on the isolation
/// plan, and each static-pipeline layer over the engine catalogue. Setup
/// (slot and machine clones, plan construction) stays outside every timed
/// region: the rows measure simulation and analysis throughput, nothing else.
#[allow(clippy::too_many_arguments)]
fn engine_perf(
    store: &ArtifactStore,
    catalog_spec: &CatalogSpec,
    isolation_catalog: &CatalogSpec,
    machine: &MachineSpec,
    workloads: &[PerfWorkload],
    pipeline: &PipelineConfig,
    tuner: &TunerConfig,
    thread_counts: &[usize],
    sim: &SimConfig,
    samples: usize,
) -> Vec<StudyRow> {
    let catalog = store.catalog(catalog_spec);
    let plain: Vec<Arc<InstrumentedProgram>> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.baseline(b.program()))
        .collect();

    let mut rows = Vec::new();
    for perf in workloads {
        let workload = perf.workload.build(&catalog);
        let slots = build_slots(&workload, &catalog, &plain);
        let config = SimConfig {
            horizon_ns: perf.horizon_ns,
            ..*sim
        };
        engine_rows(
            &mut rows,
            &perf.name,
            machine,
            &slots,
            || NullHook,
            config,
            samples,
        );
    }
    // The mark path: the first workload again, on basic-block-marked
    // binaries under the tuner, so executed marks carry the host cost.
    if let Some(perf) = workloads.first() {
        let marked_pipeline = PipelineConfig {
            marking: MarkingConfig::basic_block(15, 0),
            ..*pipeline
        };
        let marked: Vec<Arc<InstrumentedProgram>> = catalog
            .benchmarks()
            .iter()
            .map(|b| store.instrumented(b.program(), machine, &marked_pipeline))
            .collect();
        let slots = build_slots(&perf.workload.build(&catalog), &catalog, &marked);
        let tuner_machine = Arc::new(machine.clone());
        let config = SimConfig {
            horizon_ns: perf.horizon_ns,
            ..*sim
        };
        engine_rows(
            &mut rows,
            &format!("{}-marked", perf.name),
            machine,
            &slots,
            || PhaseTuner::new(Arc::clone(&tuner_machine), *tuner),
            config,
            samples,
        );
    }

    if !thread_counts.is_empty() {
        let catalog = store.catalog(isolation_catalog);
        let instrumented: Vec<Arc<InstrumentedProgram>> = catalog
            .benchmarks()
            .iter()
            .map(|b| store.instrumented(b.program(), machine, pipeline))
            .collect();
        let build_plan = || {
            let mut plan = ExperimentPlan::new();
            for (bench, instrumented) in catalog.benchmarks().iter().zip(&instrumented) {
                plan.push(CellSpec::isolation(
                    bench.name(),
                    instrumented.clone(),
                    machine.clone(),
                    Policy::Tuned(*tuner),
                    *sim,
                ));
            }
            plan
        };
        let cells = catalog.len() as f64;
        let mut reference = None::<f64>;
        for &threads in thread_counts {
            let (best, outcome) =
                best_of(samples, build_plan, |plan| Driver::new(threads).run(plan));
            assert_eq!(outcome.aggregate.cells_completed, catalog.len());
            let reference_s = *reference.get_or_insert(best);
            rows.push(
                StudyRow::new(format!("table1/threads={threads}"))
                    .metric("threads", MetricValue::UInt(threads as u64))
                    .metric("wall_s", MetricValue::Float(best))
                    .metric("cells", MetricValue::UInt(catalog.len() as u64))
                    .metric("sims_per_sec", MetricValue::Float(cells / best))
                    .metric("parallel_speedup", MetricValue::Float(reference_s / best)),
            );
        }
    }

    for (name, pass) in layer_passes(machine, pipeline) {
        let (best, ()) = best_of(
            samples,
            || (),
            |()| catalog.benchmarks().iter().for_each(|b| pass(b.program())),
        );
        rows.push(
            StudyRow::new(format!("layer/{name}"))
                .metric("wall_s", MetricValue::Float(best))
                .metric("sims_per_sec", MetricValue::Float(1.0 / best)),
        );
    }
    rows
}

/// Times both engines on the same slots, each run under a fresh `hook()`,
/// and pushes a `<name>/round` and a `<name>/event` row. The event row adds
/// `speedup_vs_round` and asserts that both engines committed identical
/// instructions and executed identical marks.
fn engine_rows<H: PhaseHook + IntervalHook>(
    rows: &mut Vec<StudyRow>,
    name: &str,
    machine: &MachineSpec,
    slots: &[Vec<JobSpec>],
    hook: impl Fn() -> H,
    config: SimConfig,
    samples: usize,
) {
    let mut round = None::<(f64, u64, u64)>;
    for engine in [EngineKind::RoundBased, EngineKind::EventDriven] {
        let config = SimConfig { engine, ..config };
        let (best, result) = best_of(
            samples,
            || (machine.clone(), slots.to_vec(), hook()),
            |(machine, slots, hook)| run_with_hook("engine-perf", machine, slots, hook, config),
        );
        let engine_name = match engine {
            EngineKind::RoundBased => "round",
            EngineKind::EventDriven => "event",
        };
        let mut row = StudyRow::new(format!("{name}/{engine_name}"))
            .metric("engine", MetricValue::Text(engine_name.into()))
            .metric("wall_s", MetricValue::Float(best))
            .metric("sims_per_sec", MetricValue::Float(1.0 / best))
            .metric("instructions", MetricValue::UInt(result.total_instructions))
            .metric(
                "marks_executed",
                MetricValue::UInt(result.total_marks_executed),
            )
            .metric(
                "minstr_per_s",
                MetricValue::Float(result.total_instructions as f64 / best / 1e6),
            );
        match round {
            None => round = Some((best, result.total_instructions, result.total_marks_executed)),
            Some((round_s, round_instructions, round_marks)) => {
                assert_eq!(
                    round_instructions, result.total_instructions,
                    "engines must commit identical work on '{name}'"
                );
                assert_eq!(
                    round_marks, result.total_marks_executed,
                    "engines must execute identical marks on '{name}'"
                );
                row = row.metric("speedup_vs_round", MetricValue::Float(round_s / best));
            }
        }
        rows.push(row);
    }
}

/// One static-pipeline stage applied to one program, its output discarded
/// through `black_box` so the optimiser cannot skip the work.
type LayerPass<'a> = Box<dyn Fn(&Program) + 'a>;

/// The static-pipeline stages (the paper's Section III) the `layer/*` rows
/// time, in pipeline order: the CFG analyses, k-means block typing, and the
/// full prepare path (typing, sections, marks) for one marking of each
/// granularity.
fn layer_passes<'a>(
    machine: &'a MachineSpec,
    pipeline: &PipelineConfig,
) -> Vec<(String, LayerPass<'a>)> {
    let mut passes: Vec<(String, LayerPass<'a>)> = vec![
        (
            "cfg+dominators+loops".into(),
            Box::new(|program| {
                for proc in program.procedures() {
                    let cfg = Cfg::build(proc);
                    let dominators = DominatorTree::build(&cfg);
                    black_box(LoopForest::build(&cfg, &dominators));
                }
            }),
        ),
        (
            "interval-partition".into(),
            Box::new(|program| {
                for proc in program.procedures() {
                    black_box(IntervalPartition::build(&Cfg::build(proc)));
                }
            }),
        ),
        (
            "call-graph".into(),
            Box::new(|program| {
                black_box(CallGraph::build(program).bottom_up_order());
            }),
        ),
        (
            "block-typing-kmeans".into(),
            Box::new(|program| {
                black_box(assign_block_types(program, &StaticTypingConfig::default()));
            }),
        ),
    ];
    for marking in [
        MarkingConfig::basic_block(15, 0),
        MarkingConfig::interval(45),
        MarkingConfig::loop_level(45),
    ] {
        let config = PipelineConfig {
            marking,
            ..*pipeline
        };
        passes.push((
            format!("prepare/{marking}"),
            Box::new(move |program| {
                black_box(prepare_program(program, machine, &config));
            }),
        ));
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_catalog() -> CatalogSpec {
        CatalogSpec::standard(0.04, 7)
    }

    #[test]
    fn mark_stats_study_reports_one_row_per_variant() {
        let store = ArtifactStore::new();
        let spec = StudySpec {
            name: "fig3".into(),
            title: "space overhead".into(),
            mode: StudyMode::MarkStatsPerVariant {
                catalog: tiny_catalog(),
                machine: MachineSpec::core2_quad_amp(),
                variants: vec![MarkingConfig::loop_level(45), MarkingConfig::interval(45)],
            },
        };
        let report = run_study(&spec, &store, 2);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].label, "Loop[45]");
        assert!(report.rows[0].f64("space_max") >= report.rows[0].f64("space_min"));
        let json = report.to_json();
        assert_eq!(json.get("study").and_then(JsonValue::as_str), Some("fig3"));
        assert_eq!(
            json.get("rows")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn isolation_study_rows_cover_the_catalogue_in_order() {
        let store = ArtifactStore::new();
        let spec = StudySpec {
            name: "table1".into(),
            title: "switches".into(),
            mode: StudyMode::Isolation {
                catalog: tiny_catalog(),
                machine: MachineSpec::core2_quad_amp(),
                pipeline: PipelineConfig::paper_best(),
                tuner: TunerConfig::paper_table1(),
                sim: SimConfig::default(),
            },
        };
        let report = run_study(&spec, &store, 4);
        assert_eq!(report.rows.len(), 15);
        assert_eq!(report.rows[0].label, "401.bzip2");
        assert!(report.rows.iter().all(|r| r.u64("instructions") > 0));
        // The second run is answered from the store cell-for-cell.
        let warm = run_study(&spec, &store, 4);
        assert_eq!(warm.rows, report.rows);
        let cells = warm.store.stage("cells").unwrap();
        assert!(cells.hits >= 15, "warm run hit {} cells", cells.hits);
    }

    #[test]
    fn engine_perf_study_reports_engines_and_thread_scaling() {
        let store = ArtifactStore::new();
        let spec = StudySpec {
            name: "engine".into(),
            title: "engine perf".into(),
            mode: StudyMode::EnginePerf {
                catalog: tiny_catalog(),
                isolation_catalog: tiny_catalog(),
                machine: MachineSpec::core2_quad_amp(),
                workloads: vec![PerfWorkload {
                    name: "fig4".into(),
                    workload: WorkloadSpec::Random {
                        slots: 4,
                        jobs_per_slot: 1,
                        seed: 84,
                    },
                    horizon_ns: Some(2_000_000.0),
                }],
                pipeline: PipelineConfig::paper_best(),
                tuner: TunerConfig::paper_table1(),
                thread_counts: vec![1, 2],
                sim: SimConfig::default(),
                samples: 1,
            },
        };
        let report = run_study(&spec, &store, 2);
        assert_eq!(
            report.rows.len(),
            13,
            "2 engine rows + 2 marked engine rows + 2 thread rows + 7 layer rows"
        );
        let round = &report.rows[0];
        let event = &report.rows[1];
        assert_eq!(round.label, "fig4/round");
        assert_eq!(event.label, "fig4/event");
        assert_eq!(
            round.u64("instructions"),
            event.u64("instructions"),
            "engines committed identical work"
        );
        assert_eq!(event.u64("marks_executed"), 0, "unmarked binaries");
        assert!(round.f64("sims_per_sec") > 0.0);
        assert!(event.f64("speedup_vs_round") > 0.0);
        assert!(round.get("speedup_vs_round").is_none());
        let (marked_round, marked_event) = (&report.rows[2], &report.rows[3]);
        assert_eq!(marked_round.label, "fig4-marked/round");
        assert_eq!(marked_event.label, "fig4-marked/event");
        for row in [marked_round, marked_event] {
            assert!(row.u64("marks_executed") > 0, "{}", row.label);
            assert!(row.f64("minstr_per_s") > 0.0, "{}", row.label);
        }
        assert_eq!(
            marked_round.u64("marks_executed"),
            marked_event.u64("marks_executed")
        );
        assert_eq!(
            marked_round.u64("instructions"),
            marked_event.u64("instructions")
        );
        assert!(marked_event.f64("speedup_vs_round") > 0.0);
        assert!(marked_round.get("speedup_vs_round").is_none());
        let seq = &report.rows[4];
        assert_eq!(seq.label, "table1/threads=1");
        assert_eq!(seq.f64("parallel_speedup"), 1.0);
        assert!(report.rows[5].u64("cells") > 0);
        let layers: Vec<&str> = report.rows[6..].iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            layers,
            [
                "layer/cfg+dominators+loops",
                "layer/interval-partition",
                "layer/call-graph",
                "layer/block-typing-kmeans",
                "layer/prepare/BB[15,0]",
                "layer/prepare/Int[45]",
                "layer/prepare/Loop[45]",
            ]
        );
        for layer in &report.rows[6..] {
            assert!(layer.f64("wall_s") > 0.0, "{}", layer.label);
            assert_eq!(layer.f64("sims_per_sec"), 1.0 / layer.f64("wall_s"));
            assert!(layer.get("speedup_vs_round").is_none(), "{}", layer.label);
        }
    }

    #[test]
    fn comparison_study_matches_the_uncached_comparison() {
        use crate::experiment::run_comparison;
        let store = ArtifactStore::new();
        let config = ExperimentConfig::smoke_test();
        let spec = StudySpec {
            name: "cmp".into(),
            title: "comparison".into(),
            mode: StudyMode::Comparison {
                points: vec![ComparisonPoint {
                    label: "paper-best".into(),
                    config: config.clone(),
                }],
            },
        };
        let report = run_study(&spec, &store, 2);
        assert_eq!(report.rows.len(), 1);
        let reference = run_comparison(&config);
        let row = &report.rows[0];
        assert_eq!(
            row.f64("avg_time_decrease_pct"),
            reference.fairness.avg_time_decrease_pct,
            "cached path reproduces the uncached comparison bit-for-bit"
        );
        assert_eq!(
            row.f64("throughput_improvement_pct"),
            reference.throughput.improvement_pct
        );
        assert_eq!(
            row.u64("tuned_marks_executed"),
            reference.tuned.total_marks_executed
        );
    }
}
