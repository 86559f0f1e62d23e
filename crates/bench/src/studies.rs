//! The study table behind `run_studies`: [`STUDIES`] holds one [`Study`]
//! per table or figure of the evaluation, plus the tail-latency study.
//!
//! Each entry carries, next to its name and description:
//!
//! * a **spec builder** (`table1`, `fig6`, ...) turning [`BenchSettings`]
//!   into the declarative [`StudySpec`] the shared `phase-core` runner
//!   consumes;
//! * a **renderer** (`render_table1`, ...) turning the unified
//!   [`StudyReport`] back into the exact text the legacy hand-rolled binary
//!   printed;
//! * a **headline** hook: the study's own `BENCH_<name>.json` fields, or
//!   the failure of its gate.
//!
//! `run_studies` runs an entry as `spec → run_study → render → headline →
//! write_study_report_with`, and the golden tests in `tests/golden.rs` run
//! the same spec and renderer against outputs captured from the legacy
//! binaries, proving the spec-driven path reproduces their numbers
//! bit-for-bit. The engine study ([`engine`]) is not in the table:
//! `bench_engine` runs it under its own perf gate.

use phase_amp::{CoreId, CostModel, MachineSpec};
use phase_core::{
    format_duration_ns, ComparisonPoint, FamilySpec, JsonValue, MetricValue, PerfWorkload, Policy,
    StudyMode, StudyReport, StudyRow, StudySpec, TextTable,
};
use phase_marking::{MarkingConfig, MARK_SIZE_BYTES};
use phase_metrics::SummaryStats;
use phase_online::OnlineConfig;
use phase_runtime::TunerConfig;
use phase_sched::SimConfig;
use phase_workload::{CatalogSpec, WorkloadSpec};

use crate::{experiment_config_with, overhead_variants, BenchSettings};

/// Catalogue scale of the static and isolation studies.
fn catalog_scale(quick: bool) -> f64 {
    if quick {
        0.2
    } else {
        1.0
    }
}

/// The body shared by most renderers: the table followed by a footer note,
/// exactly as `println!` would emit them.
fn body(table: &TextTable, footer: &str) -> String {
    format!("{}\n{footer}\n", table.render())
}

/// The study-specific fields spliced into a `BENCH_<name>.json` report.
pub type Headline = Vec<(&'static str, JsonValue)>;

/// One entry of [`STUDIES`]: everything `run_studies` needs to run a study
/// by name.
pub struct Study {
    /// The study's name: its spec's `name` and its report's
    /// `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// What the study measures, printed under its header and in its help.
    pub description: &'static str,
    /// Builds the study's spec from the harness settings.
    pub spec: fn(&BenchSettings) -> StudySpec,
    /// Renders the study's report as its text table.
    pub render: fn(&StudyReport) -> String,
    /// The study's headline fields, or why its gate failed.
    pub headline: fn(&StudyReport) -> Result<Headline, String>,
    /// Whether [`all`], and so a `run_studies` without names, runs the
    /// study; the others run only by name.
    pub in_all: bool,
}

/// Every study `run_studies` can run, in the order a run without names
/// executes them.
pub static STUDIES: [Study; 14] = [
    Study::paper("fig3", FIG3_ABOUT, fig3, render_fig3),
    Study::paper("fig4", FIG4_ABOUT, fig4, render_fig4),
    Study::paper("table1", TABLE1_ABOUT, table1, render_table1),
    Study::paper("fig5", FIG5_ABOUT, fig5, render_fig5),
    Study::paper("fig6", FIG6_ABOUT, fig6, render_fig6),
    Study::paper("fig7", FIG7_ABOUT, fig7, render_fig7),
    Study::paper(
        "sweep_lookahead",
        LOOKAHEAD_ABOUT,
        sweep_lookahead,
        render_sweep_lookahead,
    ),
    Study::paper(
        "sweep_min_size",
        MIN_SIZE_ABOUT,
        sweep_min_size,
        render_sweep_min_size,
    ),
    Study::paper("table2", TABLE2_ABOUT, table2, render_table2),
    Study::paper("fig8", FIG8_ABOUT, fig8, render_fig8),
    Study::paper(
        "table_mark_stats",
        MARK_STATS_ABOUT,
        table_mark_stats,
        render_table_mark_stats,
    ),
    Study::paper(
        "three_core",
        THREE_CORE_ABOUT,
        exp_three_core,
        render_exp_three_core,
    ),
    Study {
        headline: online_headline,
        ..Study::paper("online", ONLINE_ABOUT, online, render_online)
    },
    Study {
        headline: tail_headline,
        in_all: false,
        ..Study::paper("tail", TAIL_ABOUT, tail, render_tail)
    },
];

impl Study {
    /// An entry [`all`] runs, with no headline fields and no gate.
    const fn paper(
        name: &'static str,
        description: &'static str,
        spec: fn(&BenchSettings) -> StudySpec,
        render: fn(&StudyReport) -> String,
    ) -> Self {
        Self {
            name,
            description,
            spec,
            render,
            headline: no_headline,
            in_all: true,
        }
    }
}

/// The table entry named `name`.
pub fn find(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|study| study.name == name)
}

/// The specs of every study a `run_studies` without names runs, in order.
pub fn all(settings: &BenchSettings) -> Vec<StudySpec> {
    STUDIES
        .iter()
        .filter(|study| study.in_all)
        .map(|study| (study.spec)(settings))
        .collect()
}

/// Renders a report through its study's renderer; `None` for a study the
/// table does not hold.
pub fn render(report: &StudyReport) -> Option<String> {
    find(&report.study).map(|study| (study.render)(report))
}

/// The headline of a study that writes no fields of its own and has no gate.
fn no_headline(_: &StudyReport) -> Result<Headline, String> {
    Ok(Headline::new())
}

// --- Engine perf gate: BENCH_engine.json. ---

/// The engine/driver wall-clock study behind `bench_engine` and the CI
/// sims/sec perf gate: both engines on the fig4 and bursty workloads and on
/// the fig4 workload's `BB[15,0]`-marked binaries under the tuner
/// (`fig4-marked/*`, the phase-mark path), then the driver on the Table 1
/// isolation plan at 1 and 4 workers.
///
/// Under `--perf` every knob is pinned (scale 0.5, 84 slots, catalogue seed
/// 7, workload seeds 84/21, 5 samples) regardless of `--quick`/`--slots`, so
/// sims/sec is comparable run-to-run and against the committed baseline.
pub fn engine(settings: &BenchSettings) -> StudySpec {
    let pinned;
    let settings = if settings.perf {
        pinned = BenchSettings {
            quick: false,
            slots: Some(84),
            ..settings.clone()
        };
        &pinned
    } else {
        settings
    };
    let quick = settings.quick;
    let scale = if quick { 0.1 } else { 0.5 };
    let slots = settings.slots_or(if quick { 18 } else { 84 });
    let sim = experiment_config_with(settings, MarkingConfig::paper_best()).sim;
    StudySpec {
        name: "engine".into(),
        title: "Engine + driver baseline (BENCH_engine.json)".into(),
        mode: StudyMode::EnginePerf {
            catalog: CatalogSpec::standard(scale, 7),
            isolation_catalog: CatalogSpec::standard(catalog_scale(quick), 7),
            machine: MachineSpec::core2_quad_amp(),
            workloads: vec![
                PerfWorkload {
                    name: "fig4".into(),
                    workload: WorkloadSpec::Random {
                        slots,
                        jobs_per_slot: 1,
                        seed: 84,
                    },
                    horizon_ns: sim.horizon_ns,
                },
                // Long idle gaps between waves: the event engine's best case.
                PerfWorkload {
                    name: "bursty".into(),
                    workload: WorkloadSpec::Bursty {
                        slots: slots.min(12),
                        jobs_per_slot: 1,
                        waves: 4,
                        gap_ns: 50_000_000.0,
                        seed: 21,
                    },
                    horizon_ns: None,
                },
            ],
            pipeline: phase_core::PipelineConfig::with_marking(MarkingConfig::paper_best()),
            tuner: TunerConfig::paper_table1(),
            thread_counts: vec![1, 4],
            sim,
            samples: if quick { 3 } else { 5 },
        },
    }
}

/// Renders [`engine`] as a measurement table with sims/sec and speedups.
pub fn render_engine(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec!["Measurement", "Seconds", "Sims/sec", "Speedup"]);
    for row in &report.rows {
        let speedup = row
            .get("speedup_vs_round")
            .or_else(|| row.get("parallel_speedup"))
            .and_then(MetricValue::as_f64);
        table.add_row(vec![
            row.label.clone(),
            format!("{:.4}", row.f64("wall_s")),
            format!("{:.2}", row.f64("sims_per_sec")),
            speedup.map(|s| format!("{s:.2}x")).unwrap_or_default(),
        ]);
    }
    body(
        &table,
        "sims/sec: full simulations per wall-clock second (best of N samples); \
         engine rows are one simulation each,\n\
         fig4-marked rows run BB[15,0]-marked binaries under the tuner, table1 rows one \
         isolation plan,\n\
         layer rows one pass of a static-pipeline stage over the catalogue.",
    )
}

// --- Figure 3: space overhead. ---

const FIG3_ABOUT: &str = "\
    Phase-mark bytes added relative to the original binary size, per technique,\n\
    summarised over the 15 catalogue benchmarks (box-plot quartiles).";

/// Figure 3 — space overhead of phase marks per technique variant.
pub fn fig3(settings: &BenchSettings) -> StudySpec {
    StudySpec {
        name: "fig3".into(),
        title: "Figure 3 — space overhead".into(),
        mode: StudyMode::MarkStatsPerVariant {
            catalog: CatalogSpec::standard(catalog_scale(settings.quick), 7),
            machine: MachineSpec::core2_quad_amp(),
            variants: overhead_variants(),
        },
    }
}

/// Renders [`fig3`] as the legacy table.
pub fn render_fig3(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Min %",
        "Q1 %",
        "Median %",
        "Q3 %",
        "Max %",
        "Mean marks",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("space_min")),
            format!("{:.2}", row.f64("space_q1")),
            format!("{:.2}", row.f64("space_median")),
            format!("{:.2}", row.f64("space_q3")),
            format!("{:.2}", row.f64("space_max")),
            format!("{:.1}", row.f64("marks_mean")),
        ]);
    }
    body(
        &table,
        "paper: less than 4% space overhead for the best technique (Loop[45]),\n\
         overhead decreasing as the minimum section size and lookahead grow.",
    )
}

// --- Figure 4: time overhead. ---

const FIG4_ABOUT: &str = "\
    Identical workloads run with uninstrumented binaries and with instrumented binaries\n\
    whose marks switch to \"all cores\"; the completion-time difference is the mark\n\
    overhead. The baseline and the eight variants are one plan fanned across the driver.";

/// Figure 4 — time overhead of the phase marks (all-cores policy).
pub fn fig4(settings: &BenchSettings) -> StudySpec {
    let quick = settings.quick;
    StudySpec {
        name: "fig4".into(),
        title: "Figure 4 — time overhead of phase marks (workload size 84)".into(),
        mode: StudyMode::MarkOverhead {
            catalog: CatalogSpec::standard(if quick { 0.1 } else { 0.5 }, 7),
            machine: MachineSpec::core2_quad_amp(),
            workload: WorkloadSpec::Random {
                slots: settings.slots_or(84),
                jobs_per_slot: 1,
                seed: 84,
            },
            variants: vec![
                MarkingConfig::basic_block(15, 0),
                MarkingConfig::basic_block(15, 2),
                MarkingConfig::basic_block(45, 0),
                MarkingConfig::interval(30),
                MarkingConfig::interval(45),
                MarkingConfig::loop_level(30),
                MarkingConfig::loop_level(45),
                MarkingConfig::loop_level(60),
            ],
            sim: experiment_config_with(settings, MarkingConfig::paper_best()).sim,
        },
    }
}

/// Renders [`fig4`] as the legacy table.
pub fn render_fig4(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Marks executed",
        "Baseline instrs",
        "Instrumented instrs",
        "Time overhead %",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            row.u64("marks_executed").to_string(),
            row.u64("baseline_instructions").to_string(),
            row.u64("run_instructions").to_string(),
            format!("{:.3}", row.f64("overhead_pct")),
        ]);
    }
    body(
        &table,
        "paper: as little as 0.14% time overhead, lowest for the loop technique because it\n\
         eliminates marks inside nested loops and in functions called from loops.",
    )
}

// --- Table 1 / Figure 5: isolation runs. ---

fn isolation_mode(settings: &BenchSettings) -> StudyMode {
    StudyMode::Isolation {
        catalog: CatalogSpec::standard(catalog_scale(settings.quick), 7),
        machine: MachineSpec::core2_quad_amp(),
        pipeline: phase_core::PipelineConfig::with_marking(MarkingConfig::paper_best()),
        tuner: TunerConfig::paper_table1(),
        sim: SimConfig::default(),
    }
}

const TABLE1_ABOUT: &str = "\
    Each benchmark runs alone on the AMP with the phase tuner; the table reports\n\
    the core switches it performed and its runtime. The 15 isolation runs are\n\
    independent cells fanned across the driver's worker threads.";

/// Table 1 — switches per benchmark under the best technique.
pub fn table1(settings: &BenchSettings) -> StudySpec {
    StudySpec {
        name: "table1".into(),
        title: "Table 1 — switches per benchmark (Loop[45], 0.2 threshold)".into(),
        mode: isolation_mode(settings),
    }
}

/// Renders [`table1`] as the legacy table.
pub fn render_table1(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Switches",
        "Runtime",
        "Marks executed",
        "Instructions",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            row.u64("switches").to_string(),
            format_duration_ns(row.f64("runtime_ns")),
            row.u64("marks_executed").to_string(),
            row.u64("instructions").to_string(),
        ]);
    }
    body(
        &table,
        "paper shape: most benchmarks switch occasionally; 183.equake / 171.swim / 172.mgrid\n\
         switch most often; 459.GemsFDTD and 473.astar have no phases and never switch.",
    )
}

const FIG5_ABOUT: &str = "\
    Cycles executed by each benchmark divided by the number of core switches it made\n\
    (running alone with Loop[45] marking and the 0.2-threshold tuner); one isolation\n\
    cell per benchmark, fanned across the driver's workers.";

/// Figure 5 — average cycles per core switch per benchmark.
pub fn fig5(settings: &BenchSettings) -> StudySpec {
    StudySpec {
        name: "fig5".into(),
        title: "Figure 5 — average cycles per core switch".into(),
        mode: isolation_mode(settings),
    }
}

/// Renders [`fig5`] as the legacy table.
pub fn render_fig5(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Cycles",
        "Switches",
        "Cycles per switch",
        "Amortises 1000-cycle switch?",
    ]);
    for row in &report.rows {
        let switches = row.u64("switches");
        let cycles = row.f64("cycles");
        let per_switch = if switches == 0 {
            f64::INFINITY
        } else {
            cycles / switches as f64
        };
        table.add_row(vec![
            row.label.clone(),
            format!("{cycles:.3e}"),
            switches.to_string(),
            if per_switch.is_finite() {
                format!("{per_switch:.3e}")
            } else {
                "no switches".to_string()
            },
            if per_switch > 10_000.0 {
                "yes".into()
            } else {
                "marginal".into()
            },
        ]);
    }
    body(
        &table,
        "paper shape: most benchmarks execute millions to billions of cycles per switch,\n\
         comfortably amortising the ~1000-cycle switch cost.",
    )
}

// --- Figure 6: IPC-threshold sweep. ---

const FIG6_ABOUT: &str = "\
    Basic-block strategy, min block size 15, lookahead 0; the workload is re-run with\n\
    the same queues for every threshold value. All threshold cells form one plan\n\
    fanned across the driver.";

/// Figure 6 — throughput vs. the tuner's IPC threshold `δ`.
pub fn fig6(settings: &BenchSettings) -> StudySpec {
    let thresholds = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5];
    let points = thresholds
        .iter()
        .map(|&threshold| {
            let mut config = experiment_config_with(settings, MarkingConfig::basic_block(15, 0));
            config.tuner.ipc_threshold = threshold;
            ComparisonPoint {
                label: format!("{threshold:.2}"),
                config,
            }
        })
        .collect();
    StudySpec {
        name: "fig6".into(),
        title: "Figure 6 — throughput vs. IPC threshold".into(),
        mode: StudyMode::Comparison { points },
    }
}

/// Renders [`fig6`] as the legacy table.
pub fn render_fig6(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "IPC threshold",
        "Throughput improvement %",
        "Avg time reduction %",
        "Core switches",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
            row.u64("tuned_core_switches").to_string(),
        ]);
    }
    body(
        &table,
        "paper shape: extreme thresholds degrade throughput (everything migrates away from\n\
         one core type at δ≈0; nothing well-suited reaches the efficient cores at large δ);\n\
         an interior value balances the assignment.",
    )
}

// --- Figure 7: clustering-error sweep. ---

const FIG7_ABOUT: &str = "\
    Basic-block strategy, min block size 15, lookahead 0; 0%–30% of typed blocks are\n\
    flipped to the opposite cluster before phase marking. One comparison plan per\n\
    error level, all fanned across the driver together.";

/// Figure 7 — robustness to static clustering error.
pub fn fig7(settings: &BenchSettings) -> StudySpec {
    let error_levels = [0.0, 0.10, 0.20, 0.30];
    let points = error_levels
        .iter()
        .map(|&error| {
            let mut config = experiment_config_with(settings, MarkingConfig::basic_block(15, 0));
            config.pipeline.clustering_error = error;
            ComparisonPoint {
                label: format!("{:.0}%", error * 100.0),
                config,
            }
        })
        .collect();
    StudySpec {
        name: "fig7".into(),
        title: "Figure 7 — throughput improvement vs. clustering error".into(),
        mode: StudyMode::Comparison { points },
    }
}

/// Renders [`fig7`] as the legacy table.
pub fn render_fig7(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Clustering error",
        "Throughput improvement %",
        "Avg time reduction %",
        "Phase marks executed",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
            row.u64("tuned_marks_executed").to_string(),
        ]);
    }
    body(
        &table,
        "paper shape: almost no loss at 10% error, still a significant gain at 20%, and\n\
         little improvement left at 30%.",
    )
}

// --- Lookahead sweep. ---

const LOOKAHEAD_ABOUT: &str = "\
    Basic-block strategy with min size 15 and lookahead depths 0–3; one comparison\n\
    plan per depth, fanned across the driver together.";

/// Section IV-C2 — lookahead-depth sweep of the basic-block technique.
pub fn sweep_lookahead(settings: &BenchSettings) -> StudySpec {
    let points = [0usize, 1, 2, 3]
        .iter()
        .map(|&depth| {
            let config = experiment_config_with(settings, MarkingConfig::basic_block(15, depth));
            ComparisonPoint {
                label: config.pipeline.marking.to_string(),
                config,
            }
        })
        .collect();
    StudySpec {
        name: "sweep_lookahead".into(),
        title: "Lookahead-depth sweep (Section IV-C2)".into(),
        mode: StudyMode::Comparison { points },
    }
}

/// Renders [`sweep_lookahead`] as the legacy table.
pub fn render_sweep_lookahead(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Static marks (catalogue)",
        "Throughput improvement %",
        "Avg time reduction %",
        "Max-stretch change %",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            row.u64("static_marks").to_string(),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
            format!("{:.2}", row.f64("max_stretch_decrease_pct")),
        ]);
    }
    body(
        &table,
        "paper shape: less lookahead gives higher throughput but at a significant cost in\n\
         fairness; deeper lookahead removes marks and tempers both effects.",
    )
}

// --- Minimum-size sweep. ---

const MIN_SIZE_ABOUT: &str = "\
    Marks inserted and throughput/fairness impact as the minimum section size grows,\n\
    for the basic-block, interval, and loop techniques; one comparison plan per\n\
    variant, fanned across the driver together.";

/// Section IV-C4 — minimum-section-size sweep across all granularities.
pub fn sweep_min_size(settings: &BenchSettings) -> StudySpec {
    let variants = [
        MarkingConfig::basic_block(10, 0),
        MarkingConfig::basic_block(15, 0),
        MarkingConfig::basic_block(20, 0),
        MarkingConfig::interval(30),
        MarkingConfig::interval(45),
        MarkingConfig::interval(60),
        MarkingConfig::loop_level(30),
        MarkingConfig::loop_level(45),
        MarkingConfig::loop_level(60),
    ];
    let points = variants
        .iter()
        .map(|&marking| ComparisonPoint {
            label: marking.to_string(),
            config: experiment_config_with(settings, marking),
        })
        .collect();
    StudySpec {
        name: "sweep_min_size".into(),
        title: "Minimum-section-size sweep (Section IV-C4)".into(),
        mode: StudyMode::Comparison { points },
    }
}

/// Renders [`sweep_min_size`] as the legacy table.
pub fn render_sweep_min_size(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Static marks (catalogue)",
        "Throughput improvement %",
        "Avg time reduction %",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            row.u64("static_marks").to_string(),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
        ]);
    }
    body(
        &table,
        "paper shape: smaller minimum sizes catch more transitions (higher potential gain,\n\
         more overhead); larger minimums may miss small hot loops.",
    )
}

// --- Table 2: fairness comparison. ---

fn table2_quick_or_full(settings: &BenchSettings, quick: Vec<MarkingConfig>) -> Vec<MarkingConfig> {
    if settings.quick {
        quick
    } else {
        MarkingConfig::table2_variants()
    }
}

fn comparison_over_variants(
    settings: &BenchSettings,
    variants: Vec<MarkingConfig>,
) -> Vec<ComparisonPoint> {
    variants
        .into_iter()
        .map(|marking| ComparisonPoint {
            label: marking.to_string(),
            config: experiment_config_with(settings, marking),
        })
        .collect()
}

const TABLE2_ABOUT: &str = "\
    Percent decrease relative to the stock run on the same queues; positive numbers are\n\
    improvements. Every variant's baseline and tuned cells form one plan fanned across\n\
    the driver. Pass PHASE_BENCH_QUICK=1 for a reduced run.";

/// Table 2 — fairness comparison to the stock scheduler.
pub fn table2(settings: &BenchSettings) -> StudySpec {
    let variants = table2_quick_or_full(
        settings,
        vec![
            MarkingConfig::basic_block(15, 0),
            MarkingConfig::interval(45),
            MarkingConfig::loop_level(45),
        ],
    );
    StudySpec {
        name: "table2".into(),
        title: "Table 2 — fairness comparison to the stock scheduler".into(),
        mode: StudyMode::Comparison {
            points: comparison_over_variants(settings, variants),
        },
    }
}

/// Renders [`table2`] as the legacy table with its best-variant note.
pub fn render_table2(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Max-Flow %",
        "Max-Stretch %",
        "Avg. Time %",
        "Throughput %",
    ]);
    let mut best: Option<(String, f64)> = None;
    for row in &report.rows {
        let avg = row.f64("avg_time_decrease_pct");
        if best.as_ref().map(|(_, b)| avg > *b).unwrap_or(true) {
            best = Some((row.label.clone(), avg));
        }
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("max_flow_decrease_pct")),
            format!("{:.2}", row.f64("max_stretch_decrease_pct")),
            format!("{avg:.2}"),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
        ]);
    }
    let mut out = format!("{}\n", table.render());
    if let Some((name, avg)) = best {
        out.push_str(&format!(
            "best average-process-time reduction: {name} at {avg:.2}%\n"
        ));
    }
    out.push_str(
        "paper: interval and loop variants dominate the basic-block variants (several of\n\
         which regress); the best run (Loop[45]) improves max-flow by 12.04%, max-stretch by\n\
         20.41%, and average process time by 35.95%.\n",
    );
    out
}

// --- Figure 8: speedup vs. fairness. ---

const FIG8_ABOUT: &str = "\
    Each row is one technique variant: its average-process-time reduction (speedup) and\n\
    the max-stretch it achieves (lower is fairer). The paper's interval and loop variants\n\
    balance the two; several basic-block variants trade fairness for speedup.";

/// Figure 8 — the speedup-versus-fairness trade-off.
pub fn fig8(settings: &BenchSettings) -> StudySpec {
    let variants = table2_quick_or_full(
        settings,
        vec![
            MarkingConfig::basic_block(15, 0),
            MarkingConfig::basic_block(15, 2),
            MarkingConfig::interval(45),
            MarkingConfig::loop_level(45),
        ],
    );
    StudySpec {
        name: "fig8".into(),
        title: "Figure 8 — speedup vs. fairness trade-off".into(),
        mode: StudyMode::Comparison {
            points: comparison_over_variants(settings, variants),
        },
    }
}

/// Renders [`fig8`] as the legacy table (no footer).
pub fn render_fig8(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Technique",
        "Speedup (avg time reduction %)",
        "Max-stretch (tuned)",
        "Max-stretch (stock)",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
            format!("{:.2}", row.f64("tuned_max_stretch")),
            format!("{:.2}", row.f64("stock_max_stretch")),
        ]);
    }
    format!("{}\n", table.render())
}

// --- Mark statistics. ---

const MARK_STATS_ABOUT: &str = "\
    Marks inserted per benchmark with Loop[45], their size, and the cost of a core switch.";

/// Sections III / IV-B — phase-mark statistics for the best technique.
pub fn table_mark_stats(settings: &BenchSettings) -> StudySpec {
    StudySpec {
        name: "table_mark_stats".into(),
        title: "Phase-mark statistics (Sections III and IV-B)".into(),
        mode: StudyMode::MarkStatsPerBenchmark {
            catalog: CatalogSpec::standard(catalog_scale(settings.quick), 7),
            machine: MachineSpec::core2_quad_amp(),
            pipeline: phase_core::PipelineConfig::with_marking(MarkingConfig::paper_best()),
        },
    }
}

/// Renders [`table_mark_stats`] with its summary and switch-cost notes.
pub fn render_table_mark_stats(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Phase marks",
        "Added bytes",
        "Overhead %",
    ]);
    let mut mark_counts = Vec::new();
    for row in &report.rows {
        mark_counts.push(row.u64("marks") as f64);
        table.add_row(vec![
            row.label.clone(),
            row.u64("marks").to_string(),
            row.u64("added_bytes").to_string(),
            format!("{:.2}", row.f64("space_overhead_pct")),
        ]);
    }
    let summary = SummaryStats::of(&mark_counts);
    let mut out = format!("{}\n", table.render());
    out.push_str(&format!(
        "marks per benchmark: mean {:.2} (paper: 20.24 for Loop[45])\n",
        summary.mean
    ));
    out.push_str(&format!(
        "bytes per mark: {MARK_SIZE_BYTES} (paper: at most 78 bytes)\n"
    ));
    let cost = CostModel::new(MachineSpec::core2_quad_amp());
    let (cycles, nanos_fast) = cost.core_switch_cost(CoreId(0));
    let (_, nanos_slow) = cost.core_switch_cost(CoreId(2));
    out.push_str(&format!(
        "core switch cost: {cycles} cycles ({nanos_fast:.0} ns on a fast core, {nanos_slow:.0} ns on a slow core; paper: ~1000 cycles)\n"
    ));
    out
}

// --- 3-core AMP. ---

const THREE_CORE_ABOUT: &str = "\
    The best technique (Loop[45]) on the 2-fast/1-slow machine, compared with the\n\
    4-core evaluation machine; both machines' baseline and tuned cells form one\n\
    plan fanned across the driver.";

/// Section VII — the 3-core AMP configuration next to the 4-core machine.
pub fn exp_three_core(settings: &BenchSettings) -> StudySpec {
    let points = [MachineSpec::core2_quad_amp(), MachineSpec::three_core_amp()]
        .into_iter()
        .map(|machine| {
            let mut config = experiment_config_with(settings, MarkingConfig::paper_best());
            config.machine = machine.clone();
            ComparisonPoint {
                label: machine.name,
                config,
            }
        })
        .collect();
    StudySpec {
        name: "three_core".into(),
        title: "3-core AMP (Section VII)".into(),
        mode: StudyMode::Comparison { points },
    }
}

/// Renders [`exp_three_core`] as the legacy table.
pub fn render_exp_three_core(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Machine",
        "Avg time reduction %",
        "Max-flow %",
        "Max-stretch %",
        "Throughput %",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            format!("{:.2}", row.f64("avg_time_decrease_pct")),
            format!("{:.2}", row.f64("max_flow_decrease_pct")),
            format!("{:.2}", row.f64("max_stretch_decrease_pct")),
            format!("{:.2}", row.f64("throughput_improvement_pct")),
        ]);
    }
    body(
        &table,
        "paper: performance on the 3-core setup is similar to the 4-core one (~32% speedup).",
    )
}

// --- Online vs. static. ---

const ONLINE_ABOUT: &str = "\
    Stock vs. static phase marks vs. online interval sampling on the standard, mixed,\n\
    bursty, and drifting families; the online policy is swept over sampling interval\n\
    x phase count. Drifting programs are unmarkable, so the static tuner collapses\n\
    to stock there while the online tuner keeps tuning.";

/// The online-versus-static head-to-head over the four workload families.
pub fn online(settings: &BenchSettings) -> StudySpec {
    let quick = settings.quick;
    let slots = settings.slots_or(8);
    let jobs_per_slot = if quick { 5 } else { 6 };
    let scale = if quick { 0.2 } else { 1.0 };
    let intervals: Vec<f64> = match settings.interval_override_ns {
        Some(ns) => vec![ns],
        None if quick => vec![100_000.0, 200_000.0],
        None => vec![100_000.0, 200_000.0, 400_000.0],
    };
    let phase_counts: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8] };

    let standard = CatalogSpec::standard(scale, 7);
    // The drifting family keeps its full-length phases even in quick mode —
    // collapsing them under the sampling interval would measure lag, not
    // tuning.
    let drifting = CatalogSpec::drifting(1.0, 7);
    let families = vec![
        FamilySpec {
            name: "standard".into(),
            catalog: standard,
            workload: WorkloadSpec::Random {
                slots,
                jobs_per_slot,
                seed: 31,
            },
        },
        FamilySpec {
            name: "mixed".into(),
            catalog: CatalogSpec::mixed(scale, 7),
            workload: WorkloadSpec::Random {
                slots,
                jobs_per_slot,
                seed: 31,
            },
        },
        FamilySpec {
            name: "bursty".into(),
            catalog: standard,
            workload: WorkloadSpec::Bursty {
                slots,
                jobs_per_slot,
                waves: 3,
                gap_ns: 5_000_000.0,
                seed: 31,
            },
        },
        FamilySpec {
            name: "drifting".into(),
            catalog: drifting,
            workload: WorkloadSpec::Drifting {
                slots,
                jobs_per_slot,
                seed: 31,
            },
        },
    ];

    let mut policies = vec![Policy::Stock, Policy::Tuned(TunerConfig::paper_table1())];
    for &interval in &intervals {
        for &phases in phase_counts {
            policies.push(Policy::Online(
                OnlineConfig::default()
                    .with_interval_ns(interval)
                    .with_max_phases(phases),
            ));
        }
    }

    StudySpec {
        name: "online".into(),
        title: "Online vs. static tuning (BENCH_online.json)".into(),
        mode: StudyMode::PolicyMatrix {
            families,
            policies,
            machine: MachineSpec::core2_quad_amp(),
            pipeline: phase_core::PipelineConfig::paper_best(),
            sim: SimConfig {
                horizon_ns: Some(40_000_000.0),
                ..SimConfig::default()
            },
            base_seed: 0xD61F7,
        },
    }
}

/// The drifting-family headline of the [`online`] study: `(static speedup,
/// best online speedup)` — the static tuner collapses to stock on unmarkable
/// binaries while the online tuner keeps tuning.
pub fn online_drifting_headline(report: &StudyReport) -> (f64, f64) {
    let drifting: Vec<&StudyRow> = report.rows_labeled("drifting");
    let static_speedup = drifting
        .iter()
        .find(|row| row.text("policy_kind") == "tuned")
        .map(|row| row.f64("speedup"))
        .unwrap_or(0.0);
    let best_online = drifting
        .iter()
        .filter(|row| row.text("policy_kind") == "online")
        .map(|row| row.f64("speedup"))
        .fold(0.0, f64::max);
    (static_speedup, best_online)
}

/// The [`online`] study's headline fields: its drifting-family speedups.
fn online_headline(report: &StudyReport) -> Result<Headline, String> {
    let (static_speedup, best_online) = online_drifting_headline(report);
    Ok(vec![
        ("drifting_static_speedup", JsonValue::Float(static_speedup)),
        (
            "drifting_best_online_speedup",
            JsonValue::Float(best_online),
        ),
    ])
}

/// Renders [`online`] as the legacy table with the drifting headline.
pub fn render_online(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Family",
        "Policy",
        "Speedup vs stock",
        "Done",
        "Max-stretch",
        "Switches",
        "Phases/Retunes",
    ]);
    for row in &report.rows {
        let detail = match row.get("phases_created") {
            Some(_) => format!("{}/{}", row.u64("phases_created"), row.u64("retunes")),
            None => String::new(),
        };
        table.add_row(vec![
            row.label.clone(),
            row.text("policy").to_string(),
            format!("{:.3}x", row.f64("speedup")),
            format!("{}", row.u64("completed")),
            format!("{:.2}", row.f64("max_stretch")),
            format!("{}", row.u64("switches")),
            detail,
        ]);
    }
    let (static_speedup, best_online) = online_drifting_headline(report);
    let mut out = format!("{}\n", table.render());
    out.push_str(&format!(
        "drifting family: static speedup {static_speedup:.4} (collapsed to stock), \
         best online speedup {best_online:.4}\n"
    ));
    out
}

// --- Datacenter tail latency. ---

const TAIL_ABOUT: &str = "\
    Open-loop service pipelines (NIC poll -> network stack -> application) on Poisson,\n\
    bursty, and diurnal arrival traces with per-request deadlines, swept over machine\n\
    asymmetry x scheduling policy and judged on p50/p99/p999 completion latency and\n\
    SLO-violation fraction. Latency is charged from each request's scheduled release.";

/// The datacenter tail-latency study (`run_studies tail`): open-loop
/// service-pipeline requests (NIC-poll → network-stack → application phases)
/// arriving on Poisson, bursty, and diurnal traces, each carrying a
/// completion deadline, swept over machine asymmetries × scheduling policies
/// and judged on p50/p99/p999 completion latency and SLO-violation fraction.
pub fn tail(settings: &BenchSettings) -> StudySpec {
    let quick = settings.quick;
    let scale = if quick { 0.5 } else { 1.0 };
    let slots = settings.slots_or(if quick { 8 } else { 16 });
    // Offered load is matched to the catalogue scale (full-scale requests
    // run ~2x longer), targeting moderate utilization so the tail comes from
    // queueing bursts, not steady-state saturation.
    let (rate_rps, duration_s) = if quick {
        (20_000.0, 0.005)
    } else {
        (10_000.0, 0.02)
    };
    // The SLO: every request must finish within this budget of being sent.
    let deadline_ns = 2_000_000.0;

    let catalog = CatalogSpec::service(scale, 7);
    let families = phase_workload::TraceShape::all()
        .iter()
        .map(|&trace| FamilySpec {
            name: trace.name().to_string(),
            catalog,
            workload: WorkloadSpec::OpenLoop {
                slots,
                trace,
                rate_rps,
                duration_s,
                deadline_ns: Some(deadline_ns),
                seed: 31,
            },
        })
        .collect();

    StudySpec {
        name: "tail".into(),
        title: "Datacenter tail latency (BENCH_tail.json)".into(),
        mode: StudyMode::TailLatency {
            families,
            machines: vec![MachineSpec::core2_quad_amp(), MachineSpec::three_core_amp()],
            policies: vec![
                Policy::Partition,
                Policy::Tuned(TunerConfig::paper_table1()),
                Policy::Online(OnlineConfig::default()),
            ],
            pipeline: phase_core::PipelineConfig::paper_best(),
            // No horizon: every request runs to completion, so a deadline
            // miss always means the request was late, never truncated.
            sim: SimConfig::default(),
            base_seed: 0x7A11,
        },
    }
}

/// Counts the (family, machine) sweep cells where a phase-aware policy
/// (anything but `partition`) achieves a strictly lower p99 than the static
/// partition cell — the study's headline claim.
pub fn tail_phase_aware_wins(report: &StudyReport) -> usize {
    let mut labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
    labels.dedup();
    labels
        .iter()
        .filter(|label| {
            let rows = report.rows_labeled(label);
            let Some(partition_p99) = rows
                .iter()
                .find(|row| row.text("policy_kind") == "partition")
                .map(|row| row.u64("p99_ns"))
            else {
                return false;
            };
            rows.iter().any(|row| {
                row.text("policy_kind") != "partition" && row.u64("p99_ns") < partition_p99
            })
        })
        .count()
}

/// The [`tail`] study's gate and headline: at least one sweep cell must show
/// a phase-aware p99 win, and the report records how many did.
fn tail_headline(report: &StudyReport) -> Result<Headline, String> {
    let wins = tail_phase_aware_wins(report);
    if wins == 0 {
        return Err(
            "no sweep cell had a phase-aware policy beat static partitioning on p99 — \
             the study's headline regressed"
                .into(),
        );
    }
    Ok(vec![("phase_aware_p99_wins", JsonValue::UInt(wins as u64))])
}

/// Renders [`tail`] as a per-cell quantile table with the headline count.
pub fn render_tail(report: &StudyReport) -> String {
    let mut table = TextTable::new(vec![
        "Scenario",
        "Policy",
        "Requests",
        "Done",
        "p50",
        "p99",
        "p99.9",
        "SLO-viol",
        "Misses",
        "Underflows",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.label.clone(),
            row.text("policy").to_string(),
            format!("{}", row.u64("requests")),
            format!("{}", row.u64("completed")),
            format_duration_ns(row.u64("p50_ns") as f64),
            format_duration_ns(row.u64("p99_ns") as f64),
            format_duration_ns(row.u64("p999_ns") as f64),
            format!("{:.2}%", row.f64("slo_violation") * 100.0),
            format!("{}", row.u64("deadline_misses")),
            format!("{}", row.u64("underflows")),
        ]);
    }
    let wins = tail_phase_aware_wins(report);
    let mut out = format!("{}\n", table.render());
    out.push_str(&format!(
        "{wins} sweep cell(s) where a phase-aware policy beats static partitioning on p99; \
         latency charged from scheduled release, SLO budget 2ms.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_study_has_a_unique_name_matching_its_spec() {
        let settings = BenchSettings::for_tests(6);
        for study in &STUDIES {
            assert_eq!((study.spec)(&settings).name, study.name);
            let first = find(study.name).expect("an entry is found by its name");
            assert!(
                std::ptr::eq(first, study),
                "'{}' is listed twice",
                study.name
            );
        }
        assert!(
            find("engine").is_none(),
            "bench_engine runs the engine study"
        );
    }

    #[test]
    fn all_yields_the_paper_studies_in_perfbench_order() {
        let specs = all(&BenchSettings::for_tests(6));
        let names: Vec<&str> = specs.iter().map(|spec| spec.name.as_str()).collect();
        assert_eq!(
            names.join(" "),
            "fig3 fig4 table1 fig5 fig6 fig7 sweep_lookahead sweep_min_size table2 fig8 \
             table_mark_stats three_core online"
        );
    }

    #[test]
    fn the_tail_gate_fails_without_a_phase_aware_p99_win() {
        let report = |tuned_p99_ns: u64| StudyReport {
            study: "tail".into(),
            title: String::new(),
            rows: [("partition", 100), ("tuned", tuned_p99_ns)]
                .map(|(kind, p99_ns)| {
                    StudyRow::new("poisson/core2-quad")
                        .metric("policy_kind", MetricValue::Text(kind.into()))
                        .metric("p99_ns", MetricValue::UInt(p99_ns))
                })
                .into(),
            store: Default::default(),
            elapsed_s: 0.0,
        };
        assert!(tail_headline(&report(100)).is_err(), "a tie is no win");
        let wins = vec![("phase_aware_p99_wins", JsonValue::UInt(1))];
        assert_eq!(tail_headline(&report(99)), Ok(wins));
    }
}
