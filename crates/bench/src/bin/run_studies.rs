//! The unified study runner: every table and figure of the evaluation in one
//! invocation, sharing one artifact store — plus the cold-versus-warm
//! benchmark of that store. `run_studies [STUDY...] [FLAGS]` runs only the
//! named studies instead; `--help` lists the names.
//!
//! All thirteen studies run in sequence against a single [`ArtifactStore`],
//! so cross-study reuse (the shared catalogues, the config-independent
//! baseline twins and isolated runtimes, identical cells across sweeps)
//! happens naturally; each study's `BENCH_<study>.json` is written as it
//! completes. Afterwards the `table1`/`fig6`/`fig7` sweeps are run *again*
//! on the warm store and `BENCH_study.json` records the cold-versus-warm
//! wall-clock per study, the end-to-end wall-clock, and the final store
//! counters — the regression artifact CI tracks for the caching layer.
//!
//! The run exits 1 if any stage of the store has more misses than entries:
//! the store is unbounded, so that means some artifact was computed twice.
//!
//! Named studies run in the given order on one fresh store, each under its
//! own header, with no warm pass, no spill and no `BENCH_study.json`; `tail`
//! runs only by name. A study whose gate fails exits 1 before its report is
//! written. `--trace-out=PATH` traces the whole run under one bench-lane
//! context and writes its records to `PATH` as NDJSON.
//!
//! Set `PHASE_BENCH_SPILL=DIR` to persist the store across runs: if `DIR`
//! already holds a spill it is reloaded *before* the cold pass (so a cached
//! CI run skips the recomputation entirely), and the store is spilled back
//! to `DIR` (binary phase-pack format, every stage of the pipeline) after
//! the studies finish. With `PHASE_BENCH_ASSERT_WARM=1` the run additionally
//! asserts that the preloaded spill answered every lookup of every spilled
//! stage (catalogues, typings, IPC profiles, isolated runtimes, instrumented
//! programs, baseline twins, cells) — zero misses — which is how CI proves
//! its artifact cache actually warmed the run.

use std::time::Instant;

use phase_bench::studies::{self, Study, STUDIES};
use phase_bench::BenchSettings;
use phase_core::{run_study, ArtifactStore, JsonValue, StudyReport, StudySpec, SPILL_STAGES};
use phase_trace as trace;

const TITLE: &str = "Unified study runner (BENCH_study.json)";
const DESCRIPTION: &str =
    "Runs every study against one shared artifact store, writes each BENCH_<study>.json,\n\
     then re-runs the table1/fig6/fig7 sweeps warm and records the cold-vs-warm\n\
     wall-clock win in BENCH_study.json.";

fn main() {
    let (names, flags): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|arg| !arg.starts_with('-'));
    let selected: Vec<&Study> = names
        .iter()
        .map(|name| {
            studies::find(name).unwrap_or_else(|| {
                let valid: Vec<&str> = STUDIES.iter().map(|study| study.name).collect();
                eprintln!("unknown study: {name}");
                eprintln!("valid studies: {}", valid.join(" "));
                std::process::exit(2);
            })
        })
        .collect();
    let settings = phase_bench::parse_args(&flags, || print_help(&selected));

    let traced = settings.trace_out.as_ref().map(|path| {
        trace::set_enabled(true);
        (path, trace::new_trace_id())
    });
    {
        let _ctx = traced.map(|(_, trace_id)| trace::install(trace_id, trace::Lane::Bench, 0));
        if selected.is_empty() {
            run_all(&settings);
        } else {
            run_named(&selected, &settings);
        }
    }
    if let Some((path, trace_id)) = traced {
        trace::set_enabled(false);
        phase_bench::write_trace_ndjson(path, &trace::take(trace_id));
        println!(
            "ring overflow dropped {} records (oldest-first)",
            trace::dropped()
        );
    }
}

/// The runner's help with the study names, or each named study's own help.
fn print_help(selected: &[&Study]) {
    let title = |study: &Study| (study.spec)(&BenchSettings::default()).title;
    if selected.is_empty() {
        phase_bench::print_help(TITLE, DESCRIPTION);
        println!();
        println!("STUDIES (run_studies [STUDY...] runs only those; tail runs only when named):");
        for study in &STUDIES {
            println!("  {:<18}{}", study.name, title(study));
        }
        return;
    }
    for (index, study) in selected.iter().enumerate() {
        if index > 0 {
            println!();
        }
        phase_bench::print_help(&title(study), study.description);
    }
}

/// Runs one study on `store`: prints its table, applies its gate (exiting 1
/// on failure, before any report is written) and writes its report with its
/// headline fields.
fn run_one(
    study: &Study,
    spec: &StudySpec,
    store: &ArtifactStore,
    settings: &BenchSettings,
) -> StudyReport {
    let report = run_study(spec, store, settings.threads.max(1));
    print!("{}", (study.render)(&report));
    let headline = (study.headline)(&report).unwrap_or_else(|failure| {
        eprintln!("{}: {failure}", study.name);
        std::process::exit(1);
    });
    let written = phase_bench::write_study_report_with(&report, settings, &headline);
    phase_bench::announce_report(written, &format!("BENCH_{}.json", study.name));
    report
}

/// The named studies, each under its own header, on one fresh store.
fn run_named(selected: &[&Study], settings: &BenchSettings) {
    let store = ArtifactStore::new();
    for (index, study) in selected.iter().enumerate() {
        let spec = (study.spec)(settings);
        if index > 0 {
            println!();
        }
        phase_bench::print_header(&spec.title, study.description, settings);
        run_one(study, &spec, &store, settings);
    }
}

/// Every study of `studies::all`, the warm pass and `BENCH_study.json`.
fn run_all(settings: &BenchSettings) {
    phase_bench::print_header(TITLE, DESCRIPTION, settings);
    let threads = settings.threads.max(1);
    let store = ArtifactStore::new();

    // --- Optional warm start from a previous run's spill. ---
    let spill_dir = std::env::var("PHASE_BENCH_SPILL")
        .ok()
        .map(std::path::PathBuf::from);
    let mut preloaded = 0;
    if let Some(dir) = &spill_dir {
        if dir.exists() {
            match store.load_spill_report(dir) {
                Ok(report) => {
                    preloaded = report.loaded;
                    println!(
                        "preloaded {} artifacts from {} ({} skipped)",
                        report.loaded,
                        dir.display(),
                        report.skipped
                    );
                    for error in &report.errors {
                        eprintln!("spill preload: {error}");
                    }
                }
                Err(error) => eprintln!("failed to preload spill: {error}"),
            }
        }
    }
    let total_start = Instant::now();

    // --- Cold pass: every study, one shared store. ---
    let mut cold: Vec<StudyReport> = Vec::new();
    for study in STUDIES.iter().filter(|study| study.in_all) {
        let spec = (study.spec)(settings);
        println!("--- {} ---", spec.title);
        cold.push(run_one(study, &spec, &store, settings));
        println!();
    }

    // --- Warm pass: the headline sweeps again, answered from the store. ---
    let warm_specs = vec![
        studies::table1(settings),
        studies::fig6(settings),
        studies::fig7(settings),
    ];
    let mut sweeps = Vec::new();
    for spec in warm_specs {
        let cold_report = cold
            .iter()
            .find(|r| r.study == spec.name)
            .expect("warm study ran cold first");
        let warm_report = run_study(&spec, &store, threads);
        assert_eq!(
            warm_report.rows, cold_report.rows,
            "{}: warm rows must be bit-identical to the cold rows",
            spec.name
        );
        let speedup = cold_report.elapsed_s / warm_report.elapsed_s.max(1e-9);
        println!(
            "{}: cold {:.4}s -> warm {:.4}s ({speedup:.2}x)",
            spec.name, cold_report.elapsed_s, warm_report.elapsed_s
        );
        sweeps.push((
            spec.name.clone(),
            cold_report.elapsed_s,
            warm_report.elapsed_s,
        ));
    }

    // --- Nothing was computed twice: on this unbounded store every miss
    // admits one entry, so a stage with more misses than entries computed
    // some artifact more than once.
    let mut computed_twice = false;
    for (stage, stats) in &store.snapshot().stages {
        if stats.misses > stats.entries as u64 {
            eprintln!(
                "computed twice: {stage}: {} misses for {} entries",
                stats.misses, stats.entries
            );
            computed_twice = true;
        }
    }
    if computed_twice {
        std::process::exit(1);
    }

    // --- A cache-warmed run must actually run warm: with the assertion
    // enabled (CI's cache-hit path), a preloaded store that still recomputed
    // any spilled artifact means the spill key or format regressed — fail
    // loudly.
    let assert_warm = std::env::var("PHASE_BENCH_ASSERT_WARM").is_ok_and(|v| v != "0");
    if assert_warm {
        assert!(
            preloaded > 0,
            "PHASE_BENCH_ASSERT_WARM=1 but no spill was preloaded"
        );
        let snapshot = store.snapshot();
        for stage in SPILL_STAGES {
            let misses = snapshot
                .stage(stage)
                .expect("the store tracks every spill stage")
                .misses;
            assert_eq!(
                misses, 0,
                "PHASE_BENCH_ASSERT_WARM=1 but the run recomputed {misses} {stage}"
            );
        }
        println!(
            "warm assertion passed: {preloaded} artifacts preloaded, no misses in {}",
            SPILL_STAGES.join(", ")
        );
    }

    // --- Spill the store back for the next run. ---
    if let Some(dir) = &spill_dir {
        match store.spill_to_dir(dir) {
            Ok(files) => println!(
                "spilled {} artifact files to {}",
                files.len(),
                dir.display()
            ),
            Err(error) => eprintln!("failed to spill artifacts: {error}"),
        }
    }

    // --- BENCH_study.json. ---
    let total_s = total_start.elapsed().as_secs_f64();
    let mut doc = JsonValue::object();
    for (name, value) in settings.meta_json() {
        doc = doc.field(name, value);
    }
    let doc = doc
        .field("studies", cold.len())
        .field("total_s", total_s)
        .field(
            "cold_elapsed_s",
            cold.iter().fold(JsonValue::object(), |doc, report| {
                doc.field(&report.study, report.elapsed_s)
            }),
        )
        .field(
            "warm_sweeps",
            sweeps
                .iter()
                .map(|(name, cold_s, warm_s)| {
                    JsonValue::object()
                        .field("study", name.as_str())
                        .field("cold_s", *cold_s)
                        .field("warm_s", *warm_s)
                        .field("speedup", *cold_s / warm_s.max(1e-9))
                })
                .collect::<Vec<_>>(),
        )
        .field("store", store.snapshot().to_json());
    let path = settings.out_path("BENCH_study.json");
    let written = phase_bench::write_report_file(&path, &doc.render()).map(|()| path);
    phase_bench::announce_report(written, "BENCH_study.json");
}
