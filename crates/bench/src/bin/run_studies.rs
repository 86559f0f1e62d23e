//! The unified study runner: every table and figure of the evaluation in one
//! invocation, sharing one artifact store — plus the cold-versus-warm
//! benchmark of that store.
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
//! Set `PHASE_BENCH_SPILL=DIR` to persist the store across runs: if `DIR`
//! already holds a spill it is reloaded *before* the cold pass (so a cached
//! CI run skips the recomputation entirely), and the store is spilled back
//! to `DIR` (binary phase-pack format, every stage of the pipeline) after
//! the studies finish. With `PHASE_BENCH_ASSERT_WARM=1` the run additionally
//! asserts that the preloaded spill answered every typing lookup — zero
//! misses — which is how CI proves its artifact cache actually warmed the
//! run.

use std::time::Instant;

use phase_bench::studies;
use phase_core::{run_study, ArtifactStore, JsonValue, StudyReport};

fn main() {
    let settings = phase_bench::init(
        "Unified study runner (BENCH_study.json)",
        "Runs every study against one shared artifact store, writes each BENCH_<study>.json,\n\
         then re-runs the table1/fig6/fig7 sweeps warm and records the cold-vs-warm\n\
         wall-clock win in BENCH_study.json.",
    );
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
    for spec in studies::all(&settings) {
        println!("--- {} ---", spec.title);
        let report = run_study(&spec, &store, threads);
        print!("{}", studies::render(&report));
        // The online study's report carries the same drifting-family
        // headline fields the standalone binary writes, so BENCH_online.json
        // has one schema whichever producer made it.
        let extra = if report.study == "online" {
            let (static_speedup, best_online) = studies::online_drifting_headline(&report);
            vec![
                ("drifting_static_speedup", JsonValue::Float(static_speedup)),
                (
                    "drifting_best_online_speedup",
                    JsonValue::Float(best_online),
                ),
            ]
        } else {
            Vec::new()
        };
        let written = phase_bench::write_study_report_with(&report, &settings, &extra);
        phase_bench::announce_report(written, &format!("BENCH_{}.json", report.study));
        println!();
        cold.push(report);
    }

    // --- Warm pass: the headline sweeps again, answered from the store. ---
    let warm_specs = vec![
        studies::table1(&settings),
        studies::fig6(&settings),
        studies::fig7(&settings),
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

    // --- A cache-warmed run must actually run warm: with the assertion
    // enabled (CI's cache-hit path), a preloaded store that still recomputed
    // typings means the spill key or format regressed — fail loudly.
    let assert_warm = std::env::var("PHASE_BENCH_ASSERT_WARM").is_ok_and(|v| v != "0");
    if assert_warm {
        let typings = store
            .snapshot()
            .stage("typings")
            .expect("the store tracks a typings stage");
        assert!(
            preloaded > 0,
            "PHASE_BENCH_ASSERT_WARM=1 but no spill was preloaded"
        );
        assert_eq!(
            typings.misses, 0,
            "PHASE_BENCH_ASSERT_WARM=1 but the run recomputed {} typings",
            typings.misses
        );
        println!("warm assertion passed: {preloaded} artifacts preloaded, typings misses == 0");
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
