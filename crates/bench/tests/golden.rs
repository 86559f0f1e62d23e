//! Golden tests: the spec-driven study runner must reproduce the legacy
//! hand-rolled binaries bit-for-bit.
//!
//! The files under `tests/golden/` were captured from the pre-refactor
//! binaries (`PHASE_BENCH_QUICK=1 PHASE_BENCH_SLOTS=6 PHASE_BENCH_THREADS=2`,
//! everything after the header block) *before* those binaries were ported to
//! thin specs. Each test builds the same spec `run_studies` builds, runs it
//! through a fresh artifact store, renders it with the study table's
//! renderer, and compares against the capture — so the caching layer, the
//! staged pipeline, and the unified report path are all pinned to the legacy
//! numbers.
//!
//! Settings are passed explicitly (`BenchSettings::for_tests`) so the tests
//! never touch process-global environment variables and can run in parallel.

use phase_bench::{studies, BenchSettings};
use phase_core::{run_study, ArtifactStore, StudyReport, StudySpec};

fn settings() -> BenchSettings {
    BenchSettings::for_tests(6)
}

fn check(spec: StudySpec, golden: &str) -> StudyReport {
    let store = ArtifactStore::new();
    let report = run_study(&spec, &store, 2);
    let rendered = studies::render(&report).expect("every golden study is in the table");
    assert_eq!(
        rendered.trim_end_matches('\n'),
        golden.trim_end_matches('\n'),
        "study '{}' diverged from the legacy binary's output",
        spec.name
    );
    report
}

#[test]
fn fig3_matches_the_legacy_binary() {
    check(
        studies::fig3(&settings()),
        include_str!("golden/fig3_space_overhead.txt"),
    );
}

#[test]
fn fig4_matches_the_legacy_binary() {
    check(
        studies::fig4(&settings()),
        include_str!("golden/fig4_time_overhead.txt"),
    );
}

#[test]
fn fig5_matches_the_legacy_binary() {
    check(
        studies::fig5(&settings()),
        include_str!("golden/fig5_cycles_per_switch.txt"),
    );
}

#[test]
fn fig6_matches_the_legacy_binary() {
    let report = check(
        studies::fig6(&settings()),
        include_str!("golden/fig6_ipc_threshold.txt"),
    );
    // The sweep varies only the tuner threshold: one catalogue, one
    // instrumentation pass, one isolated-runtime measurement, and the seven
    // identical stock baseline cells collapse to a single computed cell.
    assert_eq!(report.store.stage("catalogs").unwrap().misses, 1);
    assert_eq!(report.store.stage("isolated_runtimes").unwrap().misses, 1);
    // Two driver workers can race a pair of identical cells into a double
    // miss, so the bound is conservative.
    let cells = report.store.stage("cells").unwrap();
    assert!(
        cells.hits >= 4,
        "the repeated stock baselines should hit ({cells:?})"
    );
}

#[test]
fn fig7_matches_the_legacy_binary() {
    let report = check(
        studies::fig7(&settings()),
        include_str!("golden/fig7_clustering_error.txt"),
    );
    // Error injection happens after typing, so all four levels share the
    // profiling pass and the baseline artifacts.
    assert_eq!(report.store.stage("ipc_profiles").unwrap().misses, 15);
    assert_eq!(report.store.stage("baselines").unwrap().misses, 15);
}

#[test]
fn fig8_matches_the_legacy_binary() {
    check(
        studies::fig8(&settings()),
        include_str!("golden/fig8_speedup_fairness.txt"),
    );
}

#[test]
fn table1_matches_the_legacy_binary() {
    check(
        studies::table1(&settings()),
        include_str!("golden/table1_switches.txt"),
    );
}

#[test]
fn table2_matches_the_legacy_binary() {
    check(
        studies::table2(&settings()),
        include_str!("golden/table2_fairness.txt"),
    );
}

#[test]
fn table_mark_stats_matches_the_legacy_binary() {
    check(
        studies::table_mark_stats(&settings()),
        include_str!("golden/table_mark_stats.txt"),
    );
}

#[test]
fn sweep_lookahead_matches_the_legacy_binary() {
    check(
        studies::sweep_lookahead(&settings()),
        include_str!("golden/sweep_lookahead.txt"),
    );
}

#[test]
fn sweep_min_size_matches_the_legacy_binary() {
    check(
        studies::sweep_min_size(&settings()),
        include_str!("golden/sweep_min_size.txt"),
    );
}

#[test]
fn exp_three_core_matches_the_legacy_binary() {
    check(
        studies::exp_three_core(&settings()),
        include_str!("golden/exp_three_core.txt"),
    );
}

#[test]
fn online_vs_static_matches_the_legacy_binary() {
    let report = check(
        studies::online(&settings()),
        include_str!("golden/online_vs_static.txt"),
    );
    let (static_speedup, best_online) = studies::online_drifting_headline(&report);
    assert_eq!(
        static_speedup, 1.0,
        "static tuning collapses to stock on unmarkable binaries"
    );
    assert!(best_online > 0.9);
}

#[test]
fn warm_reruns_are_bit_identical_and_answered_from_the_store() {
    let settings = settings();
    let store = ArtifactStore::new();
    let spec = studies::table1(&settings);
    let cold = run_study(&spec, &store, 2);
    let warm = run_study(&spec, &store, 2);
    assert_eq!(cold.rows, warm.rows);
    let cells = warm.store.stage("cells").unwrap();
    assert!(
        cells.hits >= cold.rows.len() as u64,
        "warm run should answer every isolation cell from the store ({cells:?})"
    );
}
