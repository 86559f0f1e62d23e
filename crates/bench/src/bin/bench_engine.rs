//! Engine/driver baseline and continuous perf gate: wall-clock sims/sec of
//! the round-based and event-driven engines (on the Figure 4 workload, on a
//! bursty-arrival workload, on the online study's drifting cells, and on the
//! Figure 4 workload's basic-block-marked binaries under the phase tuner) and
//! of the experiment driver at 1 and 4 workers (on the Table 1 isolation
//! plan). A thin spec over the shared
//! study runner — the measurement itself is `StudyMode::EnginePerf` and the
//! report is the unified `StudyReport` schema written to `BENCH_engine.json`.
//!
//! Run with `--perf` (or `PHASE_BENCH_PERF=1`) for the pinned profile the
//! perf gate compares across runs. When `PHASE_BENCH_BASELINE` names a
//! committed `BENCH_engine.json`, the run exits nonzero if any shared row's
//! `sims_per_sec` lands more than 20% below the baseline.

use phase_bench::{announce_report, init, perf_regressions, studies};
use phase_core::{json, run_study, ArtifactStore};

/// Relative sims/sec slack before the gate fails; generous because CI
/// machines are noisy, tight enough to catch a real hot-path regression.
const BASELINE_TOLERANCE: f64 = 0.20;

fn main() {
    let settings = init(
        "Engine + driver baseline (BENCH_engine.json)",
        "Round-based vs. event-driven engine sims/sec on the fig4, bursty and drifting\n\
         workloads and on fig4's BB[15,0]-marked binaries under the tuner (fig4-marked),\n\
         and driver scaling at --threads=1 vs. 4 on the table1 isolation plan.",
    );
    if settings.trace_out.is_some() {
        eprintln!("bench_engine records no trace: --trace-out is not supported");
        std::process::exit(2);
    }
    let spec = studies::engine(&settings);
    let store = ArtifactStore::new();
    let report = run_study(&spec, &store, settings.threads.max(1));
    print!("{}", studies::render_engine(&report));
    let written = phase_bench::write_study_report_with(&report, &settings, &[]);
    announce_report(written, "BENCH_engine.json");

    if let Ok(path) = std::env::var("PHASE_BENCH_BASELINE") {
        let contents = match std::fs::read_to_string(&path) {
            Ok(contents) => contents,
            Err(error) => {
                eprintln!("perf gate: cannot read baseline {path}: {error}");
                std::process::exit(1);
            }
        };
        let baseline = match json::parse(&contents) {
            Ok(baseline) => baseline,
            Err(error) => {
                eprintln!("perf gate: baseline {path} is not valid JSON: {error:?}");
                std::process::exit(1);
            }
        };
        let regressions = perf_regressions(&report.to_json(), &baseline, BASELINE_TOLERANCE);
        if regressions.is_empty() {
            println!(
                "perf gate: OK vs {path} (tolerance {:.0}%)",
                BASELINE_TOLERANCE * 100.0
            );
        } else {
            for regression in &regressions {
                eprintln!("perf regression: {regression}");
            }
            std::process::exit(1);
        }
    }
}
