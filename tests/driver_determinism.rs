//! Determinism tests for the parallel experiment driver: the same plan run
//! with one worker and with eight workers must produce bit-identical
//! `SimResult` aggregates — the worker count only changes wall-clock time.

use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::online::OnlineConfig;
use phase_tuning::substrate::runtime::TunerConfig;
use phase_tuning::substrate::sched::SimConfig;
use phase_tuning::substrate::workload::{Catalog, Workload};
use phase_tuning::{
    baseline_catalog, build_slots, instrument_catalog, Driver, ExperimentPlan, PipelineConfig,
    PlannedWorkload, Policy,
};

fn plan() -> ExperimentPlan {
    let machine = MachineSpec::core2_quad_amp();
    let catalog = Catalog::extended(0.05, 9);
    let pipeline = PipelineConfig::paper_best();
    let instrumented = instrument_catalog(&catalog, &machine, &pipeline);
    let plain = baseline_catalog(&catalog);
    let drifting_catalog = Catalog::drifting(0.3, 9);
    let drifting_plain = baseline_catalog(&drifting_catalog);
    let mut workloads: Vec<PlannedWorkload> = [
        ("dense", Workload::random(&catalog, 5, 2, 31)),
        ("bursty", Workload::bursty(&catalog, 6, 1, 3, 800_000.0, 32)),
    ]
    .into_iter()
    .map(|(name, workload)| PlannedWorkload {
        name: name.to_string(),
        baseline_slots: build_slots(&workload, &catalog, &plain).into(),
        tuned_slots: build_slots(&workload, &catalog, &instrumented).into(),
    })
    .collect();
    // An unmarkable drifting workload: its online cells exercise the
    // interval-sampling path, which must be as deterministic as the rest.
    let drifting = Workload::drifting(&drifting_catalog, 4, 1, 33);
    workloads.push(PlannedWorkload {
        name: "drifting".to_string(),
        baseline_slots: build_slots(&drifting, &drifting_catalog, &drifting_plain).into(),
        tuned_slots: build_slots(&drifting, &drifting_catalog, &drifting_plain).into(),
    });
    let sim = SimConfig {
        horizon_ns: Some(3_000_000.0),
        ..SimConfig::default()
    };
    ExperimentPlan::cross(
        &workloads,
        &[machine],
        &[
            Policy::Stock,
            Policy::Tuned(TunerConfig::paper_table1()),
            Policy::Online(OnlineConfig {
                sample_interval_ns: 100_000.0,
                ..OnlineConfig::default()
            }),
        ],
        sim,
        0x0D57_EC60,
    )
}

#[test]
fn one_worker_and_eight_workers_agree_bit_for_bit() {
    let sequential = Driver::new(1).run(plan());
    let parallel = Driver::new(8).run(plan());

    // The streaming aggregate is order-independent by construction.
    assert_eq!(sequential.aggregate, parallel.aggregate);
    assert!(sequential.aggregate.total_instructions > 0);
    assert_eq!(sequential.aggregate.cells_completed, 9);

    // Per-cell results are bit-identical, including every floating-point
    // field (completion times, busy nanoseconds, throughput windows).
    assert_eq!(sequential.cells.len(), parallel.cells.len());
    for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        assert_eq!(a.result, b.result, "cell {} diverged", a.label);
        assert_eq!(a.tuner_stats, b.tuner_stats, "cell {} tuner", a.label);
        assert_eq!(a.online_stats, b.online_stats, "cell {} online", a.label);
    }

    // The online cells really ran the sampling path.
    let online_sampled: u64 = sequential
        .cells
        .iter()
        .filter_map(|cell| cell.online_stats)
        .map(|stats| stats.intervals_observed)
        .sum();
    assert!(online_sampled > 0, "no interval observations were made");

    // Deterministic floating-point summaries match exactly as well.
    let flows_a = sequential.flow_summary();
    let flows_b = parallel.flow_summary();
    assert_eq!(flows_a, flows_b);
    assert!(flows_a.count > 0);
}

#[test]
fn repeated_runs_of_the_same_plan_agree() {
    let first = Driver::new(4).run(plan());
    let second = Driver::new(4).run(plan());
    assert_eq!(first.aggregate, second.aggregate);
    for (a, b) in first.cells.iter().zip(second.cells.iter()) {
        assert_eq!(a.result, b.result);
    }
}
