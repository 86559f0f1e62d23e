//! Golden-equivalence tests: the event-driven engine must reproduce the
//! round-based reference engine's results on real workloads.
//!
//! Six seeded workloads cover the interesting regimes — the paper's dense
//! Table 1 catalogue (at `Loop[45]`, and again under dense `BB[15,0]`
//! basic-block marks, tuned and all-cores), the mixed CPU/memory scenario
//! family (heavy phase-transition traffic), a bursty-arrival workload (the
//! idle stretches the event engine skips), an online-policy run with
//! interval sampling, and a larger bursty workload under online sampling
//! (batched same-timestamp arrivals interleaved with sample ticks on the
//! bucket queue's fast path). Aggregate metrics (completion times, switch
//! counts, fairness) must agree within 1e-9; in practice they are
//! bit-identical because both engines drive the same scheduling primitives.

use std::collections::HashMap;

use phase_tuning::substrate::metrics::{FairnessReport, ProcessTiming};
use phase_tuning::substrate::sched::{EngineKind, JobSpec, SimConfig, SimResult};
use phase_tuning::substrate::workload::{Catalog, Workload};
use phase_tuning::{
    baseline_catalog, build_slots, instrument_catalog, CellSpec, Driver, ExperimentPlan,
    PipelineConfig, Policy,
};

const TOLERANCE: f64 = 1e-9;

fn run_engine(slots: Vec<Vec<JobSpec>>, policy: Policy, engine: EngineKind) -> SimResult {
    let machine = phase_tuning::substrate::amp::MachineSpec::core2_quad_amp();
    let sim = SimConfig {
        horizon_ns: Some(6_000_000.0),
        engine,
        ..SimConfig::default()
    };
    let mut plan = ExperimentPlan::new();
    plan.push(CellSpec {
        group: "golden".into(),
        label: format!("golden-{engine}"),
        machine,
        slots,
        policy,
        sim,
    });
    Driver::new(1).run(plan).cells.remove(0).result
}

fn assert_close(label: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= TOLERANCE,
        "{label}: round-based {a} vs event-driven {b}"
    );
}

fn fairness(result: &SimResult) -> FairnessReport {
    // Stretch denominators do not matter for engine equivalence; use a
    // constant isolated runtime per process.
    let timings: Vec<ProcessTiming> = result
        .completed()
        .map(|record| ProcessTiming {
            arrival_ns: record.arrival_ns,
            completion_ns: record.completion_ns.expect("completed"),
            isolated_ns: 1_000_000.0,
        })
        .collect();
    FairnessReport::from_timings(&timings)
}

fn assert_equivalent(round: &SimResult, event: &SimResult) {
    assert_eq!(round.records.len(), event.records.len(), "process count");
    let mut completions: HashMap<&str, usize> = HashMap::new();
    for (r, e) in round.records.iter().zip(event.records.iter()) {
        assert_eq!(r.pid, e.pid);
        assert_eq!(r.name, e.name);
        assert_eq!(r.slot, e.slot);
        assert_close(&format!("{} arrival", r.name), r.arrival_ns, e.arrival_ns);
        assert_eq!(
            r.completion_ns.is_some(),
            e.completion_ns.is_some(),
            "{} completion presence",
            r.name
        );
        if let (Some(rc), Some(ec)) = (r.completion_ns, e.completion_ns) {
            assert_close(&format!("{} completion", r.name), rc, ec);
            *completions.entry(r.name.as_str()).or_default() += 1;
        }
        assert_eq!(r.stats.instructions, e.stats.instructions, "{}", r.name);
        assert_eq!(r.stats.core_switches, e.stats.core_switches, "{}", r.name);
        assert_eq!(r.stats.marks_executed, e.stats.marks_executed, "{}", r.name);
        assert_eq!(
            r.stats.balancer_migrations, e.stats.balancer_migrations,
            "{}",
            r.name
        );
        assert_close(
            &format!("{} cpu time", r.name),
            r.stats.cpu_time_ns,
            e.stats.cpu_time_ns,
        );
    }
    assert_eq!(round.total_instructions, event.total_instructions);
    assert_eq!(round.total_core_switches, event.total_core_switches);
    assert_eq!(round.total_marks_executed, event.total_marks_executed);
    assert_close("final time", round.final_time_ns, event.final_time_ns);
    assert_eq!(round.throughput_windows, event.throughput_windows);
    for (index, (r, e)) in round
        .core_busy_ns
        .iter()
        .zip(event.core_busy_ns.iter())
        .enumerate()
    {
        assert_close(&format!("core {index} busy"), *r, *e);
    }

    let round_fairness = fairness(round);
    let event_fairness = fairness(event);
    assert_close(
        "max flow",
        round_fairness.max_flow_ns,
        event_fairness.max_flow_ns,
    );
    assert_close(
        "max stretch",
        round_fairness.max_stretch,
        event_fairness.max_stretch,
    );
    assert_close(
        "avg process time",
        round_fairness.avg_process_time_ns,
        event_fairness.avg_process_time_ns,
    );
    assert!(
        !completions.is_empty(),
        "equivalence is vacuous without completed processes"
    );
}

fn machine() -> phase_tuning::substrate::amp::MachineSpec {
    phase_tuning::substrate::amp::MachineSpec::core2_quad_amp()
}

#[test]
fn engines_agree_on_the_standard_catalogue_workload() {
    let catalog = Catalog::standard(0.06, 1);
    let workload = Workload::random(&catalog, 6, 2, 1);
    let programs = instrument_catalog(&catalog, &machine(), &PipelineConfig::paper_best());
    let slots = build_slots(&workload, &catalog, &programs);
    let policy = Policy::Tuned(phase_tuning::substrate::runtime::TunerConfig::paper_table1());
    let round = run_engine(slots.clone(), policy, EngineKind::RoundBased);
    let event = run_engine(slots, policy, EngineKind::EventDriven);
    assert_equivalent(&round, &event);
    assert!(event.total_marks_executed > 0, "the tuner saw marks");
}

#[test]
fn engines_agree_under_dense_basic_block_marks() {
    use phase_tuning::substrate::marking::MarkingConfig;
    // The other cases mark at Loop[45], where few marks execute. BB[15,0]
    // marks nearly every typed block boundary, so the event engine's dense
    // marked-edge table (and the tuner's decided-mark path) carry the run.
    let catalog = Catalog::standard(0.06, 1);
    let workload = Workload::random(&catalog, 6, 2, 1);
    let marking = PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0));
    let programs = instrument_catalog(&catalog, &machine(), &marking);
    let slots = build_slots(&workload, &catalog, &programs);
    let tuned = Policy::Tuned(phase_tuning::substrate::runtime::TunerConfig::paper_table1());
    for policy in [tuned, Policy::AllCores] {
        let round = run_engine(slots.clone(), policy, EngineKind::RoundBased);
        let event = run_engine(slots.clone(), policy, EngineKind::EventDriven);
        assert_equivalent(&round, &event);
        assert!(
            event.total_marks_executed >= 10_000,
            "{policy:?} executed only {} marks",
            event.total_marks_executed
        );
        if policy == tuned {
            assert!(event.total_core_switches > 0, "the tuner never switched");
        }
    }
}

#[test]
fn engines_agree_on_the_mixed_scenario_family() {
    let catalog = Catalog::mixed(0.08, 2);
    let workload = Workload::random(&catalog, 5, 2, 2);
    let programs = instrument_catalog(&catalog, &machine(), &PipelineConfig::paper_best());
    let slots = build_slots(&workload, &catalog, &programs);
    let policy = Policy::Tuned(phase_tuning::substrate::runtime::TunerConfig::paper_table1());
    let round = run_engine(slots.clone(), policy, EngineKind::RoundBased);
    let event = run_engine(slots, policy, EngineKind::EventDriven);
    assert_equivalent(&round, &event);
}

#[test]
fn engines_agree_under_the_online_policy_with_interval_sampling() {
    use phase_tuning::substrate::online::OnlineConfig;
    // An unmarkable drifting workload under Policy::Online: both engines must
    // fire the SampleInterval tick at the same round-aligned times, deliver
    // the same observation stream, and apply the same affinity changes.
    let catalog = Catalog::drifting(0.3, 4);
    let workload = Workload::drifting(&catalog, 5, 1, 4);
    let programs = baseline_catalog(&catalog);
    let slots = build_slots(&workload, &catalog, &programs);
    let policy = Policy::Online(OnlineConfig {
        sample_interval_ns: 150_000.0,
        ..OnlineConfig::default()
    });
    let round = run_engine(slots.clone(), policy, EngineKind::RoundBased);
    let event = run_engine(slots, policy, EngineKind::EventDriven);
    assert_eq!(
        round.total_marks_executed, 0,
        "drifting programs are unmarkable"
    );
    assert!(
        event.total_core_switches > 0,
        "interval sampling produced no affinity-driven switches"
    );
    assert_equivalent(&round, &event);
}

#[test]
fn engines_agree_on_a_large_bursty_workload_with_online_sampling() {
    use phase_tuning::substrate::online::OnlineConfig;
    // The stress case for the batched event path: a larger catalogue and
    // slot count than the cases above, arrivals in waves (draining the
    // calendar queue across long idle gaps), AND the online policy's
    // periodic SampleInterval ticks landing between quantum expiries. Wave
    // gaps are deliberately not multiples of the sampling period, so arrival
    // bursts, sampling ticks, and quantum expiries collide at shared
    // timestamps in every combination the batch-application loop handles.
    let machine = machine();
    let catalog = Catalog::standard(0.15, 5);
    let workload = Workload::bursty(&catalog, 12, 2, 3, 1_250_000.0, 9);
    let programs = baseline_catalog(&catalog);
    let slots = build_slots(&workload, &catalog, &programs);
    let policy = Policy::Online(OnlineConfig {
        sample_interval_ns: 180_000.0,
        ..OnlineConfig::default()
    });
    let sim = SimConfig {
        horizon_ns: Some(12_000_000.0),
        ..SimConfig::default()
    };
    let run = |engine: EngineKind| {
        let mut plan = ExperimentPlan::new();
        plan.push(CellSpec {
            group: "golden-large".into(),
            label: format!("golden-large-{engine}"),
            machine: machine.clone(),
            slots: slots.clone(),
            policy,
            sim: SimConfig { engine, ..sim },
        });
        Driver::new(1).run(plan).cells.remove(0).result
    };
    let round = run(EngineKind::RoundBased);
    let event = run(EngineKind::EventDriven);
    assert!(
        round.records.iter().any(|r| r.arrival_ns > 0.0),
        "waves produced no delayed arrivals"
    );
    assert!(
        event.total_core_switches > 0,
        "online sampling never retuned anything"
    );
    assert_equivalent(&round, &event);
}

#[test]
fn engines_agree_on_a_bursty_arrival_workload() {
    let catalog = Catalog::extended(0.05, 3);
    let workload = Workload::bursty(&catalog, 8, 1, 3, 1_500_000.0, 3);
    let programs = baseline_catalog(&catalog);
    let slots = build_slots(&workload, &catalog, &programs);
    let round = run_engine(slots.clone(), Policy::Stock, EngineKind::RoundBased);
    let event = run_engine(slots, Policy::Stock, EngineKind::EventDriven);
    // The bursty workload genuinely exercises delayed arrivals.
    assert!(round.records.iter().any(|r| r.arrival_ns > 0.0));
    assert_equivalent(&round, &event);
}
