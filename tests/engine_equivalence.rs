//! Golden-equivalence tests: the event-driven engine must reproduce the
//! round-based reference engine's results on real workloads.
//!
//! Seeded workloads cover the interesting regimes — the paper's dense
//! Table 1 catalogue (at `Loop[45]`, and again under dense `BB[15,0]`
//! basic-block marks, tuned and all-cores), the mixed CPU/memory scenario
//! family (heavy phase-transition traffic), a bursty-arrival workload (the
//! idle stretches the event engine skips), an online-policy run with
//! interval sampling, a larger bursty workload under online sampling
//! (batched same-timestamp arrivals interleaved with sample ticks on the
//! bucket queue's fast path), and the online study's drifting family (most
//! blocks run in loops the event engine replays). The whole [`SimResult`]
//! must be equal, labels aside, every `f64` compared with `==`: both engines
//! drive the same scheduling primitives with the same floating-point
//! additions in the same order.
//!
//! The `BB[15,0]` tuned cells also check the settled-mark contract
//! (`PhaseHook::settled`): the event engine resolves a settled mark inside
//! its block loop without calling the tuner, while the round engine calls it
//! at every mark. One cell per branch of the tuner's filter: δ = 0, 0.15 and
//! 0.5 (heavy sampling, mixed, decided), fast-preferring phases pinned, the
//! three-core machine, a symmetric machine (where a decided mask is the
//! whole machine), and the drifting study's queue shape cut mid-run with
//! interval sampling on.

use std::sync::Arc;

use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::marking::MarkingConfig;
use phase_tuning::substrate::runtime::TunerConfig;
use phase_tuning::substrate::sched::{EngineKind, JobSpec, SimConfig, SimResult};
use phase_tuning::substrate::workload::{Catalog, Workload};
use phase_tuning::{
    baseline_catalog, build_slots, instrument_catalog, CellSpec, Driver, ExperimentPlan,
    PipelineConfig, Policy,
};

fn run_engine(slots: Vec<Vec<JobSpec>>, policy: Policy, engine: EngineKind) -> Arc<SimResult> {
    run_engine_until(slots, policy, engine, 6_000_000.0)
}

fn run_engine_until(
    slots: Vec<Vec<JobSpec>>,
    policy: Policy,
    engine: EngineKind,
    horizon_ns: f64,
) -> Arc<SimResult> {
    let sim = SimConfig {
        horizon_ns: Some(horizon_ns),
        engine,
        ..SimConfig::default()
    };
    run_cell(machine(), slots, policy, sim)
}

/// Runs one cell of `slots` on `machine` under `policy` and `sim` (whose
/// engine picks the engine).
fn run_cell(
    machine: MachineSpec,
    slots: Vec<Vec<JobSpec>>,
    policy: Policy,
    sim: SimConfig,
) -> Arc<SimResult> {
    let engine = sim.engine;
    let mut plan = ExperimentPlan::new();
    plan.push(CellSpec {
        group: "golden".into(),
        label: format!("golden-{engine}"),
        machine,
        slots: slots.into(),
        policy,
        sim,
    });
    Driver::new(1).run(plan).cells.remove(0).result
}

/// Asserts that the two engines' results are equal in every field but the
/// run label (which names the engine), every `f64` compared with `==`.
fn assert_equivalent(round: &SimResult, event: &SimResult) {
    assert!(
        round.completed_count() > 0,
        "equivalence is vacuous without completed processes"
    );
    let event = SimResult {
        label: round.label.clone(),
        ..event.clone()
    };
    assert_eq!(*round, event, "round-based vs event-driven");
}

fn machine() -> MachineSpec {
    MachineSpec::core2_quad_amp()
}

/// The standard catalogue's `BB[15,0]`-marked binaries on `machine`, queued
/// by `workload`.
fn basic_block_slots(
    machine: &MachineSpec,
    workload: impl Fn(&Catalog) -> Workload,
) -> Vec<Vec<JobSpec>> {
    let catalog = Catalog::standard(0.06, 1);
    let marking = PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0));
    let programs = instrument_catalog(&catalog, machine, &marking);
    build_slots(&workload(&catalog), &catalog, &programs)
}

/// Runs `slots` on `machine` under `tuner` with both engines, asserts that
/// the results are equal and that at least 10 000 marks ran, and, when
/// `switches`, that the tuner switched cores.
fn assert_tuned_cell_agrees(
    machine: MachineSpec,
    slots: Vec<Vec<JobSpec>>,
    tuner: TunerConfig,
    sim: SimConfig,
    switches: bool,
) {
    let policy = Policy::Tuned(tuner);
    let run = |engine| {
        run_cell(
            machine.clone(),
            slots.clone(),
            policy,
            SimConfig { engine, ..sim },
        )
    };
    let round = run(EngineKind::RoundBased);
    let event = run(EngineKind::EventDriven);
    assert_equivalent(&round, &event);
    assert!(
        event.total_marks_executed >= 10_000,
        "{tuner:?} executed only {} marks",
        event.total_marks_executed
    );
    if switches {
        assert!(event.total_core_switches > 0, "{tuner:?} never switched");
    }
}

/// [`assert_tuned_cell_agrees`] on the dense-mark case's queue: 6 random
/// slots of 2 jobs, cut at 6 ms.
fn assert_basic_block_cell_agrees(machine: MachineSpec, tuner: TunerConfig, switches: bool) {
    let slots = basic_block_slots(&machine, |catalog| Workload::random(catalog, 6, 2, 1));
    let sim = SimConfig {
        horizon_ns: Some(6_000_000.0),
        ..SimConfig::default()
    };
    assert_tuned_cell_agrees(machine, slots, tuner, sim, switches);
}

/// The paper's Table 1 tuner at IPC threshold `delta`.
fn tuner_at(delta: f64) -> TunerConfig {
    TunerConfig {
        ipc_threshold: delta,
        ..TunerConfig::paper_table1()
    }
}

#[test]
fn engines_agree_on_basic_block_marks_under_heavy_sampling() {
    assert_basic_block_cell_agrees(machine(), tuner_at(0.0), true);
}

#[test]
fn engines_agree_on_basic_block_marks_at_a_mixed_threshold() {
    assert_basic_block_cell_agrees(machine(), tuner_at(0.15), true);
}

#[test]
fn engines_agree_on_basic_block_marks_once_decided() {
    assert_basic_block_cell_agrees(machine(), tuner_at(0.5), true);
}

#[test]
fn engines_agree_on_basic_block_marks_with_fast_phases_pinned() {
    let tuner = TunerConfig {
        pin_preferred_fast: true,
        ..TunerConfig::paper_table1()
    };
    assert_basic_block_cell_agrees(machine(), tuner, true);
}

#[test]
fn engines_agree_on_basic_block_marks_on_the_three_core_machine() {
    let tuner = TunerConfig::paper_table1();
    assert_basic_block_cell_agrees(MachineSpec::three_core_amp(), tuner, true);
}

#[test]
fn engines_agree_on_basic_block_marks_on_a_symmetric_machine() {
    // Binaries typed on the AMP (a symmetric machine gives every block one
    // type, so nothing would be marked) run on four identical cores. With
    // one core kind every decided mask is the whole machine, so the tuner's
    // filter asks for both the core and the affinity. Nothing switches.
    let tuner = TunerConfig {
        pin_preferred_fast: true,
        ..TunerConfig::paper_table1()
    };
    let slots = basic_block_slots(&machine(), |catalog| Workload::random(catalog, 6, 2, 1));
    let sim = SimConfig {
        horizon_ns: Some(6_000_000.0),
        ..SimConfig::default()
    };
    let symmetric = MachineSpec::symmetric(4, 2.4);
    assert_tuned_cell_agrees(symmetric, slots, tuner, sim, false);
}

#[test]
fn engines_agree_on_basic_block_marks_in_the_drifting_queue_shape() {
    // The drifting catalogue is unmarkable (its blocks are below the typing
    // threshold), so this case runs the online study's drifting queue
    // shape, 8 slots of 5 rotating jobs, over the standard catalogue's
    // BB[15,0] binaries, cut mid-run so that quanta stop inside replayed
    // marked loops. Interval sampling is on: every tick makes the event
    // engine forget the sampled processes' settled marks.
    let slots = basic_block_slots(&machine(), |catalog| Workload::drifting(catalog, 8, 5, 31));
    let sim = SimConfig {
        horizon_ns: Some(6_000_000.0),
        sample_interval_ns: Some(250_000.0),
        ..SimConfig::default()
    };
    assert_tuned_cell_agrees(machine(), slots, TunerConfig::paper_table1(), sim, true);
}

#[test]
fn engines_agree_on_the_standard_catalogue_workload() {
    let catalog = Catalog::standard(0.06, 1);
    let workload = Workload::random(&catalog, 6, 2, 1);
    let programs = instrument_catalog(&catalog, &machine(), &PipelineConfig::paper_best());
    let slots = build_slots(&workload, &catalog, &programs);
    let policy = Policy::Tuned(TunerConfig::paper_table1());
    let round = run_engine(slots.clone(), policy, EngineKind::RoundBased);
    let event = run_engine(slots, policy, EngineKind::EventDriven);
    assert_equivalent(&round, &event);
    assert!(event.total_marks_executed > 0, "the tuner saw marks");
}

#[test]
fn engines_agree_under_dense_basic_block_marks() {
    // The other cases mark at Loop[45], where few marks execute. BB[15,0]
    // marks nearly every typed block boundary, so the event engine's dense
    // marked-edge table (and the tuner's decided-mark path) carry the run.
    let catalog = Catalog::standard(0.06, 1);
    let workload = Workload::random(&catalog, 6, 2, 1);
    let marking = PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0));
    let programs = instrument_catalog(&catalog, &machine(), &marking);
    let slots = build_slots(&workload, &catalog, &programs);
    let tuned = Policy::Tuned(TunerConfig::paper_table1());
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
    let policy = Policy::Tuned(TunerConfig::paper_table1());
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
    let slots: Arc<[Vec<JobSpec>]> = build_slots(&workload, &catalog, &programs).into();
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
            slots: Arc::clone(&slots),
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

#[test]
fn engines_agree_on_the_online_studys_drifting_family() {
    use phase_tuning::substrate::online::OnlineConfig;
    // The online study's drifting cells, where most simulated blocks run in
    // loops the event engine replays: the drifting catalogue at full scale,
    // 8 slots of 5 jobs, under the stock scheduler and one of the study's
    // online policies. The horizon cuts the run mid-way, so both quanta and
    // the run itself stop inside replayed loops.
    let catalog = Catalog::drifting(1.0, 7);
    let workload = Workload::drifting(&catalog, 8, 5, 31);
    let programs = baseline_catalog(&catalog);
    let slots = build_slots(&workload, &catalog, &programs);
    let online = Policy::Online(
        OnlineConfig::default()
            .with_interval_ns(100_000.0)
            .with_max_phases(2),
    );
    for policy in [Policy::Stock, online] {
        let run = |engine| run_engine_until(slots.clone(), policy, engine, 10_000_000.0);
        let round = run(EngineKind::RoundBased);
        let event = run(EngineKind::EventDriven);
        assert!(
            round.completed_count() < 40,
            "the horizon cuts the run mid-way"
        );
        if policy == online {
            assert!(
                round.total_core_switches > 0,
                "the online tuner never retuned"
            );
        }
        assert_equivalent(&round, &event);
    }
}
