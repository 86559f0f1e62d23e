//! Online tuning in ~30 lines: stock vs. static marks vs. `phase-online` on
//! a drifting workload whose programs the static pipeline cannot mark.
//!
//! Run with: `cargo run --release --example online_tuning`

use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::online::OnlineConfig;
use phase_tuning::substrate::runtime::TunerConfig;
use phase_tuning::substrate::sched::SimConfig;
use phase_tuning::substrate::workload::{Catalog, Workload};
use phase_tuning::{
    baseline_catalog, build_slots, instrument_catalog, Driver, ExperimentPlan, PipelineConfig,
    PlannedWorkload, Policy,
};

fn main() {
    let machine = MachineSpec::core2_quad_amp();
    // Drifting programs: block mix rotates mid-run, every block below the
    // typing threshold — the static pipeline inserts zero marks.
    let catalog = Catalog::drifting(1.0, 7);
    let workload = Workload::drifting(&catalog, 8, 6, 31);
    let marked = instrument_catalog(&catalog, &machine, &PipelineConfig::paper_best());
    let plain = baseline_catalog(&catalog);
    println!(
        "static marks inserted: {}",
        marked.iter().map(|p| p.mark_count()).sum::<usize>()
    );

    let planned = PlannedWorkload {
        name: "drift".into(),
        baseline_slots: build_slots(&workload, &catalog, &plain).into(),
        tuned_slots: build_slots(&workload, &catalog, &marked).into(),
    };
    let sim = SimConfig {
        horizon_ns: Some(40_000_000.0),
        ..SimConfig::default()
    };
    let policies = [
        Policy::Stock,
        Policy::Tuned(TunerConfig::paper_table1()), // blind here: no marks
        Policy::Online(OnlineConfig::default()),    // samples counters instead
    ];
    let plan = ExperimentPlan::cross(&[planned], &[machine], &policies, sim, 0xD61F7);
    let outcome = Driver::new(3).run(plan);

    let stock = outcome.cells[0].result.total_instructions as f64;
    for cell in &outcome.cells {
        println!(
            "{:<32} throughput x{:.3}  completed {:>2}  switches {}",
            cell.label,
            cell.result.total_instructions as f64 / stock,
            cell.result.completed_count(),
            cell.result.total_core_switches,
        );
    }
}
