//! Quickstart: instrument a tiny two-phase program, inspect its phase marks,
//! and run a small baseline-versus-tuned comparison.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::ir::{AccessPattern, Instruction, MemRef, ProgramBuilder, Terminator};
use phase_tuning::substrate::marking::MarkingConfig;
use phase_tuning::{
    comparison_result, planned_workload, prepare_program, prepare_workload, Driver,
    ExperimentConfig, ExperimentPlan, PipelineConfig, Policy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small program that alternates between a CPU-bound phase and
    //    a memory-bound phase inside a loop — the kind of phase behaviour the
    //    technique exploits.
    let mut builder = ProgramBuilder::new("quickstart");
    let main_proc = builder.declare_procedure("main");
    let mut body = builder.procedure_builder();
    let compute = body.add_block();
    let stream = body.add_block();
    let latch = body.add_block();
    let exit = body.add_block();

    body.push_all(compute, std::iter::repeat_n(Instruction::fp_mul(), 48));
    let big_array = MemRef::new(AccessPattern::Strided { stride_bytes: 8 }, 96 * 1024 * 1024);
    body.push_all(
        stream,
        (0..48).map(|i| {
            if i % 2 == 0 {
                Instruction::load(big_array)
            } else {
                Instruction::fp_add()
            }
        }),
    );
    body.push_all(latch, std::iter::repeat_n(Instruction::int_alu(), 20));
    body.terminate(compute, Terminator::Jump(stream));
    body.terminate(stream, Terminator::Jump(latch));
    body.loop_branch(latch, compute, exit, 200);
    body.terminate(exit, Terminator::Exit);
    builder.define_procedure(main_proc, body)?;
    let program = std::sync::Arc::new(builder.build()?);

    // 2. Run the static pipeline: type the blocks, find phase transitions,
    //    insert phase marks.
    let machine = MachineSpec::core2_quad_amp();
    let pipeline = PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0));
    let instrumented = prepare_program(&program, &machine, &pipeline);

    println!("program: {program}");
    println!("machine: {machine}");
    println!(
        "phase marks inserted: {} ({} bytes, {:.2}% space overhead)",
        instrumented.mark_count(),
        instrumented.stats().added_bytes,
        instrumented.stats().space_overhead * 100.0
    );
    for mark in instrumented.marks() {
        println!(
            "  mark {:>3?}: {} -> {}  enters phase {}",
            mark.id.0, mark.from, mark.to, mark.phase_type
        );
    }

    // 3. Run a small workload comparison: stock scheduler vs. phase-based
    //    tuning on identical job queues. The cells are described by an
    //    ExperimentPlan (here the cross-product of one workload, one machine,
    //    and two policies) and fanned out by the parallel Driver; bigger
    //    sweeps just add workloads, machines, or policies to the cross.
    let mut config = ExperimentConfig {
        workload_slots: 8,
        jobs_per_slot: 2,
        catalog_scale: 0.12,
        ..ExperimentConfig::default()
    };
    // The cross-product below seeds its cells with cell_seed(base, 0);
    // adopting that seed up front keeps the isolated runtimes measured by
    // prepare_workload on the same stochastic realization as the cells.
    config.sim.seed = phase_tuning::cell_seed(config.workload_seed, 0);
    println!(
        "\nrunning baseline vs. phase-tuned workload ({} slots)...",
        config.workload_slots
    );
    let prepared = prepare_workload(&config);
    let plan = ExperimentPlan::cross(
        &[planned_workload("quickstart", &prepared)],
        std::slice::from_ref(&config.machine),
        &[Policy::Stock, Policy::Tuned(config.tuner)],
        config.sim,
        config.workload_seed,
    );
    let group = format!("quickstart/{}", config.machine.name);
    let cells = Driver::new(2).run(plan);
    let outcome = comparison_result(&group, &cells, &config, &prepared)
        .expect("the cross-product contains the comparison cells");

    println!(
        "throughput: {} ({} -> {} instructions)",
        phase_tuning::format_pct(outcome.throughput.improvement_pct),
        outcome.throughput.baseline_instructions,
        outcome.throughput.technique_instructions,
    );
    println!(
        "average process time: {} -> {} ({})",
        phase_tuning::format_duration_ns(outcome.baseline_fairness.avg_process_time_ns),
        phase_tuning::format_duration_ns(outcome.tuned_fairness.avg_process_time_ns),
        phase_tuning::format_pct(outcome.average_time_reduction_pct()),
    );
    println!(
        "max-stretch: {:.2} -> {:.2} ({})",
        outcome.baseline_fairness.max_stretch,
        outcome.tuned_fairness.max_stretch,
        phase_tuning::format_pct(outcome.fairness.max_stretch_decrease_pct),
    );
    println!(
        "tuner: {} sections monitored, {} assignments decided, {} core-switch requests",
        outcome.tuner_stats.sections_monitored,
        outcome.tuner_stats.assignments_decided,
        outcome.tuner_stats.switch_requests,
    );
    println!(
        "core switches performed: {} (baseline {})",
        outcome.tuned.total_core_switches, outcome.baseline.total_core_switches
    );
    Ok(())
}
