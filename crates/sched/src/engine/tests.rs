//! Unit tests of the engine's private slab and loop-body tables, and of the
//! event engine's loop replay and settled marks against the round engine.

use std::collections::BTreeSet;
use std::sync::Mutex;

use super::*;
use crate::hooks::{AllCoresHook, MarkResponse, NullHook};
use crate::sim::{EngineKind, JobSpec, Simulation};
use phase_analysis::PhaseType;
use phase_ir::{
    AccessPattern, BlockId, BranchBehavior, Instruction, MemRef, ProcId, Program, ProgramBuilder,
    Terminator,
};
use phase_marking::{InstrumentedProgram, MarkId, MarkingConfig, PhaseMark};

#[test]
fn slab_edge_table_resolves_every_edge_like_the_edge_map() {
    // Two procedures, so dense indices cross a procedure base.
    let mut builder = ProgramBuilder::new("edges");
    let main = builder.declare_procedure("main");
    let helper = builder.declare_procedure("helper");
    let mut body = builder.procedure_builder();
    let b: Vec<BlockId> = (0..4).map(|_| body.add_block()).collect();
    for &block in &b {
        body.push(block, Instruction::int_alu());
    }
    body.loop_branch(b[0], b[1], b[2], 3);
    body.terminate(b[1], Terminator::Jump(b[2]));
    body.terminate(
        b[2],
        Terminator::Call {
            callee: helper,
            return_to: b[3],
        },
    );
    body.terminate(b[3], Terminator::Exit);
    builder.define_procedure(main, body).unwrap();
    let mut body = builder.procedure_builder();
    let h: Vec<BlockId> = (0..2).map(|_| body.add_block()).collect();
    body.push(h[0], Instruction::int_alu());
    body.push(h[1], Instruction::int_alu());
    body.terminate(h[0], Terminator::Jump(h[1]));
    body.terminate(h[1], Terminator::Return);
    builder.define_procedure(helper, body).unwrap();
    let program = Arc::new(builder.build().unwrap());

    let at = Location::new;
    let mark = |from: Location, to: Location, phase: u32| PhaseMark {
        id: MarkId(0),
        from,
        to,
        phase_type: PhaseType(phase),
        previous_type: None,
        size_bytes: 78,
    };
    let marks = vec![
        mark(at(main, b[0]), at(main, b[1]), 0),
        mark(at(main, b[0]), at(main, b[2]), 1),
        mark(at(main, b[2]), at(helper, h[0]), 1),
        // A second mark on the first edge: the later one wins.
        mark(at(main, b[0]), at(main, b[1]), 2),
        mark(at(helper, h[1]), at(main, b[3]), 0),
        // Edges naming blocks the program lacks never match.
        mark(at(main, b[3]), at(main, BlockId(9)), 1),
        mark(at(ProcId(7), b[0]), at(main, b[0]), 1),
        mark(at(helper, h[0]), at(main, BlockId(4)), 1),
    ];
    let instrumented = InstrumentedProgram::from_parts(
        Arc::clone(&program),
        MarkingConfig::basic_block(15, 0),
        marks,
        None,
    );
    let slab = HotSlab::new(&instrumented);
    let dp = DenseProgram::new(&program);
    let blocks = program.iter_blocks().count() as u32;
    let mut resolved = 0;
    for from in 0..blocks {
        let mut any = false;
        for to in 0..blocks {
            let expected = instrumented
                .mark_on_edge(dp.location(from), dp.location(to))
                .copied();
            let edge = slab.edge(from, to);
            let actual = edge.map(|edge| instrumented.marks()[edge.mark as usize]);
            assert_eq!(actual, expected, "edge {from} -> {to}");
            assert_eq!(
                edge.map(|edge| edge.phase_type),
                expected.map(|m| m.phase_type)
            );
            any |= expected.is_some();
            resolved += usize::from(expected.is_some());
        }
        assert_eq!(
            slab.records[from as usize].flags & HAS_MARK != 0,
            any,
            "mark flag of block {from}"
        );
    }
    assert_eq!(resolved, 4, "four distinct valid edges carry marks");
    let winner = slab.edge(0, 1).unwrap();
    assert_eq!(
        instrumented.marks()[winner.mark as usize].phase_type,
        PhaseType(2)
    );
}

/// `program` with no phase marks.
fn unmarked(program: &Arc<Program>) -> Arc<InstrumentedProgram> {
    let config = MarkingConfig::basic_block(15, 0);
    Arc::new(InstrumentedProgram::from_parts(
        Arc::clone(program),
        config,
        Vec::new(),
        None,
    ))
}

/// Marks every slab record cost-filled, as after the blocks first ran.
fn fill_costs(slab: &mut HotSlab) {
    for rec in &mut slab.records {
        rec.flags |= COST_FILLED;
    }
}

#[test]
fn loop_body_table_lists_the_innermost_jump_body_and_a_self_loop() {
    // A two-deep nest shaped like a generated phase (the inner body comes
    // back through two jumps), then a self-loop. Dense indices equal block
    // ids in a one-procedure program.
    let mut builder = ProgramBuilder::new("nest");
    let main = builder.declare_procedure("main");
    let mut body = builder.procedure_builder();
    let b: Vec<BlockId> = (0..8).map(|_| body.add_block()).collect();
    for &block in &b {
        body.push(block, Instruction::int_alu());
    }
    body.terminate(b[0], Terminator::Jump(b[1]));
    body.terminate(b[1], Terminator::Jump(b[2]));
    body.terminate(b[2], Terminator::Jump(b[3]));
    body.terminate(b[3], Terminator::Jump(b[4]));
    body.loop_branch(b[4], b[2], b[5], 3);
    body.loop_branch(b[5], b[1], b[6], 2);
    body.loop_branch(b[6], b[6], b[7], 4);
    body.terminate(b[7], Terminator::Exit);
    builder.define_procedure(main, body).unwrap();
    let dp = DenseProgram::new(&builder.build().unwrap());

    let bodies: Vec<(u32, Vec<u32>)> = (0..8)
        .map(|latch| (latch, dp.loop_body(latch).to_vec()))
        .filter(|(_, body)| !body.is_empty())
        .collect();
    // The outer latch's body runs through the inner latch, a counted
    // branch, so only the inner body and the self-loop are tabled.
    assert_eq!(bodies, vec![(4, vec![2, 3, 4]), (6, vec![6])]);
}

#[test]
fn no_loop_body_holds_an_unsettled_mark_a_call_a_probabilistic_branch_or_17_jumps() {
    let mut builder = ProgramBuilder::new("guards");
    let main = builder.declare_procedure("main");
    let helper = builder.declare_procedure("helper");
    let mut body = builder.procedure_builder();
    let b: Vec<BlockId> = (0..11).map(|_| body.add_block()).collect();
    // 0 -> 1 calls helper and returns to 2, which loops back to 1.
    body.terminate(b[0], Terminator::Jump(b[1]));
    body.terminate(
        b[1],
        Terminator::Call {
            callee: helper,
            return_to: b[2],
        },
    );
    body.loop_branch(b[2], b[1], b[3], 2);
    // 3 branches at random to 4, which loops back to 3.
    body.terminate(
        b[3],
        Terminator::Branch {
            taken: b[4],
            fallthrough: b[4],
            behavior: BranchBehavior::probabilistic(0.5),
        },
    );
    body.loop_branch(b[4], b[3], b[5], 2);
    // Two jump loops, 5 -> 6 and 7 -> 8; the first will carry a mark.
    body.terminate(b[5], Terminator::Jump(b[6]));
    body.loop_branch(b[6], b[5], b[7], 3);
    body.terminate(b[7], Terminator::Jump(b[8]));
    body.loop_branch(b[8], b[7], b[9], 3);
    // Loops through 16 and through 17 jump blocks (the table is static, so
    // the second needs no way in).
    let chain = |body: &mut phase_ir::ProcedureBuilder, jumps: usize, exit: BlockId| {
        let blocks: Vec<BlockId> = (0..=jumps).map(|_| body.add_block()).collect();
        for pair in blocks.windows(2) {
            body.terminate(pair[0], Terminator::Jump(pair[1]));
        }
        body.loop_branch(blocks[jumps], blocks[0], exit, 2);
        blocks
    };
    let sixteen = chain(&mut body, 16, b[10]);
    let seventeen = chain(&mut body, 17, b[10]);
    body.terminate(b[9], Terminator::Jump(sixteen[0]));
    body.terminate(b[10], Terminator::Exit);
    builder.define_procedure(main, body).unwrap();
    let mut body = builder.procedure_builder();
    let h = body.add_block();
    body.terminate(h, Terminator::Return);
    builder.define_procedure(helper, body).unwrap();
    let program = Arc::new(builder.build().unwrap());
    let dp = DenseProgram::new(&program);

    let tabled: Vec<u32> = (0..program.iter_blocks().count() as u32)
        .filter(|&latch| !dp.loop_body(latch).is_empty())
        .collect();
    let sixteen_latch = sixteen[16].index() as u32;
    assert_eq!(
        tabled,
        vec![6, 8, sixteen_latch],
        "no call, branch or 17-jump body"
    );
    assert_eq!(dp.loop_body(sixteen_latch).len(), MAX_LOOP_BODY);
    assert!(dp.loop_body(seventeen[17].index() as u32).is_empty());

    // A mark on 5 -> 6 keeps that body from replay until its type is
    // settled; a mark on 8's exit edge never does. The twin replays once its
    // costs are filled.
    let at = |block: BlockId| Location::new(main, block);
    let mark = |from: BlockId, to: BlockId, phase: u32| PhaseMark {
        id: MarkId(0),
        from: at(from),
        to: at(to),
        phase_type: PhaseType(phase),
        previous_type: None,
        size_bytes: 78,
    };
    let marks = vec![mark(b[5], b[6], 0), mark(b[8], b[9], 1)];
    let instrumented =
        InstrumentedProgram::from_parts(program, MarkingConfig::basic_block(15, 0), marks, None);
    let mut slab = HotSlab::new(&instrumented);
    let core = CoreId(0);
    let unsettled = inline_marks(&[]);
    assert_eq!(
        slab.replayable_body::<true>(&dp, 8, &unsettled, core),
        None,
        "costs not filled yet"
    );
    fill_costs(&mut slab);
    assert_eq!(
        slab.replayable_body::<true>(&dp, 6, &unsettled, core),
        None,
        "body holds an unsettled mark"
    );
    let settled = [Some(MarkFilter::default())];
    assert_eq!(
        slab.replayable_body::<true>(&dp, 6, &inline_marks(&settled), core),
        Some((&[5, 6][..], true)),
        "a settled mark replays"
    );
    let elsewhere = [Some(MarkFilter {
        cores: Some(AffinityMask::single(CoreId(1))),
        affinity: None,
    })];
    assert_eq!(
        slab.replayable_body::<true>(&dp, 6, &inline_marks(&elsewhere), core),
        None,
        "a mark settled only on another core"
    );
    let mut body_marks = [None; MAX_LOOP_BODY];
    body_marks[1] = Some(PhaseType(0));
    assert_eq!(slab.body_marks(&[5, 6]), body_marks, "the mark into 6");
    assert_eq!(
        slab.replayable_body::<true>(&dp, 8, &unsettled, core),
        Some((&[7, 8][..], false))
    );
    for latch in [2, 4] {
        assert_eq!(
            slab.replayable_body::<true>(&dp, latch, &unsettled, core),
            None
        );
    }
}

/// Settled-mark context for a process holding every core of a one-core
/// machine, with the given filters.
fn inline_marks(filters: &[Option<MarkFilter>]) -> InlineMarks<'_> {
    InlineMarks {
        filters,
        affinity: AffinityMask::single(CoreId(0)),
        trace_pid: 0,
        start_ns: 0.0,
        charge: None,
    }
}

/// `entry`, then a loop `b0 -> b1 -> latch` whose latch branches back to `b0`
/// `trips` times, then `exit`. Dense indices equal block ids (entry 0, b0 1,
/// b1 2, latch 3, exit 4). `b0` loads, so blocks differ in cost.
fn jump_loop(trips: u32) -> Arc<Program> {
    let mut builder = ProgramBuilder::new("jump-loop");
    let main = builder.declare_procedure("main");
    let mut body = builder.procedure_builder();
    let b: Vec<BlockId> = (0..5).map(|_| body.add_block()).collect();
    body.push(b[0], Instruction::int_alu());
    body.terminate(b[0], Terminator::Jump(b[1]));
    body.push(b[1], Instruction::fp_mul());
    body.push(
        b[1],
        Instruction::load(MemRef::new(AccessPattern::Sequential, 1 << 20)),
    );
    body.terminate(b[1], Terminator::Jump(b[2]));
    body.push(b[2], Instruction::fp_add());
    body.push(b[2], Instruction::int_alu());
    body.push(b[2], Instruction::int_alu());
    body.terminate(b[2], Terminator::Jump(b[3]));
    body.push(b[3], Instruction::int_alu());
    body.loop_branch(b[3], b[1], b[4], trips);
    body.terminate(b[4], Terminator::Exit);
    builder.define_procedure(main, body).unwrap();
    Arc::new(builder.build().unwrap())
}

/// The time elapsed after each of the first `count` blocks [`jump_loop`]
/// runs alone on core 0 of `machine`, summed in execution order as the
/// engines sum a quantum.
fn elapsed_after_blocks(program: &Program, machine: &MachineSpec, count: usize) -> Vec<f64> {
    let cost = CostModel::new(machine.clone());
    let sharing = SharingContext::shared_by(1);
    let nanos = |block: u32| {
        let block = program
            .block(Location::new(program.entry(), BlockId(block)))
            .unwrap();
        cost.block_cost(CoreId(0), block, sharing).nanos
    };
    let sequence = std::iter::once(0).chain([1, 2, 3].into_iter().cycle());
    let mut elapsed = 0.0;
    sequence
        .take(count)
        .map(|block| {
            elapsed += nanos(block);
            elapsed
        })
        .collect()
}

/// A one-core machine.
fn one_core() -> MachineSpec {
    MachineSpec::symmetric(1, 2.4)
}

/// [`jump_loop`] with marks on four edges, so that its loop body crosses
/// two phase types: entry -> b0 (type 0), b0 -> b1 (type 1), the latch's
/// taken edge back to b0 (type 0) and its exit edge (type 1).
fn two_phase(program: &Arc<Program>) -> Arc<InstrumentedProgram> {
    let at = |block: u32| Location::new(program.entry(), BlockId(block));
    let marks = [(0, 1, 0), (1, 2, 1), (3, 1, 0), (3, 4, 1)]
        .into_iter()
        .map(|(from, to, phase)| PhaseMark {
            id: MarkId(from),
            from: at(from),
            to: at(to),
            phase_type: PhaseType(phase),
            previous_type: None,
            size_bytes: 78,
        })
        .collect();
    let config = MarkingConfig::basic_block(15, 0);
    Arc::new(InstrumentedProgram::from_parts(
        Arc::clone(program),
        config,
        marks,
        None,
    ))
}

/// A two-job queue of `program` on one core whose first dispatch gets
/// exactly `budget`: the timeslice is the power of two in `[budget, 2 *
/// budget)` and the first job is released `timeslice - budget` into round
/// zero. Both subtractions are exact (Sterbenz), and a power-of-two
/// timeslice keeps the event engine's round arithmetic exact.
fn first_budget_of(
    program: &Arc<InstrumentedProgram>,
    budget: f64,
    engine: EngineKind,
) -> (Vec<Vec<JobSpec>>, SimConfig) {
    let timeslice_ns = 2f64.powi(budget.log2().ceil() as i32);
    let release = timeslice_ns - budget;
    assert_eq!(timeslice_ns - release, budget, "the first budget is exact");
    let job = JobSpec::new("loop", Arc::clone(program));
    let slots = vec![vec![job.clone().released_at(release), job]];
    let config = SimConfig {
        timeslice_ns,
        engine,
        ..SimConfig::default()
    };
    (slots, config)
}

/// Runs round zero of [`first_budget_of`] under `engine`; returns where the
/// first process stopped: its block, its latch's trip counter and its block
/// count.
fn first_quantum(
    program: &Arc<InstrumentedProgram>,
    budget: f64,
    engine: EngineKind,
) -> (u32, u32, u64) {
    let (slots, config) = first_budget_of(program, budget, engine);
    let mut core = EngineCore::new("first", one_core(), slots, NullHook, config);
    match engine {
        EngineKind::RoundBased => core.run_round(),
        EngineKind::EventDriven => core.run_round_fast(&[true]),
    }
    let interp = &mut core.procs.interps[0];
    (
        interp.current_location().block.index() as u32,
        *interp.loop_counter_mut(3),
        interp.blocks_executed(),
    )
}

/// Both engines run [`first_budget_of`] to completion; the whole results
/// must be equal.
fn assert_engines_agree(program: &Arc<InstrumentedProgram>, budget: f64) {
    let run = |engine| {
        let (slots, config) = first_budget_of(program, budget, engine);
        Simulation::new("replay", one_core(), slots, NullHook, config).run()
    };
    let round = run(EngineKind::RoundBased);
    let event = run(EngineKind::EventDriven);
    assert_eq!(round.completed_count(), 2);
    assert_eq!(round, event);
}

#[test]
fn a_budget_ending_inside_a_replayed_iteration_matches_the_round_engine() {
    let loop_program = jump_loop(40);
    let program = unmarked(&loop_program);
    let elapsed = elapsed_after_blocks(&loop_program, &one_core(), 11);
    // Entry and three passes (the first block by block, two replayed) end
    // at elapsed[9]; the budget then admits b0 of the fourth pass only.
    let budget = (elapsed[9] + elapsed[10]) / 2.0;
    assert!(elapsed[9] < budget && budget < elapsed[10]);
    for engine in [EngineKind::RoundBased, EngineKind::EventDriven] {
        assert_eq!(
            first_quantum(&program, budget, engine),
            (2, 3, 11),
            "{engine}"
        );
    }
    assert_engines_agree(&program, budget);
}

#[test]
fn a_budget_ending_on_an_iteration_boundary_matches_the_round_engine() {
    let loop_program = jump_loop(40);
    let program = unmarked(&loop_program);
    let elapsed = elapsed_after_blocks(&loop_program, &one_core(), 10);
    // The budget runs out exactly as the third pass's latch branches back.
    let budget = elapsed[9];
    for engine in [EngineKind::RoundBased, EngineKind::EventDriven] {
        assert_eq!(
            first_quantum(&program, budget, engine),
            (1, 3, 10),
            "{engine}"
        );
    }
    assert_engines_agree(&program, budget);
}

#[test]
fn both_engines_finish_the_queue_at_timeslices_with_inexact_multiples() {
    // The event engine schedules every wake-up at `round * timeslice`; at
    // these timeslices the plain quotient read some of them back one round
    // early, as stale, and the queue ran dry with both jobs unfinished.
    let program = jump_loop(40);
    let job = JobSpec::new("loop", unmarked(&program));
    for timeslice_ns in [6.036, 3.3, 0.1] {
        let run = |engine| {
            let config = SimConfig {
                timeslice_ns,
                horizon_ns: Some(600_000.0),
                engine,
                ..SimConfig::default()
            };
            let slots = vec![vec![job.clone(), job.clone()]];
            Simulation::new("inexact", one_core(), slots, NullHook, config).run()
        };
        let round = run(EngineKind::RoundBased);
        let event = run(EngineKind::EventDriven);
        for result in [&round, &event] {
            assert_eq!(result.completed_count(), 2, "{timeslice_ns} ns");
            assert_eq!(result.total_instructions, 744, "{timeslice_ns} ns");
        }
        // Whole-result equality waits for integer time: the round engine
        // adds the timeslice every round, the event engine multiplies, so
        // `final_time_ns` can differ in its last bit (193.152 against
        // 193.15200000000002 at 6.036 ns).
        let work = |result: &SimResult| -> Vec<(String, u64)> {
            let records = result.records.iter();
            records
                .map(|r| (r.name.clone(), r.stats.instructions))
                .collect()
        };
        assert_eq!(work(&round), work(&event), "{timeslice_ns} ns");
    }
}

#[test]
fn budgets_ending_anywhere_in_a_marked_replay_match_the_round_engine() {
    // Under the null hook every mark is settled once the hook has seen its
    // type, so from the second pass on the two-phase loop replays with its
    // marks resolved inline. The budgets end on every block and mark
    // boundary of the first dozen passes, and halfway between each pair.
    let loop_program = jump_loop(40);
    let program = two_phase(&loop_program);
    let block_ns = |block: u32| {
        let cost = CostModel::new(one_core());
        let block = loop_program
            .block(Location::new(loop_program.entry(), BlockId(block)))
            .unwrap();
        cost.block_cost(CoreId(0), block, SharingContext::shared_by(1))
            .nanos
    };
    let mark_ns = MARK_DECISION_INSTRUCTIONS as f64 / one_core().core(CoreId(0)).freq_ghz;
    // Entry, the mark into b0, then per pass: b0, the mark into b1, b1, the
    // latch, and the latch's mark back into b0.
    let mut steps = vec![block_ns(0), mark_ns];
    for _ in 0..12 {
        steps.extend([block_ns(1), mark_ns, block_ns(2), block_ns(3), mark_ns]);
    }
    let mut elapsed = 0.0;
    let boundaries: Vec<f64> = steps
        .iter()
        .map(|step| {
            elapsed += step;
            elapsed
        })
        .collect();
    for pair in boundaries.windows(2) {
        for budget in [pair[0], (pair[0] + pair[1]) / 2.0] {
            let stops: Vec<_> = [EngineKind::RoundBased, EngineKind::EventDriven]
                .into_iter()
                .map(|engine| first_quantum(&program, budget, engine))
                .collect();
            assert_eq!(stops[0], stops[1], "first quantum of budget {budget}");
            assert_engines_agree(&program, budget);
        }
    }
}

/// A hook that answers and settles like [`AllCoresHook`] and records the
/// `(pid, phase type)` of every mark it is handed.
struct CountingAllCores {
    hook: AllCoresHook,
    seen: Arc<Mutex<Vec<(Pid, PhaseType)>>>,
}

impl PhaseHook for CountingAllCores {
    fn on_phase_mark(&mut self, ctx: &MarkContext<'_>) -> MarkResponse {
        self.seen
            .lock()
            .unwrap()
            .push((ctx.pid, ctx.mark.phase_type));
        self.hook.on_phase_mark(ctx)
    }

    fn settled(&self, pid: Pid, phase_type: PhaseType) -> Option<MarkFilter> {
        self.hook.settled(pid, phase_type)
    }
}

impl IntervalHook for CountingAllCores {}

#[test]
fn the_event_engine_hands_the_hook_one_mark_per_process_and_phase_type() {
    // Three processes of the two-phase loop on the quad-core AMP. The round
    // engine hands the hook every mark; the event engine only each
    // process's first mark of each type, and resolves the rest inline,
    // stepped or replayed, with the same result.
    let program = two_phase(&jump_loop(400));
    let machine = MachineSpec::core2_quad_amp();
    let job = |name: &str| JobSpec::new(name, Arc::clone(&program));
    let slots = vec![vec![job("a"), job("b")], vec![job("c")]];
    let run = |engine| {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let hook = CountingAllCores {
            hook: AllCoresHook::new(AffinityMask::all_cores(&machine)),
            seen: Arc::clone(&seen),
        };
        let config = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let result = Simulation::new("counted", machine.clone(), slots.clone(), hook, config).run();
        let seen = seen.lock().unwrap().clone();
        (result, seen)
    };
    let (round, round_seen) = run(EngineKind::RoundBased);
    let (event, event_seen) = run(EngineKind::EventDriven);
    assert_eq!(round.completed_count(), 3);
    assert!(
        round.total_marks_executed > 2_000,
        "the loop runs its marks"
    );
    assert_eq!(round_seen.len() as u64, round.total_marks_executed);
    let distinct: BTreeSet<(Pid, PhaseType)> = round_seen.iter().copied().collect();
    assert_eq!(distinct.len(), 6, "three processes, two phase types each");
    assert_eq!(event_seen.len(), distinct.len(), "{event_seen:?}");
    assert_eq!(
        event_seen.iter().copied().collect::<BTreeSet<_>>(),
        distinct
    );
    assert_eq!(round, event);
}
