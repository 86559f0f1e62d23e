//! Unit tests of the engine's private slab tables.

use super::*;
use phase_analysis::PhaseType;
use phase_ir::{BlockId, Instruction, ProcId, ProgramBuilder, Terminator};
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
            let actual = slab
                .edge_mark(from, to)
                .map(|index| instrumented.marks()[index]);
            assert_eq!(actual, expected, "edge {from} -> {to}");
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
    let winner = slab.edge_mark(0, 1).unwrap();
    assert_eq!(instrumented.marks()[winner].phase_type, PhaseType(2));
}
