//! A deterministic CFG interpreter.
//!
//! The simulation does not execute data; it replays a realistic path through
//! the program's control-flow graph. Counted branches follow their trip
//! counts, probabilistic branches draw from a per-process seeded generator,
//! and calls/returns maintain a call stack. Two runs with the same seed
//! therefore execute exactly the same block sequence — which is what lets the
//! evaluation compare the stock scheduler and phase-based tuning on identical
//! instruction streams.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phase_ir::{BlockId, BranchBehavior, Location, ProcId, Program, Terminator};

/// One step of execution: the block that ran and the edge taken out of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// The block that was just executed.
    pub executed: Location,
    /// The next block control flows to, or `None` if the program exited.
    pub next: Option<Location>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    proc: ProcId,
    return_block: BlockId,
}

/// Interprets one program, one basic block at a time.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use phase_ir::{Instruction, ProgramBuilder, Terminator};
/// use phase_sched::Interpreter;
///
/// let mut builder = ProgramBuilder::new("two-blocks");
/// let main = builder.declare_procedure("main");
/// let mut body = builder.procedure_builder();
/// let a = body.add_block();
/// let b = body.add_block();
/// body.push(a, Instruction::int_alu());
/// body.terminate(a, Terminator::Jump(b));
/// body.terminate(b, Terminator::Exit);
/// builder.define_procedure(main, body)?;
/// let program = Arc::new(builder.build()?);
///
/// let mut interp = Interpreter::new(program, 0);
/// let first = interp.step().unwrap();
/// assert_eq!(first.executed.block, a);
/// let second = interp.step().unwrap();
/// assert_eq!(second.next, None);
/// assert!(interp.is_finished());
/// # Ok::<(), phase_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: Arc<Program>,
    current: Location,
    call_stack: Vec<Frame>,
    /// Per-procedure base offsets into the dense `loop_counters` table (one
    /// slot per block, so counted branches never hash).
    block_base: Vec<usize>,
    loop_counters: Vec<u32>,
    rng: StdRng,
    finished: bool,
    blocks_executed: u64,
}

impl Interpreter {
    /// Creates an interpreter positioned at the program's entry.
    pub fn new(program: Arc<Program>, seed: u64) -> Self {
        let entry_proc = program.entry();
        let entry_block = program.procedure_expect(entry_proc).entry();
        let (block_base, total) = crate::engine::program_layout(&program);
        Self {
            program,
            current: Location::new(entry_proc, entry_block),
            call_stack: Vec::new(),
            block_base,
            loop_counters: vec![0; total],
            rng: StdRng::seed_from_u64(seed),
            finished: false,
            blocks_executed: 0,
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The block that will execute next (meaningless once finished).
    pub fn current_location(&self) -> Location {
        self.current
    }

    /// Whether the program has exited.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Number of basic blocks executed so far.
    pub fn blocks_executed(&self) -> u64 {
        self.blocks_executed
    }

    /// Executes the current block and advances to the next one.
    ///
    /// Returns `None` once the program has exited.
    pub fn step(&mut self) -> Option<Step> {
        if self.finished {
            return None;
        }
        let executed = self.current;
        self.blocks_executed += 1;
        let block = self
            .program
            .block(executed)
            .expect("interpreter locations always point at existing blocks");

        let next = match *block.terminator() {
            Terminator::Jump(target) => Some(Location::new(executed.proc, target)),
            Terminator::Branch {
                taken,
                fallthrough,
                behavior,
            } => {
                let go_taken = match behavior {
                    BranchBehavior::Counted { trip_count } => {
                        let dense = self.block_base[executed.proc.index()] + executed.block.index();
                        self.take_counted(dense as u32, trip_count)
                    }
                    BranchBehavior::Probabilistic { taken_probability } => {
                        self.rng.gen_bool(taken_probability.clamp(0.0, 1.0))
                    }
                };
                let target = if go_taken { taken } else { fallthrough };
                Some(Location::new(executed.proc, target))
            }
            Terminator::Call { callee, return_to } => {
                self.call_stack.push(Frame {
                    proc: executed.proc,
                    return_block: return_to,
                });
                let entry = self.program.procedure_expect(callee).entry();
                Some(Location::new(callee, entry))
            }
            Terminator::Return => self
                .call_stack
                .pop()
                .map(|frame| Location::new(frame.proc, frame.return_block)),
            Terminator::Exit => None,
        };

        match next {
            Some(loc) => self.current = loc,
            None => self.finished = true,
        }
        Some(Step { executed, next })
    }

    /// Steps the counted branch at dense index `dense`: whether it takes its
    /// branch, counting the trip, or falls through and resets its counter.
    #[inline]
    pub(crate) fn take_counted(&mut self, dense: u32, trip: u32) -> bool {
        let counter = &mut self.loop_counters[dense as usize];
        if *counter < trip {
            *counter += 1;
            true
        } else {
            *counter = 0;
            false
        }
    }

    /// The trip counter of the counted branch at dense index `dense` (the
    /// event engine's loop replay keeps it in a local and writes it back).
    #[inline]
    pub(crate) fn loop_counter_mut(&mut self, dense: u32) -> &mut u32 {
        &mut self.loop_counters[dense as usize]
    }

    /// Adds blocks the event engine executed outside [`step`](Self::step)
    /// to the block count.
    #[inline]
    pub(crate) fn add_blocks_executed(&mut self, blocks: u64) {
        self.blocks_executed += blocks;
    }

    /// Executes `ctrl`, the compiled terminator of the block at dense index
    /// `cur` in a [`DenseProgram`](crate::engine::dense::DenseProgram),
    /// returning the next dense index (or `None` on exit, which also marks
    /// the interpreter finished).
    ///
    /// This is the event engine's fast path for calls, returns,
    /// probabilistic branches and exit; it steps jumps and counted branches
    /// itself. It advances the same state as [`step`](Self::step) — RNG
    /// draws, call stack — except the block count, which the caller adds
    /// with [`add_blocks_executed`](Self::add_blocks_executed). It leaves
    /// `current_location` untouched; callers own the dense cursor and must
    /// [`sync_location`](Self::sync_location) before anything reads the
    /// location again.
    ///
    /// Always inlined: called out of line, it takes its terminator through
    /// memory, and the block loop then keeps that copy on the stack for
    /// every block it steps.
    #[inline(always)]
    pub(crate) fn step_dense(
        &mut self,
        dp: &crate::engine::dense::DenseProgram,
        cur: u32,
        ctrl: crate::engine::dense::DenseCtrl,
    ) -> Option<u32> {
        use crate::engine::dense::DenseCtrl;
        debug_assert!(!self.finished, "stepping a finished interpreter");
        let next = match ctrl {
            DenseCtrl::Jump { .. } | DenseCtrl::Counted { .. } => {
                unreachable!("stepped inline by run_blocks_fast")
            }
            DenseCtrl::Probabilistic {
                taken,
                fallthrough,
                p,
            } => {
                if self.rng.gen_bool(p) {
                    Some(taken)
                } else {
                    Some(fallthrough)
                }
            }
            DenseCtrl::Call {
                callee_entry,
                return_block,
            } => {
                self.call_stack.push(Frame {
                    proc: dp.location(cur).proc,
                    return_block,
                });
                Some(callee_entry)
            }
            DenseCtrl::Return => self
                .call_stack
                .pop()
                .map(|frame| dp.return_target(frame.proc, frame.return_block)),
            DenseCtrl::Exit => None,
        };
        if next.is_none() {
            self.finished = true;
        }
        next
    }

    /// Writes the dense cursor back into the interpreter's location (the fast
    /// path's counterpart to `step` updating `current` itself).
    pub(crate) fn sync_location(&mut self, loc: Location) {
        self.current = loc;
    }

    /// Runs the program to completion, counting executed blocks (useful in
    /// tests; real simulations step block by block to charge costs).
    ///
    /// A safety cap bounds runaway programs; it is far above anything the
    /// workload generator produces.
    pub fn run_to_completion(&mut self, max_blocks: u64) -> u64 {
        let mut executed = 0;
        while !self.finished && executed < max_blocks {
            self.step();
            executed += 1;
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_ir::{Instruction, ProgramBuilder};

    fn counted_loop_program(trips: u32) -> Arc<Program> {
        let mut builder = ProgramBuilder::new("loop");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let entry = body.add_block();
        let header = body.add_block();
        let exit = body.add_block();
        body.push(entry, Instruction::int_alu());
        body.terminate(entry, Terminator::Jump(header));
        body.push(header, Instruction::fp_add());
        body.loop_branch(header, header, exit, trips);
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        Arc::new(builder.build().unwrap())
    }

    #[test]
    fn counted_loop_executes_exact_trip_count() {
        let program = counted_loop_program(5);
        let mut interp = Interpreter::new(program, 0);
        let mut header_executions = 0;
        while let Some(step) = interp.step() {
            if step.executed.block == BlockId(1) {
                header_executions += 1;
            }
        }
        // Header executes trip_count taken iterations plus the final exit one.
        assert_eq!(header_executions, 6);
        assert!(interp.is_finished());
        assert!(interp.step().is_none());
    }

    #[test]
    fn loop_counter_resets_when_reentered() {
        // Outer counted loop re-enters an inner counted loop; the inner loop
        // must iterate fully on every re-entry.
        let mut builder = ProgramBuilder::new("nested");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let entry = body.add_block();
        let outer_header = body.add_block();
        let inner = body.add_block();
        let outer_latch = body.add_block();
        let exit = body.add_block();
        body.terminate(entry, Terminator::Jump(outer_header));
        body.terminate(outer_header, Terminator::Jump(inner));
        body.loop_branch(inner, inner, outer_latch, 3);
        body.loop_branch(outer_latch, outer_header, exit, 2);
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        let program = Arc::new(builder.build().unwrap());

        let mut interp = Interpreter::new(program, 0);
        let mut inner_executions = 0;
        while let Some(step) = interp.step() {
            if step.executed.block == BlockId(2) {
                inner_executions += 1;
            }
        }
        // Outer body runs 3 times (2 taken + final), inner runs 4 per visit.
        assert_eq!(inner_executions, 3 * 4);
    }

    #[test]
    fn calls_and_returns_follow_the_stack() {
        let mut builder = ProgramBuilder::new("calls");
        let main = builder.declare_procedure("main");
        let helper = builder.declare_procedure("helper");
        let mut mbody = builder.procedure_builder();
        let m0 = mbody.add_block();
        let m1 = mbody.add_block();
        mbody.terminate(
            m0,
            Terminator::Call {
                callee: helper,
                return_to: m1,
            },
        );
        mbody.terminate(m1, Terminator::Exit);
        builder.define_procedure(main, mbody).unwrap();
        let mut hbody = builder.procedure_builder();
        let h0 = hbody.add_block();
        hbody.push(h0, Instruction::fp_mul());
        hbody.terminate(h0, Terminator::Return);
        builder.define_procedure(helper, hbody).unwrap();
        let program = Arc::new(builder.build().unwrap());

        let mut interp = Interpreter::new(program, 0);
        let visited: Vec<Location> = std::iter::from_fn(|| interp.step())
            .map(|s| s.executed)
            .collect();
        assert_eq!(
            visited,
            vec![
                Location::new(main, m0),
                Location::new(helper, h0),
                Location::new(main, m1),
            ]
        );
    }

    #[test]
    fn probabilistic_branch_is_deterministic_per_seed() {
        let mut builder = ProgramBuilder::new("prob");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let entry = body.add_block();
        let a = body.add_block();
        let b = body.add_block();
        let exit = body.add_block();
        body.terminate(
            entry,
            Terminator::Branch {
                taken: a,
                fallthrough: b,
                behavior: BranchBehavior::probabilistic(0.5),
            },
        );
        body.terminate(a, Terminator::Jump(exit));
        body.terminate(b, Terminator::Jump(exit));
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        let program = Arc::new(builder.build().unwrap());

        let trace = |seed| {
            let mut interp = Interpreter::new(Arc::clone(&program), seed);
            std::iter::from_fn(|| interp.step())
                .map(|s| s.executed)
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(1), trace(1));
    }

    #[test]
    fn run_to_completion_counts_blocks() {
        let program = counted_loop_program(10);
        let mut interp = Interpreter::new(program, 0);
        let executed = interp.run_to_completion(1_000);
        assert!(interp.is_finished());
        assert_eq!(executed, interp.blocks_executed());
        // entry + 11 header executions + exit
        assert_eq!(executed, 13);
    }

    #[test]
    fn runaway_cap_stops_execution() {
        let program = counted_loop_program(1_000_000);
        let mut interp = Interpreter::new(program, 0);
        let executed = interp.run_to_completion(100);
        assert_eq!(executed, 100);
        assert!(!interp.is_finished());
    }
}
