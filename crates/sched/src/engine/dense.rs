//! Pre-compiled dense control flow for the event engine's fast path.
//!
//! The reference interpreter resolves every step through
//! `Program::block(Location)` — two bounds-checked `Vec` indexes, an
//! `Option`, and a fresh `Location` per block. [`DenseProgram`] compiles each
//! block's terminator once into a flat table indexed by the same dense block
//! numbering the cost slabs and loop counters already use, so the hot loop
//! steps from dense index to dense index without touching the IR at all.
//!
//! Semantics are a strict mirror of `Interpreter::step`: counted branches use
//! the interpreter's own dense loop counters, probabilistic branches draw the
//! identical `gen_bool` sequence (probabilities are clamped at compile time
//! to the same `[0, 1]` range the reference clamps per call), and
//! calls/returns drive the same call stack — which is what keeps the event
//! engine bit-for-bit equivalent to the round-based reference.
//!
//! [`DenseProgram`] also tables the loop bodies the event engine may replay
//! ([`DenseProgram::loop_body`]): a counted latch whose taken edge comes back
//! to it through at most [`MAX_BODY_JUMPS`] `Jump` blocks.

use phase_ir::{BlockId, Location, Program, Terminator};

use super::program_layout;

/// One block's compiled terminator, with all targets resolved to dense
/// indexes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DenseCtrl {
    /// Unconditional jump.
    Jump { next: u32 },
    /// Counted branch: takes `taken` while the block's loop counter is below
    /// `trip`, then resets and falls through.
    Counted {
        taken: u32,
        fallthrough: u32,
        trip: u32,
    },
    /// Probabilistic branch with a pre-clamped taken probability.
    Probabilistic {
        taken: u32,
        fallthrough: u32,
        p: f64,
    },
    /// Call: jump to the callee's entry, remembering where to return.
    Call {
        callee_entry: u32,
        return_block: BlockId,
    },
    /// Return to the top call-stack frame (program exit when empty).
    Return,
    /// Program exit.
    Exit,
}

/// The most `Jump` blocks a replayable loop body holds besides its latch.
pub(crate) const MAX_BODY_JUMPS: usize = 16;

/// The most blocks a replayable loop body holds, its latch included.
pub(crate) const MAX_LOOP_BODY: usize = MAX_BODY_JUMPS + 1;

/// A program's control flow flattened over its dense block numbering.
#[derive(Debug)]
pub(crate) struct DenseProgram {
    /// Starting dense index of each procedure's blocks (same layout as
    /// [`program_layout`], shared with cost slabs and loop counters).
    block_base: Vec<usize>,
    /// The IR location of each dense block (for mark edges and lazy cost
    /// fills).
    locations: Vec<Location>,
    ctrl: Vec<DenseCtrl>,
    /// The loop body of block `b`, if it is a replayable latch, is
    /// `bodies[body_start[b]..body_start[b + 1]]`; other blocks have an
    /// empty range.
    body_start: Vec<u32>,
    bodies: Vec<u32>,
}

impl DenseProgram {
    pub(crate) fn new(program: &Program) -> Self {
        let (block_base, total) = program_layout(program);
        let placeholder = Location::new(program.entry(), BlockId(0));
        let mut locations = vec![placeholder; total];
        let mut ctrl = vec![DenseCtrl::Exit; total];
        for (loc, block) in program.iter_blocks() {
            let base = block_base[loc.proc.index()];
            let dense = base + loc.block.index();
            locations[dense] = loc;
            ctrl[dense] = match *block.terminator() {
                Terminator::Jump(target) => DenseCtrl::Jump {
                    next: (base + target.index()) as u32,
                },
                Terminator::Branch {
                    taken,
                    fallthrough,
                    behavior,
                } => {
                    let taken = (base + taken.index()) as u32;
                    let fallthrough = (base + fallthrough.index()) as u32;
                    match behavior {
                        phase_ir::BranchBehavior::Counted { trip_count } => DenseCtrl::Counted {
                            taken,
                            fallthrough,
                            trip: trip_count,
                        },
                        phase_ir::BranchBehavior::Probabilistic { taken_probability } => {
                            DenseCtrl::Probabilistic {
                                taken,
                                fallthrough,
                                p: taken_probability.clamp(0.0, 1.0),
                            }
                        }
                    }
                }
                Terminator::Call { callee, return_to } => {
                    let entry = program.procedure_expect(callee).entry();
                    DenseCtrl::Call {
                        callee_entry: (block_base[callee.index()] + entry.index()) as u32,
                        return_block: return_to,
                    }
                }
                Terminator::Return => DenseCtrl::Return,
                Terminator::Exit => DenseCtrl::Exit,
            };
        }
        let (body_start, bodies) = loop_bodies(&ctrl);
        Self {
            block_base,
            locations,
            ctrl,
            body_start,
            bodies,
        }
    }

    /// The dense index of an IR location.
    #[inline]
    pub(crate) fn dense_of(&self, loc: Location) -> u32 {
        (self.block_base[loc.proc.index()] + loc.block.index()) as u32
    }

    /// The dense index a call-stack frame returns to.
    #[inline]
    pub(crate) fn return_target(&self, proc: phase_ir::ProcId, return_block: BlockId) -> u32 {
        (self.block_base[proc.index()] + return_block.index()) as u32
    }

    /// The IR location of a dense block.
    #[inline]
    pub(crate) fn location(&self, dense: u32) -> Location {
        self.locations[dense as usize]
    }

    /// The compiled terminator of a dense block.
    #[inline]
    pub(crate) fn ctrl(&self, dense: u32) -> DenseCtrl {
        self.ctrl[dense as usize]
    }

    /// The loop body of the counted latch `latch` in execution order, from
    /// its taken target to the latch itself (the last entry); empty unless
    /// every other body block is a `Jump`, at most [`MAX_BODY_JUMPS`] of
    /// them.
    #[inline]
    pub(crate) fn loop_body(&self, latch: u32) -> &[u32] {
        let start = self.body_start[latch as usize] as usize;
        let end = self.body_start[latch as usize + 1] as usize;
        &self.bodies[start..end]
    }
}

/// Builds the loop-body table over compiled terminators: for each counted
/// latch, follows `Jump`s from its taken target and keeps the walk if it
/// returns to the latch within [`MAX_BODY_JUMPS`] of them.
fn loop_bodies(ctrl: &[DenseCtrl]) -> (Vec<u32>, Vec<u32>) {
    let mut body_start = Vec::with_capacity(ctrl.len() + 1);
    let mut bodies = Vec::new();
    body_start.push(0);
    for (latch, block) in ctrl.iter().enumerate() {
        if let DenseCtrl::Counted { taken, .. } = *block {
            let latch = latch as u32;
            let start = bodies.len();
            let mut at = taken;
            loop {
                if at == latch {
                    bodies.push(latch);
                    break;
                }
                match ctrl[at as usize] {
                    DenseCtrl::Jump { next } if bodies.len() - start < MAX_BODY_JUMPS => {
                        bodies.push(at);
                        at = next;
                    }
                    _ => {
                        bodies.truncate(start);
                        break;
                    }
                }
            }
        }
        body_start.push(bodies.len() as u32);
    }
    (body_start, bodies)
}
