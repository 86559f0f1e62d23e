//! Phase marks and the instrumented program.
//!
//! "Each phase-transition point is statically instrumented to insert a small
//! code fragment which we call a phase mark. A phase mark contains information
//! about the phase type for the current section, code for dynamic performance
//! analysis, and code for making core switching decisions" (Section II). In
//! this reproduction the binary is not literally rewritten; instead
//! [`InstrumentedProgram`] records, per control-flow edge, the mark the
//! interpreter must execute when control crosses that edge, together with the
//! byte and instruction overhead the real rewriter would have added.

use std::collections::HashMap;
use std::sync::Arc;

use phase_analysis::{BlockTyping, PhaseType};
use phase_ir::{Location, Program};
use serde::{Deserialize, Serialize};

use crate::config::MarkingConfig;
use crate::regions::{ProgramRegions, RegionMap};
use crate::transitions::{entry_phase_type, find_transitions, Transition};

/// Identifier of a phase mark within an [`InstrumentedProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MarkId(pub u32);

impl MarkId {
    /// The mark id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Size in bytes of one phase mark in the rewritten binary. The paper reports
/// "each phase mark is at most 78 bytes" (Section IV-B1).
pub const MARK_SIZE_BYTES: u32 = 78;

/// Number of extra instructions a phase mark executes when it only performs a
/// core-switch decision (the common case once a phase type's assignment is
/// known): an unconditional jump plus "a relatively small number of pushes"
/// and the affinity check (Section III).
pub const MARK_DECISION_INSTRUCTIONS: u64 = 12;

/// Number of extra instructions a phase mark executes when it also starts or
/// stops performance monitoring for a representative section.
pub const MARK_MONITOR_INSTRUCTIONS: u64 = 40;

/// One inserted phase mark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseMark {
    /// The mark's identifier.
    pub id: MarkId,
    /// The edge the mark is attached to.
    pub from: Location,
    /// The edge's target: the first block of the section being entered.
    pub to: Location,
    /// Phase type of the section being entered (stored in the mark so the
    /// runtime knows which cluster's statistics to consult).
    pub phase_type: PhaseType,
    /// Phase type of the section being left, when known statically.
    pub previous_type: Option<PhaseType>,
    /// Encoded size of the mark in bytes.
    pub size_bytes: u32,
}

/// Space-overhead summary for one instrumented program (Figure 3's metric).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MarkStats {
    /// Number of phase marks inserted.
    pub mark_count: usize,
    /// Total bytes added by marks.
    pub added_bytes: u64,
    /// Size of the original program in bytes.
    pub original_bytes: u64,
    /// `added_bytes / original_bytes`.
    pub space_overhead: f64,
}

/// A program together with its phase marks.
///
/// The original program is shared behind an [`Arc`] so scheduler processes can
/// hold the instrumented program cheaply.
///
/// # Examples
///
/// ```
/// use phase_analysis::{assign_block_types, StaticTypingConfig};
/// use phase_ir::{Instruction, ProgramBuilder, Terminator};
/// use phase_marking::{instrument, MarkingConfig};
///
/// let mut builder = ProgramBuilder::new("tiny");
/// let main = builder.declare_procedure("main");
/// let mut body = builder.procedure_builder();
/// let b = body.add_block();
/// body.push_all(b, std::iter::repeat(Instruction::int_alu()).take(20));
/// body.terminate(b, Terminator::Exit);
/// builder.define_procedure(main, body)?;
/// let program = builder.build()?;
///
/// let typing = assign_block_types(&program, &StaticTypingConfig::default());
/// let instrumented = instrument(&program, &typing, &MarkingConfig::paper_best());
/// assert_eq!(instrumented.stats().mark_count, instrumented.marks().len());
/// # Ok::<(), phase_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstrumentedProgram {
    program: Arc<Program>,
    config: MarkingConfig,
    marks: Vec<PhaseMark>,
    by_edge: HashMap<(Location, Location), MarkId>,
    entry_type: Option<PhaseType>,
    stats: MarkStats,
}

impl InstrumentedProgram {
    /// Assembles an instrumented program from its parts — the one
    /// constructor behind [`instrument_with_regions`] and the decode path of
    /// an artifact spill. Mark ids are renumbered by position and the edge
    /// index and space-overhead stats are rebuilt, so a decoded program is
    /// indistinguishable from one produced by [`instrument`] on the same
    /// inputs.
    pub fn from_parts(
        program: Arc<Program>,
        config: MarkingConfig,
        mut marks: Vec<PhaseMark>,
        entry_type: Option<PhaseType>,
    ) -> Self {
        let mut by_edge = HashMap::with_capacity(marks.len());
        for (idx, mark) in marks.iter_mut().enumerate() {
            mark.id = MarkId(idx as u32);
            by_edge.insert((mark.from, mark.to), mark.id);
        }
        let original_bytes = program.stats().size_bytes;
        let added_bytes: u64 = marks.iter().map(|m| u64::from(m.size_bytes)).sum();
        let stats = MarkStats {
            mark_count: marks.len(),
            added_bytes,
            original_bytes,
            space_overhead: if original_bytes == 0 {
                0.0
            } else {
                added_bytes as f64 / original_bytes as f64
            },
        };
        Self {
            program,
            config,
            marks,
            by_edge,
            entry_type,
            stats,
        }
    }

    /// The underlying (un-rewritten) program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The marking configuration that produced this instrumentation.
    pub fn config(&self) -> &MarkingConfig {
        &self.config
    }

    /// All phase marks, ordered by edge.
    pub fn marks(&self) -> &[PhaseMark] {
        &self.marks
    }

    /// The mark on a specific edge, if any.
    pub fn mark_on_edge(&self, from: Location, to: Location) -> Option<&PhaseMark> {
        self.by_edge
            .get(&(from, to))
            .map(|id| &self.marks[id.index()])
    }

    /// The phase type of the program's entry section, if it is typed.
    pub fn entry_type(&self) -> Option<PhaseType> {
        self.entry_type
    }

    /// Number of phase marks.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }

    /// Space-overhead statistics (the paper's Figure 3 metric).
    pub fn stats(&self) -> MarkStats {
        self.stats
    }

    /// Distinct phase types that appear in marks.
    pub fn phase_types(&self) -> Vec<PhaseType> {
        let mut types: Vec<PhaseType> = self.marks.iter().map(|m| m.phase_type).collect();
        if let Some(t) = self.entry_type {
            types.push(t);
        }
        types.sort();
        types.dedup();
        types
    }
}

/// Runs the full static phase-transition analysis and marking pipeline over a
/// program: build sections at the configured granularity, find transitions,
/// and attach one phase mark per transition edge.
///
/// The result owns a fresh copy of `program`; to share a program that is
/// already behind an [`Arc`], use [`instrument_with_regions`].
pub fn instrument(
    program: &Program,
    typing: &BlockTyping,
    config: &MarkingConfig,
) -> InstrumentedProgram {
    let regions: ProgramRegions = program
        .procedures()
        .iter()
        .map(|p| (p.id(), RegionMap::build(p, typing, config)))
        .collect();
    instrument_with_regions(&Arc::new(program.clone()), &regions, config)
}

/// Like [`instrument`], but with pre-computed region maps (useful when the
/// caller also needs the regions, e.g. for reporting). The result shares
/// `program` instead of copying it.
pub fn instrument_with_regions(
    program: &Arc<Program>,
    regions: &ProgramRegions,
    config: &MarkingConfig,
) -> InstrumentedProgram {
    let marks = find_transitions(program, regions, config)
        .into_iter()
        .map(
            |Transition {
                 from,
                 to,
                 to_type,
                 from_type,
             }| PhaseMark {
                // `from_parts` numbers the marks by position.
                id: MarkId(0),
                from,
                to,
                phase_type: to_type,
                previous_type: from_type,
                size_bytes: MARK_SIZE_BYTES,
            },
        )
        .collect();
    InstrumentedProgram::from_parts(
        Arc::clone(program),
        *config,
        marks,
        entry_phase_type(program, regions),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_ir::{BlockId, Instruction, ProcId, ProgramBuilder, Terminator};

    fn alternating_program(block_size: usize) -> (Program, BlockTyping) {
        let mut builder = ProgramBuilder::new("alt");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let blocks: Vec<BlockId> = (0..6).map(|_| body.add_block()).collect();
        for &b in &blocks {
            body.push_all(b, std::iter::repeat_n(Instruction::int_alu(), block_size));
        }
        for w in blocks.windows(2) {
            body.terminate(w[0], Terminator::Jump(w[1]));
        }
        body.terminate(blocks[5], Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        let program = builder.build().unwrap();

        let mut typing = BlockTyping::new(2);
        for (i, ty) in [0u32, 1, 0, 1, 0, 1].iter().enumerate() {
            typing.assign(Location::new(ProcId(0), BlockId(i as u32)), PhaseType(*ty));
        }
        (program, typing)
    }

    #[test]
    fn marks_are_attached_to_every_transition_edge() {
        let (program, typing) = alternating_program(20);
        let instrumented = instrument(&program, &typing, &MarkingConfig::basic_block(10, 0));
        assert_eq!(instrumented.mark_count(), 5);
        let mark = instrumented
            .mark_on_edge(
                Location::new(ProcId(0), BlockId(0)),
                Location::new(ProcId(0), BlockId(1)),
            )
            .expect("edge 0->1 is a transition");
        assert_eq!(mark.phase_type, PhaseType(1));
        assert_eq!(mark.previous_type, Some(PhaseType(0)));
        assert_eq!(mark.size_bytes, MARK_SIZE_BYTES);
        assert!(instrumented
            .mark_on_edge(
                Location::new(ProcId(0), BlockId(2)),
                Location::new(ProcId(0), BlockId(5)),
            )
            .is_none());
    }

    #[test]
    fn space_overhead_matches_added_bytes() {
        let (program, typing) = alternating_program(20);
        let instrumented = instrument(&program, &typing, &MarkingConfig::basic_block(10, 0));
        let stats = instrumented.stats();
        assert_eq!(stats.mark_count, 5);
        assert_eq!(stats.added_bytes, 5 * u64::from(MARK_SIZE_BYTES));
        assert_eq!(stats.original_bytes, program.stats().size_bytes);
        assert!(stats.space_overhead > 0.0);
        assert!(
            (stats.space_overhead - stats.added_bytes as f64 / stats.original_bytes as f64).abs()
                < 1e-12
        );
    }

    #[test]
    fn bigger_blocks_mean_lower_space_overhead() {
        let (small_prog, small_typing) = alternating_program(20);
        let (large_prog, large_typing) = alternating_program(200);
        let config = MarkingConfig::basic_block(10, 0);
        let small = instrument(&small_prog, &small_typing, &config);
        let large = instrument(&large_prog, &large_typing, &config);
        assert!(large.stats().space_overhead < small.stats().space_overhead);
    }

    #[test]
    fn raising_min_size_reduces_marks() {
        let (program, typing) = alternating_program(20);
        let low = instrument(&program, &typing, &MarkingConfig::basic_block(10, 0));
        let high = instrument(&program, &typing, &MarkingConfig::basic_block(40, 0));
        assert!(high.mark_count() < low.mark_count());
        assert_eq!(high.mark_count(), 0);
    }

    #[test]
    fn entry_type_and_phase_types_are_reported() {
        let (program, typing) = alternating_program(20);
        let instrumented = instrument(&program, &typing, &MarkingConfig::basic_block(10, 0));
        assert_eq!(instrumented.entry_type(), Some(PhaseType(0)));
        assert_eq!(instrumented.phase_types(), vec![PhaseType(0), PhaseType(1)]);
        assert_eq!(*instrumented.config(), MarkingConfig::basic_block(10, 0));
    }

    #[test]
    fn untyped_program_gets_no_marks() {
        let (program, _) = alternating_program(20);
        let typing = BlockTyping::new(2);
        let instrumented = instrument(&program, &typing, &MarkingConfig::paper_best());
        assert_eq!(instrumented.mark_count(), 0);
        assert_eq!(instrumented.entry_type(), None);
        assert_eq!(instrumented.stats().space_overhead, 0.0);
    }
}
