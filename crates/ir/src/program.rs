//! Whole programs: a set of procedures with a designated entry point.

use serde::{Deserialize, Serialize};

use crate::block::{BasicBlock, Location};
use crate::error::IrError;
use crate::mix::InstrMix;
use crate::proc::{ProcId, Procedure};

/// Summary statistics of a program's static shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProgramStats {
    /// Number of procedures.
    pub procedures: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of instructions (terminators included).
    pub instructions: usize,
    /// Encoded size in bytes.
    pub size_bytes: u64,
}

/// A whole program: procedures plus the entry procedure.
///
/// # Examples
///
/// ```
/// use phase_ir::ProgramBuilder;
/// use phase_ir::{Instruction, Terminator};
///
/// let mut builder = ProgramBuilder::new("tiny");
/// let main = builder.declare_procedure("main");
/// let mut proc = builder.procedure_builder();
/// let entry = proc.add_block();
/// proc.push(entry, Instruction::int_alu());
/// proc.terminate(entry, Terminator::Exit);
/// builder.define_procedure(main, proc)?;
/// let program = builder.build()?;
/// assert_eq!(program.name(), "tiny");
/// assert_eq!(program.stats().procedures, 1);
/// # Ok::<(), phase_ir::IrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    entry: ProcId,
    procedures: Vec<Procedure>,
    /// Computed once by [`Program::new`]: a built program never changes.
    stats: ProgramStats,
}

impl Program {
    /// Creates a program and checks cross-procedure consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if the program has no procedures, procedure ids do not
    /// match their positions, the entry procedure is missing, or a call
    /// targets a non-existent procedure.
    pub fn new(
        name: impl Into<String>,
        entry: ProcId,
        procedures: Vec<Procedure>,
    ) -> Result<Self, IrError> {
        let stats = ProgramStats {
            procedures: procedures.len(),
            blocks: procedures.iter().map(Procedure::block_count).sum(),
            instructions: procedures.iter().map(Procedure::instruction_count).sum(),
            size_bytes: procedures.iter().map(Procedure::size_bytes).sum(),
        };
        let program = Self {
            name: name.into(),
            entry,
            procedures,
            stats,
        };
        program.validate()?;
        Ok(program)
    }

    fn validate(&self) -> Result<(), IrError> {
        if self.procedures.is_empty() {
            return Err(IrError::EmptyProgram);
        }
        for (idx, proc) in self.procedures.iter().enumerate() {
            if proc.id().index() != idx {
                return Err(IrError::MisnumberedProcedure {
                    expected: ProcId(idx as u32),
                    found: proc.id(),
                });
            }
        }
        if self.procedure(self.entry).is_none() {
            return Err(IrError::MissingEntryProcedure { proc: self.entry });
        }
        for proc in &self.procedures {
            for block in proc.blocks() {
                if let Some(callee) = block.terminator().callee() {
                    if self.procedure(callee).is_none() {
                        return Err(IrError::DanglingCall {
                            caller: proc.id(),
                            block: block.id(),
                            callee,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry procedure.
    pub fn entry(&self) -> ProcId {
        self.entry
    }

    /// All procedures, indexed by their [`ProcId`].
    pub fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }

    /// Looks up a procedure by id.
    pub fn procedure(&self, id: ProcId) -> Option<&Procedure> {
        self.procedures.get(id.index())
    }

    /// Looks up a procedure by id, panicking on a dangling id.
    ///
    /// # Panics
    ///
    /// Panics if the procedure does not exist.
    pub fn procedure_expect(&self, id: ProcId) -> &Procedure {
        self.procedure(id)
            .unwrap_or_else(|| panic!("procedure {id} missing from program `{}`", self.name))
    }

    /// Looks up a block by program-wide location.
    pub fn block(&self, loc: Location) -> Option<&BasicBlock> {
        self.procedure(loc.proc)?.block(loc.block)
    }

    /// Iterates over every `(location, block)` pair in the program.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (Location, &BasicBlock)> {
        self.procedures.iter().flat_map(|proc| {
            proc.blocks()
                .iter()
                .map(move |b| (Location::new(proc.id(), b.id()), b))
        })
    }

    /// Summary statistics of the program, computed once when it was built.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }

    /// Static instruction mix of the whole program (each block counted once).
    pub fn static_mix(&self) -> InstrMix {
        let mut mix = InstrMix::default();
        for proc in &self.procedures {
            mix.merge(&proc.static_mix());
        }
        mix
    }

    /// Textual listing of the program, one block per paragraph.
    pub fn to_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "program {} (entry {})", self.name, self.entry);
        for proc in &self.procedures {
            let _ = writeln!(
                out,
                "proc {} `{}` entry {}:",
                proc.id(),
                proc.name(),
                proc.entry()
            );
            for block in proc.blocks() {
                let _ = writeln!(out, "  {}:", block.id());
                for instr in block.instructions() {
                    let _ = writeln!(out, "    {instr}");
                }
                let _ = writeln!(out, "    {}", block.terminator());
            }
        }
        out
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "{} ({} procs, {} blocks, {} instrs, {} bytes)",
            self.name, stats.procedures, stats.blocks, stats.instructions, stats.size_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockId, Terminator};
    use crate::instr::Instruction;

    fn leaf_proc(id: ProcId, name: &str) -> Procedure {
        let block = BasicBlock::new(BlockId(0), vec![Instruction::int_alu()], Terminator::Return);
        Procedure::new(id, name, BlockId(0), vec![block]).unwrap()
    }

    fn calling_program() -> Program {
        let callee = leaf_proc(ProcId(1), "callee");
        let b0 = BasicBlock::new(
            BlockId(0),
            vec![Instruction::fp_add()],
            Terminator::Call {
                callee: ProcId(1),
                return_to: BlockId(1),
            },
        );
        let b1 = BasicBlock::new(BlockId(1), vec![], Terminator::Exit);
        let main = Procedure::new(ProcId(0), "main", BlockId(0), vec![b0, b1]).unwrap();
        Program::new("two-proc", ProcId(0), vec![main, callee]).unwrap()
    }

    #[test]
    fn stats_aggregate_over_procedures() {
        let program = calling_program();
        let stats = program.stats();
        assert_eq!(stats.procedures, 2);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.instructions, 5);
        assert!(stats.size_bytes > 0);
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(
            Program::new("x", ProcId(0), vec![]).unwrap_err(),
            IrError::EmptyProgram
        );
    }

    #[test]
    fn missing_entry_is_rejected() {
        let err = Program::new("x", ProcId(5), vec![leaf_proc(ProcId(0), "f")]).unwrap_err();
        assert!(matches!(err, IrError::MissingEntryProcedure { .. }));
    }

    #[test]
    fn misnumbered_procedure_is_rejected() {
        let err = Program::new("x", ProcId(0), vec![leaf_proc(ProcId(3), "f")]).unwrap_err();
        assert!(matches!(err, IrError::MisnumberedProcedure { .. }));
    }

    #[test]
    fn dangling_call_is_rejected() {
        let b0 = BasicBlock::new(
            BlockId(0),
            vec![],
            Terminator::Call {
                callee: ProcId(9),
                return_to: BlockId(1),
            },
        );
        let b1 = BasicBlock::new(BlockId(1), vec![], Terminator::Exit);
        let main = Procedure::new(ProcId(0), "main", BlockId(0), vec![b0, b1]).unwrap();
        let err = Program::new("x", ProcId(0), vec![main]).unwrap_err();
        assert!(matches!(err, IrError::DanglingCall { .. }));
    }

    #[test]
    fn block_lookup_by_location() {
        let program = calling_program();
        let loc = Location::new(ProcId(1), BlockId(0));
        assert!(program.block(loc).is_some());
        assert!(program
            .block(Location::new(ProcId(1), BlockId(4)))
            .is_none());
    }

    #[test]
    fn iter_blocks_visits_every_block_once() {
        let program = calling_program();
        let locations: Vec<_> = program.iter_blocks().map(|(loc, _)| loc).collect();
        assert_eq!(locations.len(), 3);
        let unique: std::collections::HashSet<_> = locations.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn listing_contains_every_procedure_name() {
        let program = calling_program();
        let listing = program.to_listing();
        assert!(listing.contains("main"));
        assert!(listing.contains("callee"));
        assert!(listing.contains("exit"));
    }

    #[test]
    fn display_mentions_stats() {
        let program = calling_program();
        let rendered = format!("{program}");
        assert!(rendered.contains("two-proc"));
        assert!(rendered.contains("2 procs"));
    }
}
