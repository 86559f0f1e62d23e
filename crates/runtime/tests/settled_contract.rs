//! The tuner keeps the settled-mark contract of `PhaseHook::settled`.
//!
//! The event engine resolves a mark without calling the tuner whenever the
//! tuner's filter for the mark's phase type says the mark changes nothing.
//! This property test drives a `PhaseTuner` with random mark sequences and
//! models the engine around it: the per-process filter table (insert on
//! `Some`, clear on `None`), the affinity each answer applies, and the
//! monitoring each answer arms. Wherever the model would resolve a mark
//! inline, the test hands the tuner the mark anyway and checks that it was
//! indeed a no-op: no monitoring armed, no new affinity, no statistic and no
//! later `settled` answer changed. After every mark it also checks that the
//! tuner answers `None` for every phase type while the process is not quiet
//! (monitoring armed, or pinned to a kind only to sample it).

use std::sync::Arc;

use phase_amp::{AffinityMask, CoreId, MachineSpec};
use phase_analysis::PhaseType;
use phase_ir::{BlockId, Location, ProcId};
use phase_marking::{MarkId, PhaseMark};
use phase_runtime::{PhaseTuner, TunerConfig};
use phase_sched::{MarkContext, MarkFilter, PhaseHook, Pid, SectionObservation};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const PHASE_TYPES: u32 = 3;
const MIN_SECTION: u64 = 1_000;

/// The engine's view of one process.
struct Process {
    /// Settled filters by phase type, as the event engine keeps them.
    filters: [Option<MarkFilter>; PHASE_TYPES as usize],
    affinity: AffinityMask,
    /// Whether the last mark the tuner saw armed monitoring.
    monitoring: bool,
    /// Whether the last mark the tuner saw pinned the process to a kind
    /// only to sample a still-undecided phase type.
    pinned: bool,
    /// The phase type of the current section.
    section: Option<PhaseType>,
}

fn mark(phase_type: PhaseType) -> PhaseMark {
    PhaseMark {
        id: MarkId(0),
        from: Location::new(ProcId(0), BlockId(0)),
        to: Location::new(ProcId(0), BlockId(1)),
        phase_type,
        previous_type: None,
        size_bytes: 78,
    }
}

/// Every `settled` answer of every process, in pid then type order.
fn answers(tuner: &PhaseTuner, processes: usize) -> Vec<Option<MarkFilter>> {
    (0..processes as u32)
        .flat_map(|pid| (0..PHASE_TYPES).map(move |t| (Pid(pid), PhaseType(t))))
        .map(|(pid, t)| tuner.settled(pid, t))
        .collect()
}

/// How often each kind of event happened across all sequences, so that the
/// property cannot pass by never meeting an inline mark.
#[derive(Default)]
struct Seen {
    inline: u64,
    narrow: u64,
    released: u64,
    not_quiet: u64,
}

/// Drives one tuner through `marks` (pid, phase type, core choice, section
/// IPC, section length) for `processes` processes, checking the contract
/// at every step.
fn check_sequence(
    machine: MachineSpec,
    config: TunerConfig,
    processes: usize,
    marks: &[(u32, u32, u32, f64, u64)],
    seen: &mut Seen,
) {
    let all_cores = AffinityMask::all_cores(&machine);
    let mut tuner = PhaseTuner::new(Arc::new(machine.clone()), config);
    let mut model: Vec<Process> = (0..processes)
        .map(|_| Process {
            filters: [None; PHASE_TYPES as usize],
            affinity: all_cores,
            monitoring: false,
            pinned: false,
            section: None,
        })
        .collect();
    for (step, &(pid, phase, core, ipc, instructions)) in marks.iter().enumerate() {
        let index = pid as usize % processes;
        let pid = Pid(index as u32);
        let phase_type = PhaseType(phase);
        let process = &mut model[index];
        // The process runs on a core its affinity allows.
        let allowed: Vec<CoreId> = process.affinity.iter().collect();
        let core = allowed[core as usize % allowed.len()];
        let core_kind = machine.kind_of(core);
        let mark = mark(phase_type);
        let ctx = MarkContext {
            pid,
            mark: &mark,
            core,
            core_kind,
            completed_section: process.section.map(|phase_type| SectionObservation {
                phase_type,
                instructions,
                cycles: instructions as f64 / ipc,
                core_kind,
            }),
            now_ns: step as f64,
        };
        process.section = Some(phase_type);
        let inline = !process.monitoring
            && process.filters[phase as usize]
                .is_some_and(|filter| filter.passes(core, process.affinity));
        if inline {
            seen.inline += 1;
            let stats = tuner.stats();
            let settled = answers(&tuner, processes);
            let response = tuner.on_phase_mark(&ctx);
            assert!(!response.monitoring, "step {step}: inline mark monitored");
            assert!(
                response
                    .new_affinity
                    .is_none_or(|mask| mask == process.affinity),
                "step {step}: inline mark answered {response:?} on {core} holding {}",
                process.affinity
            );
            assert_eq!(tuner.stats(), stats, "step {step}: inline mark counted");
            assert_eq!(
                answers(&tuner, processes),
                settled,
                "step {step}: inline mark changed a settled answer"
            );
        } else {
            let response = tuner.on_phase_mark(&ctx);
            process.monitoring = response.monitoring;
            if let Some(mask) = response.new_affinity {
                process.affinity = mask;
            }
            process.pinned = tuner.assignment(pid, phase_type).is_none()
                && response.new_affinity.is_some_and(|mask| mask != all_cores);
            match tuner.settled(pid, phase_type) {
                Some(filter) => {
                    if filter.cores.is_some() {
                        seen.narrow += 1;
                    } else {
                        seen.released += 1;
                    }
                    process.filters[phase as usize] = Some(filter);
                }
                None => process.filters = [None; PHASE_TYPES as usize],
            }
        }
        for (index, process) in model.iter().enumerate() {
            if process.monitoring || process.pinned {
                seen.not_quiet += 1;
                for t in 0..PHASE_TYPES {
                    assert_eq!(
                        tuner.settled(Pid(index as u32), PhaseType(t)),
                        None,
                        "step {step}: pid {index} is not quiet but type {t} is settled"
                    );
                }
            }
        }
    }
}

#[test]
fn every_mark_a_settled_filter_covers_is_a_no_op() {
    let sequences = (
        (0u8..2, 1usize..3, 1u32..3, any::<bool>(), 2usize..4),
        0.0f64..0.5,
        proptest::collection::vec(
            (
                0u32..3,
                0u32..PHASE_TYPES,
                0u32..64,
                0.2f64..1.6,
                MIN_SECTION / 2..MIN_SECTION * 3 / 2,
            ),
            300,
        ),
    );
    let mut rng = TestRng::deterministic();
    let mut seen = Seen::default();
    for _ in 0..96 {
        let (setup, delta, marks) = sequences.new_value(&mut rng);
        let (machine, counter_slots, samples_per_kind, pin_preferred_fast, processes) = setup;
        let machine = if machine == 0 {
            MachineSpec::core2_quad_amp()
        } else {
            MachineSpec::three_core_amp()
        };
        let config = TunerConfig {
            ipc_threshold: delta,
            samples_per_kind,
            min_section_instructions: MIN_SECTION,
            counter_slots,
            pin_preferred_fast,
        };
        check_sequence(machine, config, processes, &marks, &mut seen);
    }
    assert!(seen.inline >= 1_000, "only {} inline marks", seen.inline);
    assert!(seen.narrow > 0, "no kind-mask filter");
    assert!(seen.released > 0, "no released-to-all-cores filter");
    assert!(seen.not_quiet > 0, "no process was ever busy tuning");
}
