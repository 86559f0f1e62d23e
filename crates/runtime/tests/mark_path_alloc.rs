//! A decided phase mark allocates nothing, and neither does asking whether
//! a phase type is settled.
//!
//! Once a phase type's core kind is known, every mark of that type "reduces
//! to simply making appropriate core switching decisions" (Section II). The
//! simulator executes millions of such marks per study, so the tuner's
//! decided path must be a table read: no kind list, core list or map entry
//! built per mark. The event engine asks `PhaseHook::settled` after every
//! mark the tuner sees, so that answer must be a table read too. A counting
//! global allocator checks both directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use phase_amp::{AffinityMask, CoreId, CoreKind, MachineSpec};
use phase_analysis::PhaseType;
use phase_ir::{BlockId, Location, ProcId};
use phase_marking::{MarkId, PhaseMark};
use phase_runtime::{PhaseTuner, TunerConfig};
use phase_sched::{MarkContext, MarkFilter, MarkResponse, PhaseHook, Pid, SectionObservation};

/// Counts the allocations made by the current thread, so the test harness's
/// own threads cannot disturb the count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the only
// addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const FAST_CORE: CoreId = CoreId(0);
const SLOW_CORE: CoreId = CoreId(2);
const FAST: CoreKind = CoreKind(0);
const SLOW: CoreKind = CoreKind(1);

fn section(kind: CoreKind, ipc: f64) -> SectionObservation {
    SectionObservation {
        phase_type: PhaseType(0),
        instructions: 10_000,
        cycles: 10_000.0 / ipc,
        core_kind: kind,
    }
}

fn mark_on(
    tuner: &mut PhaseTuner,
    mark: &PhaseMark,
    core: CoreId,
    kind: CoreKind,
    completed_section: Option<SectionObservation>,
) -> MarkResponse {
    tuner.on_phase_mark(&MarkContext {
        pid: Pid(0),
        mark,
        core,
        core_kind: kind,
        completed_section,
        now_ns: 0.0,
    })
}

#[test]
fn a_decided_mark_allocates_nothing() {
    let machine = Arc::new(MachineSpec::core2_quad_amp());
    let mut tuner = PhaseTuner::new(
        Arc::clone(&machine),
        TunerConfig {
            samples_per_kind: 1,
            min_section_instructions: 1,
            ..TunerConfig::default()
        },
    );
    let mark = PhaseMark {
        id: MarkId(0),
        from: Location::new(ProcId(0), BlockId(0)),
        to: Location::new(ProcId(0), BlockId(1)),
        phase_type: PhaseType(0),
        previous_type: None,
        size_bytes: 78,
    };

    // Sample a memory-bound phase on both kinds: monitor on a fast core,
    // get moved to a slow one, monitor there. The slow-core sample decides.
    mark_on(&mut tuner, &mark, FAST_CORE, FAST, None);
    mark_on(&mut tuner, &mark, FAST_CORE, FAST, Some(section(FAST, 0.3)));
    mark_on(&mut tuner, &mark, SLOW_CORE, SLOW, None);
    mark_on(&mut tuner, &mark, SLOW_CORE, SLOW, Some(section(SLOW, 0.8)));
    assert_eq!(tuner.assignment(Pid(0), PhaseType(0)), Some(SLOW));
    let decided = tuner.stats();

    let slow_cores = AffinityMask::kind(&machine, SLOW);
    let before = allocations();
    for i in 0..10_000 {
        let on_fast = i % 2 == 0;
        let (core, kind) = if on_fast {
            (FAST_CORE, FAST)
        } else {
            (SLOW_CORE, SLOW)
        };
        let response = mark_on(&mut tuner, &mark, core, kind, Some(section(kind, 0.5)));
        // On a fast core the mark moves the phase to the slow cores; on a
        // slow core it has nothing to do.
        let expected = if on_fast {
            MarkResponse::switch_to(slow_cores)
        } else {
            MarkResponse::none()
        };
        assert_eq!(black_box(response), expected, "mark {i}");
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "10 000 decided marks allocated {allocated} times"
    );

    let after = tuner.stats();
    assert_eq!(after.assignments_decided, decided.assignments_decided);
    assert_eq!(after.sections_monitored, decided.sections_monitored);
    assert_eq!(after.switch_requests, decided.switch_requests + 5_000);

    // The decided type is settled on the slow cores; the other type, never
    // marked, is not.
    let before = allocations();
    for i in 0..10_000u32 {
        let settled = tuner.settled(Pid(0), PhaseType(i % 2));
        let expected = (i % 2 == 0).then_some(MarkFilter {
            cores: Some(slow_cores),
            affinity: None,
        });
        assert_eq!(black_box(settled), expected, "settled query {i}");
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "10 000 settled queries allocated {allocated} times"
    );
}
