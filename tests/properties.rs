//! Property-based tests over the core data structures and analyses:
//! control-flow invariants on arbitrary generated procedures, clustering and
//! statistics invariants, affinity-mask algebra, and the simulator's event
//! queue against a binary-heap reference.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use proptest::prelude::*;

use phase_tuning::substrate::amp::{AffinityMask, CoreId};
use phase_tuning::substrate::analysis::{kmeans, BlockTyping, KMeansConfig, PhaseType};
use phase_tuning::substrate::cfg::{Cfg, DominatorTree, IntervalPartition, LoopForest};
use phase_tuning::substrate::ir::{
    BlockId, BranchBehavior, Instruction, Location, ProcId, Procedure, ProcedureBuilder, Terminator,
};
use phase_tuning::substrate::metrics::SummaryStats;
use phase_tuning::substrate::sched::{BucketQueue, EventKind};

/// Builds an arbitrary (possibly irreducible) procedure with `block_count`
/// blocks whose terminators are chosen from the given selector values.
fn arbitrary_procedure(block_count: usize, selectors: Vec<(u8, u8, u8)>) -> Procedure {
    let mut body = ProcedureBuilder::new();
    let blocks: Vec<BlockId> = (0..block_count).map(|_| body.add_block()).collect();
    for (&block, &(kind, a, b)) in blocks.iter().zip(selectors.iter()) {
        body.push(block, Instruction::int_alu());
        let target = |x: u8| blocks[x as usize % block_count];
        match kind % 3 {
            0 => body.terminate(block, Terminator::Jump(target(a))),
            1 => body.terminate(
                block,
                Terminator::Branch {
                    taken: target(a),
                    fallthrough: target(b),
                    behavior: BranchBehavior::counted(u32::from(a % 7) + 1),
                },
            ),
            _ => body.terminate(block, Terminator::Return),
        }
    }
    body.finish(ProcId(0), "arbitrary")
        .expect("builder output is valid")
}

fn procedure_strategy() -> impl Strategy<Value = Procedure> {
    (2usize..10).prop_flat_map(|n| {
        proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>()), n)
            .prop_map(move |selectors| arbitrary_procedure(n, selectors))
    })
}

/// Event kind from a generated selector: arrival, balance tick, sampling
/// tick, or quantum expiry.
fn event_kind(selector: u8, core: u32) -> EventKind {
    match selector % 4 {
        0 => EventKind::JobArrival { core: CoreId(core) },
        1 => EventKind::LoadBalance,
        2 => EventKind::SampleInterval,
        _ => EventKind::QuantumExpiry { core: CoreId(core) },
    }
}

/// How events sharing a timestamp are ordered: by kind rank (arrivals,
/// balance, sampling, quanta), then by core.
fn tie_break(kind: EventKind) -> (u8, u32) {
    match kind {
        EventKind::JobArrival { core } => (0, core.0),
        EventKind::LoadBalance => (1, 0),
        EventKind::SampleInterval => (2, 0),
        EventKind::QuantumExpiry { core } => (3, core.0),
    }
}

/// One event in the reference heap; `seq` is its insertion number.
#[derive(Debug, Clone, Copy)]
struct HeapEvent {
    time_ns: f64,
    kind: EventKind,
    seq: u64,
}

impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_ns
            .total_cmp(&other.time_ns)
            .then_with(|| tie_break(self.kind).cmp(&tie_break(other.kind)))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEvent {}

/// The ordering reference the engine's `BucketQueue` is held to: a plain
/// binary min-heap popping in (timestamp, kind rank, core, insertion) order.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<HeapEvent>>,
    next_seq: u64,
}

impl HeapQueue {
    fn push(&mut self, time_ns: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEvent { time_ns, kind, seq }));
    }

    fn pop(&mut self) -> Option<(f64, EventKind)> {
        self.heap
            .pop()
            .map(|Reverse(event)| (event.time_ns, event.kind))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Pops the bucket queue's next event as a `(time, kind)` pair.
fn pop_bucket(queue: &mut BucketQueue) -> Option<(f64, EventKind)> {
    queue.pop().map(|event| (event.time_ns(), event.kind()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reachable block belongs to exactly one Allen interval, and
    /// unreachable blocks belong to none.
    #[test]
    fn intervals_partition_reachable_blocks(proc in procedure_strategy()) {
        let cfg = Cfg::build(&proc);
        let partition = IntervalPartition::build(&cfg);
        let reachable: std::collections::HashSet<BlockId> =
            cfg.preorder().into_iter().collect();
        for block in cfg.block_ids() {
            let memberships = partition
                .intervals()
                .iter()
                .filter(|i| i.contains(block))
                .count();
            if reachable.contains(&block) {
                prop_assert_eq!(memberships, 1, "block {} in {} intervals", block, memberships);
            } else {
                prop_assert_eq!(memberships, 0);
            }
        }
    }

    /// The entry dominates every reachable block; immediate dominators are
    /// themselves reachable; and natural-loop back edges always target the
    /// loop header.
    #[test]
    fn dominator_and_loop_invariants(proc in procedure_strategy()) {
        let cfg = Cfg::build(&proc);
        let dom = DominatorTree::build(&cfg);
        for block in cfg.preorder() {
            prop_assert!(dom.dominates(cfg.entry(), block));
            if block != cfg.entry() {
                let idom = dom.immediate_dominator(block);
                prop_assert!(idom.is_some());
                prop_assert!(dom.is_reachable(idom.unwrap()));
            }
        }
        let loops = LoopForest::build(&cfg, &dom);
        for natural in loops.loops() {
            prop_assert!(natural.contains(natural.header()));
            for edge in natural.back_edges() {
                prop_assert_eq!(edge.to, natural.header());
                prop_assert!(natural.contains(edge.from));
                prop_assert!(dom.dominates(edge.to, edge.from));
            }
            for &block in natural.blocks() {
                let innermost = loops.innermost(block).expect("block is in some loop");
                prop_assert!(innermost.block_count() <= natural.block_count());
            }
        }
    }

    /// Reverse postorder contains each reachable block exactly once and
    /// starts at the entry.
    #[test]
    fn reverse_postorder_is_a_permutation_of_reachable_blocks(proc in procedure_strategy()) {
        let cfg = Cfg::build(&proc);
        let rpo = cfg.reverse_postorder();
        let reachable = cfg.preorder();
        prop_assert_eq!(rpo.len(), reachable.len());
        let set: std::collections::HashSet<_> = rpo.iter().collect();
        prop_assert_eq!(set.len(), rpo.len());
        prop_assert_eq!(rpo[0], cfg.entry());
    }

    /// k-means assigns every point to an existing centroid and is
    /// deterministic for a fixed seed.
    #[test]
    fn kmeans_assignments_are_valid_and_deterministic(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let data: Vec<[f64; 2]> = points.iter().map(|(x, y)| [*x, *y]).collect();
        let config = KMeansConfig { k, max_iterations: 50, seed };
        let a = kmeans(&data, config);
        let b = kmeans(&data, config);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.assignments.len(), data.len());
        for &assignment in &a.assignments {
            prop_assert!(assignment < k);
        }
    }

    /// Summary statistics are ordered (min ≤ q1 ≤ median ≤ q3 ≤ max) and the
    /// mean lies within the range.
    #[test]
    fn summary_stats_are_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let stats = SummaryStats::of(&values);
        prop_assert!(stats.min <= stats.q1 + 1e-9);
        prop_assert!(stats.q1 <= stats.median + 1e-9);
        prop_assert!(stats.median <= stats.q3 + 1e-9);
        prop_assert!(stats.q3 <= stats.max + 1e-9);
        prop_assert!(stats.mean >= stats.min - 1e-9 && stats.mean <= stats.max + 1e-9);
        prop_assert_eq!(stats.count, values.len());
    }

    /// Injecting clustering error flips approximately the requested fraction
    /// of blocks (exactly `round(n * fraction)` of them).
    #[test]
    fn error_injection_flips_expected_fraction(
        block_count in 1usize..60,
        fraction in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut typing = BlockTyping::new(2);
        for i in 0..block_count {
            typing.assign(
                Location::new(ProcId(0), BlockId(i as u32)),
                PhaseType((i % 2) as u32),
            );
        }
        let with_error = typing.with_injected_error(fraction, seed);
        let agreement = typing.agreement_with(&with_error);
        let expected_flips = (block_count as f64 * fraction).round();
        let expected_agreement = 1.0 - expected_flips / block_count as f64;
        prop_assert!((agreement - expected_agreement).abs() < 1e-9);
    }

    /// Affinity-mask algebra behaves like set algebra.
    #[test]
    fn affinity_mask_set_algebra(
        a in proptest::collection::btree_set(0u32..16, 0..8),
        b in proptest::collection::btree_set(0u32..16, 0..8),
    ) {
        let mask_a = AffinityMask::from_cores(a.iter().map(|c| CoreId(*c)));
        let mask_b = AffinityMask::from_cores(b.iter().map(|c| CoreId(*c)));
        let union: std::collections::BTreeSet<u32> = a.union(&b).copied().collect();
        let intersection: std::collections::BTreeSet<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(mask_a.union(&mask_b).core_count(), union.len());
        prop_assert_eq!(mask_a.intersect(&mask_b).core_count(), intersection.len());
        for core in 0..16u32 {
            prop_assert_eq!(mask_a.allows(CoreId(core)), a.contains(&core));
        }
    }

    /// The simulator's event queue never pops events out of timestamp order,
    /// and ties resolve by kind rank (arrivals, balance, sampling, quanta)
    /// and core.
    #[test]
    fn event_queue_pops_in_timestamp_order(
        events in proptest::collection::vec((0u64..50, 0u8..4, 0u32..4), 1..80),
    ) {
        let mut queue = BucketQueue::new(20_000.0);
        for &(slot, kind, core) in &events {
            queue.push(slot as f64 * 20_000.0, event_kind(kind, core));
        }
        prop_assert_eq!(queue.len(), events.len());

        let mut previous: Option<(f64, (u8, u32))> = None;
        let mut popped = 0usize;
        while let Some((time_ns, kind)) = pop_bucket(&mut queue) {
            popped += 1;
            let key = (time_ns, tie_break(kind));
            if let Some(prev) = previous {
                prop_assert!(
                    prev <= key,
                    "events popped out of order: {:?} then {:?}",
                    prev,
                    key
                );
            }
            previous = Some(key);
        }
        prop_assert_eq!(popped, events.len());
        prop_assert!(queue.is_empty());
    }

    /// The bucketed calendar queue pops in exactly the binary-heap reference
    /// order under arbitrary interleavings of pushes and pops, with event
    /// times spread across every horizon the queue distinguishes: the live
    /// bucket, the in-window calendar, and the far-future overflow heap.
    #[test]
    fn bucket_queue_matches_heap_order_under_interleaving(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..4, any::<u8>(), 0u8..4, 0u32..4),
            1..100,
        ),
    ) {
        const WIDTH_NS: f64 = 20_000.0;
        let mut heap = HeapQueue::default();
        let mut bucket = BucketQueue::new(WIDTH_NS);
        for &(op, horizon, step, kind, core) in &ops {
            if op == 0 {
                // A quarter of the ops pop mid-stream; popping advances the
                // calendar's base, so later pushes may land behind it.
                let reference = heap.pop();
                prop_assert_eq!(pop_bucket(&mut bucket), reference);
            } else {
                let base = match horizon {
                    0 => 0.0,                // the live bucket
                    1 => WIDTH_NS * 100.0,   // inside the calendar window
                    2 => WIDTH_NS * 300.0,   // just past it: overflow heap
                    _ => WIDTH_NS * 9_999.0, // deep future
                };
                // Fractional offsets: times need not be round-aligned.
                let time_ns = base + f64::from(step) * WIDTH_NS / 8.0;
                heap.push(time_ns, event_kind(kind, core));
                bucket.push(time_ns, event_kind(kind, core));
            }
        }
        prop_assert_eq!(bucket.len(), heap.len());
        loop {
            let reference = heap.pop();
            prop_assert_eq!(pop_bucket(&mut bucket), reference);
            if reference.is_none() {
                break;
            }
        }
        prop_assert!(bucket.is_empty());
    }
}

/// A fixed mixed schedule: same-timestamp ties of every kind, plus two
/// events far beyond the calendar window that start in the overflow heap.
#[test]
fn bucket_queue_matches_heap_order_on_a_mixed_schedule() {
    let width = 20_000.0;
    let mut bucket = BucketQueue::new(width);
    let mut heap = HeapQueue::default();
    let pushes = [
        (40_000.0, EventKind::QuantumExpiry { core: CoreId(1) }),
        (40_000.0, EventKind::JobArrival { core: CoreId(0) }),
        (40_000.0, EventKind::LoadBalance),
        (20_000.0, EventKind::QuantumExpiry { core: CoreId(0) }),
        // Far beyond the 256-round window: overflow heap.
        (width * 10_000.0, EventKind::JobArrival { core: CoreId(2) }),
        (40_000.0, EventKind::SampleInterval),
        (
            width * 9_000.0,
            EventKind::QuantumExpiry { core: CoreId(3) },
        ),
    ];
    for (t, k) in pushes {
        bucket.push(t, k);
        heap.push(t, k);
    }
    assert_eq!(bucket.len(), heap.len());
    let got: Vec<_> = std::iter::from_fn(|| pop_bucket(&mut bucket)).collect();
    let want: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
    assert_eq!(got, want);
    assert!(bucket.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event-driven engine never completes a process before its arrival,
    /// never starts a released job early, and completes every job when run
    /// without a horizon — for arbitrary slot shapes, release times, and
    /// seeds.
    #[test]
    fn event_engine_respects_arrival_causality(
        slot_releases in proptest::collection::vec(0u32..150, 1..5),
        loop_trips in 5u32..40,
        seed in any::<u64>(),
    ) {
        use phase_tuning::substrate::sched::{JobSpec, NullHook, SimConfig, Simulation};
        use phase_tuning::substrate::ir::{Instruction, ProgramBuilder, Terminator};

        let mut builder = ProgramBuilder::new("prop-bench");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let work = body.add_block();
        let exit = body.add_block();
        body.push_all(work, std::iter::repeat_n(Instruction::int_alu(), 16));
        body.loop_branch(work, work, exit, loop_trips);
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).expect("valid procedure");
        let program = std::sync::Arc::new(builder.build().expect("valid program"));
        let instrumented = std::sync::Arc::new(phase_tuning::uninstrumented(&program));

        let slots: Vec<Vec<JobSpec>> = slot_releases
            .iter()
            .enumerate()
            .map(|(index, &release)| {
                vec![
                    JobSpec::new(format!("first-{index}"), std::sync::Arc::clone(&instrumented))
                        .released_at(release as f64 * 10_000.0),
                    JobSpec::new(format!("second-{index}"), std::sync::Arc::clone(&instrumented)),
                ]
            })
            .collect();
        let config = SimConfig {
            seed,
            horizon_ns: None,
            ..SimConfig::default()
        };
        let machine = phase_tuning::substrate::amp::MachineSpec::core2_quad_amp();
        let result = Simulation::new("prop", machine, slots, NullHook, config).run();

        prop_assert_eq!(result.records.len(), slot_releases.len() * 2);
        prop_assert_eq!(result.completed_count(), slot_releases.len() * 2);
        for record in &result.records {
            let completion = record.completion_ns.expect("no horizon: all complete");
            prop_assert!(
                completion > record.arrival_ns,
                "{} completed at {} before arriving at {}",
                record.name,
                completion,
                record.arrival_ns
            );
        }
        // Released first jobs arrive exactly at their release times.
        for (index, &release) in slot_releases.iter().enumerate() {
            let record = result
                .records
                .iter()
                .find(|r| r.name == format!("first-{index}"))
                .expect("record exists");
            prop_assert_eq!(record.arrival_ns, release as f64 * 10_000.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The online leader–follower classifier is a pure stream function: for
    /// one interval stream it assigns identical phase ids (and ends with
    /// identical centroids) no matter how the stream is cut into batches.
    #[test]
    fn online_classifier_is_batch_invariant(
        stream in proptest::collection::vec((0.0f64..2.0, 0.0f64..1.0), 1..60),
        cut_points in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        use phase_tuning::substrate::online::{OnlineClassifier, PhaseId};

        let features: Vec<[f64; 2]> = stream.iter().map(|(a, b)| [*a, *b]).collect();

        let mut singly = OnlineClassifier::new(4, 0.2, 0.3);
        let one_by_one: Vec<PhaseId> = features.iter().map(|f| singly.observe(*f)).collect();

        let mut cuts: Vec<usize> = cut_points
            .iter()
            .map(|c| (*c as usize) % features.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(features.len());
        let mut batched_classifier = OnlineClassifier::new(4, 0.2, 0.3);
        let mut batched = Vec::new();
        let mut start = 0;
        for cut in cuts {
            if cut > start {
                batched.extend(batched_classifier.observe_batch(&features[start..cut]));
                start = cut;
            }
        }

        prop_assert_eq!(one_by_one, batched);
        prop_assert_eq!(singly.phase_count(), batched_classifier.phase_count());
        for index in 0..singly.phase_count() {
            let phase = PhaseId(index as u32);
            prop_assert_eq!(
                singly.centroid(phase),
                batched_classifier.centroid(phase),
                "centroid of {} diverged",
                phase
            );
            prop_assert_eq!(
                singly.observations(phase),
                batched_classifier.observations(phase)
            );
        }
    }
}
