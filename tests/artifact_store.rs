//! Integration tests of the content-addressed artifact store: hit/miss
//! accounting across the staged pipeline, cross-thread determinism with
//! caching enabled, the phase-pack spill round-trip, and the byte-budget /
//! CLOCK-eviction layer behind the tuning service.

use std::collections::HashSet;
use std::sync::Arc;

use phase_tuning::pack;
use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::marking::MarkingConfig;
use phase_tuning::substrate::runtime::TunerConfig;
use phase_tuning::substrate::sched::{SimConfig, SimResult};
use phase_tuning::substrate::workload::{CatalogSpec, Workload};
use phase_tuning::{
    prepare_workload_cached, run_comparison_prepared, ArtifactStore, Driver, ExperimentConfig,
    ExperimentPlan, PipelineConfig, PlannedWorkload, Policy, PROGRAM_TABLE,
};

fn smoke_config(marking: MarkingConfig) -> ExperimentConfig {
    ExperimentConfig {
        pipeline: PipelineConfig::with_marking(marking),
        ..ExperimentConfig::smoke_test()
    }
}

#[test]
fn sweeping_one_axis_reuses_every_upstream_artifact() {
    let store = ArtifactStore::new();

    // First sweep point computes everything.
    let first = prepare_workload_cached(&smoke_config(MarkingConfig::loop_level(45)), &store);
    let after_first = store.snapshot();
    assert_eq!(after_first.stage("catalogs").unwrap().misses, 1);
    assert_eq!(after_first.stage("baselines").unwrap().misses, 15);
    assert_eq!(after_first.stage("isolated_runtimes").unwrap().misses, 1);
    let instrumented_misses = after_first.stage("instrumented").unwrap().misses;
    assert_eq!(instrumented_misses, 15);

    // A point that differs only in the marking reuses the catalogue, the
    // baseline twins, the isolated runtimes, and the per-block IPC profiles —
    // only typing/summarization/instrumentation rerun.
    let second = prepare_workload_cached(&smoke_config(MarkingConfig::interval(45)), &store);
    let after_second = store.snapshot();
    assert_eq!(after_second.stage("catalogs").unwrap().misses, 1);
    assert_eq!(after_second.stage("baselines").unwrap().misses, 15);
    assert_eq!(after_second.stage("isolated_runtimes").unwrap().misses, 1);
    assert!(after_second.stage("catalogs").unwrap().hits >= 1);
    assert!(after_second.stage("baselines").unwrap().hits >= 15);
    assert_eq!(
        after_second.stage("instrumented").unwrap().misses,
        instrumented_misses + 15,
        "a new marking config re-instruments"
    );
    // Loop[45] and Int[45] share the typing min-block-size, so the second
    // sweep point adds no profiling misses at all.
    assert_eq!(
        after_second.stage("ipc_profiles").unwrap().misses,
        after_first.stage("ipc_profiles").unwrap().misses
    );

    // An identical third request is answered entirely from the store.
    let third = prepare_workload_cached(&smoke_config(MarkingConfig::interval(45)), &store);
    let after_third = store.snapshot();
    assert_eq!(
        after_third.stage("instrumented").unwrap().misses,
        after_second.stage("instrumented").unwrap().misses
    );
    assert_eq!(third.isolated_ns, second.isolated_ns);
    assert_eq!(first.isolated_ns, second.isolated_ns);
}

#[test]
fn cached_and_uncached_comparisons_agree_bit_for_bit() {
    let config = smoke_config(MarkingConfig::loop_level(30));
    let store = ArtifactStore::new();
    let cached_prepared = prepare_workload_cached(&config, &store);
    let uncached_prepared = phase_tuning::prepare_workload(&config);
    assert_eq!(cached_prepared.isolated_ns, uncached_prepared.isolated_ns);

    let cached = run_comparison_prepared(&config, &cached_prepared);
    let uncached = run_comparison_prepared(&config, &uncached_prepared);
    assert_eq!(cached.baseline, uncached.baseline);
    assert_eq!(cached.tuned, uncached.tuned);
    assert_eq!(cached.fairness, uncached.fairness);
}

fn cached_plan_outcome(threads: usize, store: &ArtifactStore) -> phase_tuning::PlanOutcome {
    let plan = cached_plan(
        store,
        &[Policy::Stock, Policy::Tuned(TunerConfig::default())],
    );
    Driver::new(threads).run_cached(plan, store)
}

/// One small workload over the store's artifacts, crossed with `policies`.
fn cached_plan(store: &ArtifactStore, policies: &[Policy]) -> ExperimentPlan {
    let catalog = store.catalog(&CatalogSpec::standard(0.05, 11));
    let machine = MachineSpec::core2_quad_amp();
    let pipeline = PipelineConfig::paper_best();
    let instrumented: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.instrumented(b.program(), &machine, &pipeline))
        .collect();
    let baseline = store.baseline_catalog(&catalog);
    let workload = Workload::random(&catalog, 4, 1, 11);
    let planned = PlannedWorkload {
        name: "w".into(),
        baseline_slots: phase_tuning::build_slots(&workload, &catalog, &baseline).into(),
        tuned_slots: phase_tuning::build_slots(&workload, &catalog, &instrumented).into(),
    };
    let sim = SimConfig {
        horizon_ns: Some(2_000_000.0),
        ..SimConfig::default()
    };
    ExperimentPlan::cross(&[planned], &[machine], policies, sim, 0xFEED)
}

/// Four cells: every static policy on one workload.
fn four_policy_plan(store: &ArtifactStore) -> ExperimentPlan {
    cached_plan(
        store,
        &[
            Policy::Stock,
            Policy::AllCores,
            Policy::Tuned(TunerConfig::default()),
            Policy::Partition,
        ],
    )
}

#[test]
fn a_warm_plan_is_answered_from_the_store_at_any_worker_count() {
    let store = ArtifactStore::new();
    let cold = Driver::new(2).run_cached(four_policy_plan(&store), &store);
    for threads in [1, 8] {
        let plan = four_policy_plan(&store);
        let before = store.snapshot();
        let warm = Driver::new(threads).run_cached(plan, &store);
        let delta = store.snapshot().delta_since(&before);
        let cells = delta.stage("cells").unwrap();
        assert_eq!(
            (cells.hits, cells.misses),
            (4, 0),
            "one counted hit per cell at {threads} workers"
        );
        let inserts: u64 = delta.stages.iter().map(|(_, stage)| stage.inserts).sum();
        assert_eq!(inserts, 0, "a warm plan admits nothing");
        assert_eq!(warm.aggregate, cold.aggregate);
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!((a.index, &a.group, &a.label), (b.index, &b.group, &b.label));
            assert_eq!(a.result, b.result, "cell {}", a.label);
            assert_eq!(a.tuner_stats, b.tuner_stats, "cell {}", a.label);
            assert_eq!(a.online_stats, b.online_stats, "cell {}", a.label);
        }
    }
}

#[test]
fn a_plan_with_one_new_cell_computes_only_that_cell() {
    let store = ArtifactStore::new();
    Driver::new(2).run_cached(four_policy_plan(&store), &store);
    let mut plan = four_policy_plan(&store);
    let mut reseeded = plan.cells()[0].clone();
    reseeded.sim.seed ^= 1;
    reseeded.label = "w/reseeded/stock".into();
    plan.push(reseeded);
    let reference = Driver::new(1).run(plan.clone());
    let before = store.snapshot();
    let outcome = Driver::new(2).run_cached(plan, &store);
    let cells = store
        .snapshot()
        .delta_since(&before)
        .stage("cells")
        .unwrap();
    assert_eq!((cells.hits, cells.misses, cells.inserts), (4, 1, 1));
    for (a, b) in reference.cells.iter().zip(&outcome.cells) {
        assert_eq!(a.result, b.result, "cell {}", a.label);
    }
}

#[test]
fn each_missing_cell_is_simulated_once_at_eight_workers() {
    // Eight copies of one cell, then two distinct cells: three keys. Each
    // cell simulates a few milliseconds, so eight workers would overlap on
    // the copies if any of them could claim one.
    let plan = |store: &ArtifactStore| {
        let cells = four_policy_plan(store).cells().to_vec();
        let mut plan = ExperimentPlan::new();
        for _ in 0..8 {
            plan.push(cells[0].clone());
        }
        plan.push(cells[1].clone());
        plan.push(cells[2].clone());
        plan
    };
    let reference_store = ArtifactStore::new();
    let reference = Driver::new(1).run_cached(plan(&reference_store), &reference_store);
    for run in 0..5 {
        let store = ArtifactStore::new();
        let outcome = Driver::new(8).run_cached(plan(&store), &store);
        let cells = store.snapshot().stage("cells").unwrap();
        assert_eq!(
            (cells.misses, cells.inserts, cells.hits),
            (3, 3, 7),
            "run {run}: one simulation per distinct cell"
        );
        assert_eq!(outcome.aggregate, reference.aggregate);
        for (a, b) in reference.cells.iter().zip(&outcome.cells) {
            assert_eq!((a.index, &a.label), (b.index, &b.label));
            assert_eq!(a.result, b.result, "run {run}, cell {}", a.index);
            assert_eq!(a.tuner_stats, b.tuner_stats, "run {run}, cell {}", a.index);
        }
    }
}

#[test]
fn warm_hits_share_the_stored_result_and_relabel_for_another_label() {
    let store = ArtifactStore::new();
    let spec = four_policy_plan(&store).cells()[0].clone();
    Driver::new(1).run_cached(four_policy_plan(&store), &store);
    let warm = Driver::new(1).run_cached(four_policy_plan(&store), &store);
    let key = store.cell_key(&spec.machine, &spec.policy, &spec.sim, &spec.slots);
    let stored = store.cell(key, || unreachable!("the cell is resident"));
    assert!(
        Arc::ptr_eq(&warm.cells[0].result, &stored.result),
        "a hit under the stored label shares the stored result"
    );

    // The same content under another group and label: one hit, and the
    // result reports the new label while the stored one keeps its own.
    let mut renamed = spec.clone();
    renamed.group = "elsewhere".into();
    renamed.label = "elsewhere/stock".into();
    let mut plan = ExperimentPlan::new();
    plan.push(renamed);
    let before = store.snapshot();
    let outcome = Driver::new(1).run_cached(plan, &store);
    let cells = store
        .snapshot()
        .delta_since(&before)
        .stage("cells")
        .unwrap();
    assert_eq!((cells.hits, cells.misses), (1, 0));
    let cell = &outcome.cells[0];
    assert_eq!(cell.label, "elsewhere/stock");
    assert_eq!(cell.result.label, "elsewhere/stock");
    assert_eq!(stored.result.label, spec.label);
    let relabelled = SimResult {
        label: spec.label.clone(),
        ..SimResult::clone(&cell.result)
    };
    assert_eq!(relabelled, *stored.result);
}

#[test]
fn instrumented_catalog_shares_the_per_program_artifacts() {
    let store = ArtifactStore::new();
    let catalog = store.catalog(&CatalogSpec::standard(0.05, 7));
    let machine = MachineSpec::core2_quad_amp();
    let config = PipelineConfig::paper_best();
    let per_program: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.instrumented(b.program(), &machine, &config))
        .collect();
    let before = store.snapshot();
    let whole = store.instrumented_catalog(&catalog, &machine, &config);
    let stage = store.snapshot().delta_since(&before);
    let stage = stage.stage("instrumented").unwrap();
    assert_eq!(
        (stage.hits, stage.misses),
        (catalog.len() as u64, 0),
        "one counted lookup per program, every one a hit"
    );
    assert_eq!(whole.len(), per_program.len());
    for (a, b) in whole.iter().zip(&per_program) {
        assert!(
            Arc::ptr_eq(a, b),
            "the catalogue lookup keys like the per-program one"
        );
    }

    // The machine is part of the key prefix.
    let before = store.snapshot();
    store.instrumented_catalog(&catalog, &MachineSpec::three_core_amp(), &config);
    let stage = store.snapshot().delta_since(&before);
    let stage = stage.stage("instrumented").unwrap();
    assert_eq!((stage.hits, stage.misses), (0, catalog.len() as u64));
}

#[test]
fn caching_keeps_thread_counts_bit_identical() {
    // Fresh stores per worker count: every divergence would have to come
    // from the cache layer itself.
    let sequential = cached_plan_outcome(1, &ArtifactStore::new());
    let parallel = cached_plan_outcome(8, &ArtifactStore::new());
    assert_eq!(sequential.aggregate, parallel.aggregate);
    for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.label, b.label);
    }

    // And a warm store must reproduce the cold outcome exactly, whatever the
    // worker count.
    let store = ArtifactStore::new();
    let cold = cached_plan_outcome(8, &store);
    let warm = cached_plan_outcome(1, &store);
    for (a, b) in cold.cells.iter().zip(warm.cells.iter()) {
        assert_eq!(a.result, b.result);
    }
    let cells = store.snapshot().stage("cells").unwrap();
    assert!(cells.hits >= 2, "warm plan hits the cell cache ({cells:?})");
}

#[test]
fn spill_round_trips_through_phase_pack() {
    let store = ArtifactStore::new();
    let config = smoke_config(MarkingConfig::loop_level(45));
    prepare_workload_cached(&config, &store);

    let dir = std::env::temp_dir().join(format!("phase-artifacts-{}", std::process::id()));
    let files = store.spill_to_dir(&dir).expect("spill succeeds");
    assert_eq!(
        files.len(),
        phase_tuning::SPILL_STAGES.len() + 3,
        "index + manifest + program table + one pack file per spill stage"
    );
    assert!(files.iter().all(|file| file.exists()));

    // A fresh store pre-warmed from the spill answers typing lookups without
    // recomputing them.
    let fresh = ArtifactStore::new();
    let report = fresh.load_spill_report(&dir).expect("load succeeds");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.loaded > 0, "loaded {} artifacts", report.loaded);
    let catalog = fresh.catalog(&CatalogSpec::standard(
        config.catalog_scale,
        config.workload_seed,
    ));
    let before = fresh.snapshot().stage("typings").unwrap();
    assert_eq!(before.misses, 0);
    for bench in catalog.benchmarks() {
        let reloaded = fresh.typing(bench.program(), &config.machine, &config.pipeline);
        let recomputed = store.typing(bench.program(), &config.machine, &config.pipeline);
        assert_eq!(
            reloaded.typed_block_count(),
            recomputed.typed_block_count(),
            "{}",
            bench.name()
        );
        assert_eq!(
            reloaded.agreement_with(&recomputed),
            1.0,
            "{}",
            bench.name()
        );
    }
    let after = fresh.snapshot().stage("typings").unwrap();
    assert_eq!(
        after.misses, 0,
        "every typing lookup was answered from disk"
    );
    assert_eq!(after.hits, 15);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stage_artifacts_share_the_catalogue_program() {
    let store = ArtifactStore::new();
    let config = smoke_config(MarkingConfig::loop_level(45));
    let catalog = store.catalog(&CatalogSpec::standard(
        config.catalog_scale,
        config.workload_seed,
    ));
    for bench in catalog.benchmarks() {
        let program = bench.program();
        let instrumented = store.instrumented(program, &config.machine, &config.pipeline);
        let baseline = store.baseline(program);
        assert!(
            Arc::ptr_eq(instrumented.program(), program),
            "{}",
            bench.name()
        );
        assert!(Arc::ptr_eq(baseline.program(), program), "{}", bench.name());
    }
}

#[test]
fn spill_load_shares_one_program_across_every_artifact_of_it() {
    let store = ArtifactStore::new();
    let configs = [
        smoke_config(MarkingConfig::loop_level(45)),
        smoke_config(MarkingConfig::basic_block(15, 0)),
    ];
    for config in &configs {
        prepare_workload_cached(config, &store);
    }
    let dir = std::env::temp_dir().join(format!("phase-interning-{}", std::process::id()));
    store.spill_to_dir(&dir).expect("spill succeeds");

    let fresh = ArtifactStore::new();
    let report = fresh.load_spill_report(&dir).expect("load succeeds");
    std::fs::remove_dir_all(&dir).ok();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let catalog = fresh.catalog(&CatalogSpec::standard(
        configs[0].catalog_scale,
        configs[0].workload_seed,
    ));
    for bench in catalog.benchmarks() {
        let program = bench.program();
        assert!(Arc::ptr_eq(fresh.baseline(program).program(), program));
        for config in &configs {
            let instrumented = fresh.instrumented(program, &config.machine, &config.pipeline);
            assert!(
                Arc::ptr_eq(instrumented.program(), program),
                "{} under {}",
                bench.name(),
                config.pipeline.marking
            );
        }
    }
    // Every artifact above came from the spill, none was recomputed.
    assert_eq!(fresh.snapshot().total_misses(), 0);
}

#[test]
fn a_spill_writes_each_program_once() {
    let store = ArtifactStore::new();
    let configs = [
        smoke_config(MarkingConfig::loop_level(45)),
        smoke_config(MarkingConfig::basic_block(15, 0)),
    ];
    for config in &configs {
        prepare_workload_cached(config, &store);
    }
    let dir = std::env::temp_dir().join(format!("phase-program-table-{}", std::process::id()));
    let again = dir.join("again");
    store.spill_to_dir(&dir).expect("spill succeeds");
    let read = |dir: &std::path::Path, stage: &str| {
        let bytes = std::fs::read(dir.join(format!("{stage}.ppk"))).expect("pack file");
        let file = pack::read_pack_file(&bytes, stage).expect("intact pack file");
        assert!(file.skipped.is_empty(), "{stage}: {:?}", file.skipped);
        file.records
    };

    // One table record per distinct program: the catalogue's.
    let catalog = store.catalog(&CatalogSpec::standard(
        configs[0].catalog_scale,
        configs[0].workload_seed,
    ));
    let distinct: HashSet<Vec<u8>> = catalog
        .benchmarks()
        .iter()
        .map(|bench| pack::encode_program(bench.program()))
        .collect();
    let table = read(&dir, PROGRAM_TABLE);
    assert_eq!(table.len(), distinct.len());
    let held: HashSet<Vec<u8>> = table.iter().map(|(_, program)| program.clone()).collect();
    assert_eq!(held, distinct);

    // Instrumented and baseline records hold a reference into the table,
    // never a program's bytes.
    for stage in ["instrumented", "baselines"] {
        let records = read(&dir, stage);
        assert!(!records.is_empty(), "{stage} spilled");
        for (key, payload) in &records {
            for program in &distinct {
                assert!(
                    !payload
                        .windows(program.len())
                        .any(|window| window == program),
                    "{stage} {key} embeds a program"
                );
            }
            let field = pack::PackReader::new(payload)
                .bytes()
                .expect("a program field");
            let reference = pack::ProgramRef::decode(field).expect("a table reference");
            assert_eq!(reference.fingerprint, table[reference.index].0);
        }
    }

    // The reloaded store spills the same bytes (`index.json` holds the
    // store's counters, which a reload starts afresh).
    let fresh = ArtifactStore::new();
    let report = fresh.load_spill_report(&dir).expect("load succeeds");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let files = fresh.spill_to_dir(&again).expect("respill succeeds");
    assert_eq!(files.len(), phase_tuning::SPILL_STAGES.len() + 3);
    for file in files {
        let name = file.file_name().expect("file name");
        if name != "index.json" {
            assert_eq!(
                std::fs::read(&file).expect("respilled"),
                std::fs::read(dir.join(name)).expect("spilled"),
                "{name:?} changed across a reload"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_store_reproduces_the_unbounded_outcome_within_budget() {
    let config = smoke_config(MarkingConfig::loop_level(45));
    let unbounded = ArtifactStore::new();
    let reference = run_comparison_prepared(&config, &prepare_workload_cached(&config, &unbounded));

    // A budget far below the unbounded footprint forces the CLOCK sweep to
    // run mid-preparation — and must change nothing about the answer. The
    // budget is sized against the *analysis* stages (the whole-catalogue
    // artifact is larger than it, so it is admission-rejected and simply
    // recomputed per preparation — also an answer-preserving path).
    let budget = unbounded
        .snapshot()
        .stages
        .iter()
        .filter(|(name, _)| *name != "catalogs")
        .map(|(_, s)| s.resident_bytes)
        .sum::<u64>()
        / 2;
    assert!(budget > 0, "the smoke config populates the store");
    let bounded = ArtifactStore::with_budget(budget);
    assert_eq!(bounded.budget_bytes(), Some(budget));
    for _ in 0..2 {
        let outcome = run_comparison_prepared(&config, &prepare_workload_cached(&config, &bounded));
        assert_eq!(outcome.baseline, reference.baseline);
        assert_eq!(outcome.tuned, reference.tuned);
        assert_eq!(outcome.fairness, reference.fairness);
        assert!(
            bounded.resident_bytes() <= budget,
            "resident {} exceeded budget {budget}",
            bounded.resident_bytes()
        );
    }
    let snapshot = bounded.snapshot();
    assert!(
        snapshot.total_evictions() > 0,
        "a quarter-size budget must evict: {snapshot:?}"
    );
    // The consistent snapshot keeps every stage's counters balanced.
    for (name, stage) in &snapshot.stages {
        assert_eq!(
            stage.inserts - stage.evictions,
            stage.entries as u64,
            "stage {name} out of balance"
        );
        assert_eq!(stage.lookups(), stage.hits + stage.misses);
    }
}

#[test]
fn snapshot_is_consistent_under_concurrent_mutation() {
    // Hammer one bounded store from worker threads while a reader thread
    // takes snapshots: every snapshot must satisfy the balance invariants,
    // which a torn read of independent atomics would violate.
    let store = ArtifactStore::with_budget(512 * 1024);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let store = &store;
            let stop = &stop;
            scope.spawn(move || {
                let machine = MachineSpec::core2_quad_amp();
                let pipeline = PipelineConfig::paper_best();
                let mut round = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let seed = worker * 100 + round % 3;
                    let catalog = store.catalog(&CatalogSpec::standard(0.04, seed));
                    for bench in catalog.benchmarks().iter().take(3) {
                        store.instrumented(bench.program(), &machine, &pipeline);
                    }
                    round += 1;
                }
            });
        }
        let store = &store;
        let budget = store.budget_bytes().unwrap();
        for _ in 0..200 {
            let snapshot = store.snapshot();
            for (name, stage) in &snapshot.stages {
                assert_eq!(
                    stage.inserts - stage.evictions,
                    stage.entries as u64,
                    "torn snapshot in stage {name}: {stage:?}"
                );
            }
            assert!(snapshot.resident_bytes() <= budget);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

#[test]
fn baseline_twins_are_shared_across_pipeline_configs() {
    let store = ArtifactStore::new();
    let catalog = store.catalog(&CatalogSpec::standard(0.05, 7));
    let program = catalog.benchmarks()[0].program();
    let a = store.baseline(program);
    let b = store.baseline(program);
    assert!(Arc::ptr_eq(&a, &b), "one baseline artifact per program");
    assert_eq!(a.mark_count(), 0);

    // Structurally identical programs from a separately generated catalogue
    // share the artifact too (content addressing, not pointer identity).
    let again = ArtifactStore::new();
    let other_catalog = CatalogSpec::standard(0.05, 7).build();
    assert_eq!(
        again.program_fingerprint(other_catalog.benchmarks()[0].program()),
        store.program_fingerprint(program)
    );
}
