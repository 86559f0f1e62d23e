//! A restarted store answers a study from its phase-pack spill alone: every
//! stage's lookups hit (catalogues included), and the rows equal the cold
//! store's bit for bit.

use phase_bench::{studies, BenchSettings};
use phase_core::{run_study, ArtifactStore};

#[test]
fn a_restarted_store_reruns_a_quick_study_without_a_miss() {
    let spec = studies::fig6(&BenchSettings::for_tests(6));
    let store = ArtifactStore::new();
    let cold = run_study(&spec, &store, 2);
    let dir = std::env::temp_dir().join(format!("phase-restart-{}", std::process::id()));
    store.spill_to_dir(&dir).expect("spill succeeds");

    let restarted = ArtifactStore::new();
    let load = restarted.load_spill_report(&dir).expect("load succeeds");
    std::fs::remove_dir_all(&dir).ok();
    assert!(load.errors.is_empty() && load.skipped == 0, "{load:?}");

    let warm = run_study(&spec, &restarted, 2);
    assert_eq!(warm.rows, cold.rows);
    for (stage, stats) in &warm.store.stages {
        assert_eq!(stats.misses, 0, "'{stage}' recomputed after the restart");
    }
    for stage in ["catalogs", "instrumented", "baselines", "cells"] {
        let stats = warm.store.stage(stage).expect("the store tracks the stage");
        assert!(stats.hits > 0, "'{stage}' was never asked: {stats:?}");
    }
}
