//! Warm-restart round trip: run requests, spill the store, restart the
//! service from the spill directory, and assert the restarted service (a)
//! answers bit-identical reports and (b) answers its analysis lookups warm —
//! the ROADMAP's "artifact reuse across CI runs" path.

use std::path::PathBuf;

use phase_serve::{ServiceConfig, TuningService};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phase-serve-{name}-{}", std::process::id()))
}

const REQUESTS: &[&str] = &[
    "{\"id\": \"m\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}}",
    "{\"id\": \"i\", \"kind\": \"isolation\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}, \
     \"ipc_threshold\": 0.2}",
];

#[test]
fn restarted_service_answers_warm_and_identical() {
    let dir = temp_dir("warm-restart");

    // First service lifetime: serve, then spill.
    let service = TuningService::new(ServiceConfig::with_threads(2)).expect("cold start");
    let cold_responses: Vec<String> = REQUESTS
        .iter()
        .map(|line| service.respond(line).to_json().render_compact())
        .collect();
    let cold_snapshot = service.store().snapshot();
    let cold_typing_misses = cold_snapshot.stage("typings").unwrap().misses;
    assert!(cold_typing_misses > 0, "the cold run computed typings");
    service.spill_to_dir(&dir).expect("spill succeeds");

    // Second lifetime: restart from the spill directory.
    let restarted = TuningService::new(ServiceConfig {
        threads: 2,
        budget_bytes: None,
        warm_start: Some(dir.clone()),
    })
    .expect("warm start");
    assert!(
        restarted.stats().warm_loaded > 0,
        "the restart reloaded spilled artifacts"
    );

    let warm_responses: Vec<String> = REQUESTS
        .iter()
        .map(|line| restarted.respond(line).to_json().render_compact())
        .collect();
    assert_eq!(
        cold_responses, warm_responses,
        "a warm restart must not change any report"
    );

    // Warm hit-rate: the binary spill persists the *whole* pipeline —
    // typings, instrumented programs, even simulation cells — so the replay
    // short-circuits at the deepest cached stage and recomputes nothing.
    let snapshot = restarted.store().snapshot();
    for stage in ["typings", "ipc_profiles", "instrumented", "cells"] {
        let stats = snapshot.stage(stage).unwrap();
        assert_eq!(
            stats.misses, 0,
            "{stage} recomputed after the warm restart: {stats:?}"
        );
    }
    let cells = snapshot.stage("cells").unwrap();
    assert!(
        cells.hits > 0,
        "the isolation replay answered from warm cells"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_restart_into_a_bounded_store_respects_the_budget() {
    let dir = temp_dir("warm-budget");
    let service = TuningService::new(ServiceConfig::with_threads(2)).expect("cold start");
    for line in REQUESTS {
        service.respond(line);
    }
    service.spill_to_dir(&dir).expect("spill succeeds");

    // Restart with a budget far below the spilled footprint: the loader must
    // admit what fits and stay within the budget rather than overrun it.
    let budget = 16 * 1024;
    let restarted = TuningService::new(ServiceConfig {
        threads: 1,
        budget_bytes: Some(budget),
        warm_start: Some(dir.clone()),
    })
    .expect("warm start");
    assert!(
        restarted.store().resident_bytes() <= budget,
        "warm start overran the budget"
    );
    // And it still answers correctly (recomputing what was not admitted).
    let fresh = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
    assert_eq!(
        restarted.respond(REQUESTS[0]).to_json().render_compact(),
        fresh.respond(REQUESTS[0]).to_json().render_compact(),
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_warm_start_directory_is_a_cold_start() {
    let dir = temp_dir("never-created");
    let service = TuningService::new(ServiceConfig {
        threads: 1,
        budget_bytes: None,
        warm_start: Some(dir),
    })
    .expect("missing spill dir is a normal cold start");
    assert_eq!(service.stats().warm_loaded, 0);
}

#[test]
fn damaged_manifest_is_a_cold_start() {
    let dir = temp_dir("damaged-manifest");
    let service = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
    service.respond(REQUESTS[0]);
    service.spill_to_dir(&dir).expect("spill succeeds");
    std::fs::write(dir.join("manifest.json"), b"\xff\xfe not UTF-8").expect("damage manifest");

    let restarted = TuningService::new(ServiceConfig {
        threads: 1,
        budget_bytes: None,
        warm_start: Some(dir.clone()),
    })
    .expect("a damaged manifest is a cold start, not a startup failure");
    assert_eq!(restarted.stats().warm_loaded, 0);

    std::fs::remove_dir_all(&dir).ok();
}
