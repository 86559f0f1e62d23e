//! Property tests (vendored proptest) for the store's eviction machinery:
//! arbitrary insert/get sequences never evict an entry currently borrowed
//! through its `Arc`, footprint accounting always matches a reference model
//! recomputed from the live entries, counters balance
//! (`hits + misses == lookups`, `inserts - evictions == live`), and a
//! bounded [`ArtifactStore`] never exceeds its byte budget.

use std::collections::HashMap;
use std::sync::Arc;

use phase_core::{ArtifactStore, ClockCache, ContentHash, StableHasher, StoreFootprint};
use phase_serve::{ServiceConfig, TuningService};
use proptest::prelude::*;

/// A deterministic key per selector.
fn key_of(selector: u8) -> ContentHash {
    let mut hasher = StableHasher::new();
    hasher.write_str("prop-key");
    hasher.write_u64(u64::from(selector));
    hasher.finish()
}

/// One step of an arbitrary cache workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Look the key up; insert a payload of the given size on a miss.
    Get { selector: u8, size: u16, hold: bool },
    /// Ask the CLOCK sweep to free this many bytes.
    Evict { need: u16 },
    /// Drop the oldest held borrow.
    Release,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, any::<u8>(), any::<u16>(), any::<bool>()).prop_map(|(kind, selector, size, hold)| {
        match kind {
            0 | 1 => Op::Get {
                selector: selector % 24,
                size: size % 4096,
                hold,
            },
            _ if selector % 2 == 0 => Op::Evict { need: size },
            _ => Op::Release,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-stage CLOCK cache: borrowed entries survive every sweep, the
    /// resident-byte counter equals the live entries' recomputed footprints,
    /// and the counters balance at every step.
    #[test]
    fn clock_cache_invariants_hold_under_arbitrary_workloads(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let cache: ClockCache<Vec<u8>> = ClockCache::new();
        let mut held: Vec<(ContentHash, Arc<Vec<u8>>)> = Vec::new();
        let mut lookups = 0u64;
        for op in ops {
            match op {
                Op::Get { selector, size, hold } => {
                    let key = key_of(selector);
                    lookups += 1;
                    let value = cache.get_or_insert_with(key, || vec![selector; size as usize]);
                    prop_assert!(
                        value.iter().all(|&b| b == selector),
                        "entry {} answered another key's payload",
                        key
                    );
                    if hold && held.len() < 8 {
                        held.push((key, value));
                    }
                }
                Op::Evict { need } => {
                    cache.evict(u64::from(need));
                }
                Op::Release => {
                    if !held.is_empty() {
                        held.remove(0);
                    }
                }
            }

            // Borrowed entries are never evicted: each held Arc must still be
            // the resident entry for its key.
            let entries: HashMap<ContentHash, Arc<Vec<u8>>> =
                cache.entries().into_iter().collect();
            for (key, borrowed) in &held {
                let resident = entries.get(key);
                prop_assert!(resident.is_some(), "held entry {key} was evicted");
                prop_assert!(
                    Arc::ptr_eq(resident.unwrap(), borrowed),
                    "held entry {key} was replaced"
                );
            }

            // Footprint accounting matches the reference model: the counter
            // equals the live entries' footprints, recomputed from scratch.
            let reference: u64 = entries.values().map(|v| v.footprint_bytes()).sum();
            prop_assert_eq!(cache.resident_bytes(), reference);

            // Counters balance.
            let stats = cache.snapshot();
            prop_assert_eq!(stats.hits + stats.misses, lookups);
            prop_assert_eq!(stats.lookups(), lookups);
            prop_assert_eq!(stats.inserts - stats.evictions, stats.entries as u64);
            prop_assert_eq!(stats.resident_bytes, reference);
        }
    }

    /// Whole-store budget: arbitrary request/payload sequences through the
    /// `isolated_runtimes` stage of a bounded store never exceed the budget,
    /// never lose a borrowed entry, and keep every stage's counters
    /// balanced.
    #[test]
    fn bounded_store_never_exceeds_its_budget(
        ops in proptest::collection::vec(
            (0u8..20, any::<bool>(), any::<bool>()),
            1..50,
        ),
        budget_kb in 1u64..32,
    ) {
        use phase_amp::MachineSpec;
        use phase_sched::SimConfig;
        use phase_workload::CatalogSpec;

        let budget = budget_kb * 1024;
        let store = ArtifactStore::with_budget(budget);
        let machine = MachineSpec::core2_quad_amp();
        let sim = SimConfig::default();
        let mut held: Vec<(u8, Arc<HashMap<String, f64>>)> = Vec::new();

        for (seed, hold, release) in ops {
            // The payload is a pure function of the key (as every real
            // artifact is): its size varies across seeds, never across
            // repeated requests for one seed.
            let names = seed % 13 + 1;
            let spec = CatalogSpec::standard(1.0, u64::from(seed));
            let payload = move || -> HashMap<String, f64> {
                (0..names)
                    .map(|i| (format!("bench-{seed:03}-{i:03}"), f64::from(i)))
                    .collect()
            };
            let value = store.isolated_runtimes(&spec, &machine, &sim, payload);
            prop_assert_eq!(value.len(), names as usize,
                "a resolved artifact carries its own payload");

            if hold && held.len() < 4 {
                held.push((seed, Arc::clone(&value)));
            }
            if release && !held.is_empty() {
                held.remove(0);
            }

            // The budget is an invariant, not a goal.
            prop_assert!(
                store.resident_bytes() <= budget,
                "resident {} exceeded budget {}",
                store.resident_bytes(),
                budget
            );

            // A borrowed artifact is never evicted: as long as the Arc is
            // held, re-requesting the key must return the same allocation if
            // the entry is resident, and an equal value otherwise (it may
            // have been admission-rejected, never silently changed).
            for (held_seed, borrowed) in &held {
                let held_spec = CatalogSpec::standard(1.0, u64::from(*held_seed));
                let held_names = *held_seed % 13 + 1;
                let again = store.isolated_runtimes(&held_spec, &machine, &sim, || {
                    // Recomputation is only legal when the entry is absent
                    // (admission-rejected before it was borrowed); rebuild
                    // the same deterministic payload.
                    (0..held_names)
                        .map(|i| (format!("bench-{held_seed:03}-{i:03}"), f64::from(i)))
                        .collect()
                });
                prop_assert_eq!(again.as_ref(), borrowed.as_ref());
            }

            // Counters balance in one consistent snapshot.
            for (name, stage) in &store.snapshot().stages {
                prop_assert_eq!(
                    stage.inserts - stage.evictions,
                    stage.entries as u64,
                    "stage {} out of balance",
                    name
                );
                prop_assert_eq!(stage.lookups(), stage.hits + stage.misses);
            }
        }
    }
}

/// The end-to-end version: a bounded service hammered with a rotation of
/// requests stays within budget while borrowed reports remain valid. (Not a
/// proptest — one deterministic pass with the real pipeline artifacts.)
#[test]
fn bounded_service_keeps_borrowed_artifacts_valid() {
    let budget = 256 * 1024;
    let service = TuningService::new(ServiceConfig {
        threads: 1,
        budget_bytes: Some(budget),
        ..ServiceConfig::default()
    })
    .expect("cold start");
    let lines: Vec<String> = (0..6)
        .map(|seed| {
            format!(
                "{{\"id\": \"m{seed}\", \"kind\": \"marks\", \
                 \"catalog\": {{\"scale\": 0.04, \"seed\": {seed}}}}}"
            )
        })
        .collect();
    let first_pass: Vec<String> = lines
        .iter()
        .map(|l| service.respond(l).to_json().render_compact())
        .collect();
    assert!(service.store().resident_bytes() <= budget);
    let second_pass: Vec<String> = lines
        .iter()
        .map(|l| service.respond(l).to_json().render_compact())
        .collect();
    assert_eq!(
        first_pass, second_pass,
        "eviction must never change answers"
    );
    assert!(service.store().resident_bytes() <= budget);
}
