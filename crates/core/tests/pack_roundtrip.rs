//! Round-trip battery for the phase-pack codec: for every artifact family
//! the store spills, `encode(decode(encode(x)))` must reproduce the first
//! encoding bit for bit, and decoded artifacts must fingerprint identically
//! to their originals. Encoders are deterministic (sorted iteration,
//! bit-pattern floats), so these properties hold for *arbitrary* values —
//! including NaN payloads and maps with adversarial iteration order — not
//! just the ones the pipeline happens to produce today.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use phase_core::pack::{
    decode_cell, decode_instrumented, decode_profile, decode_runtimes, decode_typing, encode_cell,
    encode_instrumented, encode_profile, encode_runtimes, encode_typing, read_pack_file,
    write_pack_file,
};
use phase_core::substrate::analysis::{
    assign_block_types, BlockTyping, PhaseType, StaticTypingConfig,
};
use phase_core::substrate::ir::Location;
use phase_core::substrate::marking::{instrument, MarkingConfig};
use phase_core::substrate::sched::{Pid, ProcessRecord, ProcessStats, SimResult};
use phase_core::substrate::workload::{generate_program, standard_profiles};
use phase_core::{ArtifactStore, CachedCell, ContentHash, IpcProfileArtifact, IpcProfileRow};

fn location_strategy() -> impl Strategy<Value = Location> {
    (0u32..64, 0u32..256).prop_map(|(proc, block)| {
        Location::new(
            phase_core::substrate::ir::ProcId(proc),
            phase_core::substrate::ir::BlockId(block),
        )
    })
}

/// An arbitrary `f64` *bit pattern* — infinities and NaNs included. The
/// codec stores `to_bits`, so round trips must be exact even for values
/// `PartialEq` cannot compare.
fn f64_bits_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn typing_strategy() -> impl Strategy<Value = BlockTyping> {
    (
        1usize..9,
        proptest::collection::vec((location_strategy(), 0u32..8), 0..60),
    )
        .prop_map(|(num_types, entries)| {
            let mut typing = BlockTyping::new(num_types);
            for (loc, ty) in entries {
                typing.assign(loc, PhaseType(ty));
            }
            typing
        })
}

fn profile_strategy() -> impl Strategy<Value = IpcProfileArtifact> {
    (
        0usize..64,
        proptest::collection::vec(
            (
                location_strategy(),
                f64_bits_strategy(),
                f64_bits_strategy(),
            ),
            0..40,
        ),
    )
        .prop_map(|(min_block_size, rows)| IpcProfileArtifact {
            min_block_size,
            rows: rows
                .into_iter()
                .map(|(location, fast_ipc, slow_ipc)| IpcProfileRow {
                    location,
                    fast_ipc,
                    slow_ipc,
                })
                .collect(),
        })
}

fn runtimes_strategy() -> impl Strategy<Value = HashMap<String, f64>> {
    proptest::collection::vec((any::<u64>(), f64_bits_strategy()), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(tag, ns)| (format!("bench-{tag:x}"), ns))
            .collect()
    })
}

fn process_record_strategy() -> impl Strategy<Value = ProcessRecord> {
    (
        (0u32..512, any::<u64>(), 0usize..16),
        (
            (f64_bits_strategy(), any::<bool>(), f64_bits_strategy()),
            (f64_bits_strategy(), any::<bool>(), f64_bits_strategy()),
        ),
        (any::<u64>(), f64_bits_strategy(), f64_bits_strategy()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(f64_bits_strategy(), 4),
    )
        .prop_map(
            |(
                (pid, tag, slot),
                ((arrival, done, completion), (release, with_deadline, deadline)),
                (instr, cycles, cpu),
                (marks, switches, migrations),
                kinds,
            )| {
                ProcessRecord {
                    pid: Pid(pid),
                    name: format!("proc-{tag:x}"),
                    slot,
                    arrival_ns: arrival,
                    release_ns: release,
                    deadline_ns: with_deadline.then_some(deadline),
                    completion_ns: done.then_some(completion),
                    stats: ProcessStats {
                        instructions: instr,
                        cycles,
                        cpu_time_ns: cpu,
                        marks_executed: marks,
                        core_switches: switches,
                        balancer_migrations: migrations,
                        time_on_kind_ns: [kinds[0], kinds[1], kinds[2], kinds[3]],
                    },
                }
            },
        )
}

fn cell_strategy() -> impl Strategy<Value = CachedCell> {
    (
        (
            any::<u64>(),
            proptest::collection::vec(process_record_strategy(), 0..6),
        ),
        (any::<u64>(), f64_bits_strategy()),
        (
            proptest::collection::vec(any::<u64>(), 0..12),
            proptest::collection::vec(f64_bits_strategy(), 0..8),
        ),
        ((any::<u64>(), any::<u64>()), any::<bool>(), any::<bool>()),
        proptest::collection::vec(any::<u64>(), 9),
    )
        .prop_map(
            |(
                (tag, records),
                (total_instructions, final_time_ns),
                (throughput_windows, core_busy_ns),
                ((total_marks, total_switches), with_tuner, with_online),
                extra,
            )| {
                CachedCell {
                    result: Arc::new(SimResult {
                        label: format!("cell-{tag:x}"),
                        records,
                        total_instructions,
                        final_time_ns,
                        throughput_windows,
                        core_busy_ns,
                        total_marks_executed: total_marks,
                        total_core_switches: total_switches,
                    }),
                    tuner_stats: with_tuner.then(|| phase_core::substrate::runtime::TunerStats {
                        sections_monitored: extra[0],
                        monitor_waits: extra[1],
                        assignments_decided: extra[2],
                        switch_requests: extra[3],
                    }),
                    online_stats: with_online.then(|| phase_core::substrate::online::OnlineStats {
                        intervals_observed: extra[4],
                        phases_created: extra[5],
                        assignments_decided: extra[6],
                        retunes: extra[7],
                        switch_requests: extra[8],
                    }),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn typings_round_trip_bit_identically(typing in typing_strategy()) {
        let encoded = encode_typing(&typing);
        let decoded = decode_typing(&encoded).expect("decode");
        prop_assert_eq!(decoded.num_types(), typing.num_types());
        prop_assert_eq!(decoded.sorted_entries(), typing.sorted_entries());
        prop_assert_eq!(encode_typing(&decoded), encoded);
    }

    #[test]
    fn profiles_round_trip_bit_identically(profile in profile_strategy()) {
        let encoded = encode_profile(&profile);
        let decoded = decode_profile(&encoded).expect("decode");
        prop_assert_eq!(decoded.min_block_size, profile.min_block_size);
        prop_assert_eq!(decoded.rows.len(), profile.rows.len());
        prop_assert_eq!(encode_profile(&decoded), encoded);
    }

    #[test]
    fn runtime_maps_round_trip_bit_identically(runtimes in runtimes_strategy()) {
        let encoded = encode_runtimes(&runtimes);
        let decoded = decode_runtimes(&encoded).expect("decode");
        prop_assert_eq!(decoded.len(), runtimes.len());
        for (name, ns) in &runtimes {
            prop_assert_eq!(decoded[name].to_bits(), ns.to_bits());
        }
        prop_assert_eq!(encode_runtimes(&decoded), encoded);
    }

    #[test]
    fn cells_round_trip_bit_identically(cell in cell_strategy()) {
        let encoded = encode_cell(&cell);
        let decoded = decode_cell(&encoded).expect("decode");
        prop_assert_eq!(decoded.result.records.len(), cell.result.records.len());
        prop_assert_eq!(encode_cell(&decoded), encoded);
    }

    #[test]
    fn pack_files_round_trip_with_no_skips(
        payloads in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            0..12,
        ),
    ) {
        let records: Vec<(ContentHash, Vec<u8>)> = payloads
            .into_iter()
            .map(|(hi, lo, bytes)| (ContentHash { hi, lo }, bytes))
            .collect();
        let file = write_pack_file("typings", &records);
        let read = read_pack_file(&file, "typings").expect("well-formed file");
        prop_assert!(read.skipped.is_empty());
        prop_assert_eq!(read.records, records);
    }
}

/// Instrumented programs carry the full IR inline, so the round trip is
/// exercised over *real* generated programs at several marking configs — and
/// the decoded copy (a fresh allocation, so no memoization shortcut) must
/// fingerprint identically to the original, which is exactly what keys the
/// spill directory.
#[test]
fn instrumented_programs_round_trip_and_fingerprints_match() {
    let store = ArtifactStore::new();
    let configs = [
        MarkingConfig::default(),
        MarkingConfig::basic_block(10, 0),
        MarkingConfig::basic_block(25, 2),
    ];
    let mut checked = 0;
    for (index, profile) in standard_profiles().iter().enumerate().step_by(3) {
        let program = generate_program(profile, 0xC60 + index as u64);
        let typing = assign_block_types(&program, &StaticTypingConfig::default());
        for config in &configs {
            let original = Arc::new(instrument(&program, &typing, config));
            let encoded = encode_instrumented(&original);
            let decoded = Arc::new(decode_instrumented(&encoded).expect("decode"));

            assert_eq!(
                encode_instrumented(&decoded),
                encoded,
                "re-encode diverged for {} under {config}",
                program.name()
            );
            assert_eq!(decoded.mark_count(), original.mark_count());
            assert_eq!(decoded.entry_type(), original.entry_type());
            assert_eq!(decoded.stats(), original.stats());
            assert_eq!(
                store.instrumented_fingerprint(&decoded),
                store.instrumented_fingerprint(&original),
                "fingerprint diverged for {} under {config}",
                program.name()
            );
            checked += 1;
        }
    }
    assert!(checked >= 9, "the battery covered several programs");
}
