//! Fuzz-style corruption battery for the binary spill: truncations, bit
//! flips, stale or damaged manifests, and directories that are not
//! phase-pack spills must all surface as *structured errors and skipped
//! entries* — a damaged cache degrades to a (partial) cold start, and never
//! panics, never deserializes wrong, and never returns `Err` for damage the
//! format is designed to contain.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use phase_core::pack::{read_pack_file, write_pack_file, PackReader, PackWriter};
use phase_core::substrate::ir::{Instruction, Program, ProgramBuilder, Terminator};
use phase_core::substrate::sched::SimResult;
use phase_core::substrate::workload::CatalogSpec;
use phase_core::{
    prepare_workload_cached, ArtifactStore, CachedCell, ContentHash, ExperimentConfig,
    SpillLoadReport, SPILL_STAGES,
};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "phase-spill-corruption-{name}-{}",
        std::process::id()
    ))
}

/// A store with every spillable stage populated: the full static pipeline
/// over the smoke-test catalogue, plus one synthetic simulation cell.
fn populated_store() -> ArtifactStore {
    let store = ArtifactStore::new();
    let config = ExperimentConfig::smoke_test();
    prepare_workload_cached(&config, &store);
    store.cell(ContentHash { hi: 7, lo: 11 }, || CachedCell {
        result: SimResult {
            label: "corruption-battery".to_string(),
            records: Vec::new(),
            total_instructions: 42,
            final_time_ns: 1.5,
            throughput_windows: vec![42],
            core_busy_ns: vec![1.5],
            total_marks_executed: 0,
            total_core_switches: 0,
        },
        tuner_stats: None,
        online_stats: None,
    });
    store
}

fn copy_spill(from: &Path, name: &str) -> PathBuf {
    let to = temp_dir(name);
    std::fs::remove_dir_all(&to).ok();
    std::fs::create_dir_all(&to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read spill dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy spill file");
    }
    to
}

fn load_fresh(dir: &Path) -> SpillLoadReport {
    ArtifactStore::new()
        .load_spill_report(dir)
        .expect("corruption is contained, never an io::Err")
}

/// Every stage's pack file plus its record count (from the live store, so
/// assertions can distinguish damaging a populated file from an empty one).
fn pack_files(dir: &Path, store: &ArtifactStore) -> Vec<(PathBuf, usize)> {
    let counts: std::collections::HashMap<&str, usize> = store
        .artifact_keys()
        .into_iter()
        .map(|(stage, keys)| (stage, keys.len()))
        .collect();
    let files: Vec<(PathBuf, usize)> = SPILL_STAGES
        .iter()
        .map(|stage| (dir.join(format!("{stage}.ppk")), counts[stage]))
        .filter(|(path, _)| path.exists())
        .collect();
    assert_eq!(files.len(), SPILL_STAGES.len(), "every stage spilled");
    files
}

#[test]
fn truncated_pack_files_load_partially_with_structured_errors() {
    let golden = temp_dir("truncate-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let baseline = load_fresh(&golden);
    assert!(baseline.errors.is_empty(), "{:?}", baseline.errors);
    assert_eq!(baseline.skipped, 0);
    assert!(baseline.loaded > 0);

    for (victim, records) in pack_files(&golden, &store) {
        let len = std::fs::metadata(&victim).expect("stat").len() as usize;
        // Cut inside the header, mid-body, and one byte short of intact: the
        // count lives in the header, so a shortened file always loses at
        // least its final record — as a recorded skip, never a panic.
        for keep in [3, len / 2, len - 1] {
            let dir = copy_spill(&golden, "truncate-case");
            let name = victim.file_name().expect("file name");
            let bytes = std::fs::read(&victim).expect("read victim");
            std::fs::write(dir.join(name), &bytes[..keep]).expect("truncate");

            let report = load_fresh(&dir);
            assert!(
                !report.errors.is_empty(),
                "{name:?} truncated to {keep}/{len} bytes went unnoticed"
            );
            if records > 0 {
                assert!(
                    report.loaded < baseline.loaded,
                    "{name:?} truncated to {keep}/{len} bytes lost nothing?"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn bit_flips_are_skipped_never_deserialized_wrong() {
    let golden = temp_dir("bitflip-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let baseline = load_fresh(&golden);

    for (victim, _) in pack_files(&golden, &store) {
        let bytes = std::fs::read(&victim).expect("read victim");
        let name = victim.file_name().expect("file name");
        // Deterministic flip sites: the magic, the header tail, a body byte,
        // and the final checksum byte.
        for (offset, must_error) in [
            (0, true),                // magic → whole file rejected
            (5, true),                // version/toolchain → whole file rejected
            (bytes.len() / 2, false), // body → checksum skip (or a key flip,
            // which re-keys an intact record — allowed)
            (bytes.len() - 1, true), // final record's checksum → skip
        ] {
            let dir = copy_spill(&golden, "bitflip-case");
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0x10;
            std::fs::write(dir.join(name), &flipped).expect("write flipped");

            let report = load_fresh(&dir);
            if must_error {
                assert!(
                    !report.errors.is_empty(),
                    "{name:?} flipped at {offset} went unnoticed"
                );
            }
            assert!(report.loaded <= baseline.loaded);
            if report.errors.is_empty() {
                assert_eq!(
                    report.loaded, baseline.loaded,
                    "{name:?} flipped at {offset}: silent loss"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn stale_manifests_are_a_structural_cold_start() {
    let golden = temp_dir("manifest-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let manifest = std::fs::read_to_string(golden.join("manifest.json")).expect("manifest");

    // A spill from a different crate version: rejected before any record is
    // deserialized, zero loads, one structured error.
    let foreign = copy_spill(&golden, "manifest-toolchain");
    let tag = phase_core::pack::toolchain_tag();
    std::fs::write(
        foreign.join("manifest.json"),
        manifest.replace(tag, "phase/999.0.0"),
    )
    .expect("tamper toolchain");
    let report = load_fresh(&foreign);
    assert_eq!(report.loaded, 0);
    assert!(
        report.errors.iter().any(|e| e.contains("toolchain")),
        "{:?}",
        report.errors
    );
    std::fs::remove_dir_all(&foreign).ok();

    // A future format version: same structural rejection.
    let future = copy_spill(&golden, "manifest-version");
    let version_field = format!("\"version\": {}", phase_core::pack::PACK_VERSION);
    std::fs::write(
        future.join("manifest.json"),
        manifest.replace(&version_field, "\"version\": 999"),
    )
    .expect("tamper version");
    let report = load_fresh(&future);
    assert_eq!(report.loaded, 0);
    assert!(
        report.errors.iter().any(|e| e.contains("version")),
        "{:?}",
        report.errors
    );
    std::fs::remove_dir_all(&future).ok();

    // A garbage manifest, and one that is not UTF-8: one recorded error
    // each, and a clean cold start.
    for (case, bytes) in [
        ("manifest-garbage", b"{not json".as_slice()),
        (
            "manifest-not-utf8",
            b"{\"format\": \"phase-pack\xff\"}".as_slice(),
        ),
    ] {
        let damaged = copy_spill(&golden, case);
        std::fs::write(damaged.join("manifest.json"), bytes).expect("tamper manifest");
        let report = load_fresh(&damaged);
        assert_eq!(report.loaded, 0, "{case}");
        assert_eq!(report.errors.len(), 1, "{case}: {:?}", report.errors);
        std::fs::remove_dir_all(&damaged).ok();
    }

    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn json_era_spill_directories_load_nothing() {
    // The three stage files the JSON spill wrote, one well-formed entry each.
    let dir = temp_dir("json-era");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create dir");
    let key = "0000000000000000000000000000002a";
    for (file, entry) in [
        (
            "typings.json",
            r#""num_types": 2, "entries": [{"proc": 0, "block": 0, "type": 1}]"#,
        ),
        (
            "ipc_profiles.json",
            r#""min_block_size": 1, "rows": [{"proc": 0, "block": 0, "fast_ipc": 1.5, "slow_ipc": 0.5}]"#,
        ),
        ("isolated_runtimes.json", r#""runtimes": {"gzip": 1000.0}"#),
    ] {
        std::fs::write(dir.join(file), format!(r#"[{{"key": "{key}", {entry}}}]"#))
            .expect("write stage file");
    }

    // Without a manifest, then with the one the JSON spill wrote: nothing
    // loads, and the one error names the format this build reads.
    let json_manifest = format!(
        r#"{{"format": "json", "toolchain": "{}"}}"#,
        phase_core::pack::toolchain_tag()
    );
    for manifest in [None, Some(json_manifest)] {
        if let Some(text) = &manifest {
            std::fs::write(dir.join("manifest.json"), text).expect("write manifest");
        }
        let report = load_fresh(&dir);
        assert_eq!(report.loaded, 0, "manifest {manifest:?}");
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].contains("phase-pack"),
            "{:?}",
            report.errors
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_store_loads_binary_spill_within_budget() {
    let golden = temp_dir("bounded-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    assert!(store.resident_bytes() > 32 * 1024, "spill is non-trivial");

    let budget = 32 * 1024;
    let bounded = Arc::new(ArtifactStore::with_budget(budget));
    let report = bounded
        .load_spill_report(&golden)
        .expect("bounded load succeeds");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        bounded.resident_bytes() <= budget,
        "budget overrun: {} > {budget}",
        bounded.resident_bytes()
    );
    std::fs::remove_dir_all(&golden).ok();
}

/// A one-block program of 24 integer instructions, the `odd`-th of which
/// (if any) is a floating-point multiply instead.
fn one_block_program(odd: Option<usize>) -> Arc<Program> {
    let mut builder = ProgramBuilder::new("near-twin");
    let main = builder.declare_procedure("main");
    let mut body = builder.procedure_builder();
    let block = body.add_block();
    body.push_all(
        block,
        (0..24).map(|i| {
            if Some(i) == odd {
                Instruction::fp_mul()
            } else {
                Instruction::int_alu()
            }
        }),
    );
    body.terminate(block, Terminator::Exit);
    builder
        .define_procedure(main, body)
        .expect("valid procedure");
    Arc::new(builder.build().expect("valid program"))
}

#[test]
fn programs_differing_in_one_instruction_never_share() {
    let (a, b) = (one_block_program(None), one_block_program(Some(7)));
    let config = ExperimentConfig::smoke_test();
    let store = ArtifactStore::new();
    for program in [&a, &b] {
        store.baseline(program);
        store.instrumented(program, &config.machine, &config.pipeline);
    }
    let dir = temp_dir("near-twins");
    store.spill_to_dir(&dir).expect("spill");
    let fresh = ArtifactStore::new();
    let report = fresh.load_spill_report(&dir).expect("load succeeds");
    std::fs::remove_dir_all(&dir).ok();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Look the artifacts up through separately built copies, so the loaded
    // programs are the ones the spill interned.
    let loaded = |program: &Arc<Program>| {
        let copy = Arc::new(Program::clone(program));
        let baseline = fresh.baseline(&copy);
        let instrumented = fresh.instrumented(&copy, &config.machine, &config.pipeline);
        assert!(Arc::ptr_eq(baseline.program(), instrumented.program()));
        assert_eq!(baseline.program(), program);
        Arc::clone(baseline.program())
    };
    let (loaded_a, loaded_b) = (loaded(&a), loaded(&b));
    assert!(!Arc::ptr_eq(&loaded_a, &loaded_b));
    assert_ne!(loaded_a, loaded_b);
    assert_eq!(
        fresh.snapshot().total_misses(),
        0,
        "both came from the spill"
    );
}

/// `program` (one `encode_program` field) with its entry procedure id
/// replaced by one that does not exist.
fn with_missing_entry(program: &[u8]) -> Vec<u8> {
    let mut r = PackReader::new(program);
    r.str().expect("program name");
    let entry_at = program.len() - r.remaining();
    r.u64().expect("entry procedure");
    let rest_at = program.len() - r.remaining();
    let mut w = PackWriter::new();
    w.u64(999);
    [&program[..entry_at], &w.into_bytes(), &program[rest_at..]].concat()
}

#[test]
fn a_malformed_program_under_a_valid_checksum_is_skipped_alone() {
    let golden = temp_dir("bad-program-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let intact = load_fresh(&golden);

    // Rewrite the first baseline's program and re-frame the file, so the
    // record's checksum is valid and only its content is wrong.
    let dir = copy_spill(&golden, "bad-program");
    let path = dir.join("baselines.ppk");
    let mut file =
        read_pack_file(&std::fs::read(&path).expect("read"), "baselines").expect("intact file");
    let (victim, payload) = &mut file.records[0];
    let mut r = PackReader::new(payload);
    let program = r.bytes().expect("length-prefixed program");
    let mut w = PackWriter::new();
    w.bytes(&with_missing_entry(program));
    let mut damaged = w.into_bytes();
    damaged.extend_from_slice(&payload[payload.len() - r.remaining()..]);
    *payload = damaged;
    let victim = *victim;
    std::fs::write(&path, write_pack_file("baselines", &file.records)).expect("rewrite");

    let fresh = ArtifactStore::new();
    let report = fresh.load_spill_report(&dir).expect("load succeeds");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&golden).ok();
    assert_eq!(report.skipped, 1, "{:?}", report.errors);
    assert_eq!(report.loaded, intact.loaded - 1);
    assert_eq!(report.errors.len(), 1);
    assert!(
        report.errors[0].contains(&victim.to_string()) && report.errors[0].contains("program"),
        "{:?}",
        report.errors
    );

    // Every other artifact loaded, and each benchmark's artifacts still
    // share its catalogue program — the damaged one's included.
    let config = ExperimentConfig::smoke_test();
    let catalog = fresh.catalog(&CatalogSpec::standard(
        config.catalog_scale,
        config.workload_seed,
    ));
    for bench in catalog.benchmarks() {
        let program = bench.program();
        let instrumented = fresh.instrumented(program, &config.machine, &config.pipeline);
        assert!(Arc::ptr_eq(instrumented.program(), program));
        assert!(Arc::ptr_eq(fresh.baseline(program).program(), program));
    }
    let stats = fresh.snapshot();
    assert_eq!(stats.stage("baselines").unwrap().misses, 1);
    assert_eq!(stats.total_misses(), 1);
}

#[test]
fn version_two_spills_are_a_recorded_cold_start() {
    let golden = temp_dir("version-two-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");

    // What a build that wrote pack version 2 left behind: its manifest and
    // every file header say 2.
    let dir = copy_spill(&golden, "version-two");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let version_field = format!("\"version\": {}", phase_core::pack::PACK_VERSION);
    assert!(manifest.contains(&version_field));
    std::fs::write(
        dir.join("manifest.json"),
        manifest.replace(&version_field, "\"version\": 2"),
    )
    .expect("rewrite manifest");
    for stage in SPILL_STAGES {
        let path = dir.join(format!("{stage}.ppk"));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[phase_core::pack::PACK_MAGIC.len()] = 2;
        assert!(matches!(
            read_pack_file(&bytes, stage),
            Err(phase_core::pack::PackError::BadVersion { found: 2 })
        ));
        std::fs::write(&path, bytes).expect("rewrite header");
    }

    let report = load_fresh(&dir);
    assert_eq!(report.loaded, 0);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(
        report.errors[0].contains("pack version 2"),
        "{:?}",
        report.errors
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&golden).ok();
}
