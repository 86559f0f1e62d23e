//! The two paper workloads: regenerating the paper's 13 studies on a fresh
//! store (`paper-cold`), and regenerating them after a restart from the
//! store's phase-pack spill (`paper-restart`).
//!
//! Both run the same script. One iteration is a *cold answer* — the 13
//! `run_study` calls on a store that holds nothing in memory (for
//! `paper-restart`, a fresh store that first calls `load_spill_report`) —
//! followed by [`WARM_PASSES`] *warm answers*: the same 13 calls again on the
//! store the cold answer filled, as `run_studies` does in its warm pass.
//! Iterations repeat until the run's time is up. In a traced run every
//! second iteration records a trace of its cold answer and the ledger is
//! built from those.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use phase_bench::{studies, BenchSettings};
use phase_core::{
    cell_seed, pack, ArtifactStore, ContentHash, StoreStats, StudyMode, StudyReport, StudySpec,
};
use phase_trace::Lane;
use phase_workload::WorkloadSpec;

use crate::ledger;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::{Args, DEFAULT_SEED};

/// Warm answers measured after each cold answer: few, so the run's time
/// goes to cold answers, whose median needs the samples.
const WARM_PASSES: usize = 25;
/// Warm answers a run collects at least, so their p90 has ten beyond it.
const MIN_WARM: usize = 110;
/// Set-ups per run; `setup_s` is their median.
const SETUPS_COLD: usize = 9;
/// Set-ups per run of `paper-restart` (each regenerates and spills).
const SETUPS_RESTART: usize = 3;
/// FNV-64 of the rows of all 13 studies at [`DEFAULT_SEED`] (quick size);
/// the rows are identical for every driver thread count.
const DEFAULT_SEED_DIGEST: u64 = 0x1199_1181_5b90_d763;

/// The store stages, in pipeline order.
pub const STAGES: [&str; 8] = [
    "catalogs",
    "ipc_profiles",
    "typings",
    "regions",
    "instrumented",
    "baselines",
    "isolated_runtimes",
    "cells",
];

/// The 13 study names, in `studies::all` order (the per-layer metric names
/// must exist for every workload, so they are fixed here).
pub const STUDIES: [&str; 13] = [
    "fig3",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "sweep_lookahead",
    "sweep_min_size",
    "table2",
    "fig8",
    "table_mark_stats",
    "three_core",
    "online",
];

/// The studies at the benchmark's size. The seed draws the job queues of
/// every study that queues jobs over a catalogue (`fig4`'s workload, the
/// online study's families); the catalogues themselves — the paper's
/// benchmark suite — stay fixed, so every seed asks for the same amount of
/// work. [`DEFAULT_SEED`] keeps the paper's own seeds.
pub fn specs(seed: u64, threads: usize) -> Vec<StudySpec> {
    let settings = BenchSettings {
        quick: true,
        threads,
        ..BenchSettings::default()
    };
    let mut specs = studies::all(&settings);
    let names: Vec<&str> = specs.iter().map(|spec| spec.name.as_str()).collect();
    assert_eq!(names, STUDIES, "the per-layer names follow studies::all");
    if seed != DEFAULT_SEED {
        for spec in &mut specs {
            reseed(spec, seed);
        }
    }
    specs
}

fn reseed_workload(workload: &mut WorkloadSpec, seed: u64) {
    match workload {
        WorkloadSpec::Random { seed: s, .. }
        | WorkloadSpec::Bursty { seed: s, .. }
        | WorkloadSpec::Drifting { seed: s, .. }
        | WorkloadSpec::OpenLoop { seed: s, .. } => *s = cell_seed(seed, *s),
    }
}

fn reseed(spec: &mut StudySpec, seed: u64) {
    match &mut spec.mode {
        StudyMode::MarkOverhead { workload, .. } => reseed_workload(workload, seed),
        StudyMode::PolicyMatrix {
            families,
            base_seed,
            ..
        }
        | StudyMode::TailLatency {
            families,
            base_seed,
            ..
        } => {
            for family in families {
                reseed_workload(&mut family.workload, seed);
            }
            *base_seed = cell_seed(seed, *base_seed);
        }
        // A comparison's workload seed also generates its catalogue.
        StudyMode::Comparison { .. }
        | StudyMode::MarkStatsPerVariant { .. }
        | StudyMode::MarkStatsPerBenchmark { .. }
        | StudyMode::Isolation { .. }
        | StudyMode::EnginePerf { .. } => {}
    }
}

/// FNV-64 over the rendered rows of every report, in order.
pub fn digest(reports: &[StudyReport]) -> u64 {
    let mut text = String::new();
    for report in reports {
        text.push_str(&report.study);
        if let Some(rows) = report.to_json().get("rows") {
            text.push_str(&rows.render_compact());
        }
    }
    pack::fnv64(text.as_bytes())
}

/// One answer: the 13 studies (after the spill load, for a restart).
struct Pass {
    wall_s: f64,
    load_s: f64,
    /// Whether the spill reloaded whole: no errors, nothing skipped.
    load_ok: bool,
    study_s: Vec<f64>,
    reports: Vec<StudyReport>,
}

/// Runs the studies on `store`, loading `spill` first when given. The
/// benchmark's own spans wrap each public call; they record only while a
/// trace context is installed.
fn pass(specs: &[StudySpec], store: &ArtifactStore, threads: usize, spill: Option<&Path>) -> Pass {
    let start = Instant::now();
    let _pass = phase_trace::span("bench.pass");
    let (mut load_s, mut load_ok) = (0.0, true);
    if let Some(dir) = spill {
        let _span = phase_trace::span("bench.load");
        load_ok = store.load_spill_report(dir).is_ok_and(|report| {
            report.errors.is_empty() && report.skipped == 0 && report.loaded > 0
        });
        load_s = start.elapsed().as_secs_f64();
    }
    let mut study_s = Vec::with_capacity(specs.len());
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        let _span = phase_trace::span("bench.study");
        let started = Instant::now();
        reports.push(phase_core::run_study(spec, store, threads));
        study_s.push(started.elapsed().as_secs_f64());
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        load_s,
        load_ok,
        study_s,
        reports,
    }
}

fn cell_keys(store: &ArtifactStore) -> HashSet<ContentHash> {
    store
        .artifact_keys()
        .into_iter()
        .filter(|(stage, _)| *stage == "cells")
        .flat_map(|(_, keys)| keys)
        .collect()
}

/// Simulated instructions of the cells `store` holds beyond `before`,
/// read back through the store's export path.
fn computed_instructions(store: &ArtifactStore, before: &HashSet<ContentHash>) -> u64 {
    cell_keys(store)
        .difference(before)
        .filter_map(|key| store.export_artifact("cells", *key))
        .map(|bytes| {
            pack::decode_cell(&bytes)
                .expect("an exported cell decodes")
                .result
                .total_instructions
        })
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Ledger totals over the traced cold answers.
#[derive(Default)]
struct Traced {
    wall_ns: u64,
    uncovered_ns: u64,
    study_s: Vec<f64>,
    stage_self_ns: [u64; STAGES.len()],
    load_ns: u64,
    cells_ns: u64,
    instructions: u64,
    walls: Vec<f64>,
    store: Option<StoreStats>,
}

impl Traced {
    fn absorb(&mut self, answer: &Pass, records: &[phase_trace::TraceRecord], instructions: u64) {
        let spans = ledger::spans(records);
        let Some(root) = spans.iter().find(|span| span.name == "bench.pass") else {
            return;
        };
        let (from, to) = (root.open_ns, root.close_ns);
        let wrapper = |name: &str| name.starts_with("bench.") || name == "run_study";
        self.wall_ns += to - from;
        self.uncovered_ns +=
            (to - from) - ledger::covered_ns(&spans, from, to, |s| !wrapper(s.name));
        for span in &spans {
            if let Some(stage) = STAGES.iter().position(|stage| *stage == span.name) {
                self.stage_self_ns[stage] += span.self_ns;
            }
            match span.name {
                "store-load" => self.load_ns += span.duration_ns(),
                "cells" => self.cells_ns += span.duration_ns(),
                _ => {}
            }
        }
        if self.study_s.is_empty() {
            self.study_s = vec![0.0; answer.study_s.len()];
        }
        for (total, study) in self.study_s.iter_mut().zip(&answer.study_s) {
            *total += study;
        }
        self.instructions += instructions;
        self.walls.push(answer.wall_s);
    }
}

/// Where scratch files go, under the working directory (the checkout).
const SCRATCH: &str = ".perfbench";

/// A fresh scratch directory under [`SCRATCH`].
fn scratch_dir(label: &str) -> PathBuf {
    let dir = PathBuf::from(SCRATCH).join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Runs `paper-cold` (`restart == false`) or `paper-restart`.
pub fn run(args: &Args, restart: bool) -> Outcome {
    let threads = args.threads;
    let mut out = Outcome::default();
    let expected = |digest: u64, first: &mut Option<u64>| -> bool {
        let want = if args.seed == DEFAULT_SEED {
            DEFAULT_SEED_DIGEST
        } else {
            *first.get_or_insert(digest)
        };
        digest == want
    };
    let mut first_digest = None;

    // --- Set-up: repeated, the median is `setup_s`. ---
    let mut setup_s = Vec::new();
    let mut spill_s = Vec::new();
    let mut spill_bytes = 0;
    let mut specs = Vec::new();
    let mut spill = None;
    let mut spilled_cells = HashSet::new();
    let setups = if restart { SETUPS_RESTART } else { SETUPS_COLD };
    for attempt in 0..setups {
        let started = Instant::now();
        specs = self::specs(args.seed, threads);
        if restart {
            // Regenerate once and spill: the state a restarted process finds.
            let store = ArtifactStore::new();
            let cold = pass(&specs, &store, threads, None);
            let ok = expected(digest(&cold.reports), &mut first_digest);
            out.attempt(ok);
            let dir = scratch_dir(&format!("spill{attempt}"));
            let spilled = Instant::now();
            store.spill_to_dir(&dir).expect("the store spills");
            spill_s.push(spilled.elapsed().as_secs_f64());
            spill_bytes = dir_bytes(&dir);
            spilled_cells = cell_keys(&store);
            if let Some(old) = spill.replace(dir) {
                let _ = std::fs::remove_dir_all(old);
            }
        } else {
            // Warm the process (allocator, code, lazy tables) on two small
            // studies against a throwaway store.
            let store = ArtifactStore::new();
            for spec in specs
                .iter()
                .filter(|s| s.name == "fig3" || s.name == "table1")
            {
                phase_core::run_study(spec, &store, threads);
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // --- The measured iterations. ---
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut load_s = Vec::new();
    let mut traced = Traced::default();
    let mut untraced_walls = Vec::new();
    let mut last_store = None;
    let started = Instant::now();
    let mut iteration = 0;
    while iteration < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let trace_this = args.trace && iteration % 2 == 1;
        let store = ArtifactStore::new();
        let trace_id = phase_trace::new_trace_id();
        phase_trace::set_enabled(trace_this);
        let answer = {
            let _ctx = phase_trace::install(trace_id, Lane::Bench, 0);
            pass(&specs, &store, threads, spill.as_deref())
        };
        phase_trace::set_enabled(false);
        let records = phase_trace::take(trace_id);
        let ok = answer.load_ok && expected(digest(&answer.reports), &mut first_digest);
        out.attempt(ok);
        cold_ms.push(answer.wall_s * 1e3);
        if restart {
            load_s.push(answer.load_s);
        }
        if trace_this {
            // The counters of this answer alone, before the export below
            // counts its own lookups.
            traced.store = Some(store.snapshot());
            // Cells loaded from the spill were computed by the set-up.
            let instructions = computed_instructions(&store, &spilled_cells);
            traced.absorb(&answer, &records, instructions);
        } else {
            untraced_walls.push(answer.wall_s);
        }
        for _ in 0..WARM_PASSES {
            let warm = pass(&specs, &store, threads, None);
            out.attempt(
                warm.reports
                    .iter()
                    .zip(&answer.reports)
                    .all(|(w, c)| w.rows == c.rows),
            );
            warm_ms.push(warm.wall_s * 1e3);
        }
        last_store = Some((store, answer));
        iteration += 1;
    }
    // Top up the warm answers so their p90 stands on ten samples beyond it.
    if let Some((store, answer)) = &last_store {
        while warm_ms.len() < MIN_WARM {
            let warm = pass(&specs, store, threads, None);
            out.attempt(
                warm.reports
                    .iter()
                    .zip(&answer.reports)
                    .all(|(w, c)| w.rows == c.rows),
            );
            warm_ms.push(warm.wall_s * 1e3);
        }
    }
    if let Some(dir) = spill {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir(SCRATCH);
    }
    if let Some(digest) = first_digest {
        println!("rows digest {digest:016x} (seed {})", args.seed);
    }
    println!("cold answers (ms): {cold_ms:.1?}");

    // --- Report. ---
    let cold = percentile(&cold_ms, 0.5);
    let warm50 = percentile(&warm_ms, 0.5);
    let warm90 = percentile(&warm_ms, 0.9);
    out.detail("wall_s", cold.value / 1e3, "s", cold.count);
    out.detail("warm_wall_s", warm50.value / 1e3, "s", warm50.count);
    out.detail("warm_p90_ms", warm90.value, "ms", warm90.count);
    if restart {
        out.detail("pack.load_ms", median(&load_s) * 1e3, "ms", load_s.len());
        out.detail("pack.spill_ms", median(&spill_s) * 1e3, "ms", spill_s.len());
        out.detail("pack.spill_mb", spill_bytes as f64 / 1e6, "MB", 1);
    }
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s", setup_s.len());
        out.metric("cold_p50_ms", cold.value, "ms", cold.count);
        out.metric("warm_p50_ms", warm50.value, "ms", warm50.count);
        return out;
    }

    // --- Per-layer ledger (traced run). ---
    let wall_ns = traced.wall_ns.max(1) as f64;
    let pct = |ns: f64| 100.0 * ns / wall_ns;
    let traced_passes = traced.walls.len();
    for (name, seconds) in STUDIES.iter().zip(&traced.study_s) {
        out.metric(
            format!("study.{name}_pct"),
            pct(seconds * 1e9),
            "%",
            traced_passes,
        );
        out.detail(
            format!("study.{name}_s"),
            seconds / traced_passes as f64,
            "s",
            traced_passes,
        );
    }
    let store_stats = traced.store.take().expect("a traced run traces an answer");
    crate::store_metrics(
        &mut out,
        &store_stats,
        traced.stage_self_ns.map(|ns| pct(ns as f64)),
        traced_passes,
    );
    let load_mb_per_s = spill_bytes as f64 / 1e6 / median(&load_s);
    let spill_mb_per_s = spill_bytes as f64 / 1e6 / median(&spill_s);
    out.metric("pack.load_mb_per_s", load_mb_per_s, "MB/s", load_s.len());
    out.metric(
        "pack.load_pct",
        pct(traced.load_ns as f64),
        "%",
        traced_passes,
    );
    out.metric("pack.spill_mb_per_s", spill_mb_per_s, "MB/s", spill_s.len());
    out.metric(
        "pack.spill_mb",
        spill_bytes as f64 / 1e6,
        "MB",
        spill_s.len(),
    );
    let instructions_per_pass = traced.instructions / traced_passes.max(1) as u64;
    out.metric(
        "engine.instructions",
        instructions_per_pass as f64,
        "count",
        traced_passes,
    );
    let minstr = traced.instructions as f64 / 1e6 / (traced.cells_ns as f64 / 1e9);
    out.metric("engine.minstr_per_s", minstr, "Minstr/s", traced_passes);
    let busy = traced.cells_ns as f64 / (wall_ns * threads as f64);
    out.metric("driver.busy_frac", busy, "frac", traced_passes);
    let overhead = 100.0 * (median(&traced.walls) / median(&untraced_walls) - 1.0);
    crate::harness_metrics(
        &mut out,
        overhead,
        traced.uncovered_ns as f64 / wall_ns,
        traced_passes,
    );
    out
}
