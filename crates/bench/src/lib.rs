//! # phase-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Sondag & Rajan, CGO 2011, Section IV). One binary,
//! `run_studies`, runs them all, or only the studies named on its command
//! line (`cargo run -p phase-bench --release --bin run_studies -- <study>`):
//!
//! | paper artifact | study |
//! |---|---|
//! | Figure 3 (space overhead) | `fig3` |
//! | Figure 4 (time overhead, size-84 workload) | `fig4` |
//! | Table 1 (switches per benchmark) | `table1` |
//! | Figure 5 (cycles per core switch) | `fig5` |
//! | Figure 6 (throughput vs. IPC threshold) | `fig6` |
//! | Figure 7 (throughput vs. clustering error) | `fig7` |
//! | Section IV-C2 (lookahead sweep) | `sweep_lookahead` |
//! | Section IV-C4 (minimum-size sweep) | `sweep_min_size` |
//! | Table 2 (fairness vs. stock Linux) | `table2` |
//! | Figure 8 (speedup vs. fairness trade-off) | `fig8` |
//! | Section III / IV-B (mark statistics) | `table_mark_stats` |
//! | Section VII (3-core AMP) | `three_core` |
//! | online vs. static tuning (`BENCH_online.json`) | `online` |
//! | tail latency under open-loop service pipelines (`BENCH_tail.json`, by name only) | `tail` |
//!
//! Each study is one entry of the typed table [`studies::STUDIES`]: a
//! declarative spec over the shared spec-driven runner of `phase-core`
//! (`run_study`), a renderer and a headline hook. The spec expands into an
//! `ExperimentPlan`, the cells fan across the parallel `Driver` through the
//! content-addressed `ArtifactStore`, and the unified [`StudyReport`] is
//! rendered to the legacy table text and written as `BENCH_<study>.json`.
//! Without names, `run_studies` executes the thirteen paper studies against
//! one shared store and records the cold-versus-warm sweep wall-clock in
//! `BENCH_study.json`.
//!
//! Two more binaries measure what is not a study:
//!
//! | measurement | binary |
//! |---|---|
//! | engine/driver/static-pipeline baseline (`BENCH_engine.json`) | `bench_engine` |
//! | tracing overhead, disabled and enabled (`BENCH_trace.json`) | `bench_trace` |
//!
//! Serving latency, the store's restart path and the paper regeneration are
//! timed end to end by the repository benchmark, `perfbench`.
//!
//! Every binary accepts the flags [`init`] lists, each mirrored by a
//! `PHASE_BENCH_*` environment variable that the flag overrides;
//! [`BenchSettings::parse`] checks both the same way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use phase_core::{Driver, ExperimentConfig, JsonValue, PipelineConfig, StudyReport};
use phase_marking::MarkingConfig;
use phase_sched::SimConfig;

pub mod studies;

/// Writes the given trace records to `path` as deterministic NDJSON (one
/// record per line, sorted by logical coordinate by the trace crate) and
/// prints the path and the record count; a failed write exits 1.
pub fn write_trace_ndjson(path: &std::path::Path, records: &[phase_trace::TraceRecord]) {
    match write_report_file(path, &phase_core::trace_export::render_ndjson(records)) {
        Ok(()) => println!("wrote {} ({} trace records)", path.display(), records.len()),
        Err(error) => {
            eprintln!("failed to write {}: {error}", path.display());
            std::process::exit(1);
        }
    }
}

/// The parsed harness settings every binary runs under. Binaries get them
/// from [`init`] or [`parse_args`] (flags over environment variables, see
/// [`BenchSettings::parse`]); tests build them directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSettings {
    /// Reduced catalogue and horizon (`--quick` / `PHASE_BENCH_QUICK`).
    pub quick: bool,
    /// Pinned performance profile (`--perf` / `PHASE_BENCH_PERF`): fixed
    /// scale, slots, seeds and samples for comparable sims/sec numbers;
    /// overrides `quick` and `slots` where the two conflict.
    pub perf: bool,
    /// Workload-size override (`--slots=N` / `PHASE_BENCH_SLOTS`); `None`
    /// uses each study's own default.
    pub slots: Option<usize>,
    /// Driver worker threads (`--threads=N` / `PHASE_BENCH_THREADS`).
    pub threads: usize,
    /// Online sampling-interval override (`--interval=N` /
    /// `PHASE_BENCH_INTERVAL`).
    pub interval_override_ns: Option<f64>,
    /// Where `BENCH_*.json` reports go (`--out=PATH` /
    /// `PHASE_BENCH_OUT_DIR`); `None` writes to the current directory.
    pub out_dir: Option<PathBuf>,
    /// Where a captured trace is dumped as NDJSON (`--trace-out=PATH` /
    /// `PHASE_BENCH_TRACE_OUT`); `None` leaves tracing off.
    pub trace_out: Option<PathBuf>,
}

impl BenchSettings {
    /// Parses the command line (`args`, without the program name) over the
    /// environment as seen through `env`. Every setting has one check, run
    /// on whichever of its flag or variable supplies it; a flag overrides
    /// its variable, and an empty variable counts as unset. `quick` and
    /// `perf` are on when their flag is given or their variable is set to
    /// anything but `0`.
    ///
    /// Returns `Ok(None)` when `--help` was asked for, and `Err` with the
    /// message to exit 2 on for an invalid value or an unrecognized argument.
    pub fn parse(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Option<Self>, String> {
        let var = |name: &str| env(name).filter(|value| !value.is_empty());
        let on = |name: &str| env(name).is_some_and(|value| value != "0");
        let (mut quick, mut perf) = (on("PHASE_BENCH_QUICK"), on("PHASE_BENCH_PERF"));
        let mut slots = var("PHASE_BENCH_SLOTS");
        let mut threads = var("PHASE_BENCH_THREADS");
        let mut interval = var("PHASE_BENCH_INTERVAL");
        let mut out_dir = var("PHASE_BENCH_OUT_DIR");
        let mut trace_out = var("PHASE_BENCH_TRACE_OUT");
        for arg in args {
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--quick" | "-q" => quick = true,
                "--perf" => perf = true,
                other => {
                    let (setting, value) = match other.split_once('=') {
                        Some(("--slots", value)) => (&mut slots, value),
                        Some(("--threads", value)) => (&mut threads, value),
                        Some(("--interval", value)) => (&mut interval, value),
                        Some(("--out", value)) => (&mut out_dir, value),
                        Some(("--trace-out", value)) => (&mut trace_out, value),
                        _ => return Err(format!("unrecognized argument: {other} (try --help)")),
                    };
                    *setting = Some(value.to_string());
                }
            }
        }
        let count = |flag: &str, raw: String| match raw.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "invalid {flag} value: {raw} (expected a positive integer)"
            )),
        };
        let path = |flag: &str, what: &str, raw: String| {
            if raw.is_empty() {
                Err(format!("invalid {flag} value: expected {what}"))
            } else {
                Ok(PathBuf::from(raw))
            }
        };
        Ok(Some(Self {
            quick,
            perf,
            slots: slots.map(|raw| count("--slots", raw)).transpose()?,
            threads: match threads {
                Some(raw) => count("--threads", raw)?,
                None => Driver::default().threads(),
            },
            interval_override_ns: interval
                .map(|raw| match raw.parse::<f64>() {
                    Ok(ns) if ns.is_finite() && ns > 0.0 => Ok(ns),
                    _ => Err(format!(
                        "invalid --interval value: {raw} (expected nanoseconds as a \
                         positive number)"
                    )),
                })
                .transpose()?,
            out_dir: out_dir
                .map(|raw| path("--out", "a directory path", raw))
                .transpose()?,
            trace_out: trace_out
                .map(|raw| path("--trace-out", "a file path", raw))
                .transpose()?,
        }))
    }

    /// Fixed settings for tests: quick mode, an explicit slot count, two
    /// driver workers, no output directory.
    pub fn for_tests(slots: usize) -> Self {
        Self {
            quick: true,
            perf: false,
            slots: Some(slots),
            threads: 2,
            interval_override_ns: None,
            out_dir: None,
            trace_out: None,
        }
    }

    /// The workload size: the override if set, otherwise the study default.
    pub fn slots_or(&self, default: usize) -> usize {
        self.slots.unwrap_or(default)
    }

    /// The settings as JSON metadata fields, shared by every report header
    /// (`write_study_report_with` and `run_studies`' `BENCH_study.json`).
    pub fn meta_json(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("quick", JsonValue::Bool(self.quick)),
            ("perf", JsonValue::Bool(self.perf)),
            (
                "slots",
                self.slots.map(JsonValue::from).unwrap_or(JsonValue::Null),
            ),
            ("threads", JsonValue::from(self.threads.max(1))),
        ]
    }

    /// Where a report file should be written.
    pub fn out_path(&self, file_name: &str) -> PathBuf {
        match &self.out_dir {
            Some(dir) => dir.join(file_name),
            None => PathBuf::from(file_name),
        }
    }
}

/// Writes a study report as `BENCH_<study>.json` (under `--out` if given),
/// wrapping the unified schema with the harness settings it ran under and
/// splicing study-specific headline fields in after them. Returns the path
/// written.
pub fn write_study_report_with(
    report: &StudyReport,
    settings: &BenchSettings,
    extra: &[(&str, JsonValue)],
) -> std::io::Result<PathBuf> {
    let mut meta = settings.meta_json();
    meta.extend(extra.iter().map(|(name, value)| (*name, value.clone())));
    let path = settings.out_path(&format!("BENCH_{}.json", report.study));
    write_report_file(&path, &report.to_json_with(&meta).render())?;
    Ok(path)
}

/// Writes a report file, creating the `--out` directory first — every binary
/// honouring the flag must behave the same when the directory is absent.
pub fn write_report_file(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

/// Prints the path a report was written to, or fails the whole run: a
/// missing `BENCH_*.json` must exit nonzero (as the legacy `.expect()` did)
/// so CI's smoke step cannot pass while uploading a partial artifact set.
pub fn announce_report(result: std::io::Result<PathBuf>, what: &str) {
    match result {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => {
            eprintln!("failed to write {what}: {error}");
            std::process::exit(1);
        }
    }
}

/// Compares a freshly produced engine report against a committed baseline
/// document at the given relative tolerance, returning one message per
/// regression (empty means the gate passes).
///
/// Rows are matched by `label`; `sims_per_sec` is the gated metric, and a
/// regression is a current value more than `tolerance` below the baseline.
/// Labels present on only one side are ignored, so adding a workload (or
/// retiring one) never fails the gate by itself — only slowing down a
/// measurement both documents share does. Faster-than-baseline rows always
/// pass; refreshing the committed baseline after a real improvement is a
/// deliberate, separate commit.
pub fn perf_regressions(current: &JsonValue, baseline: &JsonValue, tolerance: f64) -> Vec<String> {
    fn rows(doc: &JsonValue) -> Vec<(String, f64)> {
        doc.get("rows")
            .and_then(JsonValue::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some((
                            row.get("label")?.as_str()?.to_string(),
                            row.get("sims_per_sec")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
    let current = rows(current);
    rows(baseline)
        .into_iter()
        .filter_map(|(label, base)| {
            let (_, now) = current.iter().find(|(l, _)| *l == label)?;
            (base > 0.0 && *now < base * (1.0 - tolerance)).then(|| {
                format!(
                    "{label}: sims/sec {now:.3} is {:.1}% below the baseline {base:.3} \
                     (tolerance {:.0}%)",
                    (1.0 - now / base) * 100.0,
                    tolerance * 100.0
                )
            })
        })
        .collect()
}

/// The experiment configuration shared by the dynamic experiments: the
/// paper's machine, the given marking technique, and a continuously fed
/// workload measured over a fixed horizon, sized by the settings.
pub fn experiment_config_with(
    settings: &BenchSettings,
    marking: MarkingConfig,
) -> ExperimentConfig {
    let quick = settings.quick;
    ExperimentConfig {
        pipeline: PipelineConfig::with_marking(marking),
        workload_slots: settings.slots_or(18),
        jobs_per_slot: if quick { 2 } else { 6 },
        catalog_scale: if quick { 0.2 } else { 1.0 },
        threads: settings.threads.max(1),
        sim: SimConfig {
            horizon_ns: Some(if quick { 8_000_000.0 } else { 40_000_000.0 }),
            ..SimConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// The marking variants shown in the paper's Figure 3 / Figure 4 overhead
/// plots: every basic-block, interval, and loop variant of Table 2.
pub fn overhead_variants() -> Vec<MarkingConfig> {
    MarkingConfig::table2_variants()
}

/// Parses the standard command line over the environment
/// ([`BenchSettings::parse`]), then prints the standard header and returns
/// the resulting [`BenchSettings`]. Every binary accepts:
///
/// * `--help` / `-h` — print the artifact description and flags, then exit;
/// * `--quick` / `-q` — same as setting `PHASE_BENCH_QUICK=1`: shrink the
///   catalogue and simulation horizon so the run finishes in seconds;
/// * `--perf` — same as setting `PHASE_BENCH_PERF=1`: the pinned performance
///   profile (fixed scale, slots, seeds and samples) used by the sims/sec
///   perf gate; overrides `--quick` and `--slots` where they conflict;
/// * `--slots=N` — same as `PHASE_BENCH_SLOTS=N`: the workload size used by
///   the throughput/fairness experiments;
/// * `--threads=N` — same as `PHASE_BENCH_THREADS=N`: how many worker
///   threads the parallel experiment driver fans cells across (default: all
///   hardware threads);
/// * `--interval=N` — same as `PHASE_BENCH_INTERVAL=N`: the online tuner's
///   hardware-counter sampling period in nanoseconds. The online study
///   restricts its sampling-interval sweep to this single value; studies
///   without an online policy ignore it;
/// * `--out=PATH` — same as `PHASE_BENCH_OUT_DIR=PATH`: the directory
///   `BENCH_*.json` reports are written to (default: the current directory);
/// * `--trace-out=PATH` — same as `PHASE_BENCH_TRACE_OUT=PATH`: enable
///   tracing and dump the run's timeline as NDJSON. `run_studies` and
///   `bench_trace` honour it; `bench_engine` exits 2 on it.
///
/// An invalid value, from a flag or a variable, exits 2 with a message.
pub fn init(artifact: &str, description: &str) -> BenchSettings {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = parse_args(&args, || print_help(artifact, description));
    print_header(artifact, description, &settings);
    settings
}

/// Parses `args` (without the program name) over the environment: calls
/// `help` and exits 0 on `--help`, and exits 2 with a message on an invalid
/// value.
pub fn parse_args(args: &[String], help: impl FnOnce()) -> BenchSettings {
    match BenchSettings::parse(args, |name| std::env::var(name).ok()) {
        Ok(Some(settings)) => settings,
        Ok(None) => {
            help();
            std::process::exit(0);
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// Prints an artifact's `--help` text: its title, its description and the
/// standard flags.
pub fn print_help(artifact: &str, description: &str) {
    println!("{artifact}");
    println!("{description}");
    println!();
    println!(
        "USAGE: [--quick] [--perf] [--slots=N] [--threads=N] [--interval=N] \
         [--out=PATH] [--trace-out=PATH]"
    );
    println!("  --quick, -q   reduced catalogue/horizon (env: PHASE_BENCH_QUICK=1)");
    println!(
        "  --perf        pinned scale/seed perf profile for sims/sec gating \
         (env: PHASE_BENCH_PERF=1)"
    );
    println!(
        "  --slots=N     workload size (env: PHASE_BENCH_SLOTS; \
         default varies per artifact)"
    );
    println!(
        "  --threads=N   driver worker threads (env: PHASE_BENCH_THREADS; \
         default: all hardware threads)"
    );
    println!(
        "  --interval=N  online sampling period in ns (env: PHASE_BENCH_INTERVAL; \
         default: sweep the binary's built-in list)"
    );
    println!(
        "  --out=PATH    directory for BENCH_*.json reports \
         (env: PHASE_BENCH_OUT_DIR; default: current directory)"
    );
    println!(
        "  --trace-out=PATH  enable structured tracing and dump the run's \
         timeline as NDJSON (env: PHASE_BENCH_TRACE_OUT; default: off)"
    );
}

/// Prints the standard header an artifact's run opens with.
pub fn print_header(artifact: &str, description: &str, settings: &BenchSettings) {
    println!("== {artifact} ==");
    println!("{description}");
    if settings.quick {
        println!("(quick mode: reduced catalogue and horizon)");
    }
    println!("(driver: {} worker threads)", settings.threads);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` over an environment holding exactly `vars`.
    fn parse(args: &[&str], vars: &[(&str, &str)]) -> Result<Option<BenchSettings>, String> {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        BenchSettings::parse(&args, |name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| value.to_string())
        })
    }

    fn settings(args: &[&str], vars: &[(&str, &str)]) -> BenchSettings {
        parse(args, vars)
            .expect("valid settings")
            .expect("not a help request")
    }

    #[test]
    fn defaults_apply_when_nothing_is_set() {
        let defaults = settings(&[], &[]);
        assert!(!defaults.quick && !defaults.perf);
        assert_eq!(defaults.slots, None);
        assert_eq!(defaults.threads, Driver::default().threads());
        assert_eq!(defaults.interval_override_ns, None);
        assert_eq!(defaults.out_dir, None);
        assert_eq!(defaults.trace_out, None);
        assert_eq!(parse(&["--quick", "--help"], &[]), Ok(None));
    }

    #[test]
    fn variables_set_what_flags_set() {
        let vars = [
            ("PHASE_BENCH_QUICK", "1"),
            ("PHASE_BENCH_PERF", "1"),
            ("PHASE_BENCH_SLOTS", "6"),
            ("PHASE_BENCH_THREADS", "3"),
            ("PHASE_BENCH_INTERVAL", "250000"),
            ("PHASE_BENCH_OUT_DIR", "reports"),
            ("PHASE_BENCH_TRACE_OUT", "trace.ndjson"),
        ];
        let flags = [
            "--quick",
            "--perf",
            "--slots=6",
            "--threads=3",
            "--interval=250000",
            "--out=reports",
            "--trace-out=trace.ndjson",
        ];
        let from_vars = settings(&[], &vars);
        let from_flags = settings(&flags, &[]);
        for parsed in [&from_vars, &from_flags] {
            assert!(parsed.quick && parsed.perf);
            assert_eq!(parsed.slots, Some(6));
            assert_eq!(parsed.threads, 3);
            assert_eq!(parsed.interval_override_ns, Some(250_000.0));
            assert_eq!(parsed.out_dir, Some(PathBuf::from("reports")));
            assert_eq!(parsed.trace_out, Some(PathBuf::from("trace.ndjson")));
        }
        // `0` switches a boolean variable off; an empty value is unset.
        assert!(!settings(&[], &[("PHASE_BENCH_QUICK", "0")]).quick);
        assert_eq!(settings(&[], &[("PHASE_BENCH_SLOTS", "")]).slots, None);
    }

    #[test]
    fn flags_override_their_variables() {
        let vars = [("PHASE_BENCH_SLOTS", "6"), ("PHASE_BENCH_THREADS", "3")];
        let overridden = settings(&["--slots=9", "--threads=2"], &vars);
        assert_eq!((overridden.slots, overridden.threads), (Some(9), 2));
        // The last occurrence of a flag wins.
        assert_eq!(settings(&["--slots=2", "--slots=5"], &vars).slots, Some(5));
        // A flag overrides a malformed variable without checking it.
        assert_eq!(
            settings(&["--slots=4"], &[("PHASE_BENCH_SLOTS", "1o")]).slots,
            Some(4)
        );
    }

    #[test]
    fn invalid_variables_fail_with_the_flag_message() {
        for (flag, var, raw) in [
            ("--slots", "PHASE_BENCH_SLOTS", "0"),
            ("--slots", "PHASE_BENCH_SLOTS", "1o"),
            ("--threads", "PHASE_BENCH_THREADS", "0"),
            ("--interval", "PHASE_BENCH_INTERVAL", "abc"),
            ("--interval", "PHASE_BENCH_INTERVAL", "-5"),
        ] {
            let from_flag = parse(&[&format!("{flag}={raw}")], &[]);
            let from_var = parse(&[], &[(var, raw)]);
            assert!(from_flag.is_err(), "{flag}={raw} must be rejected");
            assert_eq!(from_var, from_flag, "{var}={raw}");
        }
        assert_eq!(
            parse(&[], &[("PHASE_BENCH_SLOTS", "0")]),
            Err("invalid --slots value: 0 (expected a positive integer)".into())
        );
        assert_eq!(
            parse(&[], &[("PHASE_BENCH_INTERVAL", "abc")]),
            Err("invalid --interval value: abc (expected nanoseconds as a positive number)".into())
        );
        assert_eq!(
            parse(&["--out="], &[]),
            Err("invalid --out value: expected a directory path".into())
        );
        assert_eq!(
            parse(&["--slots"], &[]),
            Err("unrecognized argument: --slots (try --help)".into())
        );
    }

    #[test]
    fn experiment_config_uses_requested_marking() {
        let config =
            experiment_config_with(&BenchSettings::for_tests(4), MarkingConfig::interval(45));
        assert_eq!(config.pipeline.marking, MarkingConfig::interval(45));
        assert_eq!(config.workload_slots, 4);
        assert!(config.sim.horizon_ns.is_some());
        assert_eq!(config.threads, 2);
    }

    #[test]
    fn overhead_variants_match_table2() {
        assert_eq!(overhead_variants().len(), 18);
    }

    #[test]
    fn perf_regressions_gate_on_sims_per_sec_by_label() {
        let doc = |fig4: f64, bursty: f64| {
            phase_core::json::parse(&format!(
                r#"{{"rows": [
                    {{"label": "fig4/event", "sims_per_sec": {fig4}}},
                    {{"label": "bursty/event", "sims_per_sec": {bursty}}}
                ]}}"#
            ))
            .expect("valid test document")
        };
        // Equal, faster, and within-tolerance rows all pass.
        assert!(perf_regressions(&doc(10.0, 5.0), &doc(10.0, 5.0), 0.20).is_empty());
        assert!(perf_regressions(&doc(12.0, 4.1), &doc(10.0, 5.0), 0.20).is_empty());
        // A row more than 20% below the baseline fails, naming the label.
        let regressions = perf_regressions(&doc(7.0, 5.0), &doc(10.0, 5.0), 0.20);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("fig4/event"), "{regressions:?}");
        // Labels on only one side never fail the gate.
        let extra =
            phase_core::json::parse(r#"{"rows": [{"label": "new/event", "sims_per_sec": 1.0}]}"#)
                .unwrap();
        assert!(perf_regressions(&extra, &doc(10.0, 5.0), 0.20).is_empty());
        assert!(perf_regressions(&doc(10.0, 5.0), &extra, 0.20).is_empty());
        // A `layer/*` row the committed baseline predates is never gated,
        // however slow it runs.
        let with_layer = phase_core::json::parse(
            r#"{"rows": [
                {"label": "fig4/event", "sims_per_sec": 10.0},
                {"label": "bursty/event", "sims_per_sec": 5.0},
                {"label": "layer/block-typing-kmeans", "wall_s": 1e6, "sims_per_sec": 1e-6}
            ]}"#,
        )
        .unwrap();
        assert!(perf_regressions(&with_layer, &doc(10.0, 5.0), 0.20).is_empty());
    }
}
