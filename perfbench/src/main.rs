//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-cold|paper-restart|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public entry points —
//! `phase_core::run_study` over `phase_bench::studies::all`, the
//! `ArtifactStore` spill/load/snapshot calls, and `phase_serve::serve_tcp_with`
//! over TCP — timing each call from outside and checking every output. The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) enables `phase_trace` and reports the per-layer ledger. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See `perfbench/README.md` for every workload and metric name.

mod ledger;
mod paper;
mod report;
mod serve;
mod stats;

use phase_core::StoreStats;

use report::{Metric, Outcome};

/// The seed at which the paper workloads keep the paper's own seeds.
pub const DEFAULT_SEED: u64 = 42;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured part runs, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Hardware threads: driver workers, server pools and load lanes.
    pub threads: usize,
}

const USAGE: &str = "usage: perfbench --workload <paper-cold|paper-restart|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-cold", "paper-restart", "serve-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

/// The end-to-end metrics, every workload: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
];

/// The per-layer metrics after the per-study and per-stage ones: (name,
/// unit).
const LAYERS: [(&str, &str); 22] = [
    ("hit.parse_pct", "%"),
    ("hit.queue_wait_pct", "%"),
    ("hit.execute_pct", "%"),
    ("hit.serialize_pct", "%"),
    ("miss.execute_pct", "%"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.queue_hiwater", "count"),
    ("store.hit_ratio", "frac"),
    ("store.resident_mb", "MB"),
    ("pack.load_mb_per_s", "MB/s"),
    ("pack.load_pct", "%"),
    ("pack.spill_mb_per_s", "MB/s"),
    ("pack.spill_mb", "MB"),
    ("engine.instructions", "count"),
    ("engine.minstr_per_s", "Minstr/s"),
    ("driver.busy_frac", "frac"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    ("unattributed_frac", "frac"),
    ("failed_frac", "frac"),
    ("loadgen.late_frac", "frac"),
];

/// Every per-layer metric, every workload: (name, unit). A layer a workload
/// does not exercise reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let studies = paper::STUDIES
        .iter()
        .map(|study| (format!("study.{study}_pct"), "%"));
    let stages = paper::STAGES.iter().flat_map(|stage| {
        [
            (format!("store.{stage}.misses"), "count"),
            (format!("store.{stage}.hits"), "count"),
            (format!("store.{stage}.self_pct"), "%"),
        ]
    });
    let layers = LAYERS.iter().map(|(name, unit)| (name.to_string(), *unit));
    studies.chain(stages).chain(layers).collect()
}

/// Adds the store's per-stage counters and the stages' self-time shares.
pub fn store_metrics(out: &mut Outcome, stats: &StoreStats, self_pct: [f64; 8], n: usize) {
    for (stage, pct) in paper::STAGES.iter().zip(self_pct) {
        let counters = stats.stage(stage).unwrap_or_default();
        out.metric(
            format!("store.{stage}.misses"),
            counters.misses as f64,
            "count",
            n,
        );
        out.metric(
            format!("store.{stage}.hits"),
            counters.hits as f64,
            "count",
            n,
        );
        out.metric(format!("store.{stage}.self_pct"), pct, "%", n);
    }
    let (hits, misses) = (stats.total_hits() as f64, stats.total_misses() as f64);
    out.metric(
        "store.hit_ratio",
        hits / (hits + misses).max(1.0),
        "frac",
        n,
    );
    out.metric(
        "store.resident_mb",
        stats.resident_bytes() as f64 / 1e6,
        "MB",
        n,
    );
}

/// Adds the traced run's validity checks.
pub fn harness_metrics(out: &mut Outcome, overhead_pct: f64, unattributed: f64, n: usize) {
    out.metric("trace.overhead_pct", overhead_pct, "%", n);
    out.metric("trace.dropped", phase_trace::dropped() as f64, "count", 1);
    out.metric("unattributed_frac", unattributed, "frac", n);
}

/// The process's peak resident set (VmHWM), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Orders `out.metrics` as `names` lists them; a name the workload did not
/// measure reads 0 (its layer did no work there).
fn conform(out: &mut Outcome, names: &[(String, &'static str)]) {
    let measured = std::mem::take(&mut out.metrics);
    out.metrics = names
        .iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|metric| &metric.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name.clone(), 0.0, unit, 0))
        })
        .collect();
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace {
        // Rings large enough that no record of a traced answer is dropped.
        phase_trace::set_ring_capacity(1 << 24);
    }
    let mut out = match args.workload.as_str() {
        "paper-cold" => paper::run(&args, false),
        "paper-restart" => paper::run(&args, true),
        _ => serve::run(&args),
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.metric("failed_frac", failed_frac, "frac", out.attempted as usize);
        conform(&mut out, &per_layer());
    } else {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        conform(&mut out, &names);
    }
    println!("hardware threads: {}", args.threads);
    out.print(&args.workload);
}
