//! Tracing-overhead gate (`BENCH_trace.json`): the same fixed comparison
//! workload measured three ways —
//!
//! * **untraced** — tracing flag off, no context installed: the permanent
//!   cost of the probe sites compiled into the hot paths;
//! * **disabled** — flag still off, but a trace context is installed the way
//!   a serving request would: every probe site must cost one relaxed atomic
//!   load and nothing else;
//! * **enabled** — flag on, context installed: full recording into the
//!   per-thread rings.
//!
//! The gate fails (exit 1) when disabled-mode overhead exceeds 1% or
//! enabled-mode overhead exceeds 10% of untraced throughput. With
//! `--trace-out=PATH` the enabled run's records are dumped as NDJSON.

use std::time::Instant;

use phase_core::{run_comparison, JsonValue};
use phase_marking::MarkingConfig;
use phase_trace as trace;

const DISABLED_GATE_PCT: f64 = 1.0;
const ENABLED_GATE_PCT: f64 = 10.0;

/// Wall seconds for one full comparison run (fresh state per call, so every
/// repeat simulates instead of hitting a cache).
fn measure_once(settings: &phase_bench::BenchSettings) -> f64 {
    let config = phase_bench::experiment_config_with(settings, MarkingConfig::loop_level(45));
    let start = Instant::now();
    let result = run_comparison(&config);
    let wall_s = start.elapsed().as_secs_f64();
    assert!(result.tuned.total_instructions > 0, "the workload ran");
    wall_s
}

/// One interleaved measurement round: one repeat of every mode, with the
/// starting mode rotated by round index — periodic external load with a
/// period near the round length would otherwise keep hitting the same
/// position in every round and masquerade as a consistent per-mode bias.
fn run_round(
    round: u64,
    settings: &phase_bench::BenchSettings,
    trace_id: u64,
    untraced: &mut Vec<f64>,
    disabled: &mut Vec<f64>,
    enabled: &mut Vec<f64>,
) {
    for slot in 0..3 {
        match (round + slot) % 3 {
            0 => untraced.push(measure_once(settings)),
            1 => {
                // install() is inert while the flag is off — this measures
                // exactly the serving path's per-probe cost when tracing is
                // compiled in.
                let _ctx = trace::install(trace::new_trace_id(), trace::Lane::Bench, 0);
                disabled.push(measure_once(settings));
            }
            _ => {
                trace::set_enabled(true);
                let _ctx = trace::install(trace_id, trace::Lane::Bench, 0);
                enabled.push(measure_once(settings));
                trace::set_enabled(false);
            }
        }
    }
}

fn main() {
    let settings = phase_bench::init(
        "Tracing-overhead gate (BENCH_trace.json)",
        "Measures the comparison workload untraced, with tracing compiled in but\n\
         disabled, and with tracing enabled; gates disabled overhead <1% and\n\
         enabled overhead <10%, and dumps the enabled run's NDJSON with --trace-out.",
    );
    // Overhead is estimated two ways and the gate takes the smaller:
    //
    // * **ratio of floors** (best-of-N): external noise only ever adds
    //   time, so each mode's minimum converges to its true cost — but one
    //   ultra-quiet window caught by the baseline alone inflates it;
    // * **median of per-round ratios**: the runs of one round are adjacent
    //   in time, so sustained load cancels inside each ratio — but a noise
    //   pattern covering most rounds inflates it.
    //
    // The two false-failure modes are complementary, while a *real*
    // regression raises both estimates. A fixed round count can still get
    // unlucky on a busy box, so the gate is also adaptive — after the base
    // rounds it keeps adding rounds (up to `max_rounds`) only while an
    // overhead is above its threshold. That retries noise away without
    // loosening the gate.
    let base_rounds: u64 = if settings.quick { 5 } else { 11 };
    let max_rounds = base_rounds * 4;

    // One warm-up run absorbs first-touch costs before anything is timed.
    trace::set_ring_capacity(1 << 17);
    let trace_id = trace::new_trace_id();
    trace::set_enabled(false);
    measure_once(&settings);
    let (mut untraced, mut disabled, mut enabled) = (Vec::new(), Vec::new(), Vec::new());
    let best = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead = |mode: &[f64], baseline: &[f64]| {
        let floors = best(mode) / best(baseline).max(1e-12);
        let mut ratios: Vec<f64> = mode
            .iter()
            .zip(baseline)
            .map(|(m, b)| m / b.max(1e-12))
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        ((floors.min(median) - 1.0) * 100.0).max(0.0)
    };
    let mut rounds = 0;
    while rounds < base_rounds
        || (rounds < max_rounds
            && (overhead(&disabled, &untraced) >= DISABLED_GATE_PCT
                || overhead(&enabled, &untraced) >= ENABLED_GATE_PCT))
    {
        run_round(
            rounds,
            &settings,
            trace_id,
            &mut untraced,
            &mut disabled,
            &mut enabled,
        );
        rounds += 1;
    }
    let (untraced_s, disabled_s, enabled_s) = (best(&untraced), best(&disabled), best(&enabled));
    let records = trace::take(trace_id);
    let dropped = trace::dropped();
    assert!(
        !records.is_empty(),
        "the enabled run must actually record events"
    );

    let disabled_pct = overhead(&disabled, &untraced);
    let enabled_pct = overhead(&enabled, &untraced);
    let runs_per_sec = |wall_s: f64| 1.0 / wall_s.max(1e-12);
    println!(
        "untraced {:>9.4}ms   disabled {:>9.4}ms (+{disabled_pct:.2}%)   \
         enabled {:>9.4}ms (+{enabled_pct:.2}%)   {} records, {rounds} rounds",
        untraced_s * 1e3,
        disabled_s * 1e3,
        enabled_s * 1e3,
        records.len()
    );
    if dropped > 0 {
        println!("ring overflow dropped {dropped} records (oldest-first)");
    }

    if let Some(path) = &settings.trace_out {
        phase_bench::write_trace_ndjson(path, &records);
    }

    let disabled_ok = disabled_pct < DISABLED_GATE_PCT;
    let enabled_ok = enabled_pct < ENABLED_GATE_PCT;
    let mode_row = |label: &str, wall_s: f64, pct: Option<f64>| {
        let mut row = JsonValue::object()
            .field("label", label)
            .field("wall_s", wall_s)
            .field("runs_per_sec", runs_per_sec(wall_s));
        if let Some(pct) = pct {
            row = row.field("overhead_pct", pct);
        }
        row
    };
    let mut doc = JsonValue::object();
    for (name, value) in settings.meta_json() {
        doc = doc.field(name, value);
    }
    let doc = doc
        .field("rounds", rounds)
        .field(
            "rows",
            vec![
                mode_row("untraced", untraced_s, None),
                mode_row("disabled", disabled_s, Some(disabled_pct)),
                mode_row("enabled", enabled_s, Some(enabled_pct)),
            ],
        )
        .field("trace_records", records.len() as u64)
        .field("dropped_records", dropped)
        .field("disabled_gate_pct", DISABLED_GATE_PCT)
        .field("enabled_gate_pct", ENABLED_GATE_PCT)
        .field("disabled_gate_ok", disabled_ok)
        .field("enabled_gate_ok", enabled_ok);
    let path = settings.out_path("BENCH_trace.json");
    let written = phase_bench::write_report_file(&path, &doc.render()).map(|()| path);
    phase_bench::announce_report(written, "BENCH_trace.json");

    if !disabled_ok {
        eprintln!(
            "TRACE GATE FAILED: disabled-tracing overhead {disabled_pct:.2}% \
             exceeds {DISABLED_GATE_PCT}%"
        );
        std::process::exit(1);
    }
    if !enabled_ok {
        eprintln!(
            "TRACE GATE FAILED: enabled-tracing overhead {enabled_pct:.2}% \
             exceeds {ENABLED_GATE_PCT}%"
        );
        std::process::exit(1);
    }
    println!(
        "trace gate passed: disabled +{disabled_pct:.2}% (<{DISABLED_GATE_PCT}%), \
         enabled +{enabled_pct:.2}% (<{ENABLED_GATE_PCT}%)"
    );
}
