//! Open-loop load benchmark for the TCP tuning service
//! (`BENCH_load.json`): deterministic arrival traces (Poisson, bursty,
//! diurnal) replayed against a live `serve_tcp_with` listener on localhost,
//! recording per-request latency percentiles (p50/p99/p999 from the
//! fixed-bucket log-scale histogram) and sustained RPS per
//! (trace × executor-workers × queue-depth) row.
//!
//! The replay is *open-loop*: request send times come from the trace alone,
//! never from response arrival, so a slow server accumulates queueing delay
//! in the measured latency instead of silently throttling the offered load.
//! Each trace mixes repeated (cache-hot), distinct, and malformed request
//! lines. A second section storms one cold request from many concurrent
//! clients against a deliberately cache-less service (1-byte store budget)
//! with single-flight coalescing on and off, proving the coalesced path
//! multiplies throughput without changing a byte of any response.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use phase_core::{JsonValue, MetricValue, StudyReport, StudyRow};
use phase_metrics::LogHistogram;
use phase_serve::{serve_tcp_with, ServiceConfig, TuningService, WireConfig};
use phase_workload::TraceShape;

// --- The request mix -----------------------------------------------------

const DISTINCT_SPECS: usize = 8;
const MALFORMED: &str = "{\"id\": \"bad\", \"kind\": \"dance\"}";

fn distinct_line(slot: usize, scale: f64) -> String {
    format!(
        "{{\"id\": \"d{slot}\", \"kind\": \"marks\", \
         \"catalog\": {{\"scale\": {scale}, \"seed\": {slot}}}}}"
    )
}

fn hot_line(scale: f64) -> String {
    format!(
        "{{\"id\": \"hot\", \"kind\": \"marks\", \
         \"catalog\": {{\"scale\": {scale}, \"seed\": 100}}}}"
    )
}

/// The mix: 10% malformed (structured-error path), 10% one hot repeated
/// spec, 80% cycling through a small distinct set — all pre-warmed, so the
/// matrix measures serving overhead, not simulation time.
fn line_for(index: usize, scale: f64) -> String {
    match index % 10 {
        9 => MALFORMED.to_string(),
        4 => hot_line(scale),
        _ => distinct_line(index % DISTINCT_SPECS, scale),
    }
}

// --- Open-loop replay ----------------------------------------------------

struct ReplayOutcome {
    histogram: LogHistogram,
    responses: u64,
    errors: u64,
    /// Offset of the last completion from the replay epoch, seconds.
    last_completion_s: f64,
}

/// Replays timestamped request lines over `connections` pipelined TCP
/// connections (round-robin assignment; per-connection send order preserved,
/// which matches the server's per-connection response order).
fn replay(
    addr: std::net::SocketAddr,
    events: &[(f64, String)],
    connections: usize,
) -> ReplayOutcome {
    let mut per_connection: Vec<Vec<(f64, String)>> = vec![Vec::new(); connections];
    for (index, event) in events.iter().enumerate() {
        per_connection[index % connections].push(event.clone());
    }
    // The epoch is a short grace period ahead so every sender thread is
    // parked on its first deadline before the clock starts.
    let epoch = Instant::now() + Duration::from_millis(100);
    let readers: Vec<_> = per_connection
        .into_iter()
        .map(|batch| {
            let stream = TcpStream::connect(addr).expect("connect to the service");
            stream.set_nodelay(true).expect("set nodelay");
            let read_half = stream.try_clone().expect("split the stream");
            let schedule: Vec<f64> = batch.iter().map(|(at, _)| *at).collect();
            let writer = std::thread::spawn(move || {
                let mut stream = stream;
                for (at, line) in &batch {
                    let target = epoch + Duration::from_secs_f64(*at);
                    let wait = target.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    stream
                        .write_all(format!("{line}\n").as_bytes())
                        .expect("send the request");
                }
                let _ = stream.shutdown(std::net::Shutdown::Write);
            });
            let reader = std::thread::spawn(move || {
                let mut reader = BufReader::new(read_half);
                let mut samples = Vec::with_capacity(schedule.len());
                let mut line = String::new();
                for at in schedule {
                    line.clear();
                    let n = reader.read_line(&mut line).expect("read the response");
                    assert!(n > 0, "the server closed the connection early");
                    let done_s = epoch.elapsed().as_secs_f64();
                    // Latency is measured from the *scheduled* arrival: a
                    // sender running behind still charges the backlog here.
                    let latency_s = (done_s - at).max(0.0);
                    let is_error = line.contains("\"status\": \"error\"");
                    samples.push((latency_s, done_s, is_error));
                }
                samples
            });
            (writer, reader)
        })
        .collect();

    let mut outcome = ReplayOutcome {
        histogram: LogHistogram::new(),
        responses: 0,
        errors: 0,
        last_completion_s: 0.0,
    };
    for (writer, reader) in readers {
        writer.join().expect("sender thread");
        for (latency_s, done_s, is_error) in reader.join().expect("reader thread") {
            outcome.histogram.record((latency_s * 1e9) as u64);
            outcome.responses += 1;
            outcome.errors += u64::from(is_error);
            outcome.last_completion_s = outcome.last_completion_s.max(done_s);
        }
    }
    outcome
}

// --- The matrix ----------------------------------------------------------

struct MatrixParams {
    rate_hz: f64,
    duration_s: f64,
    scale: f64,
    connections: usize,
    workers: Vec<usize>,
    depths: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn run_row(
    trace: TraceShape,
    workers: usize,
    depth: usize,
    params: &MatrixParams,
    seed: u64,
    quick: bool,
) -> (StudyRow, phase_core::StoreStats) {
    let service = Arc::new(
        TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
    );
    // Pre-warm every spec in the mix: matrix rows measure the serving path
    // (parse, coalesce, queue, cache lookup), not cold simulation.
    for slot in 0..DISTINCT_SPECS {
        assert!(!service
            .respond(&distinct_line(slot, params.scale))
            .is_error());
    }
    assert!(!service.respond(&hot_line(params.scale)).is_error());

    let events: Vec<(f64, String)> = trace
        .arrivals(params.rate_hz, params.duration_s, seed)
        .into_iter()
        .enumerate()
        .map(|(index, at)| (at, line_for(index, params.scale)))
        .collect();
    assert!(!events.is_empty(), "the trace generated no arrivals");
    let expected_errors = events.iter().filter(|(_, line)| line == MALFORMED).count() as u64;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = WireConfig {
        connection_workers: params.connections + 1,
        executor_workers: workers,
        queue_depth: depth,
        ..WireConfig::default()
    };
    let server = {
        let service = Arc::clone(&service);
        let connections = params.connections;
        std::thread::spawn(move || serve_tcp_with(&service, listener, Some(connections), config))
    };
    let outcome = replay(addr, &events, params.connections);
    let summary = server
        .join()
        .expect("server thread")
        .expect("serving succeeded");

    assert_eq!(
        outcome.responses,
        events.len() as u64,
        "every request answered"
    );
    assert_eq!(summary.responses, events.len() as u64);
    let stats = service.stats();
    if quick {
        // The smoke profile must complete shed-free: a warm service at this
        // offered load has no excuse to drop anything.
        assert_eq!(stats.serving.shed, 0, "quick run shed requests");
        assert_eq!(
            outcome.errors, expected_errors,
            "only malformed lines errored"
        );
    }

    let (p50_ns, p99_ns, p999_ns) = outcome.histogram.p50_p99_p999();
    let rps = outcome.responses as f64 / outcome.last_completion_s.max(1e-9);
    let label = format!("{}/w{workers}/q{depth}", trace.name());
    println!(
        "{label:>18}  {:>5} req  {rps:>8.1} rps  p50 {:>9.3}ms  p99 {:>9.3}ms  \
         p999 {:>9.3}ms  shed {}",
        outcome.responses,
        p50_ns as f64 / 1e6,
        p99_ns as f64 / 1e6,
        p999_ns as f64 / 1e6,
        stats.serving.shed,
    );
    let row = StudyRow::new(label)
        .metric("trace", MetricValue::Text(trace.name().to_string()))
        .metric("executor_workers", MetricValue::UInt(workers as u64))
        .metric("queue_depth", MetricValue::UInt(depth as u64))
        .metric("requests", MetricValue::UInt(outcome.responses))
        .metric("rps", MetricValue::Float(rps))
        .metric("p50_ns", MetricValue::UInt(p50_ns))
        .metric("p99_ns", MetricValue::UInt(p99_ns))
        .metric("p999_ns", MetricValue::UInt(p999_ns))
        .metric("max_ns", MetricValue::UInt(outcome.histogram.max()))
        .metric("cdf", MetricValue::Cdf(outcome.histogram.cdf()))
        .metric("errors", MetricValue::UInt(outcome.errors))
        .metric("shed", MetricValue::UInt(stats.serving.shed))
        .metric("coalesced", MetricValue::UInt(stats.serving.coalesced))
        .metric(
            "queue_hiwater",
            MetricValue::UInt(stats.serving.queue_hiwater),
        );
    (row, stats.store)
}

// --- The coalescing storm ------------------------------------------------

const STORM_CLIENTS: usize = 16;

fn storm_line(scale: f64) -> String {
    format!(
        "{{\"id\": \"storm\", \"kind\": \"isolation\", \
         \"catalog\": {{\"scale\": {scale}, \"seed\": 11}}}}"
    )
}

/// Storms one identical cold request from [`STORM_CLIENTS`] concurrent
/// connections against a cache-less service (1-byte budget: nothing is ever
/// admitted to the store, so the uncoalesced path recomputes every time).
/// Returns the wall-clock and every response's bytes.
fn run_storm(line: &str, coalesce: bool) -> (f64, Vec<String>) {
    let service = Arc::new(
        TuningService::new(ServiceConfig {
            threads: 1,
            budget_bytes: Some(1),
            coalesce,
            ..ServiceConfig::default()
        })
        .expect("cold start cannot fail"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = WireConfig {
        connection_workers: STORM_CLIENTS + 2,
        executor_workers: 2,
        queue_depth: STORM_CLIENTS * 4,
        ..WireConfig::default()
    };
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp_with(&service, listener, Some(STORM_CLIENTS), config))
    };
    let barrier = Arc::new(Barrier::new(STORM_CLIENTS + 1));
    let clients: Vec<_> = (0..STORM_CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let line = line.to_string();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect to the service");
                stream.set_nodelay(true).expect("set nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("split the stream"));
                barrier.wait();
                stream
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("send the request");
                let mut response = String::new();
                reader.read_line(&mut response).expect("read the response");
                let _ = stream.shutdown(std::net::Shutdown::Write);
                response.trim_end().to_string()
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let responses: Vec<String> = clients
        .into_iter()
        .map(|client| client.join().expect("storm client"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    server
        .join()
        .expect("server thread")
        .expect("serving succeeded");
    (wall_s, responses)
}

// --- The traced-request smoke --------------------------------------------

/// Replays one request through a live listener with tracing on, fetches its
/// timeline via the `trace` wire request, and asserts the schema: found,
/// non-empty, every record carrying the full logical coordinate. Returns the
/// event count. Runs after the latency matrix so tracing never perturbs it.
fn run_trace_smoke(scale: f64) -> usize {
    phase_trace::set_enabled(true);
    let service = Arc::new(
        TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            serve_tcp_with(&service, listener, Some(1), WireConfig::default())
        })
    };
    let mut stream = TcpStream::connect(addr).expect("connect to the service");
    stream.set_nodelay(true).expect("set nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("split the stream"));
    let mut roundtrip = |line: String| -> JsonValue {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send the request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read the response");
        phase_core::json::parse(response.trim_end()).expect("the response line parses")
    };
    let study = roundtrip(format!(
        "{{\"id\": \"traced\", \"kind\": \"marks\", \
         \"catalog\": {{\"scale\": {scale}, \"seed\": 5}}}}"
    ));
    assert_eq!(
        study.get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "the traced request succeeded"
    );
    let timeline =
        roundtrip("{\"id\": \"tl\", \"kind\": \"trace\", \"target\": \"traced\"}".into());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    server
        .join()
        .expect("server thread")
        .expect("serving succeeded");
    phase_trace::set_enabled(false);

    assert_eq!(
        timeline.get("found"),
        Some(&JsonValue::Bool(true)),
        "the timeline for the finished request is retrievable"
    );
    let events = timeline
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "the timeline carries records");
    for event in events {
        for field in [
            "trace", "lane", "scope", "seq", "kind", "domain", "name", "t_ns", "value",
        ] {
            assert!(
                event.get(field).is_some(),
                "trace record missing '{field}': {}",
                event.render_compact()
            );
        }
    }
    println!(
        "      trace smoke  timeline found with {} schema-valid records",
        events.len()
    );
    events.len()
}

/// Captures one traced request end to end on this thread (Bench lane) and
/// dumps the records as NDJSON to `path` — the `--trace-out` contract.
fn dump_trace(path: &std::path::Path, scale: f64) {
    phase_trace::set_enabled(true);
    let service =
        TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail");
    let trace_id = phase_trace::new_trace_id();
    {
        let _ctx = phase_trace::install(trace_id, phase_trace::Lane::Bench, 0);
        let response = service.respond(&format!(
            "{{\"id\": \"dump\", \"kind\": \"marks\", \
             \"catalog\": {{\"scale\": {scale}, \"seed\": 6}}}}"
        ));
        assert!(!response.is_error(), "the dumped request succeeded");
    }
    phase_trace::set_enabled(false);
    phase_bench::write_trace_ndjson(path, &phase_trace::take(trace_id));
}

// --- main ----------------------------------------------------------------

fn main() {
    let settings = phase_bench::init(
        "Open-loop serving load benchmark (BENCH_load.json)",
        "Replays deterministic Poisson/bursty/diurnal arrival traces against a live\n\
         serve_tcp listener and records p50/p99/p999 latency and sustained RPS per\n\
         (trace x workers x queue-depth) row, plus an identical-request storm\n\
         measuring the single-flight coalescing speedup.",
    );
    let quick = settings.quick;
    let started = Instant::now();
    let params = MatrixParams {
        rate_hz: if quick { 150.0 } else { 400.0 },
        duration_s: if quick { 1.0 } else { 2.5 },
        scale: 0.05,
        connections: 6,
        workers: vec![1, 2],
        depths: if quick { vec![64] } else { vec![16, 64] },
    };

    // --- The trace matrix. ---
    let mut rows = Vec::new();
    let mut store = None;
    for trace in TraceShape::all() {
        for &workers in &params.workers {
            for &depth in &params.depths {
                let seed = 0xC60_2011 ^ (workers as u64) << 8 ^ depth as u64;
                let (row, row_store) = run_row(trace, workers, depth, &params, seed, quick);
                rows.push(row);
                store = Some(row_store);
            }
        }
    }

    // --- The coalescing storm. ---
    // Slow enough cold (~hundreds of ms) that all storm clients join the
    // leader's flight well before it completes.
    let line = storm_line(if quick { 2.0 } else { 4.0 });
    let replay_bytes = TuningService::new(ServiceConfig::with_threads(1))
        .expect("cold start cannot fail")
        .respond(&line)
        .to_json()
        .render_compact();
    let mut storm_rps = [0.0f64; 2];
    for (index, coalesce) in [true, false].into_iter().enumerate() {
        let (wall_s, responses) = run_storm(&line, coalesce);
        for response in &responses {
            assert_eq!(
                response, &replay_bytes,
                "a storm response (coalesce={coalesce}) diverged from the serial replay"
            );
        }
        let rps = STORM_CLIENTS as f64 / wall_s.max(1e-9);
        storm_rps[index] = rps;
        let label = if coalesce {
            "storm/coalesced"
        } else {
            "storm/uncoalesced"
        };
        println!("{label:>18}  {STORM_CLIENTS:>5} req  {rps:>8.1} rps  wall {wall_s:.3}s");
        rows.push(
            StudyRow::new(label)
                .metric("coalesce", MetricValue::Text(coalesce.to_string()))
                .metric("requests", MetricValue::UInt(STORM_CLIENTS as u64))
                .metric("rps", MetricValue::Float(rps))
                .metric("wall_s", MetricValue::Float(wall_s)),
        );
    }
    let speedup = storm_rps[0] / storm_rps[1].max(1e-9);
    println!("coalescing speedup: {speedup:.1}x (byte-identical responses in both modes)");
    assert!(
        speedup >= 5.0,
        "coalescing must multiply identical-request throughput at least 5x, got {speedup:.1}x"
    );

    // --- The traced-request smoke (after the matrix: tracing never
    // perturbs the latency measurements above). ---
    let trace_events = run_trace_smoke(params.scale);
    if let Some(path) = &settings.trace_out {
        dump_trace(path, params.scale);
    }

    // --- BENCH_load.json. ---
    let report = StudyReport {
        study: "load".to_string(),
        title: "Open-loop serving latency: Poisson/bursty/diurnal traces over serve_tcp"
            .to_string(),
        rows,
        store: store.expect("the matrix ran at least one row"),
        elapsed_s: started.elapsed().as_secs_f64(),
    };
    let written = phase_bench::write_study_report_with(
        &report,
        &settings,
        &[
            ("rate_hz", JsonValue::from(params.rate_hz)),
            ("duration_s", JsonValue::from(params.duration_s)),
            ("connections", JsonValue::from(params.connections as u64)),
            ("storm_clients", JsonValue::from(STORM_CLIENTS as u64)),
            ("coalesce_speedup", JsonValue::from(speedup)),
            ("trace_smoke_events", JsonValue::from(trace_events as u64)),
        ],
    );
    phase_bench::announce_report(written, "BENCH_load.json");
}
