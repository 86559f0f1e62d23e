//! The `serve-mix` workload: one in-process `serve_tcp_with` listener, pools
//! sized to the hardware threads, driven open-loop over TCP.
//!
//! Two load lanes, each one thread on one connection, send on seeded
//! Poisson schedules (`TraceShape::arrivals`) and charge every reply from
//! its *scheduled* send time:
//!
//! * the hit lane sends `marks`, `isolation` and `comparison` lines the
//!   set-up pre-warmed, plus ~1.5% malformed lines;
//! * the miss lane sends `comparison` lines, each with a fresh
//!   `workload_seed` — a fresh catalogue, the full pipeline and new cells.
//!
//! Hits and misses share one executor pool. Every reply is checked
//! byte-for-byte against `TuningService::respond` on the same line, run
//! afterwards on a separate reference service.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phase_core::{pack, ContentHash, StoreStats};
use phase_serve::{serve_tcp_with, ServiceConfig, TuningService, WireConfig, WireSummary};
use phase_trace::TraceRecord;
use phase_workload::{SplitMix64, TraceShape};

use crate::ledger;
use crate::paper::STAGES;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::Args;

/// Offered rate of the hit lane (hits and malformed lines), per second.
pub const HIT_RATE_HZ: f64 = 150.0;
/// Offered rate of the miss lane, per second. A run sends exactly
/// `MISS_RATE_HZ × seconds` misses (the first arrivals of the Poisson
/// schedule), so every run computes, and keeps, the same amount.
pub const MISS_RATE_HZ: f64 = 3.5;

/// Share of hit-lane arrivals that are malformed lines.
const MALFORMED_SHARE: f64 = 0.015;
/// A hit answered later than this (from its scheduled send) failed.
const HIT_LIMIT_S: f64 = 0.25;
/// A miss answered later than this failed.
const MISS_LIMIT_S: f64 = 2.0;
/// A send more than this behind its schedule counts as late.
const LATE_SEND_MS: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The pre-warmed lines, as `(kind, extra fields)`.
const HIT_SPECS: [(&str, &str); 8] = [
    ("marks", r#""catalog": {"seed": 1}"#),
    ("marks", r#""catalog": {"seed": 2}"#),
    ("marks", r#""catalog": {"seed": 3}"#),
    ("isolation", r#""catalog": {"seed": 1}"#),
    ("isolation", r#""catalog": {"seed": 2}"#),
    ("comparison", r#""workload_seed": 1"#),
    ("comparison", r#""workload_seed": 2"#),
    ("comparison", r#""workload_seed": 3"#),
];

/// Malformed lines: bad JSON, an unknown kind, an unknown field, a bad
/// value. `{id}` is replaced by the request id.
const MALFORMED: [&str; 4] = [
    r#"{"id": "{id}", "kind": "#,
    r#"{"id": "{id}", "kind": "dance"}"#,
    r#"{"id": "{id}", "kind": "marks", "colour": "blue"}"#,
    r#"{"id": "{id}", "kind": "marks", "catalog": {"scale": -1}}"#,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Malformed,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    at_s: f64,
    id: String,
    line: String,
    class: Class,
}

/// One answered (or abandoned) request.
struct Reply {
    planned: Planned,
    sent_s: f64,
    done_s: Option<f64>,
    bytes: Vec<u8>,
    trace: Option<Arc<Vec<TraceRecord>>>,
}

impl Reply {
    /// Latency charged from the scheduled send time.
    fn latency_s(&self) -> Option<f64> {
        self.done_s.map(|done| done - self.planned.at_s)
    }
}

fn hit_line(id: &str, spec: usize) -> String {
    let (kind, fields) = HIT_SPECS[spec];
    format!(r#"{{"id": "{id}", "kind": "{kind}", {fields}}}"#)
}

fn miss_line(id: &str, workload_seed: u64) -> String {
    format!(r#"{{"id": "{id}", "kind": "comparison", "workload_seed": {workload_seed}}}"#)
}

/// The seeded schedules of one window: `(hit lane, miss lane)`.
fn schedules(seed: u64, window: u64, seconds: f64) -> (Vec<Planned>, Vec<Planned>) {
    let lane_seed = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ window;
    let mut rng = SplitMix64(lane_seed);
    let hits = TraceShape::Poisson
        .arrivals(HIT_RATE_HZ, seconds, lane_seed)
        .into_iter()
        .enumerate()
        .map(|(index, at_s)| {
            let id = format!("w{window}h{index}");
            if rng.next_f64() < MALFORMED_SHARE {
                let template = MALFORMED[(rng.next_u64() % MALFORMED.len() as u64) as usize];
                let line = template.replace("{id}", &id);
                Planned {
                    at_s,
                    id,
                    line,
                    class: Class::Malformed,
                }
            } else {
                let spec = (rng.next_u64() % HIT_SPECS.len() as u64) as usize;
                Planned {
                    at_s,
                    line: hit_line(&id, spec),
                    id,
                    class: Class::Hit,
                }
            }
        })
        .collect();
    // Fresh workload seeds, distinct per (seed, window, index) and from the
    // pre-warmed ones.
    let base = 100_000 + (seed % 100_000) * 100_000 + window * 10_000;
    let count = (MISS_RATE_HZ * seconds).round() as usize;
    let misses = TraceShape::Poisson
        .arrivals(MISS_RATE_HZ, seconds * 4.0, lane_seed ^ 0x5EED)
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(index, at_s)| {
            let id = format!("w{window}x{index}");
            Planned {
                at_s,
                line: miss_line(&id, base + index as u64),
                id,
                class: Class::Miss,
            }
        })
        .collect();
    (hits, misses)
}

/// `struct pollfd` and `struct timespec` of Linux x86-64/aarch64.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
}

/// Waits up to `timeout` for `stream` to become readable. `ppoll` sleeps on
/// a high-resolution timer; a socket read timeout would round the wait up
/// to the kernel tick and make every send late by up to a tick.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = TimeSpec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid `pollfd`, a valid `timespec`, and no signal mask,
    // all outliving the call.
    unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) > 0 }
}

/// Drives one lane: sends each line at its scheduled offset from `epoch`,
/// reads replies in between (they arrive in send order), and stops once
/// every request is answered or `give_up_s` passes.
fn drive_lane(
    addr: SocketAddr,
    schedule: Vec<Planned>,
    epoch: Instant,
    give_up_s: f64,
    traces: Option<Arc<TuningService>>,
) -> Vec<Reply> {
    let mut stream = TcpStream::connect(addr).expect("connect to the listener");
    stream.set_nodelay(true).expect("set nodelay");
    let mut replies: Vec<Reply> = Vec::with_capacity(schedule.len());
    let mut outstanding = VecDeque::new();
    let mut schedule = schedule.into_iter().peekable();
    let mut pending = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while !(outstanding.is_empty() && schedule.peek().is_none()) {
        let now = epoch.elapsed().as_secs_f64();
        if let Some(next) = schedule.next_if(|planned| planned.at_s <= now) {
            stream
                .write_all(format!("{}\n", next.line).as_bytes())
                .expect("send a request");
            outstanding.push_back(replies.len());
            replies.push(Reply {
                planned: next,
                sent_s: now,
                done_s: None,
                bytes: Vec::new(),
                trace: None,
            });
            continue;
        }
        if now > give_up_s {
            break;
        }
        let wait = schedule
            .peek()
            .map_or(give_up_s - now, |next| next.at_s - now);
        if !wait_readable(&stream, Duration::from_secs_f64(wait.clamp(0.0, 1.0))) {
            continue;
        }
        let read = stream.read(&mut chunk).expect("read replies");
        if read == 0 {
            break;
        }
        let done = epoch.elapsed().as_secs_f64();
        pending.extend_from_slice(&chunk[..read]);
        while let Some(end) = pending.iter().position(|byte| *byte == b'\n') {
            let mut line: Vec<u8> = pending.drain(..=end).collect();
            line.pop();
            let index = outstanding.pop_front().expect("a reply answers a request");
            let reply = &mut replies[index];
            reply.done_s = Some(done);
            reply.bytes = line;
            if let Some(service) = &traces {
                reply.trace = service.recent_trace(&reply.planned.id);
            }
        }
    }
    replies
}

/// A running service: the listener's thread and the address it serves.
struct Server {
    service: Arc<TuningService>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<WireSummary>>,
}

/// Builds the service, starts its listener for `connections` connections
/// and pre-warms every hit line.
fn start(threads: usize, connections: usize) -> Server {
    let service = Arc::new(
        TuningService::new(ServiceConfig::with_threads(1)).expect("a cold service starts"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("the listener's address");
    let config = WireConfig {
        connection_workers: threads,
        executor_workers: threads,
        ..WireConfig::default()
    };
    let thread = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp_with(&service, listener, Some(connections), config))
    };
    for spec in 0..HIT_SPECS.len() {
        let response = service.respond(&hit_line("warm", spec));
        assert!(!response.is_error(), "pre-warming hit line {spec} failed");
    }
    Server {
        service,
        addr,
        thread,
    }
}

/// Stops a server whose listener still waits for `connections` more
/// connections, and joins its thread.
fn stop(server: Server, connections: usize) {
    for _ in 0..connections {
        drop(TcpStream::connect(server.addr));
    }
    server
        .thread
        .join()
        .expect("the listener thread")
        .expect("the listener served");
}

/// Runs one open-loop window over `lanes` connections and returns every
/// reply.
fn window(
    server: &Server,
    seed: u64,
    window: u64,
    seconds: f64,
    lanes: usize,
    trace: bool,
) -> Vec<Reply> {
    let (hits, misses) = schedules(seed, window, seconds);
    let plans = if lanes >= 2 {
        vec![hits, misses]
    } else {
        let mut merged: Vec<Planned> = hits.into_iter().chain(misses).collect();
        merged.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        vec![merged]
    };
    // A short grace period so every lane is connected before the clock runs.
    let epoch = Instant::now() + Duration::from_millis(50);
    let give_up_s = seconds + 30.0;
    let traces = trace.then(|| Arc::clone(&server.service));
    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let (addr, traces) = (server.addr, traces.clone());
            std::thread::spawn(move || drive_lane(addr, plan, epoch, give_up_s, traces))
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|lane| lane.join().expect("a load lane"))
        .collect()
}

/// Whether each reply is correct: byte-identical to the reference
/// service's answer, a structured error exactly for malformed lines, and
/// within its class's latency limit.
fn check(replies: &[Reply], threads: usize) -> Vec<bool> {
    let reference = || TuningService::new(ServiceConfig::with_threads(1)).expect("a reference");
    let shared = reference();
    let chunk = replies.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let (shared, reference) = (&shared, &reference);
        let parts: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|reply| {
                            // Each miss is new to any store: answer it on a
                            // fresh reference so the check stays small.
                            let expected = match reply.planned.class {
                                Class::Miss => reference().respond(&reply.planned.line),
                                Class::Hit | Class::Malformed => {
                                    shared.respond(&reply.planned.line)
                                }
                            };
                            let limit = match reply.planned.class {
                                Class::Miss => MISS_LIMIT_S,
                                Class::Hit | Class::Malformed => HIT_LIMIT_S,
                            };
                            reply.latency_s().is_some_and(|s| s <= limit)
                                && expected.is_error() == (reply.planned.class == Class::Malformed)
                                && reply.bytes == expected.to_json().render_compact().as_bytes()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|part| part.join().expect("a checker"))
            .collect()
    })
}

fn cell_keys(service: &TuningService) -> HashSet<ContentHash> {
    service
        .store()
        .artifact_keys()
        .into_iter()
        .filter(|(stage, _)| *stage == "cells")
        .flat_map(|(_, keys)| keys)
        .collect()
}

/// Span durations by name over one request's trace.
fn span_total(spans: &[ledger::Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(ledger::Span::duration_ns)
        .sum()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let lanes = args.threads.clamp(1, 2);
    // Each window opens its own lane connections.
    let connections = lanes * if args.trace { 2 } else { 1 };

    // --- Set-up: build, listen and pre-warm; the last one serves. ---
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let fresh = start(args.threads, connections);
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = server.replace(fresh) {
            stop(old, connections);
        }
    }
    let server = server.expect("at least one set-up");

    // --- The measured window(s). A traced run measures half untraced, then
    // half traced, so the difference is the tracing overhead. ---
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = window(&server, args.seed, 0, seconds, lanes, false);
    let traced = args.trace.then(|| {
        let store_before = server.service.store().snapshot();
        let cells_before = cell_keys(&server.service);
        phase_trace::set_enabled(true);
        let replies = window(&server, args.seed, 1, seconds, lanes, true);
        phase_trace::set_enabled(false);
        let stats = server.service.stats();
        // Simulated instructions of the cells this window computed, read
        // back through the store's export path.
        let instructions: u64 = cell_keys(&server.service)
            .difference(&cells_before)
            .filter_map(|key| server.service.store().export_artifact("cells", *key))
            .map(|bytes| {
                pack::decode_cell(&bytes)
                    .expect("an exported cell decodes")
                    .result
                    .total_instructions
            })
            .sum();
        (replies, stats, store_before, instructions)
    });
    stop(server, 0);

    // How late the generator ran: each send against its schedule.
    let lags: Vec<f64> = untraced
        .iter()
        .chain(traced.iter().flat_map(|(replies, ..)| replies))
        .map(|r| (r.sent_s - r.planned.at_s) * 1e3)
        .collect();
    let verdicts = check(&untraced, args.threads);
    let traced_verdicts = traced
        .as_ref()
        .map(|(replies, ..)| check(replies, args.threads))
        .unwrap_or_default();
    for ok in verdicts.iter().chain(&traced_verdicts) {
        out.attempt(*ok);
    }

    // --- End-to-end, from the untraced window. ---
    let latencies = |replies: &[Reply], class: Class| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| r.planned.class == class)
            .filter_map(|r| r.latency_s().map(|s| s * 1e3))
            .collect()
    };
    let hit_ms = latencies(&untraced, Class::Hit);
    let miss_ms = latencies(&untraced, Class::Miss);
    let (hit50, hit90) = (percentile(&hit_ms, 0.5), percentile(&hit_ms, 0.9));
    let hit99 = percentile(&hit_ms, 0.99);
    let (miss50, miss90) = (percentile(&miss_ms, 0.5), percentile(&miss_ms, 0.9));
    let good = verdicts.iter().filter(|ok| **ok).count();
    let lag99 = percentile(&lags, 0.99);
    out.detail("hit_p50_ms", hit50.value, "ms", hit50.count);
    out.detail("hit_p99_ms", hit99.value, "ms", hit99.count);
    out.detail("hit_p90_ms", hit90.value, "ms", hit90.count);
    out.detail("miss_p50_ms", miss50.value, "ms", miss50.count);
    out.detail("miss_p90_ms", miss90.value, "ms", miss90.count);
    out.detail("goodput_rps", good as f64 / seconds, "1/s", verdicts.len());
    out.detail("loadgen.lag_p99_ms", lag99.value, "ms", lag99.count);
    out.detail(
        "malformed",
        untraced
            .iter()
            .filter(|r| r.planned.class == Class::Malformed)
            .count() as f64,
        "count",
        untraced.len(),
    );
    if !hit99.reportable(0.99) || !miss90.reportable(0.9) {
        println!("note: a tail percentile has fewer than ten samples beyond it");
    }
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s", setup_s.len());
        out.metric("cold_p50_ms", miss50.value, "ms", miss50.count);
        out.metric("warm_p50_ms", hit50.value, "ms", hit50.count);
        return out;
    }

    // --- Per-layer ledger, from the traced window. ---
    let (replies, stats, store_before, instructions) =
        traced.expect("a traced run has a traced window");
    let mut hit_layers = [0u64; 4];
    let (mut hit_latency_ns, mut miss_latency_ns, mut miss_execute_ns) = (0u64, 0u64, 0u64);
    let (mut total_ns, mut uncovered_ns, mut cells_ns) = (0u64, 0u64, 0u64);
    let mut stage_self_ns = [0u64; STAGES.len()];
    let mut execute_hit_us = Vec::new();
    let mut execute_miss_ms = Vec::new();
    let mut queue_wait_us = Vec::new();
    let mut parse_us = Vec::new();
    let mut serialize_us = Vec::new();
    let mut traced_requests = 0;
    for reply in &replies {
        let (Some(done), Some(trace)) = (reply.done_s, &reply.trace) else {
            continue;
        };
        traced_requests += 1;
        let latency_ns = ((done - reply.sent_s) * 1e9) as u64;
        let spans = ledger::spans(trace);
        let (from, to) = spans.iter().fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.open_ns), hi.max(s.close_ns))
        });
        let covered = ledger::covered_ns(&spans, from, to.max(from), |s| s.name != "request");
        total_ns += latency_ns;
        uncovered_ns += latency_ns.saturating_sub(covered);
        for span in &spans {
            if let Some(stage) = STAGES.iter().position(|stage| *stage == span.name) {
                stage_self_ns[stage] += span.self_ns;
            }
        }
        cells_ns += span_total(&spans, "cells");
        let execute = span_total(&spans, "execute");
        match reply.planned.class {
            Class::Hit => {
                hit_latency_ns += latency_ns;
                let layers = ["parse", "queue_wait", "execute", "serialize"];
                for (total, name) in hit_layers.iter_mut().zip(layers) {
                    *total += span_total(&spans, name);
                }
                execute_hit_us.push(execute as f64 / 1e3);
                queue_wait_us.push(span_total(&spans, "queue_wait") as f64 / 1e3);
            }
            Class::Miss => {
                miss_latency_ns += latency_ns;
                miss_execute_ns += execute;
                execute_miss_ms.push(execute as f64 / 1e6);
            }
            Class::Malformed => {}
        }
        parse_us.push(span_total(&spans, "parse") as f64 / 1e3);
        serialize_us.push(span_total(&spans, "serialize") as f64 / 1e3);
    }
    let share = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let names = [
        "hit.parse_pct",
        "hit.queue_wait_pct",
        "hit.execute_pct",
        "hit.serialize_pct",
    ];
    for (name, total) in names.iter().zip(hit_layers) {
        out.metric(*name, share(total, hit_latency_ns), "%", traced_requests);
    }
    out.metric(
        "miss.execute_pct",
        share(miss_execute_ns, miss_latency_ns),
        "%",
        traced_requests,
    );
    out.metric(
        "serve.coalesced",
        stats.serving.coalesced as f64,
        "count",
        1,
    );
    out.metric("serve.shed", stats.serving.shed as f64, "count", 1);
    out.metric(
        "serve.queue_hiwater",
        stats.serving.queue_hiwater as f64,
        "count",
        1,
    );
    let window_store: StoreStats = stats.store.delta_since(&store_before);
    let self_pct = stage_self_ns.map(|ns| share(ns, total_ns));
    crate::store_metrics(&mut out, &window_store, self_pct, traced_requests);
    out.metric("engine.instructions", instructions as f64, "count", 1);
    let minstr = instructions as f64 / 1e6 / (cells_ns.max(1) as f64 / 1e9);
    out.metric("engine.minstr_per_s", minstr, "Minstr/s", traced_requests);
    let busy = cells_ns as f64 / (seconds * 1e9 * args.threads as f64);
    out.metric("driver.busy_frac", busy, "frac", traced_requests);
    let traced_hits = latencies(&replies, Class::Hit);
    let overhead = 100.0 * (median(&traced_hits) / hit50.value - 1.0);
    crate::harness_metrics(
        &mut out,
        overhead,
        uncovered_ns as f64 / total_ns.max(1) as f64,
        traced_requests,
    );
    let late = lags.iter().filter(|lag| **lag > LATE_SEND_MS).count();
    out.metric(
        "loadgen.late_frac",
        late as f64 / lags.len().max(1) as f64,
        "frac",
        lags.len(),
    );
    for (name, values, unit) in [
        ("wire.parse_us", &parse_us, "us"),
        ("pool.queue_wait_p50_us", &queue_wait_us, "us"),
        ("service.execute_hit_us", &execute_hit_us, "us"),
        ("service.execute_miss_ms", &execute_miss_ms, "ms"),
        ("wire.serialize_us", &serialize_us, "us"),
    ] {
        let p50 = percentile(values, 0.5);
        out.detail(name, p50.value, unit, p50.count);
    }
    let wait99 = percentile(&queue_wait_us, 0.99);
    out.detail("pool.queue_wait_p99_us", wait99.value, "us", wait99.count);
    out
}
