//! The serving rebuild's behavioural contract, exercised over real TCP:
//!
//! * an identical-request storm coalesces onto **one** execution (the
//!   per-kind admission counter proves it) while every client still gets
//!   byte-identical responses equal to a single-client replay;
//! * the bounded executor queue sheds with a structured `overloaded` error
//!   exactly when its depth is exceeded — and not when it is not;
//! * over-long request lines answer a structured error and close the
//!   connection instead of buffering without bound;
//! * the periodic metrics emitter stops when serving ends, instead of
//!   sleeping out its interval.
//!
//! The tests are made deterministic by gauges, not sleeps: stats requests
//! bypass the executor, so a client can watch `active_jobs` / `queue.depth`
//! / `connections.active` move while a deliberately slow "blocker" study
//! occupies the single executor worker, and only then fire the next step.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use phase_core::json::{parse, JsonValue};
use phase_serve::{
    serve_lines, serve_tcp_with, ServiceConfig, TuningService, WireConfig, DEFAULT_MAX_LINE_BYTES,
};

/// Slow enough (~170ms cold) to hold the executor while the clients of a
/// test line up behind it; an isolation request so it never shares a
/// per-kind admission counter with the marks requests under test.
const BLOCKER: &str =
    "{\"id\": \"blocker\", \"kind\": \"isolation\", \"catalog\": {\"scale\": 4.0, \"seed\": 11}}";

/// The storm request: every client sends these exact bytes, so every
/// response must be bit-identical too.
const STORM: &str =
    "{\"id\": \"storm\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.05, \"seed\": 7}}";

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the service");
        // Without this, Nagle + delayed ACK cap the one-line exchanges the
        // gauge polling depends on at ~25/s.
        writer.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(writer.try_clone().expect("split the stream"));
        Self { writer, reader }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send the request");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read the response");
        assert!(!line.is_empty(), "the server closed the connection early");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }

    fn close(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }
}

fn navigate<'a>(doc: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    let mut value = doc;
    for name in path {
        value = value
            .get(name)
            .unwrap_or_else(|| panic!("stats field '{name}' missing in {path:?}"));
    }
    value
}

fn gauge(doc: &JsonValue, path: &[&str]) -> u64 {
    match navigate(doc, path) {
        JsonValue::UInt(value) => *value,
        JsonValue::Int(value) => u64::try_from(*value).expect("gauges are non-negative"),
        other => panic!("stats field {path:?} is not an integer: {other:?}"),
    }
}

/// The per-kind counter from the `serving.admission` / `serving.latency`
/// arrays.
fn kind_entry<'a>(doc: &'a JsonValue, table: &str, kind: &str) -> &'a JsonValue {
    navigate(doc, &["stats", "serving", table])
        .as_array()
        .expect("a per-kind table")
        .iter()
        .find(|entry| entry.get("kind").and_then(JsonValue::as_str) == Some(kind))
        .unwrap_or_else(|| panic!("no '{kind}' entry in serving.{table}"))
}

/// Polls the stats front end (which bypasses the executor) until a gauge
/// reaches `min`, returning the snapshot that satisfied it.
fn wait_for(stats: &mut Client, path: &[&str], min: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let line = stats.request("{\"id\": \"poll\", \"kind\": \"stats\"}");
        let doc = parse(&line).expect("the stats response parses");
        if gauge(&doc, path) >= min {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {path:?} >= {min}; last snapshot: {line}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn spawn_server(
    service: &Arc<TuningService>,
    connections: usize,
    config: WireConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<phase_serve::WireSummary>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::clone(service);
    let server =
        std::thread::spawn(move || serve_tcp_with(&service, listener, Some(connections), config));
    (addr, server)
}

#[test]
fn identical_request_storm_coalesces_onto_one_execution() {
    const CLIENTS: usize = 6;
    // A 1-byte budget admits nothing into the store: without coalescing,
    // every storm request would be a full recomputation.
    let service = Arc::new(
        TuningService::new(ServiceConfig {
            threads: 1,
            budget_bytes: Some(1),
            ..ServiceConfig::default()
        })
        .expect("cold start cannot fail"),
    );
    // One executor worker: the blocker study pins it, so the storm leader's
    // job stays queued while the followers join its flight.
    let config = WireConfig {
        connection_workers: CLIENTS + 3,
        executor_workers: 1,
        queue_depth: 16,
        ..WireConfig::default()
    };
    let total_connections = CLIENTS + 2; // stats + blocker + storm clients
    let (addr, server) = spawn_server(&service, total_connections, config);

    let mut stats = Client::connect(addr);
    let mut blocker = Client::connect(addr);
    blocker.send(BLOCKER);
    wait_for(&mut stats, &["stats", "serving", "queue", "active_jobs"], 1);

    // The leader: its job queues behind the blocker, its flight opens.
    let mut storm: Vec<Client> = Vec::new();
    storm.push(Client::connect(addr));
    storm[0].send(STORM);
    wait_for(&mut stats, &["stats", "serving", "queue", "depth"], 1);
    wait_for(&mut stats, &["stats", "serving", "inflight"], 1);

    // The followers join the still-pending flight (no queue slots consumed).
    for _ in 1..CLIENTS {
        let mut follower = Client::connect(addr);
        follower.send(STORM);
        storm.push(follower);
    }
    wait_for(
        &mut stats,
        &["stats", "serving", "connections", "active"],
        total_connections as u64,
    );

    let responses: Vec<String> = storm.iter_mut().map(Client::read_line).collect();
    let replay = TuningService::new(ServiceConfig::with_threads(1))
        .expect("cold start cannot fail")
        .respond(STORM)
        .to_json()
        .render_compact();
    for response in &responses {
        assert_eq!(
            response, &replay,
            "every storm client gets the single-client replay bytes"
        );
    }

    let final_stats = parse(&stats.request("{\"id\": \"final\", \"kind\": \"stats\"}"))
        .expect("the stats response parses");
    assert_eq!(
        gauge(&final_stats, &["stats", "serving", "coalesced"]),
        (CLIENTS - 1) as u64,
        "all followers were served from the leader's flight"
    );
    let marks = kind_entry(&final_stats, "admission", "marks");
    assert_eq!(
        gauge(marks, &["admitted"]),
        1,
        "only the storm leader reached the executor"
    );
    assert_eq!(gauge(&final_stats, &["stats", "serving", "shed"]), 0);
    let latency = kind_entry(&final_stats, "latency", "marks");
    assert!(
        gauge(latency, &["count"]) >= CLIENTS as u64,
        "every marks request recorded a latency sample"
    );
    assert!(gauge(latency, &["p999_ns"]) >= gauge(latency, &["p50_ns"]));

    assert!(blocker.read_line().contains("\"status\": \"ok\""));
    blocker.close();
    for client in storm {
        client.close();
    }
    stats.close();
    let summary = server
        .join()
        .expect("server thread")
        .expect("serving succeeded");
    assert_eq!(summary.overlong, 0);
    assert_eq!(summary.failed_connections, 0);
}

/// Runs blocker → q1 → q2 against a single-worker executor with the given
/// queue depth and returns (q1 response, q2 response, final stats).
fn run_shed_sequence(queue_depth: usize) -> (String, String, JsonValue) {
    let service = Arc::new(
        TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
    );
    let config = WireConfig {
        connection_workers: 6,
        executor_workers: 1,
        queue_depth,
        ..WireConfig::default()
    };
    let (addr, server) = spawn_server(&service, 4, config);

    let mut stats = Client::connect(addr);
    let mut blocker = Client::connect(addr);
    blocker.send(BLOCKER);
    wait_for(&mut stats, &["stats", "serving", "queue", "active_jobs"], 1);

    // Distinct specs: coalescing must play no part in this test.
    let q1_line =
        "{\"id\": \"q1\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.05, \"seed\": 2}}";
    let q2_line =
        "{\"id\": \"q2\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.05, \"seed\": 3}}";
    let mut q1 = Client::connect(addr);
    q1.send(q1_line);
    wait_for(&mut stats, &["stats", "serving", "queue", "depth"], 1);
    let mut q2 = Client::connect(addr);
    let q2_response = q2.request(q2_line);

    let q1_response = q1.read_line();
    assert!(blocker.read_line().contains("\"status\": \"ok\""));
    let final_stats = parse(&stats.request("{\"id\": \"final\", \"kind\": \"stats\"}"))
        .expect("the stats response parses");
    for client in [stats, blocker, q1, q2] {
        client.close();
    }
    server
        .join()
        .expect("server thread")
        .expect("serving succeeded");
    (q1_response, q2_response, final_stats)
}

#[test]
fn bounded_queue_sheds_exactly_when_its_depth_is_exceeded() {
    // Depth 1: the blocker occupies the worker, q1 fills the queue, so q2
    // must be shed immediately with a structured `overloaded` error.
    let (q1_response, q2_response, stats) = run_shed_sequence(1);
    assert!(
        q2_response.contains("\"status\": \"error\"")
            && q2_response.contains("\"code\": \"overloaded\"")
            && q2_response.contains("\"id\": \"q2\""),
        "the overflowing request is shed with a structured error: {q2_response}"
    );
    assert!(
        q1_response.contains("\"status\": \"ok\""),
        "the admitted request still completes: {q1_response}"
    );
    assert_eq!(gauge(&stats, &["stats", "serving", "shed"]), 1);
    let marks = kind_entry(&stats, "admission", "marks");
    assert_eq!(gauge(marks, &["shed"]), 1);
    assert_eq!(gauge(&stats, &["stats", "serving", "queue", "hiwater"]), 1);

    // The admitted request's bytes match a single-client replay exactly.
    let replay = TuningService::new(ServiceConfig::with_threads(1))
        .expect("cold start cannot fail")
        .respond(
            "{\"id\": \"q1\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.05, \"seed\": 2}}",
        )
        .to_json()
        .render_compact();
    assert_eq!(q1_response, replay);
}

#[test]
fn a_deeper_queue_admits_the_same_sequence_without_shedding() {
    // The control arm of the iff: identical sequence, depth 8 — nothing is
    // shed and the would-have-been-shed request completes normally.
    let (q1_response, q2_response, stats) = run_shed_sequence(8);
    assert!(
        q2_response.contains("\"status\": \"ok\"") && q2_response.contains("\"id\": \"q2\""),
        "with queue room the request is served, not shed: {q2_response}"
    );
    assert!(q1_response.contains("\"status\": \"ok\""));
    assert_eq!(gauge(&stats, &["stats", "serving", "shed"]), 0);
}

#[test]
fn overlong_lines_answer_a_structured_error_and_close_the_connection() {
    let service = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
    // One byte over the cap, not counting the newline.
    let padding = DEFAULT_MAX_LINE_BYTES + 1 - "{\"id\": \"\"}".len();
    let long_line = format!("{{\"id\": \"{}\"}}\n", "x".repeat(padding));
    assert_eq!(long_line.len(), DEFAULT_MAX_LINE_BYTES + 2);
    let mut input = long_line.into_bytes();
    input.extend_from_slice(b"{\"id\": \"after\", \"kind\": \"stats\"}\n");
    let mut out = Vec::new();
    let summary =
        serve_lines(&service, BufReader::new(&input[..]), &mut out).expect("serving survives");
    assert_eq!(
        summary.responses, 1,
        "the connection closed after the error"
    );
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.overlong, 1);
    let output = String::from_utf8(out).expect("responses are UTF-8");
    assert!(
        output.contains("\"code\": \"line-too-long\""),
        "structured error names the cap: {output}"
    );
    assert_eq!(
        service.stats().serving.overlong_lines,
        1,
        "the rejection is visible in the service stats"
    );

    // A line that fits the cap (including its newline) is served normally.
    let mut out = Vec::new();
    let ok_line = b"{\"id\": \"ok\", \"kind\": \"stats\"}\n";
    let summary =
        serve_lines(&service, BufReader::new(&ok_line[..]), &mut out).expect("serving survives");
    assert_eq!(summary.responses, 1);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.overlong, 0);
}

#[test]
fn the_metrics_emitter_stops_when_serving_ends() {
    let service = Arc::new(
        TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail"),
    );
    let config = WireConfig {
        metrics_every: Some(Duration::from_secs(60)),
        ..WireConfig::default()
    };
    let (addr, server) = spawn_server(&service, 1, config);
    let mut client = Client::connect(addr);
    let stats = client.request("{\"id\": \"s\", \"kind\": \"stats\"}");
    assert!(stats.contains("\"status\": \"ok\""), "{stats}");
    // Join on a helper thread so an emitter that never stops fails the
    // test instead of hanging it.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(server.join()));
    client.close();
    let summary = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("serve_tcp_with returns within seconds of its last connection closing")
        .expect("server thread")
        .expect("serving succeeded");
    assert_eq!(summary.responses, 1);
}
