//! The network artifact cache, end to end: `artifact-get`/`artifact-put`/
//! `artifact-list` round-trip at the wire level (with structured errors for
//! bad stages, hashes, and payloads), and — the acceptance path — a second
//! service instance warm-started *purely* over live TCP answers every study
//! request byte-identically to the origin without recomputing anything.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use phase_core::json::{parse, JsonValue};
use phase_core::pack::{base64_decode, base64_encode, decode_instrumented, encode_instrumented};
use phase_serve::{
    remote_push, remote_warm_start, serve_tcp_with, ServiceConfig, TuningService, WireConfig,
};

const REQUESTS: &[&str] = &[
    "{\"id\": \"m\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}}",
    "{\"id\": \"i\", \"kind\": \"isolation\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}, \
     \"ipc_threshold\": 0.2}",
];

fn respond(service: &TuningService, line: &str) -> JsonValue {
    parse(&service.respond(line).to_json().render_compact()).expect("response parses")
}

fn str_field<'a>(doc: &'a JsonValue, name: &str) -> &'a str {
    doc.get(name)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("field '{name}' missing in {}", doc.render_compact()))
}

/// One `(stage, hash)` pair present in the service's store, plus its wire
/// payload, pulled through `artifact-list` + `artifact-get` like any client.
fn first_artifact(service: &TuningService, stage: &str) -> (String, String) {
    let list = respond(service, "{\"id\": \"l\", \"kind\": \"artifact-list\"}");
    let keys = list
        .get("stages")
        .and_then(|s| s.get(stage))
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("no '{stage}' inventory in {}", list.render_compact()));
    let hash = keys
        .first()
        .and_then(JsonValue::as_str)
        .expect("a spilled key")
        .to_string();
    let get = respond(
        service,
        &format!("{{\"id\": \"g\", \"kind\": \"artifact-get\", \"stage\": \"{stage}\", \"hash\": \"{hash}\"}}"),
    );
    assert_eq!(get.get("found"), Some(&JsonValue::Bool(true)));
    (hash, str_field(&get, "payload").to_string())
}

#[test]
fn artifact_requests_round_trip_at_the_wire_level() {
    let origin = TuningService::new(ServiceConfig::with_threads(2)).expect("cold start");
    // A comparison adds the baseline twins the other requests never build.
    let comparison = "{\"id\": \"c\", \"kind\": \"comparison\", \"catalog\": {\"scale\": 0.04}, \
                      \"slots\": 2, \"jobs_per_slot\": 1, \"horizon_ns\": 2000000.0}";
    for line in REQUESTS.iter().chain([&comparison]) {
        origin.respond(line);
    }

    // The inventory lists every spill stage, and a listed typing fetches as
    // a valid base64 phase-pack payload.
    let list = respond(&origin, "{\"id\": \"l\", \"kind\": \"artifact-list\"}");
    assert_eq!(str_field(&list, "status"), "ok");
    for stage in phase_core::SPILL_STAGES {
        assert!(
            list.get("stages").and_then(|s| s.get(stage)).is_some(),
            "stage '{stage}' missing from the inventory"
        );
    }
    // Putting a payload of each stage into a *different* service admits it;
    // getting it back returns the identical bytes. Payloads that carry a
    // program carry it inline, so they stand alone.
    let replica = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
    for stage in ["typings", "catalogs", "instrumented", "baselines"] {
        let (hash, payload) = first_artifact(&origin, stage);
        let bytes = base64_decode(&payload).expect("payload is valid base64");
        assert!(!bytes.is_empty());
        if stage == "instrumented" {
            let decoded = decode_instrumented(&bytes).expect("decodes on its own");
            assert_eq!(encode_instrumented(&decoded), bytes);
        }
        let put = respond(
            &replica,
            &format!(
                "{{\"id\": \"p\", \"kind\": \"artifact-put\", \"stage\": \"{stage}\", \
                 \"hash\": \"{hash}\", \"payload\": \"{payload}\"}}"
            ),
        );
        assert_eq!(str_field(&put, "status"), "ok", "{stage}");
        assert_eq!(put.get("admitted"), Some(&JsonValue::Bool(true)), "{stage}");
        let (_, round_tripped) = first_artifact(&replica, stage);
        assert_eq!(
            round_tripped, payload,
            "{stage} payload changed across put/get"
        );
    }

    // A get for an absent hash is a miss, not an error.
    let miss = respond(
        &origin,
        "{\"id\": \"g\", \"kind\": \"artifact-get\", \"stage\": \"cells\", \
         \"hash\": \"00000000000000000000000000000000\"}",
    );
    assert_eq!(str_field(&miss, "status"), "ok");
    assert_eq!(miss.get("found"), Some(&JsonValue::Bool(false)));
    assert_eq!(miss.get("payload"), Some(&JsonValue::Null));
}

#[test]
fn malformed_artifact_requests_answer_structured_errors() {
    let service = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
    let cases = [
        // Unknown stage.
        (
            "{\"id\": \"e\", \"kind\": \"artifact-get\", \"stage\": \"nonsense\", \
             \"hash\": \"00000000000000000000000000000000\"}",
            "bad-request",
        ),
        // Malformed hash.
        (
            "{\"id\": \"e\", \"kind\": \"artifact-get\", \"stage\": \"typings\", \
             \"hash\": \"not-hex\"}",
            "bad-request",
        ),
        // Payload that is not base64 at all.
        (
            "{\"id\": \"e\", \"kind\": \"artifact-put\", \"stage\": \"typings\", \
             \"hash\": \"00000000000000000000000000000000\", \"payload\": \"@@@@\"}",
            "bad-payload",
        ),
        // Valid base64 wrapping bytes that are not a phase-pack typing.
        (
            &format!(
                "{{\"id\": \"e\", \"kind\": \"artifact-put\", \"stage\": \"typings\", \
                 \"hash\": \"00000000000000000000000000000000\", \"payload\": \"{}\"}}",
                base64_encode(b"definitely not an artifact")
            ),
            "bad-payload",
        ),
    ];
    for (line, expected_code) in cases {
        let doc = respond(&service, line);
        assert_eq!(str_field(&doc, "status"), "error", "{line}");
        assert_eq!(str_field(&doc, "code"), expected_code, "{line}");
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(writer.try_clone().expect("split"));
        Self { writer, reader }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(!response.is_empty(), "server closed early");
        response.trim_end().to_string()
    }
}

/// The acceptance path: a worker that never ran a study itself — warmed
/// *only* through `artifact-get` over live TCP — answers every request
/// byte-identically to the origin, with zero recomputation, and can push its
/// store onward to a third instance build-cache style.
#[test]
fn tcp_warm_started_replica_answers_byte_identically() {
    // Origin: serve the study requests once, then expose the store over TCP.
    let origin = Arc::new(TuningService::new(ServiceConfig::with_threads(2)).expect("cold start"));
    let origin_responses: Vec<String> = REQUESTS
        .iter()
        .map(|line| origin.respond(line).to_json().render_compact())
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let origin = Arc::clone(&origin);
        std::thread::spawn(move || {
            serve_tcp_with(
                &origin,
                listener,
                None,
                WireConfig {
                    connection_workers: 2,
                    ..WireConfig::default()
                },
            )
        })
    };

    // Replica: cold store, warmed purely over the network.
    let replica = TuningService::new(ServiceConfig::with_threads(2)).expect("cold start");
    let sync = remote_warm_start(addr, replica.store()).expect("warm start over TCP");
    assert!(sync.errors.is_empty(), "{:?}", sync.errors);
    assert!(sync.transferred > 0, "nothing transferred");
    assert_eq!(
        sync.admitted, sync.transferred,
        "unbounded store admits all"
    );

    let replica_responses: Vec<String> = REQUESTS
        .iter()
        .map(|line| replica.respond(line).to_json().render_compact())
        .collect();
    assert_eq!(
        origin_responses, replica_responses,
        "network warm start changed a report"
    );
    let snapshot = replica.store().snapshot();
    for stage in ["typings", "ipc_profiles", "instrumented", "cells"] {
        let stats = snapshot.stage(stage).unwrap();
        assert_eq!(stats.misses, 0, "{stage} recomputed on the replica");
    }

    // One wire client double-checks a raw get against the origin's export.
    let mut client = Client::connect(addr);
    let list = parse(&client.request("{\"id\": \"l\", \"kind\": \"artifact-list\"}"))
        .expect("list parses");
    assert_eq!(str_field(&list, "status"), "ok");

    // Push direction: a third, empty instance is filled over the wire.
    let sink = Arc::new(TuningService::new(ServiceConfig::with_threads(1)).expect("cold start"));
    let sink_listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let sink_addr = sink_listener.local_addr().expect("addr");
    let sink_server = {
        let sink = Arc::clone(&sink);
        std::thread::spawn(move || {
            serve_tcp_with(
                &sink,
                sink_listener,
                None,
                WireConfig {
                    connection_workers: 1,
                    ..WireConfig::default()
                },
            )
        })
    };
    let push = remote_push(sink_addr, replica.store()).expect("push over TCP");
    assert!(push.errors.is_empty(), "{:?}", push.errors);
    assert_eq!(push.admitted, push.transferred);
    let pushed: usize = sink
        .store()
        .artifact_keys()
        .into_iter()
        .map(|(_, keys)| keys.len())
        .sum();
    assert_eq!(pushed, push.admitted, "the sink holds what it admitted");

    drop(client);
    drop(server);
    drop(sink_server);
}
