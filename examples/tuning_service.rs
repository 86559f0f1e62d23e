//! The tuning service in ~40 lines: boot a bounded service, tune a
//! catalogue with a direct `handle` call, repeat the request to see the
//! cache answer it, and drive the same service over the NDJSON wire.
//!
//! Run with: `cargo run --release --example tuning_service`

use std::io::BufReader;
use std::time::Instant;

use phase_serve::{parse_request, serve_lines, ServiceConfig, TuningResponse, TuningService};

fn main() {
    // A service over a store bounded to 32 MB: admission control + CLOCK
    // eviction keep the resident footprint under the budget forever.
    let service = TuningService::new(ServiceConfig {
        threads: 4,
        budget_bytes: Some(32 * 1024 * 1024),
        ..ServiceConfig::default()
    })
    .expect("cold start cannot fail");

    // A direct call; share the service through an `Arc` to call it from
    // several threads at once.
    let line = "{\"id\": \"demo\", \"kind\": \"isolation\", \
                \"catalog\": {\"scale\": 0.05, \"seed\": 7}, \"ipc_threshold\": 0.2}";
    let request = parse_request(line).expect("the demo request is well-formed");

    let start = Instant::now();
    let cold = service.handle(&request);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let warm = service.handle(&request);
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;

    if let TuningResponse::Report { report, .. } = &cold {
        println!("tuned {} benchmarks in isolation:", report.rows.len());
        for row in report.rows.iter().take(5) {
            println!(
                "  {:14} {:>4} switches, {:>6} marks executed",
                row.label,
                row.u64("switches"),
                row.u64("marks_executed")
            );
        }
        println!("  ...");
    }
    assert_eq!(
        cold.to_json().render_compact(),
        warm.to_json().render_compact(),
        "cache hits never change the answer"
    );
    println!("cold {cold_ms:.2}ms -> warm {warm_ms:.2}ms (answered from the artifact store)\n");

    // The same service over the NDJSON wire (here an in-memory transcript;
    // `serve_tcp` speaks the identical format over a socket).
    let transcript =
        "{\"id\": \"w1\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.05, \"seed\": 7}}\n\
                      {\"id\": \"w2\", \"kind\": \"oops\"}\n\
                      {\"id\": \"w3\", \"kind\": \"stats\"}\n";
    let mut out = Vec::new();
    let summary = serve_lines(&service, BufReader::new(transcript.as_bytes()), &mut out)
        .expect("in-memory serving cannot fail");
    println!(
        "wire: {} responses ({} structured errors — malformed lines never kill the loop)",
        summary.responses, summary.errors
    );
    let stats = service.stats();
    println!(
        "service stats: {} requests, {} reports, resident {} / {:?} budget bytes",
        stats.requests,
        stats.reports,
        stats.resident_bytes(),
        stats.budget_bytes.unwrap()
    );
}
