//! Artifact-store benchmark (`BENCH_store.json`).
//!
//! Two measurements:
//!
//! * **remote cache** — a full `table1` study warms one store; a second
//!   store is then warm-started purely through `artifact-get` over live TCP
//!   against a phase-serve instance wrapping the warm one, and the per-get
//!   hit latency is reported as p50/p99.
//! * **budget run** — a wider request rotation through a service whose
//!   store is bounded to a few megabytes: the store must evict instead of
//!   growing, and its resident footprint must never exceed the byte budget.
//!
//! A broken invariant panics, so CI fails visibly. The warm restart from the
//! phase-pack spill and its load throughput are measured by the repository
//! benchmark (`perfbench`, workload `paper-restart`).

use std::sync::Arc;
use std::time::Instant;

use phase_bench::studies;
use phase_core::{run_study, ArtifactStore, JsonValue};
use phase_serve::{remote_warm_start, serve_tcp_with, ServiceConfig, TuningService, WireConfig};

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[rank]
}

fn main() {
    let settings = phase_bench::init(
        "Artifact-store benchmark (BENCH_store.json)",
        "Measures remote artifact-cache hit latency over live TCP, and replays a\n\
         request rotation through a byte-budgeted store. Fails unless the remote\n\
         sync is error-free and the bounded store evicts within its budget.",
    );
    let threads = settings.threads.max(1);

    // --- Remote artifact cache over live TCP, from a study-warmed origin. ---
    let store = Arc::new(ArtifactStore::new());
    let spec = studies::table1(&settings);
    let cold_start = Instant::now();
    let cold_report = run_study(&spec, &store, threads);
    println!(
        "cold {}: {:.4}s ({} rows)",
        spec.name,
        cold_start.elapsed().as_secs_f64(),
        cold_report.rows.len()
    );
    let origin = Arc::new(TuningService::with_store(Arc::clone(&store), threads));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    {
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
        });
    }
    let remote_store = Arc::new(ArtifactStore::new());
    let sync_start = Instant::now();
    let sync = remote_warm_start(addr, &remote_store).expect("remote warm start");
    let sync_s = sync_start.elapsed().as_secs_f64();
    assert!(sync.errors.is_empty(), "{:?}", sync.errors);
    assert!(sync.transferred > 0, "the remote sync moved artifacts");
    let mut latencies = sync.get_latency_ns.clone();
    latencies.sort_unstable();
    let (hit_p50_ns, hit_p99_ns) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0));
    println!(
        "remote cache: {} artifacts in {sync_s:.4}s, get p50 {:.1}us p99 {:.1}us",
        sync.transferred,
        hit_p50_ns as f64 / 1e3,
        hit_p99_ns as f64 / 1e3
    );

    // --- Budget-constrained run: distinct requests under a small budget. ---
    let scale = if settings.quick { 0.05 } else { 0.25 };
    let budget: u64 = if settings.quick {
        4 * 1024 * 1024
    } else {
        16 * 1024 * 1024
    };
    let bounded = TuningService::new(ServiceConfig {
        threads,
        budget_bytes: Some(budget),
        ..ServiceConfig::default()
    })
    .expect("cold start cannot fail");
    let mut max_resident = 0u64;
    let mut budget_requests = 0u64;
    for seed in 0..6u64 {
        for marking in ["loop", "interval"] {
            let line = format!(
                "{{\"id\": \"b-{seed}-{marking}\", \"kind\": \"marks\", \
                 \"catalog\": {{\"scale\": {scale}, \"seed\": {seed}}}, \
                 \"marking\": {{\"granularity\": \"{marking}\", \"min_section_size\": 45}}}}"
            );
            let response = bounded.respond(&line);
            assert!(!response.is_error(), "budget run request failed");
            budget_requests += 1;
            max_resident = max_resident.max(bounded.store().resident_bytes());
            assert!(
                max_resident <= budget,
                "budget exceeded: {max_resident} > {budget}"
            );
        }
    }
    let stats = bounded.stats();
    assert!(stats.evictions() > 0, "the bounded store never evicted");
    println!(
        "budget run: {budget_requests} requests, max resident {max_resident} / {budget} bytes, \
         {} evictions",
        stats.evictions()
    );

    // --- Report. ---
    let mut doc = JsonValue::object();
    for (name, value) in settings.meta_json() {
        doc = doc.field(name, value);
    }
    let doc = doc
        .field(
            "remote_cache",
            JsonValue::object()
                .field("artifacts", sync.transferred)
                .field("admitted", sync.admitted)
                .field("errors", sync.errors.len())
                .field("sync_s", sync_s)
                .field("hit_p50_ns", hit_p50_ns)
                .field("hit_p99_ns", hit_p99_ns),
        )
        .field(
            "budget_run",
            JsonValue::object()
                .field("scale", scale)
                .field("budget_bytes", budget)
                .field("requests", budget_requests)
                .field("max_resident_bytes", max_resident)
                .field("evictions", stats.evictions())
                .field("final_resident_bytes", stats.resident_bytes())
                .field("store", stats.store.to_json()),
        );
    let path = settings.out_path("BENCH_store.json");
    let written = phase_bench::write_report_file(&path, &doc.render()).map(|()| path);
    phase_bench::announce_report(written, "BENCH_store.json");
}
