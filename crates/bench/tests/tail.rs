//! The datacenter tail-latency study's determinism and golden pins.
//!
//! The `BENCH_tail.json` rows must be bit-identical regardless of how many
//! driver workers computed them — the open-loop arrival traces, request
//! mixes, deadlines, and latency histograms are all pure functions of the
//! spec — and the quick-mode rows are pinned to a captured golden so a
//! drive-by change to the service catalogue, the arrival generator, or the
//! latency accounting cannot silently shift the quantiles.

use phase_bench::{studies, BenchSettings};
use phase_core::{run_study, ArtifactStore};

fn settings() -> BenchSettings {
    BenchSettings::for_tests(6)
}

#[test]
fn tail_rows_are_bit_identical_across_thread_counts() {
    let spec = studies::tail(&settings());
    let one = run_study(&spec, &ArtifactStore::new(), 1);
    let eight = run_study(&spec, &ArtifactStore::new(), 8);
    // Full-row equality: labels, every metric, and the complete latency CDF
    // curves (MetricValue::Cdf compares point-for-point).
    assert_eq!(one.rows, eight.rows);
}

#[test]
fn tail_quick_rows_match_the_golden_capture() {
    let spec = studies::tail(&settings());
    let report = run_study(&spec, &ArtifactStore::new(), 2);
    let rendered = studies::render(&report).expect("the tail study is in the table");
    let golden = include_str!("golden/tail.txt");
    assert_eq!(
        rendered.trim_end_matches('\n'),
        golden.trim_end_matches('\n'),
        "tail study diverged from the pinned quick-mode capture"
    );
}

#[test]
fn tail_headline_and_deadline_accounting_hold() {
    let spec = studies::tail(&settings());
    let report = run_study(&spec, &ArtifactStore::new(), 2);
    assert!(
        studies::tail_phase_aware_wins(&report) > 0,
        "at least one sweep cell must show a phase-aware policy beating the partition on p99"
    );
    // The bursty trace overloads the machine, so its cells must observe
    // real deadline misses — and the misses must agree with the violation
    // fraction row by row.
    let mut bursty_misses = 0;
    for row in &report.rows {
        let requests = row.u64("requests");
        let misses = row.u64("deadline_misses");
        let violation = row.f64("slo_violation");
        assert!(requests > 0);
        assert!((violation - misses as f64 / requests as f64).abs() < 1e-12);
        assert_eq!(
            row.u64("underflows"),
            0,
            "no latency subtraction underflowed"
        );
        if row.label.starts_with("bursty/") {
            bursty_misses += misses;
        }
    }
    assert!(
        bursty_misses > 0,
        "the overloaded bursty family missed deadlines"
    );
}
