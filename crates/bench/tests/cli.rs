//! The `run_studies` command line, driven through the built binary. Every
//! case runs the static `table_mark_stats` study or no study at all, so the
//! file stays fast in the debug test profile.

use std::path::PathBuf;
use std::process::{Command, Output};

use phase_bench::studies;

/// Runs `run_studies` with `args` and none of the `PHASE_BENCH_*` variables.
fn run_studies(args: &[&str]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_run_studies"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PHASE_BENCH_") {
            command.env_remove(name);
        }
    }
    command.args(args).output().expect("run_studies starts")
}

fn out_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phase-bench-cli-{test}-{}", std::process::id()))
}

#[test]
fn a_named_study_prints_what_its_old_binary_printed() {
    let dir = out_dir("named");
    let out = format!("--out={}", dir.display());
    let args = [
        "table_mark_stats",
        "--quick",
        "--slots=6",
        "--threads=2",
        &out,
    ];
    let output = run_studies(&args);
    assert!(output.status.success(), "{output:?}");
    let expected = format!(
        "== Phase-mark statistics (Sections III and IV-B) ==\n\
         Marks inserted per benchmark with Loop[45], their size, and the cost of a core switch.\n\
         (quick mode: reduced catalogue and horizon)\n\
         (driver: 2 worker threads)\n\n\
         {}wrote {}\n",
        include_str!("golden/table_mark_stats.txt"),
        dir.join("BENCH_table_mark_stats.json").display()
    );
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
    std::fs::remove_dir_all(&dir).expect("the report directory exists");
}

#[test]
fn an_unknown_study_exits_2_and_lists_the_names() {
    let output = run_studies(&["nope"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown study: nope"), "{stderr}");
    let listed = |study: &studies::Study| stderr.contains(study.name);
    assert!(studies::STUDIES.iter().all(listed), "{stderr}");
}

#[test]
fn a_study_help_prints_its_title_and_description() {
    let output = run_studies(&["fig6", "--help"]);
    assert!(output.status.success(), "{output:?}");
    let description = studies::find("fig6").expect("fig6 exists").description;
    let expected = format!("Figure 6 — throughput vs. IPC threshold\n{description}\n\nUSAGE: ");
    assert!(String::from_utf8_lossy(&output.stdout).starts_with(&expected));
}

#[test]
fn trace_out_writes_one_json_record_per_line() {
    let dir = out_dir("trace");
    let trace = dir.join("trace.ndjson");
    let (out, trace_out) = (
        format!("--out={}", dir.display()),
        format!("--trace-out={}", trace.display()),
    );
    let output = run_studies(&["table_mark_stats", "--quick", &out, &trace_out]);
    assert!(output.status.success(), "{output:?}");
    let ndjson = std::fs::read_to_string(&trace).expect("the trace was written");
    assert!(!ndjson.is_empty());
    for line in ndjson.lines() {
        assert!(phase_core::json::parse(line).is_ok(), "not JSON: {line}");
    }
    std::fs::remove_dir_all(&dir).expect("the report directory exists");
}
