//! # phase-core
//!
//! The top-level library of the phase-based-tuning reproduction (Sondag &
//! Rajan, *Phase-based tuning for better utilization of performance-asymmetric
//! multicore processors*, CGO 2011).
//!
//! The crate stitches the substrates together into the two halves of the
//! paper's technique and the evaluation harness around them:
//!
//! * **Static pipeline** ([`prepare_program`], [`PipelineConfig`]): block
//!   typing (k-means over instruction-mix/reuse-distance features or
//!   profile-guided), section summarization at basic-block / interval / loop
//!   granularity, phase-transition detection, and phase-mark instrumentation.
//! * **Experiment runner** ([`run_comparison`], [`ExperimentConfig`]):
//!   workload construction from the SPEC-like catalogue, a stock-scheduler
//!   baseline run and a phase-tuned run over identical job queues, and
//!   throughput/fairness comparisons in the paper's metrics.
//! * **Parallel experiment driver** ([`ExperimentPlan`], [`Driver`]): sweeps
//!   are described as plans — the cross-product of workloads, machines, and
//!   policies ([`ExperimentPlan::cross`]) or hand-assembled cells — and
//!   fanned across `std::thread::scope` workers with deterministic per-cell
//!   seeding, so `--threads=1` and `--threads=8` agree bit-for-bit.
//!
//! The individual substrates are re-exported under [`substrate`] so
//! applications can reach every layer through this one crate.
//!
//! ## Quick start
//!
//! ```
//! use phase_core::{run_comparison, ExperimentConfig};
//!
//! // A deliberately tiny configuration so the doctest stays fast; the bench
//! // harness uses the defaults instead.
//! let mut config = ExperimentConfig::smoke_test();
//! config.workload_slots = 4;
//! let result = run_comparison(&config);
//! assert!(result.tuned.total_instructions > 0);
//! println!("average-time reduction: {:.1}%", result.average_time_reduction_pct());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod artifacts;
mod driver;
mod experiment;
pub mod json;
mod latency;
pub mod pack;
mod pipeline;
mod report;
mod study;
pub mod trace_export;

pub use artifacts::{
    ArtifactStore, CachedCell, ClockCache, ContentHash, Fingerprint, SpillLoadReport, StableHasher,
    StageStats, StoreBudget, StoreFootprint, StoreStats, SPILL_STAGES,
};
pub use driver::{
    cell_seed, CellResult, CellSpec, Driver, ExperimentPlan, PlanAggregate, PlanOutcome,
    PlannedWorkload, Policy,
};
pub use experiment::{
    baseline_catalog, build_slots, comparison_plan, comparison_result, fairness_of,
    instrument_catalog, isolated_runtimes, isolated_runtimes_cached, planned_workload,
    prepare_workload, prepare_workload_cached, run_comparison, run_comparison_prepared,
    run_with_hook, throughput_of, ComparisonResult, ExperimentConfig, PreparedWorkload,
};
pub use json::JsonValue;
pub use latency::LatencyAccounting;
pub use pipeline::{
    instrument_stage, min_typed_block_size, prepare_program, profile_stage, regions_stage,
    type_blocks, typing_stage, uninstrumented, IpcProfileArtifact, IpcProfileRow, PipelineConfig,
    TypingStrategy,
};
pub use report::{format_duration_ns, format_pct, TextTable};
pub use study::{
    policy_tag, run_study, ComparisonPoint, FamilySpec, MetricValue, PerfWorkload, StudyMode,
    StudyReport, StudyRow, StudySpec,
};

/// Re-exports of every substrate crate, so downstream users can depend on
/// `phase-core` alone.
pub mod substrate {
    pub use phase_amp as amp;
    pub use phase_analysis as analysis;
    pub use phase_cfg as cfg;
    pub use phase_ir as ir;
    pub use phase_marking as marking;
    pub use phase_metrics as metrics;
    pub use phase_online as online;
    pub use phase_runtime as runtime;
    pub use phase_sched as sched;
    pub use phase_trace as trace;
    pub use phase_workload as workload;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ExperimentConfig>();
        assert_send::<PipelineConfig>();
        assert_send::<ComparisonResult>();
    }
}
