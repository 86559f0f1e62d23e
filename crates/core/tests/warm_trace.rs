//! Where a traced study's driver records land, cold and warm: each cell's
//! key derivation (the `cell-key` span) belongs to that cell's study-lane
//! context, scope = plan index, whether the driver fans the plan out to
//! workers (cold) or answers every cell from the store on the calling thread
//! (warm).

use phase_core::substrate::amp::MachineSpec;
use phase_core::substrate::runtime::TunerConfig;
use phase_core::substrate::sched::SimConfig;
use phase_core::substrate::trace::{self, Kind, Lane, TraceRecord};
use phase_core::substrate::workload::CatalogSpec;
use phase_core::{run_study, ArtifactStore, PipelineConfig, StudyMode, StudySpec};

/// One plan of 15 isolation cells.
fn study_spec() -> StudySpec {
    StudySpec {
        name: "warm_trace".into(),
        title: "cell-key spans, cold and warm".into(),
        mode: StudyMode::Isolation {
            catalog: CatalogSpec::standard(0.04, 7),
            machine: MachineSpec::core2_quad_amp(),
            pipeline: PipelineConfig::paper_best(),
            tuner: TunerConfig::paper_table1(),
            sim: SimConfig::default(),
        },
    }
}

/// Runs the study on `store` under a Bench-lane context; returns its records.
fn traced_run(store: &ArtifactStore) -> Vec<TraceRecord> {
    let id = trace::new_trace_id();
    {
        let _ctx = trace::install(id, Lane::Bench, 0);
        let report = run_study(&study_spec(), store, 4);
        assert_eq!(report.rows.len(), 15);
    }
    trace::take(id)
}

/// `(lane, scope)` of every closed span called `name`, in record order.
fn span_sites(records: &[TraceRecord], name: &str) -> Vec<(Lane, u32)> {
    records
        .iter()
        .filter(|record| record.kind == Kind::SpanClose && record.name == name)
        .map(|record| (record.lane, record.scope))
        .collect()
}

#[test]
fn cell_key_spans_sit_in_their_cells_study_lane_cold_and_warm() {
    trace::set_ring_capacity(1 << 17);
    trace::set_enabled(true);
    let store = ArtifactStore::new();
    let cold = traced_run(&store);
    let warm = traced_run(&store);
    trace::set_enabled(false);

    let expected: Vec<(Lane, u32)> = (0..15).map(|index| (Lane::Study, index)).collect();
    assert_eq!(span_sites(&cold, "cell-key"), expected, "cold run");
    assert_eq!(span_sites(&warm, "cell-key"), expected, "warm run");
    let cells = store.snapshot().stage("cells").unwrap();
    assert_eq!(
        (cells.hits, cells.misses),
        (15, 15),
        "the warm run hit every cell"
    );

    // The layer spans wrap the study on the caller's context.
    for name in ["prepare", "driver", "rows"] {
        assert_eq!(span_sites(&warm, name), [(Lane::Bench, 0)], "{name}");
    }
}
