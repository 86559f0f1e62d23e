//! Table 1: core switches and isolated runtime per benchmark under the best
//! technique (`Loop[45]`, 0.2 IPC threshold). Thin spec over the shared study
//! runner (`phase_bench::studies::table1`).

fn main() {
    phase_bench::run_study_main(
        "Table 1 — switches per benchmark (Loop[45], 0.2 threshold)",
        "Each benchmark runs alone on the AMP with the phase tuner; the table reports\n\
         the core switches it performed and its runtime. The 15 isolation runs are\n\
         independent cells fanned across the driver's worker threads.",
        phase_bench::studies::table1,
    );
}
