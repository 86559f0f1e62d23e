//! The benchmark catalogue: fifteen SPEC-named synthetic benchmarks.
//!
//! The names and the *shape* of each benchmark (how memory- or CPU-bound it
//! is, how often its behaviour changes, and how long it runs relative to the
//! others) follow the fifteen benchmarks of the paper's Table 1. Two of them
//! (459.GemsFDTD and 473.astar) consist of a single phase kind and therefore
//! have no phase transitions at all, exactly as the paper reports.

use std::sync::Arc;

use phase_ir::Program;
use serde::{Deserialize, Serialize};

use crate::generator::generate_program;
use crate::profile::{BenchmarkProfile, PhaseSpec};

/// A generated benchmark: profile plus the program built from it.
#[derive(Debug, Clone)]
pub struct Benchmark {
    profile: BenchmarkProfile,
    program: Arc<Program>,
}

impl Benchmark {
    /// Generates a benchmark from its profile.
    pub fn generate(profile: BenchmarkProfile, seed: u64) -> Self {
        let program = Arc::new(generate_program(&profile, seed));
        Self { profile, program }
    }

    /// A benchmark from its profile and the program already generated from
    /// it (the decode path of an artifact spill, which shares one program
    /// across every artifact built from it).
    pub fn from_parts(profile: BenchmarkProfile, program: Arc<Program>) -> Self {
        Self { profile, program }
    }

    /// The benchmark's name (e.g. `183.equake`).
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// The benchmark's profile.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// The generated program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }
}

/// Identifier of a benchmark within a [`Catalog`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct BenchmarkId(pub usize);

/// The benchmark catalogue used to build workloads.
#[derive(Debug, Clone)]
pub struct Catalog {
    benchmarks: Vec<Benchmark>,
}

impl Catalog {
    /// The full 15-benchmark catalogue at the given scale.
    ///
    /// `scale` multiplies every phase's outer trip count: `1.0` gives the
    /// standard experiment size (hundreds of thousands to a few million
    /// dynamic instructions per benchmark), smaller values give faster runs
    /// for tests.
    pub fn standard(scale: f64, seed: u64) -> Self {
        let benchmarks = standard_profiles()
            .into_iter()
            .map(|p| Benchmark::generate(p.scaled(scale), seed))
            .collect();
        Self { benchmarks }
    }

    /// A catalogue of already-built benchmarks, in order.
    pub fn from_benchmarks(benchmarks: Vec<Benchmark>) -> Self {
        Self { benchmarks }
    }

    /// A drastically scaled-down catalogue for unit and integration tests.
    pub fn tiny(seed: u64) -> Self {
        Self::standard(0.04, seed)
    }

    /// A catalogue built from an explicit profile list at the given scale.
    pub fn from_profiles(profiles: Vec<BenchmarkProfile>, scale: f64, seed: u64) -> Self {
        let benchmarks = profiles
            .into_iter()
            .map(|p| Benchmark::generate(p.scaled(scale), seed))
            .collect();
        Self { benchmarks }
    }

    /// The mixed CPU/memory scenario family ([`mixed_profiles`]) at the given
    /// scale: programs whose phase sequences interleave three or more
    /// behavioural flavours, producing far denser phase-transition traffic
    /// than the Table 1 benchmarks.
    pub fn mixed(scale: f64, seed: u64) -> Self {
        Self::from_profiles(mixed_profiles(), scale, seed)
    }

    /// The drifting-phase / unmarked-binary scenario family
    /// ([`drifting_profiles`]) at the given scale: programs whose flavour mix
    /// rotates mid-run and whose blocks all sit below the static pipeline's
    /// typing threshold, so static marking comes up empty and only interval
    /// sampling (`phase-online`) can see their phases.
    pub fn drifting(scale: f64, seed: u64) -> Self {
        Self::from_profiles(drifting_profiles(), scale, seed)
    }

    /// The request-serving scenario family ([`service_profiles`]) at the
    /// given scale: short request programs that flow through the serving
    /// pipeline's NIC-poll → network-stack → application phases, meant to be
    /// replayed thousands at a time under an open-loop arrival trace
    /// ([`crate::WorkloadSpec::OpenLoop`]) rather than queued back to back.
    pub fn service(scale: f64, seed: u64) -> Self {
        Self::from_profiles(service_profiles(), scale, seed)
    }

    /// The standard Table 1 catalogue plus the mixed scenario family.
    pub fn extended(scale: f64, seed: u64) -> Self {
        let mut profiles = standard_profiles();
        profiles.extend(mixed_profiles());
        Self::from_profiles(profiles, scale, seed)
    }

    /// Number of benchmarks.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether the catalogue is empty (never true for the built-in ones).
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// All benchmarks.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Looks up a benchmark by id.
    pub fn get(&self, id: BenchmarkId) -> Option<&Benchmark> {
        self.benchmarks.get(id.0)
    }

    /// Looks up a benchmark by name.
    pub fn by_name(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name() == name)
    }

    /// Iterator over `(id, benchmark)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BenchmarkId, &Benchmark)> {
        self.benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| (BenchmarkId(i), b))
    }
}

/// The fifteen benchmark profiles of the paper's Table 1.
pub fn standard_profiles() -> Vec<BenchmarkProfile> {
    vec![
        // Frequent compress/scan alternation, medium length.
        BenchmarkProfile::new(
            "401.bzip2",
            vec![
                PhaseSpec::cpu_integer(220, 30, 28),
                PhaseSpec::memory_streaming(90, 30, 28, 24 * 1024 * 1024),
            ],
            24,
        ),
        // Long-running FP solver with streaming sweeps.
        BenchmarkProfile::new(
            "410.bwaves",
            vec![
                PhaseSpec::cpu_float(450, 30, 32),
                PhaseSpec::memory_streaming(200, 30, 32, 192 * 1024 * 1024),
            ],
            20,
        ),
        // Pointer-chasing network simplex with a short bookkeeping phase.
        BenchmarkProfile::new(
            "429.mcf",
            vec![
                PhaseSpec::pointer_chase(400, 30, 30, 64 * 1024 * 1024),
                PhaseSpec::cpu_integer(60, 20, 24),
            ],
            10,
        ),
        // Single behaviour throughout: no phases at all (Table 1 reports 0
        // switches).
        BenchmarkProfile::new(
            "459.GemsFDTD",
            vec![PhaseSpec::memory_streaming(400, 30, 32, 160 * 1024 * 1024)],
            6,
        ),
        // Streaming stencil with occasional cache-resident updates.
        BenchmarkProfile::new(
            "470.lbm",
            vec![
                PhaseSpec::memory_streaming(180, 30, 36, 48 * 1024 * 1024),
                PhaseSpec::balanced(180, 20, 24),
            ],
            20,
        ),
        // Single integer search phase (0 switches in Table 1).
        BenchmarkProfile::new("473.astar", vec![PhaseSpec::cpu_integer(300, 25, 26)], 4),
        // FP molecular dynamics, almost entirely one phase.
        BenchmarkProfile::new(
            "188.ammp",
            vec![
                PhaseSpec::cpu_float(250, 25, 30),
                PhaseSpec::memory_streaming(30, 15, 24, 16 * 1024 * 1024),
            ],
            6,
        ),
        // Long FP solver alternating compute and sweep phases.
        BenchmarkProfile::new(
            "173.applu",
            vec![
                PhaseSpec::cpu_float(280, 30, 32),
                PhaseSpec::memory_streaming(110, 30, 32, 64 * 1024 * 1024),
            ],
            24,
        ),
        // Small FP neural-network benchmark.
        BenchmarkProfile::new(
            "179.art",
            vec![
                PhaseSpec::cpu_float(200, 20, 28),
                PhaseSpec::balanced(30, 15, 20),
            ],
            6,
        ),
        // Very frequent alternation between short phases (highest switch
        // count in Table 1 despite the short runtime).
        BenchmarkProfile::new(
            "183.equake",
            vec![
                PhaseSpec::cpu_float(160, 12, 24),
                PhaseSpec::memory_streaming(80, 12, 24, 32 * 1024 * 1024),
            ],
            60,
        ),
        // Short integer benchmark, essentially one phase.
        BenchmarkProfile::new(
            "164.gzip",
            vec![
                PhaseSpec::cpu_integer(120, 20, 26),
                PhaseSpec::balanced(15, 12, 20),
            ],
            6,
        ),
        // Small pointer-chasing benchmark.
        BenchmarkProfile::new(
            "181.mcf",
            vec![
                PhaseSpec::pointer_chase(100, 20, 26, 32 * 1024 * 1024),
                PhaseSpec::cpu_integer(20, 15, 22),
            ],
            8,
        ),
        // Rapidly alternating multigrid sweeps.
        BenchmarkProfile::new(
            "172.mgrid",
            vec![
                PhaseSpec::memory_streaming(60, 15, 26, 32 * 1024 * 1024),
                PhaseSpec::cpu_float(120, 15, 26),
            ],
            60,
        ),
        // Long, rapidly alternating shallow-water stencils.
        BenchmarkProfile::new(
            "171.swim",
            vec![
                PhaseSpec::memory_streaming(60, 20, 30, 192 * 1024 * 1024),
                PhaseSpec::cpu_float(120, 20, 30),
            ],
            80,
        ),
        // Integer place-and-route with occasional pointer chasing.
        BenchmarkProfile::new(
            "175.vpr",
            vec![
                PhaseSpec::cpu_integer(100, 20, 26),
                PhaseSpec::pointer_chase(15, 15, 24, 16 * 1024 * 1024),
            ],
            8,
        ),
    ]
}

/// The mixed CPU/memory scenario family: synthetic programs whose phase
/// sequences interleave three or more behavioural flavours per outer
/// iteration. Where the Table 1 benchmarks mostly alternate between two
/// phases, these stress the tuner (and the event-driven engine) with dense,
/// irregular phase-transition traffic.
pub fn mixed_profiles() -> Vec<BenchmarkProfile> {
    vec![
        // FFT-then-sort pipeline: compute, stream, cache-resident shuffle,
        // pointer-heavy merge — four flavours per iteration.
        BenchmarkProfile::new(
            "mix.fftsort",
            vec![
                PhaseSpec::cpu_float(120, 20, 28),
                PhaseSpec::memory_streaming(80, 20, 28, 64 * 1024 * 1024),
                PhaseSpec::balanced(60, 15, 22),
                PhaseSpec::pointer_chase(40, 15, 24, 32 * 1024 * 1024),
            ],
            18,
        ),
        // Render pass: heavy FP shading with cache-resident setup and a
        // streaming write-back sweep.
        BenchmarkProfile::new(
            "mix.render",
            vec![
                PhaseSpec::balanced(50, 15, 20),
                PhaseSpec::cpu_float(200, 25, 30),
                PhaseSpec::memory_streaming(90, 25, 30, 96 * 1024 * 1024),
            ],
            16,
        ),
        // Database join: index walks, integer filtering, then a scan of the
        // fact table.
        BenchmarkProfile::new(
            "mix.dbjoin",
            vec![
                PhaseSpec::pointer_chase(140, 20, 26, 96 * 1024 * 1024),
                PhaseSpec::cpu_integer(90, 20, 24),
                PhaseSpec::memory_streaming(70, 20, 28, 128 * 1024 * 1024),
            ],
            14,
        ),
        // Compress-and-ship loop: integer compression, a streaming copy, and
        // cache-resident checksumming, changing behaviour very frequently.
        BenchmarkProfile::new(
            "mix.compress",
            vec![
                PhaseSpec::cpu_integer(70, 12, 24),
                PhaseSpec::memory_streaming(50, 12, 24, 24 * 1024 * 1024),
                PhaseSpec::balanced(30, 10, 18),
            ],
            40,
        ),
        // Molecular-dynamics step: neighbour-list chase, FP force kernel,
        // integer bookkeeping, coordinate streaming.
        BenchmarkProfile::new(
            "mix.mdstep",
            vec![
                PhaseSpec::pointer_chase(60, 15, 24, 48 * 1024 * 1024),
                PhaseSpec::cpu_float(160, 20, 30),
                PhaseSpec::cpu_integer(40, 12, 20),
                PhaseSpec::memory_streaming(70, 20, 28, 64 * 1024 * 1024),
            ],
            12,
        ),
    ]
}

/// The drifting-phase scenario family: programs the static pipeline cannot
/// mark, whose behavioural mix rotates mid-run.
///
/// Two properties set these apart from every other family:
///
/// * **Unmarkable.** Every block is *uniform* (no contrast block) and smaller
///   than the static pipeline's typing threshold, so block typing finds
///   nothing to type, no phase marks are inserted, and `Policy::Tuned`
///   degenerates to the stock scheduler — its speedup collapses to 1.0.
/// * **Drifting.** The per-visit durations rotate the CPU/memory duty cycle
///   across the run (e.g. 80% CPU early, 80% memory late), so even a
///   hypothetical one-shot measurement goes stale; the online tuner's
///   drift-triggered retuning is the only path that keeps up.
pub fn drifting_profiles() -> Vec<BenchmarkProfile> {
    // All blocks ≤ 13 instructions — below the 15-instruction typing
    // threshold and too small for any marking granularity to section. The
    // duty cycle stays compute-dominant overall (as in SPEC), because a
    // machine with two slow cores can only ever absorb roughly its capacity
    // share of memory-phase work; what drifts is *when* the memory phases
    // come.
    let cpu = |trips| PhaseSpec::cpu_float(trips, 26, 12).uniform();
    let intc = |trips| PhaseSpec::cpu_integer(trips, 26, 12).uniform();
    let mem = |trips| PhaseSpec::memory_streaming(trips, 26, 12, 128 * 1024 * 1024).uniform();
    let chase = |trips| PhaseSpec::pointer_chase(trips, 26, 12, 64 * 1024 * 1024).uniform();
    vec![
        // Compute-heavy start rotating into a memory-flavoured tail.
        BenchmarkProfile::new(
            "drift.rampmem",
            vec![
                cpu(5200),
                mem(300),
                cpu(2600),
                mem(900),
                cpu(1300),
                mem(1500),
            ],
            2,
        ),
        // The mirror image: the memory phases come first.
        BenchmarkProfile::new(
            "drift.rampcpu",
            vec![
                mem(1500),
                cpu(1300),
                mem(900),
                cpu(2600),
                mem(300),
                cpu(5200),
            ],
            2,
        ),
        // Stable alternation — not drifting, but still unmarkable: isolates
        // the pure unmarked-binary benefit of online tuning.
        BenchmarkProfile::new("drift.square", vec![cpu(3400), mem(1100)], 4),
        // Three flavours rotating through different duty cycles.
        BenchmarkProfile::new(
            "drift.tide",
            vec![
                intc(3200),
                chase(500),
                intc(1600),
                chase(1000),
                cpu(2400),
                mem(800),
            ],
            2,
        ),
        // A memory soak that turns into compute once warmed up.
        BenchmarkProfile::new(
            "drift.thaw",
            vec![mem(1600), chase(500), intc(4200), cpu(3000)],
            2,
        ),
    ]
}

/// The request-serving scenario family: each profile is one *request type* of
/// a datacenter service, not a long-running benchmark. Every request flows
/// through the same three pipeline stages — a short integer NIC-poll phase, a
/// cache-warm network-stack phase (header parsing, socket bookkeeping), and an
/// application phase whose flavour is what distinguishes the request types
/// (FP compute, pointer-chasing key-value lookup, streaming table scan, or a
/// compute/write-back mix). The stage contrast is what gives phase-aware
/// policies something to exploit: NIC/stack phases lose little on a slow
/// core, while the application phase's speedup on a fast core decides the
/// request's latency.
pub fn service_profiles() -> Vec<BenchmarkProfile> {
    let nic_poll = || PhaseSpec::cpu_integer(30, 15, 22);
    let net_stack = || PhaseSpec::memory_streaming(40, 15, 24, 8 * 1024 * 1024);
    vec![
        // A compute-bound request: pricing/compression style FP kernel.
        BenchmarkProfile::new(
            "svc.compute",
            vec![nic_poll(), net_stack(), PhaseSpec::cpu_float(140, 20, 28)],
            2,
        ),
        // Key-value point lookup: the application phase chases an index.
        BenchmarkProfile::new(
            "svc.kvstore",
            vec![
                nic_poll(),
                net_stack(),
                PhaseSpec::pointer_chase(110, 20, 26, 64 * 1024 * 1024),
            ],
            2,
        ),
        // Analytics scan: the application phase streams a large table.
        BenchmarkProfile::new(
            "svc.scan",
            vec![
                nic_poll(),
                PhaseSpec::balanced(30, 12, 20),
                PhaseSpec::memory_streaming(120, 20, 28, 96 * 1024 * 1024),
            ],
            2,
        ),
        // Render/serialize request: FP work then a streaming write-back.
        BenchmarkProfile::new(
            "svc.render",
            vec![
                PhaseSpec::cpu_integer(24, 12, 20),
                net_stack(),
                PhaseSpec::cpu_float(90, 18, 26),
                PhaseSpec::memory_streaming(50, 15, 26, 48 * 1024 * 1024),
            ],
            2,
        ),
    ]
}

/// Names of the benchmarks in [`standard_profiles`], in catalogue order.
pub fn standard_benchmark_names() -> Vec<&'static str> {
    vec![
        "401.bzip2",
        "410.bwaves",
        "429.mcf",
        "459.GemsFDTD",
        "470.lbm",
        "473.astar",
        "188.ammp",
        "173.applu",
        "179.art",
        "183.equake",
        "164.gzip",
        "181.mcf",
        "172.mgrid",
        "171.swim",
        "175.vpr",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_the_fifteen_table1_benchmarks() {
        let profiles = standard_profiles();
        assert_eq!(profiles.len(), 15);
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        for expected in standard_benchmark_names() {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn single_phase_benchmarks_match_table1_zero_switch_entries() {
        for profile in standard_profiles() {
            let expected_single = matches!(profile.name.as_str(), "459.GemsFDTD" | "473.astar");
            assert_eq!(
                profile.distinct_phase_kinds() == 1,
                expected_single,
                "{} phase kinds",
                profile.name
            );
        }
    }

    #[test]
    fn relative_sizes_follow_the_paper_ordering() {
        let sizes: std::collections::HashMap<String, u64> = standard_profiles()
            .into_iter()
            .map(|p| (p.name.clone(), p.approx_dynamic_instructions()))
            .collect();
        // The paper's longest benchmarks dwarf its shortest ones.
        assert!(sizes["410.bwaves"] > sizes["164.gzip"] * 10);
        assert!(sizes["171.swim"] > sizes["183.equake"]);
        assert!(sizes["429.mcf"] > sizes["181.mcf"]);
    }

    #[test]
    fn tiny_catalogue_generates_quickly_and_is_smaller() {
        let tiny = Catalog::tiny(1);
        assert_eq!(tiny.len(), 15);
        let standard_size: u64 = standard_profiles()
            .iter()
            .map(BenchmarkProfile::approx_dynamic_instructions)
            .sum();
        let tiny_size: u64 = tiny
            .benchmarks()
            .iter()
            .map(|b| b.profile().approx_dynamic_instructions())
            .sum();
        assert!(tiny_size < standard_size / 4);
    }

    #[test]
    fn catalogue_lookup_by_name_and_id() {
        let catalog = Catalog::tiny(2);
        assert!(catalog.by_name("183.equake").is_some());
        assert!(catalog.by_name("999.nonexistent").is_none());
        assert!(catalog.get(BenchmarkId(0)).is_some());
        assert!(catalog.get(BenchmarkId(99)).is_none());
        assert!(!catalog.is_empty());
        assert_eq!(catalog.iter().count(), 15);
    }

    #[test]
    fn mixed_profiles_interleave_at_least_three_flavours() {
        let profiles = mixed_profiles();
        assert!(profiles.len() >= 5);
        for profile in &profiles {
            assert!(
                profile.distinct_phase_kinds() >= 3,
                "{} mixes only {} phase kinds",
                profile.name,
                profile.distinct_phase_kinds()
            );
            assert!(profile.name.starts_with("mix."));
        }
    }

    #[test]
    fn extended_catalogue_holds_both_families() {
        let extended = Catalog::extended(0.04, 5);
        assert_eq!(extended.len(), 15 + mixed_profiles().len());
        assert!(extended.by_name("183.equake").is_some());
        assert!(extended.by_name("mix.fftsort").is_some());
        let mixed = Catalog::mixed(0.04, 5);
        assert_eq!(mixed.len(), mixed_profiles().len());
        for (_, bench) in mixed.iter() {
            assert!(bench.program().stats().instructions > 0);
        }
    }

    #[test]
    fn drifting_profiles_are_uniform_and_tiny_blocked() {
        let profiles = drifting_profiles();
        assert!(profiles.len() >= 5);
        for profile in &profiles {
            assert!(profile.name.starts_with("drift."));
            for phase in &profile.phases {
                assert!(phase.uniform, "{} has a contrast block", profile.name);
                assert!(
                    phase.block_size + 1 < 15,
                    "{} blocks reach the typing threshold",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn drifting_catalogue_generates_small_uniform_blocks() {
        let drifting = Catalog::drifting(0.02, 5);
        assert_eq!(drifting.len(), drifting_profiles().len());
        for (_, bench) in drifting.iter() {
            assert!(bench.program().stats().instructions > 0);
            for proc in bench.program().procedures() {
                if !proc.name().starts_with("phase_") {
                    continue;
                }
                for block in proc.blocks() {
                    assert!(
                        block.instruction_count() < 15,
                        "{}:{} has {} instructions",
                        bench.name(),
                        proc.name(),
                        block.instruction_count()
                    );
                }
            }
        }
    }

    #[test]
    fn service_profiles_model_the_request_pipeline() {
        let profiles = service_profiles();
        assert!(profiles.len() >= 4);
        let longest = profiles
            .iter()
            .map(BenchmarkProfile::approx_dynamic_instructions)
            .max()
            .unwrap();
        let shortest_standard = standard_profiles()
            .iter()
            .map(BenchmarkProfile::approx_dynamic_instructions)
            .min()
            .unwrap();
        for profile in &profiles {
            assert!(profile.name.starts_with("svc."));
            assert!(
                profile.phases.len() >= 3,
                "{} misses a pipeline stage",
                profile.name
            );
            assert!(
                profile.distinct_phase_kinds() >= 2,
                "{} has nothing for the marker to contrast",
                profile.name
            );
        }
        // Requests stay short relative to the batch benchmarks, so open-loop
        // runs can replay thousands of them.
        assert!(longest < shortest_standard);
        let catalog = Catalog::service(0.5, 11);
        assert_eq!(catalog.len(), profiles.len());
        for (_, bench) in catalog.iter() {
            assert!(bench.program().stats().instructions > 0);
        }
    }

    #[test]
    fn generated_programs_validate_and_carry_names() {
        let catalog = Catalog::tiny(3);
        for (_, bench) in catalog.iter() {
            assert_eq!(bench.program().name(), bench.name());
            assert!(bench.program().stats().instructions > 0);
        }
    }
}
