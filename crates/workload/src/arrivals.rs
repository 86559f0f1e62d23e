//! Open-loop arrival traces for request-serving workloads.
//!
//! A *trace shape* describes how request arrivals are distributed over a run:
//! memoryless Poisson arrivals, an on/off square wave (bursty), or one slow
//! sinusoidal swell (a compressed diurnal cycle). Every shape offers the same
//! mean rate over the run, so shapes differ only in how harshly they queue.
//! Arrival times are drawn by Lewis–Shedler thinning of a homogeneous process
//! at the shape's peak rate from a seeded SplitMix64 stream, so a given
//! `(shape, rate, duration, seed)` always produces the identical trace —
//! the property every determinism test in the workspace leans on.
//!
//! The same generators drive both the live TCP load of the repository
//! benchmark (perfbench's `serve-mix` workload) and the simulated serving
//! workloads built by [`WorkloadSpec::OpenLoop`](crate::WorkloadSpec).

use serde::{Deserialize, Serialize};

/// splitmix64: tiny, seedable, and good enough for arrival jitter.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The shape of an open-loop arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceShape {
    /// Memoryless arrivals at a constant rate.
    Poisson,
    /// On/off square wave: the whole load arrives in 25%-duty bursts at 4x
    /// the mean rate (same offered load, much harsher queueing).
    Bursty,
    /// One slow sinusoidal swell across the run (a compressed day).
    Diurnal,
}

impl TraceShape {
    /// All shapes, in sweep order.
    pub fn all() -> [TraceShape; 3] {
        [TraceShape::Poisson, TraceShape::Bursty, TraceShape::Diurnal]
    }

    /// Stable lowercase name for labels and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TraceShape::Poisson => "poisson",
            TraceShape::Bursty => "bursty",
            TraceShape::Diurnal => "diurnal",
        }
    }

    /// Instantaneous arrival rate at `t`, shaped so every trace offers the
    /// same mean `rate_hz` over `duration_s`.
    pub fn intensity(self, t: f64, duration_s: f64, rate_hz: f64) -> f64 {
        match self {
            TraceShape::Poisson => rate_hz,
            TraceShape::Bursty => {
                const PERIOD_S: f64 = 0.2;
                const DUTY: f64 = 0.25;
                if (t / PERIOD_S).fract() < DUTY {
                    rate_hz / DUTY
                } else {
                    0.0
                }
            }
            TraceShape::Diurnal => {
                let phase = std::f64::consts::TAU * t / duration_s;
                rate_hz * (1.0 + 0.9 * phase.sin())
            }
        }
    }

    /// The maximum instantaneous rate the shape ever reaches.
    pub fn peak(self, rate_hz: f64) -> f64 {
        match self {
            TraceShape::Poisson => rate_hz,
            TraceShape::Bursty => rate_hz / 0.25,
            TraceShape::Diurnal => rate_hz * 1.9,
        }
    }

    /// Arrival offsets (seconds from trace start) via Lewis–Shedler thinning
    /// of a homogeneous process at the shape's peak rate.
    pub fn arrivals(self, rate_hz: f64, duration_s: f64, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64(seed);
        let peak = self.peak(rate_hz);
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - rng.next_f64()).ln() / peak;
            if t >= duration_s {
                return out;
            }
            if rng.next_f64() * peak < self.intensity(t, duration_s, rate_hz) {
                out.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_sorted_and_bounded() {
        for shape in TraceShape::all() {
            let a = shape.arrivals(500.0, 2.0, 42);
            let b = shape.arrivals(500.0, 2.0, 42);
            assert_eq!(a, b, "{} trace must be reproducible", shape.name());
            assert!(!a.is_empty(), "{} trace produced no arrivals", shape.name());
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} arrivals out of order",
                shape.name()
            );
            assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        }
    }

    #[test]
    fn seeds_change_the_trace() {
        let a = TraceShape::Poisson.arrivals(500.0, 2.0, 1);
        let b = TraceShape::Poisson.arrivals(500.0, 2.0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn every_shape_offers_roughly_the_mean_rate() {
        for shape in TraceShape::all() {
            let arrivals = shape.arrivals(1_000.0, 4.0, 7);
            let mean = arrivals.len() as f64 / 4.0;
            assert!(
                (500.0..2_000.0).contains(&mean),
                "{}: mean rate {mean} strayed far from 1000",
                shape.name()
            );
        }
    }

    #[test]
    fn bursty_gaps_exist_and_diurnal_swells() {
        let bursty = TraceShape::Bursty.arrivals(1_000.0, 1.0, 9);
        let max_gap = bursty
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f64, f64::max);
        assert!(
            max_gap > 0.05,
            "bursty trace never paused (max gap {max_gap})"
        );
        // The diurnal first half (rising sine) carries more arrivals than the
        // second (falling below the mean).
        let diurnal = TraceShape::Diurnal.arrivals(1_000.0, 2.0, 9);
        let first = diurnal.iter().filter(|&&t| t < 1.0).count();
        let second = diurnal.len() - first;
        assert!(first > second);
    }
}
