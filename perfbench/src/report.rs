//! What one run reports: the metrics the benchmark's contract names (the
//! last stdout line, one JSON object) and the wider human-readable table
//! printed above it.

use phase_core::JsonValue;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes (1 for a single reading).
    pub count: usize,
}

impl Metric {
    /// A metric summarizing `count` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, count: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            count,
        }
    }
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, or requests).
    pub attempted: u64,
    /// Operations whose output was wrong, refused, or late.
    pub failed: u64,
    /// The contract metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Further readings shown only in the human-readable table.
    pub details: Vec<Metric>,
}

impl Outcome {
    /// Adds a contract metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }

    /// Adds a reading for the human-readable table only.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.details.push(Metric::new(name, value, unit, n));
    }

    /// Counts one operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Prints the human-readable table, then the contract's JSON line last.
    pub fn print(&self, workload: &str) {
        println!("== {workload} ==");
        for (section, metrics) in [("metrics", &self.metrics), ("details", &self.details)] {
            if metrics.is_empty() {
                continue;
            }
            println!("-- {section} --");
            for metric in metrics {
                println!(
                    "{:<34} {:>16.6} {:<10} n={}",
                    metric.name, metric.value, metric.unit, metric.count
                );
            }
        }
        println!(
            "attempted {}  failed {}  failed_frac {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let metrics = self
            .metrics
            .iter()
            .fold(JsonValue::object(), |doc, metric| {
                doc.field(
                    &metric.name,
                    JsonValue::object()
                        .field("value", finite(metric.value))
                        .field("unit", metric.unit),
                )
            });
        let line = JsonValue::object()
            .field("correct", self.failed == 0 && self.attempted > 0)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics);
        println!("{}", line.render_compact());
    }
}

/// A JSON-safe number: a metric with no samples reads 0 rather than `null`.
fn finite(value: f64) -> JsonValue {
    JsonValue::Float(if value.is_finite() { value } else { 0.0 })
}
