//! Sample statistics and the run report: every figure a workload
//! measures, the correctness gates it checked, and the final JSON line.

use std::fmt::Write as _;

/// Raw samples of one quantity; percentiles are exact (linear
/// interpolation between order statistics), never bucketed.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`); `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, ingests, instances).
    pub attempted: u64,
    /// Operations that failed: REJECT, ERROR, timeouts, ingests that
    /// did not apply, build-rejected instances.
    pub failed: u64,
    /// Correctness gates by name, `true` when passed.
    pub gates: Vec<(String, bool)>,
    /// The end-to-end metrics, under their `BENCHMARK.json` names.
    pub end_to_end: Vec<Figure>,
    /// The workload's own figures and diagnostics (printed, not part
    /// of the result object).
    pub figures: Vec<Figure>,
    /// The per-layer metrics of a traced run.
    pub layers: Vec<Figure>,
    /// The traced run's breakdown lines.
    pub breakdown: Vec<String>,
}

impl Report {
    pub fn gate(&mut self, name: &str, passed: bool) {
        self.gates.push((name.to_string(), passed));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Figure { name: name.to_string(), value, unit });
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push(Figure { name: name.to_string(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Figure { name: name.to_string(), value, unit });
    }

    /// Adds one breakdown line: `part` as a share of `whole`.
    pub fn part(&mut self, label: &str, part: f64, whole: f64, unit: &str) {
        let share = if whole > 0.0 { 100.0 * part / whole } else { 0.0 };
        self.breakdown.push(format!("  {label:<34} {part:>14.3} {unit:<3} {share:>6.1} %"));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, passed)| *passed)
    }
}

/// The per-layer metrics every traced run reports, with their units.
/// A layer the workload does not exercise reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("routing.recompute_ms.mean", "ms"),
    ("routing.recompute_ms.p99", "ms"),
    ("routing.repaired_sources", "count"),
    ("routing.fallback_sources", "count"),
    ("routing.nodes_scanned", "count"),
    ("routing.table_entries_rebuilt", "count"),
    ("routing.repair_yield", "ratio"),
    ("serve.publish_ms.mean", "ms"),
    ("serve.publish_ms.p99", "ms"),
    ("serve.publish_bytes", "B"),
    ("serve.execute_ns_per_query", "ns"),
    ("net.codec_ns_per_batch", "ns"),
    ("net.bytes_per_query", "B"),
    ("net.rtt_remainder_us", "us"),
    ("net.ingest_remainder_ms", "ms"),
    ("net.shed_frac", "ratio"),
    ("driver.late_p99_us", "us"),
    ("sim.build_us", "us"),
    ("sim.frame_us.mean", "us"),
    ("sim.frame_us.p99", "us"),
    ("sim.cycle_ns", "ns"),
    ("sim.cycles", "count"),
    ("sim.frames", "count"),
    ("sim.recomputes", "count"),
    ("sim.jobs_completed", "count"),
    ("fleet.observe_us", "us"),
    ("fleet.par_efficiency", "ratio"),
];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
];

/// Prints the human-readable report and returns the final JSON line.
///
/// # Errors
///
/// A metric the run should have produced is missing or not finite.
pub fn render(workload: &str, trace: bool, report: &Report) -> Result<String, String> {
    println!("workload {workload} ({})", if trace { "traced" } else { "untraced" });
    for f in &report.figures {
        println!("  {:<34} {:>16.4} {}", f.name, f.value, f.unit);
    }
    for (name, passed) in &report.gates {
        println!("  gate {name:<29} {}", if *passed { "pass" } else { "FAIL" });
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} ratio ({} of {})",
        "failed_frac", failed_frac, report.failed, report.attempted
    );

    let (declared, produced) =
        if trace { (PER_LAYER, &report.layers) } else { (END_TO_END, &report.end_to_end) };
    if trace {
        for line in &report.breakdown {
            println!("{line}");
        }
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match produced.iter().find(|f| f.name == *name) {
            Some(f) if f.unit != *unit => {
                return Err(format!("metric {name} measured in {} not {unit}", f.unit))
            }
            Some(f) => f.value,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("  {name:<34} {value:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed
    ))
}
