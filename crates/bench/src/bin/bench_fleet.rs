//! `bench_fleet` — emits `BENCH_fleet.json`, the machine-readable perf
//! baseline of the fleet controller: instances/second at fleet sizes
//! 100, 1 000 and 10 000 of the small `smoke` scenario family.
//!
//! ```text
//! cargo run -p etx-bench --bin bench_fleet --release          # writes ./BENCH_fleet.json
//! cargo run -p etx-bench --bin bench_fleet --release -- out.json
//! ```
//!
//! Each point reports wall time, instances/sec, the shard count the
//! auto plan picked, and the aggregate's totals (so a perf "win" that
//! silently changed results is visible in review). Aggregates are
//! deterministic; timings of course are not.
//!
//! A `frame_walltime` block rides along: one smoke instance recorded
//! through `etx-trace` with wall-time capture on, reduced to per-frame
//! wall-time percentiles — the engine-level frame latency shape
//! (upload, dirty extraction, recompute, publish, record) that the
//! instances/sec figures average away.

use std::time::Instant;

use etx::fleet::{FleetController, ScenarioSpec, ShardPlan};
use etx::metrics::{CounterId, MetricsSnapshot};
use etx::trace::{record_run, RecordMode, RecordOptions};

struct Point {
    instances: usize,
    shards: usize,
    wall_seconds: f64,
    instances_per_sec: f64,
    jobs_completed_total: u128,
    lifetime_p50: u64,
    /// The run's merged fleet-wide metrics snapshot (per-shard
    /// counters-only registries; the shards record whether or not the
    /// bench reads them, so surfacing them costs nothing extra).
    metrics: MetricsSnapshot,
}

fn measure(instances: usize) -> Point {
    let spec = ScenarioSpec { instances, ..ScenarioSpec::smoke() };
    let controller = FleetController::new().with_shards(ShardPlan::Auto);
    // Single measured pass (fleet runs are long enough that best-of-N
    // would only measure the OS scheduler); `main` does one throwaway
    // warm-up call before the measured sizes.
    let start = Instant::now();
    let result = controller.run(&spec).expect("smoke-derived spec is valid");
    let wall = start.elapsed().as_secs_f64();
    Point {
        instances,
        shards: result.shards,
        wall_seconds: wall,
        instances_per_sec: instances as f64 / wall.max(1e-9),
        jobs_completed_total: result.aggregate.jobs_completed_total,
        lifetime_p50: result.aggregate.lifetime.quantile_raw(0.5),
        metrics: result.metrics,
    }
}

/// Per-frame wall-time distribution of one recorded smoke instance:
/// `(frames, p50_ns, p99_ns, p999_ns, max_ns)`. The first frame has no
/// predecessor timestamp (wall time 0) and is excluded.
fn frame_walltime_stats() -> (usize, u64, u64, u64, u64) {
    // The longest-lived smoke instance beats a 1-frame one: sample a few
    // and keep the instance with the most frames.
    let spec = ScenarioSpec { instances: 8, ..ScenarioSpec::smoke() };
    let mut best: Vec<u64> = Vec::new();
    for index in 0..spec.instances {
        let options = RecordOptions {
            spec: String::new(),
            instance: index as u64,
            mode: RecordMode::Full,
            wall_time: true,
        };
        let Ok((_report, trace)) = record_run(spec.sample(index), &options) else {
            continue;
        };
        let samples: Vec<u64> = trace.records.iter().skip(1).map(|r| r.wall_ns).collect();
        if samples.len() > best.len() {
            best = samples;
        }
    }
    if best.is_empty() {
        return (0, 0, 0, 0, 0);
    }
    best.sort_unstable();
    let pick = |q: f64| best[((best.len() - 1) as f64 * q).round() as usize];
    (best.len(), pick(0.50), pick(0.90), pick(0.999), best[best.len() - 1])
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_fleet.json".to_string());
    // Warm-up (code paths, allocator, page cache).
    let _ = measure(50);
    let mut points = Vec::new();
    for instances in [100usize, 1_000, 10_000] {
        let point = measure(instances);
        eprintln!(
            "instances={:>6} shards={:>2}: {:>8.3}s wall, {:>7.0} instances/sec, \
             {} jobs total, lifetime p50 {}",
            point.instances,
            point.shards,
            point.wall_seconds,
            point.instances_per_sec,
            point.jobs_completed_total,
            point.lifetime_p50,
        );
        points.push(point);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"fleet_throughput\",\n");
    json.push_str("  \"command\": \"cargo run -p etx-bench --bin bench_fleet --release\",\n");
    json.push_str("  \"units\": \"instances per second, single measured pass\",\n");
    json.push_str(
        "  \"workload\": \"smoke scenario family (3x3..4x4 fabrics, churn, heterogeneity), \
         auto shard plan, per-shard SimPool reuse\",\n",
    );
    let (ft_frames, ft_p50, ft_p90, ft_p999, ft_max) = frame_walltime_stats();
    eprintln!(
        "frame wall time (recorded smoke instance, {ft_frames} frames): \
         p50={ft_p50}ns p90={ft_p90}ns p999={ft_p999}ns max={ft_max}ns"
    );
    json.push_str(&format!(
        "  \"frame_walltime\": {{\"frames\": {ft_frames}, \"p50_ns\": {ft_p50}, \
         \"p90_ns\": {ft_p90}, \"p999_ns\": {ft_p999}, \"max_ns\": {ft_max}}},\n"
    ));
    // Headline counters of the largest measured run (shard-count
    // invariant, so reviewers can diff them like the aggregates).
    if let Some(largest) = points.last() {
        let m = &largest.metrics;
        json.push_str(&format!(
            "  \"metrics\": {{\"fleet_instances\": {}, \"sim_frames\": {}, \
             \"sim_recomputes\": {}, \"sim_jobs_completed\": {}, \"sim_jobs_lost\": {}, \
             \"sim_cycles_skipped\": {}}},\n",
            m.counter(CounterId::FleetInstances),
            m.counter(CounterId::SimFrames),
            m.counter(CounterId::SimRecomputes),
            m.counter(CounterId::SimJobsCompleted),
            m.counter(CounterId::SimJobsLost),
            m.counter(CounterId::SimCyclesSkipped),
        ));
    }
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"instances\": {}, \"shards\": {}, \"wall_seconds\": {:.3}, \
             \"instances_per_sec\": {:.0}, \"jobs_completed_total\": {}, \
             \"lifetime_p50\": {}}}{}\n",
            p.instances,
            p.shards,
            p.wall_seconds,
            p.instances_per_sec,
            p.jobs_completed_total,
            p.lifetime_p50,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
