//! `fleet_mixed`: paper-scale simulation throughput.
//!
//! `FleetController::run` with the auto shard plan on sweeps of the
//! `mixed` preset (3×3–6×6 mesh, torus and ring fabrics, EAR and SDR,
//! AES and SenseLog, churn), one seed per sweep. Simulator job
//! stepping does the work; routing is small-K Floyd–Warshall, so
//! repair and publish changes must not move it.
//!
//! A serial replay of sampled sweeps is the correctness oracle (its
//! aggregate must equal the controller's) and, in the traced run, the
//! place where `build_pooled`, `Simulation::step` and
//! `FleetAggregate::observe` are timed per call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etx::fleet::{FleetAggregate, FleetController, ScenarioSpec};
use etx::metrics::{CounterId, MetricsHandle, Registry};
use etx::sim::SimPool;

use crate::cpu::Meter;
use crate::report::{Report, Samples};

/// Instances per timed sweep.
const SWEEP: usize = 512;
/// Instances of the warm-up sweep inside set-up.
const WARM_SWEEP: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Sweeps replayed serially for the correctness gate.
const CHECKED: usize = 4;

/// The `mixed` preset with `instances` instances under sweep `sweep`'s
/// seed.
fn sweep_spec(seed: u64, sweep: u64, instances: usize) -> ScenarioSpec {
    let mut z = seed ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ScenarioSpec { seed: z ^ (z >> 31), instances, ..ScenarioSpec::default() }
}

/// Per-call timings of a traced serial replay.
#[derive(Default)]
struct Spans {
    build_us: Samples,
    frame_us: Samples,
    cycle_ns: f64,
    cycle_steps: u64,
    observe_us: Samples,
    steps: u64,
    frames: u64,
    recomputes: u64,
    jobs: u64,
}

/// Runs `spec`'s instances one after another on one pool, folding
/// exactly as a controller shard does.
fn replay(spec: &ScenarioSpec, mut spans: Option<&mut Spans>) -> FleetAggregate {
    let mut pool = SimPool::new();
    let mut agg = FleetAggregate::new();
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    for index in 0..spec.instances {
        let built = Instant::now();
        let Ok(mut sim) = spec.sample(index).build_pooled(&mut pool) else {
            agg.observe_rejection();
            continue;
        };
        metrics.inc(CounterId::FleetInstances);
        sim.set_metrics(metrics.clone());
        let Some(spans) = spans.as_deref_mut() else {
            agg.observe(&sim.run_pooled(&mut pool));
            continue;
        };
        spans.build_us.push(built.elapsed().as_nanos() as f64 / 1e3);
        // Frame-crossing steps are timed one by one; each run of plain
        // cycles between two frames is timed as one interval.
        let period = sim.config().tdma.frame_period.count().max(1);
        let mut run_start = Instant::now();
        let mut run_steps = 0u64;
        loop {
            spans.steps += 1;
            if sim.now() % period == 0 {
                if run_steps > 0 {
                    spans.cycle_ns += run_start.elapsed().as_nanos() as f64;
                    spans.cycle_steps += run_steps;
                    run_steps = 0;
                }
                let frame = Instant::now();
                let died = sim.step().is_some();
                spans.frame_us.push(frame.elapsed().as_nanos() as f64 / 1e3);
                spans.frames += 1;
                if died {
                    break;
                }
            } else {
                if run_steps == 0 {
                    run_start = Instant::now();
                }
                run_steps += 1;
                if sim.step().is_some() {
                    break;
                }
            }
        }
        if run_steps > 0 {
            spans.cycle_ns += run_start.elapsed().as_nanos() as f64;
            spans.cycle_steps += run_steps;
        }
        let report = sim.run_pooled(&mut pool);
        spans.recomputes += report.routing_recomputes;
        spans.jobs += report.jobs_completed;
        let observed = Instant::now();
        agg.observe(&report);
        spans.observe_us.push(observed.elapsed().as_nanos() as f64 / 1e3);
    }
    agg
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let controller = FleetController::new();

    // Set-up: spec expansion (validation and sampling of every
    // instance) plus one warm-up sweep, repeated.
    let mut setup = Samples::new();
    for s in 0..SETUPS as u64 {
        let start = Instant::now();
        let spec = sweep_spec(seed, u64::MAX - s, SWEEP);
        spec.check()?;
        for index in 0..spec.instances {
            black_box(spec.sample(index));
        }
        controller.run(&ScenarioSpec { instances: WARM_SWEEP, ..spec })?;
        setup.push(start.elapsed().as_secs_f64());
    }

    // Timed sweeps until the budget is spent.
    let mut sweeps: Vec<(u64, FleetAggregate, f64, usize)> = Vec::new();
    let mut sweep_s = Samples::new();
    let mut instances = 0u64;
    let mut rejected = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < budget {
        let sweep = sweeps.len() as u64;
        let spec = sweep_spec(seed, sweep, SWEEP);
        let t = Instant::now();
        let result = controller.run(&spec)?;
        let wall = t.elapsed().as_secs_f64();
        sweep_s.push(wall);
        instances += result.aggregate.instances;
        rejected += result.aggregate.rejected;
        sweeps.push((sweep, result.aggregate, wall, result.shards));
    }
    let usage = meter.stop();

    // Gate: serial replays of evenly spaced sweeps.
    let checked: Vec<usize> = (0..CHECKED)
        .map(|c| c * (sweeps.len() - 1) / (CHECKED - 1).max(1))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut agree = true;
    let mut serial_s = 0.0;
    let mut parallel_cpu_s = 0.0;
    for &c in &checked {
        let (sweep, aggregate, wall, shards) = &sweeps[c];
        let t = Instant::now();
        agree &= replay(&sweep_spec(seed, *sweep, SWEEP), None) == *aggregate;
        serial_s += t.elapsed().as_secs_f64();
        parallel_cpu_s += wall * *shards as f64;
    }
    report.gate("controller_aggregate_matches_serial_replay", agree);
    report.attempted = (sweeps.len() * SWEEP) as u64;
    report.failed = rejected;

    let per_cpu_s = instances as f64 / usage.cpu_s;
    report.figure("fleet_instances_per_s", instances as f64 / usage.wall_s, "1/s");
    report.figure("fleet_instances_per_cpu_s", per_cpu_s, "1/s");
    report.figure("sweeps", sweeps.len() as f64, "count");
    report.figure("sweep_p50_ms", sweep_s.median() * 1e3, "ms");
    report.figure("sweep_p90_ms", sweep_s.quantile(0.9) * 1e3, "ms");
    report.figure("shards", sweeps[0].3 as f64, "count");
    report.e2e("setup_s", setup.median(), "s");
    report.figure("host_steal_frac", usage.steal_frac, "ratio");
    report.e2e("throughput_per_cpu_s", per_cpu_s, "1/s");
    report.e2e("latency_p50_us", sweep_s.median() * 1e6, "us");
    report.e2e("latency_p90_us", sweep_s.quantile(0.9) * 1e6, "us");

    if trace {
        let mut spans = Spans::default();
        let t = Instant::now();
        for &c in &checked {
            replay(&sweep_spec(seed, sweeps[c].0, SWEEP), Some(&mut spans));
        }
        let traced_s = t.elapsed().as_secs_f64();
        let n = spans.build_us.len().max(1) as f64;
        let per_instance_us = |total: f64| total / n;
        let build = per_instance_us(spans.build_us.sum());
        let frames = per_instance_us(spans.frame_us.sum());
        let cycles = per_instance_us(spans.cycle_ns / 1e3);
        let observe = per_instance_us(spans.observe_us.sum());
        let e2e = parallel_cpu_s * 1e6 / (checked.len() * SWEEP) as f64;
        report.layer("sim.build_us", spans.build_us.mean(), "us");
        report.layer("sim.frame_us.mean", spans.frame_us.mean(), "us");
        report.layer("sim.frame_us.p99", spans.frame_us.quantile(0.99), "us");
        report.layer("sim.cycle_ns", spans.cycle_ns / spans.cycle_steps.max(1) as f64, "ns");
        report.layer("sim.cycles", spans.steps as f64 / n, "count");
        report.layer("sim.frames", spans.frames as f64 / n, "count");
        report.layer("sim.recomputes", spans.recomputes as f64 / n, "count");
        report.layer("sim.jobs_completed", spans.jobs as f64 / n, "count");
        report.layer("fleet.observe_us", spans.observe_us.mean(), "us");
        report.layer("fleet.par_efficiency", serial_s / parallel_cpu_s, "ratio");

        report.breakdown.push(format!(
            "breakdown of one instance's share of the sweep ({e2e:.3} us = wall x shards / instances):"
        ));
        report.part("sim build_pooled", build, e2e, "us");
        report.part("sim step, frame-crossing", frames, e2e, "us");
        report.part("sim step, plain cycles", cycles, e2e, "us");
        report.part("fleet observe", observe, e2e, "us");
        report.part(
            "unattributed (fan-out, tail, idle)",
            e2e - build - frames - cycles - observe,
            e2e,
            "us",
        );
        let instances = (checked.len() * SWEEP) as f64;
        report.breakdown.push(format!(
            "tracing overhead: traced serial replay {:.3} us - untraced {:.3} us = {:.3} us per instance",
            traced_s * 1e6 / instances,
            serial_s * 1e6 / instances,
            (traced_s - serial_s) * 1e6 / instances,
        ));
    }
    Ok(report)
}
