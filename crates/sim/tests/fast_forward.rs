//! The run drivers jump over quiet cycles; `step()` never does. This
//! file holds the two to the same answers: a run through
//! [`Simulation::run_until_dead`] must match a plain `step()` loop in
//! the final report, the full event trace, every frame-recorder
//! snapshot and every table-observer publish, across the parameter
//! space that decides when a cycle is quiet — deadlock threshold, stall
//! give-up, buffers, concurrency, churn with revivals, remapping, both
//! frame feeds, frame periods, battery models and a `max_cycles` that
//! lands inside a skipped span.

use std::sync::{Arc, Mutex};

use etx_graph::NodeId;
use etx_metrics::{CounterId, MetricsHandle, Registry};
use etx_routing::{Algorithm, RouteEntry, RoutingState, SystemReport};
use etx_sim::{
    BatteryModel, DeathCause, FrameFeed, FrameRecorder, FrameSnapshot, JobSource, MappingKind,
    RecomputeStats, RemappingPolicy, ScriptedFailure, ScriptedRevival, SimConfig, SimConfigBuilder,
    SimReport, Simulation, TableObserver, TopologyKind, TraceEntry,
};
use etx_units::{Cycles, Energy};
use proptest::prelude::*;

/// An owned copy of one [`FrameSnapshot`].
#[derive(Debug, PartialEq)]
struct Frame {
    frame: u64,
    cycle: u64,
    routing_version: u64,
    recomputed: bool,
    report: SystemReport,
    recompute: RecomputeStats,
    recompute_delta: RecomputeStats,
    events: Vec<TraceEntry>,
    medium_energy: Energy,
    controller_energy: Energy,
    jobs_completed: u64,
    jobs_lost: u64,
}

/// An owned copy of one table publish.
#[derive(Debug, PartialEq)]
struct Publish {
    version: u64,
    routes: Vec<Option<RouteEntry>>,
    distance_bits: Vec<u64>,
    successors: Vec<Option<NodeId>>,
    report: SystemReport,
}

#[derive(Clone, Default)]
struct Log {
    frames: Arc<Mutex<Vec<Frame>>>,
    publishes: Arc<Mutex<Vec<Publish>>>,
}

impl FrameRecorder for Log {
    fn on_frame(&mut self, s: &FrameSnapshot<'_>) {
        self.frames.lock().unwrap().push(Frame {
            frame: s.frame,
            cycle: s.cycle,
            routing_version: s.routing_version,
            recomputed: s.recomputed,
            report: s.report.clone(),
            recompute: s.recompute,
            recompute_delta: s.recompute_delta,
            events: s.events.to_vec(),
            medium_energy: s.medium_energy,
            controller_energy: s.controller_energy,
            jobs_completed: s.jobs_completed,
            jobs_lost: s.jobs_lost,
        });
    }
}

impl TableObserver for Log {
    fn on_tables(&mut self, version: u64, routing: &RoutingState, report: &SystemReport) {
        let paths = routing.paths();
        self.publishes.lock().unwrap().push(Publish {
            version,
            routes: routing.route_table().to_vec(),
            distance_bits: paths.distances().as_slice().iter().map(|d| d.to_bits()).collect(),
            successors: paths.successors().as_slice().to_vec(),
            report: report.clone(),
        });
    }
}

/// Everything a finished run exposes.
#[derive(Debug, PartialEq)]
struct Outcome {
    cause: DeathCause,
    now: u64,
    frames: u64,
    routing_version: u64,
    events: Vec<TraceEntry>,
    dropped: u64,
    report: SimReport,
    recorded: Vec<Frame>,
    published: Vec<Publish>,
}

/// Runs `builder` to death with `drive`, returning what it exposed and
/// the cycles the run drivers skipped.
fn outcome(
    builder: &SimConfigBuilder,
    drive: fn(&mut Simulation) -> DeathCause,
) -> Option<(Outcome, u64)> {
    let mut sim = builder.clone().build().ok()?;
    let log = Log::default();
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    sim.set_metrics(metrics.clone());
    sim.set_frame_recorder(Box::new(log.clone()));
    sim.set_table_observer(Box::new(log.clone()));
    let cause = drive(&mut sim);
    let (now, frames, routing_version) = (sim.now(), sim.frames(), sim.routing_version());
    let (events, dropped) = (sim.trace().events().to_vec(), sim.trace().dropped());
    let report = sim.run();
    let skipped = metrics.snapshot().counter(CounterId::SimCyclesSkipped);
    let recorded = std::mem::take(&mut *log.frames.lock().unwrap());
    let published = std::mem::take(&mut *log.publishes.lock().unwrap());
    let outcome = Outcome {
        cause,
        now,
        frames,
        routing_version,
        events,
        dropped,
        report,
        recorded,
        published,
    };
    Some((outcome, skipped))
}

fn step_loop(sim: &mut Simulation) -> DeathCause {
    loop {
        if let Some(cause) = sim.step() {
            return cause;
        }
    }
}

fn fast_forward(sim: &mut Simulation) -> DeathCause {
    sim.run_until_dead()
}

/// One sampled instance of the parameter space.
#[allow(clippy::too_many_arguments)]
fn instance(
    side: usize,
    shape: u8,
    knobs: u64,
    capacity: f64,
    period_log2: u32,
    threshold: u64,
    giveup: u64,
    churn: Vec<(u64, usize, bool)>,
    max_cycles: u64,
) -> SimConfigBuilder {
    let bit = |i: u32| knobs >> i & 1 == 1;
    let nodes = side * side;
    let (topology, mapping) = match shape {
        0 => (TopologyKind::Mesh, MappingKind::Checkerboard),
        1 => (TopologyKind::Torus, MappingKind::Proportional),
        _ => (TopologyKind::Ring, MappingKind::RoundRobin),
    };
    let source = if bit(0) {
        JobSource::Broadcast
    } else if matches!(topology, TopologyKind::Ring) {
        JobSource::GatewayNode { node: 0 }
    } else {
        JobSource::Gateway { x: 1, y: 1 }
    };
    let mut failures = Vec::new();
    let mut revivals = Vec::new();
    for (at_cycle, node, revive) in churn {
        // Node 0 is the gateway on gateway-fed fabrics; spare it so
        // churned runs live long enough to be interesting.
        let node = 1 + node % (nodes - 1);
        failures.push(ScriptedFailure { at_cycle, node });
        if revive {
            revivals.push(ScriptedRevival { at_cycle: at_cycle + 1 + at_cycle / 2, node });
        }
    }
    let mut builder = SimConfig::builder()
        .mesh_square(side)
        .topology(topology)
        .mapping(mapping)
        .source(source)
        .algorithm(if bit(1) { Algorithm::Sdr } else { Algorithm::Ear })
        .battery(if bit(2) { BatteryModel::ThinFilm } else { BatteryModel::Ideal })
        .battery_capacity_picojoules(capacity)
        .frame_feed(if bit(3) { FrameFeed::ReportDiff } else { FrameFeed::Bitset })
        .concurrent_jobs(1 + (knobs >> 4 & 3) as usize)
        .buffer_capacity(1 + (knobs >> 6 & 3) as usize)
        .deadlock_threshold(Cycles::new(threshold))
        .scripted_failures(failures)
        .scripted_revivals(revivals)
        .max_cycles(max_cycles)
        .trace_capacity(if bit(8) { 64 } else { 1 << 20 })
        .trace_ring(bit(8))
        .tweak(|c| {
            c.tdma.frame_period = Cycles::new(1 << period_log2);
            c.stall_giveup = Cycles::new(giveup);
        });
    if knobs >> 9 & 3 == 0 {
        builder = builder.remapping(RemappingPolicy::default());
    }
    builder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_forward_matches_step_loop(
        side in 3usize..6,
        shape in 0u8..3,
        knobs in 0u64..2048,
        capacity in 1_500.0f64..40_000.0,
        period_log2 in 4u32..12,
        threshold_pick in 0u64..300,
        giveup in 20u64..16_385,
        churn in proptest::collection::vec((0u64..6_000, 0usize..64, any::<bool>()), 0..4),
        cut in 0u64..4,
        cut_at in 50u64..8_000,
    ) {
        // Thresholds span 1..=256, plus "never" (u64::MAX).
        let threshold = if threshold_pick > 256 { u64::MAX } else { threshold_pick.max(1) };
        // One case in four stops at a `max_cycles` that usually falls
        // inside a skipped span.
        let max_cycles = if cut == 0 { cut_at } else { 20_000_000 };
        let builder = instance(
            side, shape, knobs, capacity, period_log2, threshold, giveup, churn, max_cycles,
        );
        let Some((oracle, oracle_skipped)) = outcome(&builder, step_loop) else {
            return Err(TestCaseError::reject("the sampled config does not build"));
        };
        let (fast, _) = outcome(&builder, fast_forward).expect("same config builds twice");
        prop_assert_eq!(oracle_skipped, 0);
        prop_assert_eq!(fast, oracle);
    }
}

#[test]
fn run_drivers_skip_quiet_cycles_of_a_paper_run() {
    // The paper's single-job platform: a 4-cycle computation leaves
    // three cycles to skip, a 2-cycle hop none, so about 40 % go.
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    let mut sim =
        SimConfig::builder().battery_capacity_picojoules(20_000.0).build().expect("valid config");
    sim.set_metrics(metrics.clone());
    let report = sim.run();
    let skipped = metrics.snapshot().counter(CounterId::SimCyclesSkipped);
    assert!(
        skipped * 3 > report.lifetime_cycles,
        "skipped {skipped} of {} cycles",
        report.lifetime_cycles
    );
}
