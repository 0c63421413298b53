//! `bench_serve` — emits `BENCH_serve.json`, the machine-readable perf
//! baseline of the read-side query service: sustained queries/second
//! plus HDR tail-latency percentiles (p50/p99/p999) against warm,
//! epoch-published fleet snapshots.
//!
//! ```text
//! cargo run -p etx-bench --bin bench_serve --release              # writes ./BENCH_serve.json
//! cargo run -p etx-bench --bin bench_serve --release -- out.json
//! cargo run -p etx-bench --bin bench_serve --release -- --smoke   # tiny CI sizes
//! cargo run -p etx-bench --bin bench_serve --release -- \
//!     --dump out.txt --shards 4 --strategy incremental            # determinism dump
//! ```
//!
//! Workloads:
//!
//! * `point_32x32` — pure next-hop point lookups on a warm
//!   32x32-fabric fleet (the ≥ 1M queries/sec acceptance metric),
//! * `mixed_32x32` — the 8:1:1 point/path/cost mix on the same fleet,
//! * `point_wide_fleet` — point lookups hash-sharded over hundreds of
//!   small fabrics,
//! * `open_loop_32x32` — point lookups arriving on a fixed schedule at
//!   ~60 % of the measured closed-loop rate, so the tail includes real
//!   queueing delay.
//!
//! The `daemon` block runs the same point-lookup stream **through the
//! `etx-served` TCP daemon over loopback** — closed-loop wire
//! throughput, open-loop tail latency at 60 % load, and a degradation
//! sweep past saturation where the bounded shard queues shed instead
//! of queueing without bound.
//!
//! The `publish` block times the write side's epoch publish on a
//! steady repair drain (K = 256 and K = 1024, one full node cycle):
//! every frame's [`EpochPublisher::publish`] — the change-log delta
//! over the two-epochs-stale spare — interleaved with a direct
//! [`TableSnapshot::fill_from`] of the same state, the full copy the
//! publisher falls back to. Mean, p50, p99 and max per epoch for both.
//!
//! `--dump` renders every query's resolved answer as text: CI diffs the
//! output across shard counts, across `full` vs `incremental` recompute
//! strategies, and across `--layout soa|aos` execution paths (published
//! snapshots and both layouts must be byte-identical).
//!
//! The `layout` block of the JSON interleaves the struct-of-arrays
//! planes against the [`AosFrontend`] array-of-structs mirror **in one
//! process** (alternating reps, min-over-reps ns/query, identical
//! deterministic batch streams), so the reported speedup is immune to
//! box-to-box and minute-to-minute drift.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use etx::fleet::ScenarioSpec;
use etx::graph::{topology::Mesh2D, NodeId, PathBackend};
use etx::metrics::{CounterId, MetricsHandle, Registry, SpanId};
use etx::routing::{
    Algorithm, RecomputeStrategy, Router, RoutingScratch, RoutingState, SystemReport,
};
use etx::serve::{
    run_load, run_wire_load, AosFrontend, EpochPublisher, FleetFrontend, LoadMode, LoadReport,
    QueryBatch, QueryOutput, QueryResult, Served, ServedConfig, TableSnapshot, WireLoadReport,
    WorkloadGen, WorkloadSpec,
};
use etx::units::Length;

/// A single-topology spec: `count` fabrics of `side`x`side` meshes under
/// EAR, fixed TDMA/battery scales so the warm-up drains visibly.
fn fleet_spec(side: usize, count: usize, strategy: RecomputeStrategy) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("serve-{side}x{side}"),
        seed: 2005,
        instances: count,
        mesh_side: (side, side),
        topologies: vec![etx::fleet::TopologyChoice::Mesh],
        algorithms: vec![etx::routing::Algorithm::Ear],
        strategy,
        battery_models: vec![etx::fleet::BatteryChoice::Ideal],
        battery_pj: (40_000.0, 60_000.0),
        heterogeneity: 0.2,
        churn: (0, 0),
        concurrent_jobs: (2, 4),
        broadcast_fraction: 0.0,
        max_cycles: 10_000_000,
        ..ScenarioSpec::default()
    }
}

struct Point {
    workload: &'static str,
    fabrics: usize,
    mesh: String,
    report: LoadReport,
}

fn describe(point: &Point) {
    let r = &point.report;
    eprintln!(
        "{:<16} ({} fabrics, {}): {:>9.0} q/s over {:>8} queries; \
         latency ns p50 {:>6} p99 {:>7} p999 {:>8}",
        point.workload,
        point.fabrics,
        point.mesh,
        r.qps,
        r.queries,
        r.latency_ns(0.50),
        r.latency_ns(0.99),
        r.latency_ns(0.999),
    );
}

/// Per-query nanoseconds for one layout over `batches` deterministic
/// batches (execute time only; generation excluded). The first batch
/// warms every buffer and is not timed.
fn timed_pass(
    frontend: &FleetFrontend,
    aos: Option<&AosFrontend>,
    spec: &WorkloadSpec,
    batches: u64,
) -> f64 {
    let mut generator = WorkloadGen::new(spec.clone());
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    let run = |batch: &mut QueryBatch, out: &mut QueryOutput| match aos {
        Some(aos) => aos.execute(batch, out),
        None => frontend.execute(batch, out),
    };
    generator.fill(frontend, &mut batch);
    run(&mut batch, &mut out);
    let mut queries = 0u64;
    let mut nanos = 0u128;
    for _ in 0..batches {
        generator.fill(frontend, &mut batch);
        let start = Instant::now();
        run(&mut batch, &mut out);
        nanos += start.elapsed().as_nanos();
        queries += batch.len() as u64;
    }
    nanos as f64 / queries as f64
}

/// One lane's interleaved AoS-vs-SoA comparison: alternating rep order,
/// min-over-reps ns/query for each layout. Both layouts replay the same
/// SplitMix64 batch stream, so they execute identical queries.
fn interleaved_lane(
    frontend: &FleetFrontend,
    aos: &AosFrontend,
    spec: &WorkloadSpec,
    reps: u32,
    batches: u64,
) -> (f64, f64) {
    let (mut best_soa, mut best_aos) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        let order: [Option<&AosFrontend>; 2] =
            if rep % 2 == 0 { [None, Some(aos)] } else { [Some(aos), None] };
        for layout in order {
            let ns = timed_pass(frontend, layout, spec, batches);
            match layout {
                None => best_soa = best_soa.min(ns),
                Some(_) => best_aos = best_aos.min(ns),
            }
        }
    }
    (best_soa, best_aos)
}

/// In-process differential check: the SoA lane-split execution and the
/// AoS mirror must resolve identical answers (and identical path node
/// sequences) for identical batches.
fn assert_layouts_agree(frontend: &FleetFrontend, aos: &AosFrontend, spec: &WorkloadSpec) {
    let mut soa_gen = WorkloadGen::new(spec.clone());
    let mut aos_gen = WorkloadGen::new(spec.clone());
    let (mut soa_batch, mut aos_batch) = (QueryBatch::new(), QueryBatch::new());
    let (mut soa_out, mut aos_out) = (QueryOutput::new(), QueryOutput::new());
    for round in 0..3 {
        soa_gen.fill(frontend, &mut soa_batch);
        aos_gen.fill(frontend, &mut aos_batch);
        assert_eq!(soa_batch.queries(), aos_batch.queries(), "batch streams diverged");
        frontend.execute(&mut soa_batch, &mut soa_out);
        aos.execute(&mut aos_batch, &mut aos_out);
        assert_eq!(
            soa_out.results(),
            aos_out.results(),
            "SoA and AoS layouts disagree (round {round})"
        );
        for (s, a) in soa_out.results().iter().zip(aos_out.results()) {
            assert_eq!(soa_out.path_nodes(s), aos_out.path_nodes(a), "path arenas diverged");
        }
    }
}

struct LayoutStats {
    next_hop: (f64, f64),
    cost: (f64, f64),
    path: (f64, f64),
    mixed: (f64, f64),
}

/// One module-dense fabric registered directly from a fresh router
/// compute: `side*side` nodes striped into `modules` modules, so the
/// phase-3 table has `n * modules` entries — the serving regime where
/// the table exceeds cache and layout decides the memory traffic
/// (32 B/lookup AoS vs 12 B + 1 bit across the planes). A single fabric
/// also takes the batch fast path, so lookups arrive in submission
/// (i.e. random) order and neither layout gets sorted-sweep prefetch
/// help.
fn layout_frontend(side: usize, modules: usize) -> FleetFrontend {
    let graph = Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph();
    let k = graph.node_count();
    let stripes: Vec<Vec<NodeId>> =
        (0..modules).map(|m| (m..k).step_by(modules).map(NodeId::new).collect()).collect();
    let report = SystemReport::fresh(k, 16);
    let state = Router::new(Algorithm::Ear).compute(&graph, &stripes, &report, None);
    let (mut publisher, reader) = EpochPublisher::new();
    publisher.publish(&state);
    let mut frontend = FleetFrontend::new(1);
    frontend.register(reader, k, stripes.len());
    frontend
}

/// The layout shoot-out: one AoS mirror of the same published
/// snapshots, each query-type lane timed in isolation plus the 8:1:1
/// mix, everything interleaved in this very process.
fn measure_layout(smoke: bool) -> LayoutStats {
    let (side, modules) = if smoke { (8, 16) } else { (32, 512) };
    let frontend = &layout_frontend(side, modules);
    let aos = AosFrontend::mirror(frontend);
    let (reps, batches) = if smoke { (3u32, 8u64) } else { (5, 48) };
    let batch = |spec: WorkloadSpec| WorkloadSpec { batch: 2_048, ..spec };
    let lanes = [
        ("next_hop", batch(WorkloadSpec::point_lookups())),
        ("cost", batch(WorkloadSpec::path_costs())),
        ("path", batch(WorkloadSpec::full_paths())),
        ("mixed", batch(WorkloadSpec::default())),
    ];
    assert_layouts_agree(frontend, &aos, &lanes[3].1);
    let mut timings = [(0.0, 0.0); 4];
    for (slot, (name, spec)) in timings.iter_mut().zip(&lanes) {
        *slot = interleaved_lane(frontend, &aos, spec, reps, batches);
        eprintln!(
            "layout {name:<9}: SoA {:>7.1} ns/q, AoS {:>7.1} ns/q ({:.2}x)",
            slot.0,
            slot.1,
            slot.1 / slot.0
        );
    }
    LayoutStats { next_hop: timings[0], cost: timings[1], path: timings[2], mixed: timings[3] }
}

/// Mean, p50, p99 and max of per-epoch nanoseconds.
struct Distribution {
    mean: f64,
    p50: u64,
    p99: u64,
    max: u64,
}

impl Distribution {
    fn of(mut samples: Vec<u64>) -> Distribution {
        samples.sort_unstable();
        let rank = |q: f64| {
            let i = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[i - 1]
        };
        Distribution {
            mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
            p50: rank(0.50),
            p99: rank(0.99),
            max: rank(1.0),
        }
    }
}

struct PublishPoint {
    k: usize,
    frames: usize,
    delta: Distribution,
    fill: Distribution,
    cells_per_publish: f64,
    full_fallbacks: u64,
}

/// The publish block: a `side`x`side` fabric on the daemon's write
/// path (Dijkstra backend, incremental repair) drains one node by one
/// battery bucket per frame, in `(frame*7+3) % K` order over one full
/// node cycle after a short warm-up. Each frame publishes (no pins
/// held, so the spare is always reclaimable) and also refills a
/// separate warm snapshot with `fill_from`; the two timings alternate
/// order frame by frame.
fn measure_publish(side: usize) -> PublishPoint {
    let graph = Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph();
    let k = graph.node_count();
    let modules: Vec<Vec<NodeId>> =
        (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
    let router = Router::new(Algorithm::Ear)
        .with_backend(PathBackend::DijkstraAllPairs)
        .with_strategy(RecomputeStrategy::IncrementalRepair);
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut report = SystemReport::fresh(k, 16);
    router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    let (mut publisher, _reader) = EpochPublisher::new();
    publisher.set_metrics(metrics.clone());
    let mut full_copy = TableSnapshot::empty();
    let warm = 8usize;
    let (mut delta_ns, mut fill_ns) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let (mut cells_before, mut full_before) = (0, 0);
    for frame in 0..warm + k {
        if frame == warm {
            cells_before = metrics.counter(CounterId::ServePublishCells);
            full_before = metrics.counter(CounterId::ServePublishFull);
        }
        let node = NodeId::new((frame * 7 + 3) % k);
        let level = report.battery_level(node);
        report.set_battery_level(node, level.saturating_sub(1));
        router.recompute_dirty_into(&graph, &modules, &report, &[node], &mut scratch, &mut state);
        let next = publisher.epoch() + 1;
        let mut time_fill = || {
            let start = Instant::now();
            full_copy.fill_from(next, &state);
            start.elapsed().as_nanos() as u64
        };
        let publish_first = frame % 2 == 0;
        let mut fill = if publish_first { 0 } else { time_fill() };
        let start = Instant::now();
        let epoch = publisher.publish(&state);
        let publish = start.elapsed().as_nanos() as u64;
        if publish_first {
            fill = time_fill();
        }
        assert_eq!(full_copy.epoch(), epoch);
        if frame >= warm {
            delta_ns.push(publish);
            fill_ns.push(fill);
        }
    }
    // The published epoch is the full copy, byte for byte.
    assert!(*publisher.reader().pin() == full_copy, "delta publish diverged from fill_from");
    let cells = metrics.counter(CounterId::ServePublishCells) - cells_before;
    PublishPoint {
        k,
        frames: k,
        delta: Distribution::of(delta_ns),
        fill: Distribution::of(fill_ns),
        cells_per_publish: cells as f64 / k as f64,
        full_fallbacks: metrics.counter(CounterId::ServePublishFull) - full_before,
    }
}

struct DaemonStats {
    closed: WireLoadReport,
    capacity: WireLoadReport,
    open_60: WireLoadReport,
    degradation: Vec<(f64, WireLoadReport)>,
}

/// The end-to-end wire benchmark: one `etx-served` shard on an
/// ephemeral loopback port, driven by [`run_wire_load`] with the same
/// point-lookup stream the in-process workloads use. Closed loop
/// measures raw per-core wire throughput; the open-loop points replay
/// a paced arrival schedule so the percentiles include real queueing
/// delay — including past saturation, where the bounded shard queue
/// sheds and the tail must stay bounded instead of diverging.
fn measure_daemon(side: usize, count: usize, warm: u64, target: u64) -> DaemonStats {
    eprintln!("starting etx-served ({count}x {side}x{side}, 1 shard, loopback)...");
    let mut config = ServedConfig::new(fleet_spec(side, count, RecomputeStrategy::Auto));
    config.warm_cycles = Some(warm);
    config.shards = 1;
    // Small enough that the degradation sweep actually fills it and
    // sheds; big enough that 60 % load never touches it.
    config.queue_capacity = 16;
    let served = Served::start(config).expect("daemon starts");
    let addr = served.addr();

    let spec = WorkloadSpec { batch: 2_048, ..WorkloadSpec::point_lookups() };
    let closed = run_wire_load(addr, &spec, LoadMode::Closed, target).expect("closed wire load");
    eprintln!(
        "daemon closed     : {:>9.0} q/s over {:>8} queries; p50 {:>6} p99 {:>7}",
        closed.qps,
        closed.queries,
        closed.latency_ns(0.50),
        closed.latency_ns(0.99),
    );

    // Open-loop pacing uses finer batches: a 2048-query frame is
    // itself ~0.2 ms of service, which would quantize every latency
    // sample; 256 keeps the arrival schedule and the queueing delay
    // resolution well under the tail we are trying to measure. The
    // load factors are relative to the capacity *at that batch size*
    // (smaller frames amortize less per-frame overhead), so "60 %"
    // means 60 % of what this exact stream can sustain.
    let open_spec = WorkloadSpec { batch: 256, ..WorkloadSpec::point_lookups() };
    let capacity =
        run_wire_load(addr, &open_spec, LoadMode::Closed, target / 4).expect("capacity wire load");
    // Single-vCPU hosts get multi-millisecond hypervisor steal pauses
    // that land verbatim in an open-loop tail; like the layout lanes,
    // every open point takes the best of a few reps (selected by p99)
    // so the report measures the daemon, not the neighbour's VM.
    let best_of = |reps: u32, run: &dyn Fn() -> WireLoadReport| {
        let mut best: Option<WireLoadReport> = None;
        for _ in 0..reps {
            let report = run();
            let better = match &best {
                None => true,
                Some(b) => report.latency_ns(0.99) < b.latency_ns(0.99),
            };
            if better {
                best = Some(report);
            }
        }
        best.expect("at least one rep")
    };
    let open_60 = best_of(3, &|| {
        run_wire_load(addr, &open_spec, LoadMode::Open { rate_qps: capacity.qps * 0.6 }, target / 4)
            .expect("open wire load")
    });
    eprintln!(
        "daemon open 60%   : {:>9.0} q/s offered; p50 {:>6} p99 {:>7} shed {:.4}",
        open_60.offered_qps,
        open_60.latency_ns(0.50),
        open_60.latency_ns(0.99),
        open_60.shed_fraction(),
    );

    let mut degradation = Vec::new();
    for factor in [0.9, 1.2, 1.5] {
        let report = best_of(2, &|| {
            run_wire_load(
                addr,
                &open_spec,
                LoadMode::Open { rate_qps: capacity.qps * factor },
                (target / 4).max(open_spec.batch as u64 * 64),
            )
            .expect("degradation wire load")
        });
        eprintln!(
            "daemon open {factor:.1}x  : served {:>9.0} q/s; p99 {:>9} shed {:.4}",
            report.qps,
            report.latency_ns(0.99),
            report.shed_fraction(),
        );
        degradation.push((factor, report));
    }

    DaemonStats { closed, capacity, open_60, degradation }
}

fn bench(smoke: bool, out_path: &str) {
    let (side, big_count, wide_side, wide_count, warm, target) = if smoke {
        (8usize, 2usize, 4usize, 16usize, 4_000u64, 50_000u64)
    } else {
        (32, 4, 4, 256, 8_000, 4_000_000)
    };

    // One full registry across both frontends: the load loops below
    // fill the batch counters and the per-lane latency histograms,
    // which the `metrics` JSON block reports at the end.
    let metrics = MetricsHandle::new(Arc::new(Registry::full()));
    eprintln!("building {big_count}x {side}x{side} fleet (warm {warm} cycles each)...");
    let big =
        FleetFrontend::from_spec(&fleet_spec(side, big_count, RecomputeStrategy::Auto), warm, 4)
            .expect("serve spec is valid")
            .with_metrics(metrics.clone());
    eprintln!("building {wide_count}x {wide_side}x{wide_side} wide fleet...");
    let wide = FleetFrontend::from_spec(
        &fleet_spec(wide_side, wide_count, RecomputeStrategy::Auto),
        warm,
        8,
    )
    .expect("serve spec is valid")
    .with_metrics(metrics.clone());

    let mut points = Vec::new();

    let point_spec = WorkloadSpec { batch: 2_048, ..WorkloadSpec::point_lookups() };
    let closed =
        run_load(&big, &mut WorkloadGen::new(point_spec.clone()), LoadMode::Closed, target);
    let closed_qps = closed.qps;
    points.push(Point {
        workload: "point_32x32",
        fabrics: big.fabric_count(),
        mesh: format!("{side}x{side}"),
        report: closed,
    });

    let mixed_spec = WorkloadSpec { batch: 2_048, ..WorkloadSpec::default() };
    points.push(Point {
        workload: "mixed_32x32",
        fabrics: big.fabric_count(),
        mesh: format!("{side}x{side}"),
        report: run_load(&big, &mut WorkloadGen::new(mixed_spec), LoadMode::Closed, target / 2),
    });

    points.push(Point {
        workload: "point_wide_fleet",
        fabrics: wide.fabric_count(),
        mesh: format!("{wide_side}x{wide_side}"),
        report: run_load(
            &wide,
            &mut WorkloadGen::new(point_spec.clone()),
            LoadMode::Closed,
            target / 2,
        ),
    });

    points.push(Point {
        workload: "open_loop_32x32",
        fabrics: big.fabric_count(),
        mesh: format!("{side}x{side}"),
        report: run_load(
            &big,
            &mut WorkloadGen::new(point_spec),
            LoadMode::Open { rate_qps: closed_qps * 0.6 },
            target / 4,
        ),
    });

    for point in &points {
        describe(point);
    }

    eprintln!("interleaving SoA planes vs AoS mirror on a module-dense fabric...");
    let layout = measure_layout(smoke);

    let publish: Vec<PublishPoint> = (if smoke { [8usize, 16] } else { [16, 32] })
        .into_iter()
        .map(|side| {
            let point = measure_publish(side);
            eprintln!(
                "publish K={:<5}: delta mean {:>9.0} ns p99 {:>9} max {:>9}; fill_from mean \
                 {:>9.0} ns p99 {:>9}; {:.0} cells/publish, {} full fallbacks",
                point.k,
                point.delta.mean,
                point.delta.p99,
                point.delta.max,
                point.fill.mean,
                point.fill.p99,
                point.cells_per_publish,
                point.full_fallbacks,
            );
            point
        })
        .collect();

    let daemon = measure_daemon(side, big_count, warm, target);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"serve_query_throughput\",\n");
    json.push_str("  \"command\": \"cargo run -p etx-bench --bin bench_serve --release\",\n");
    json.push_str(
        "  \"units\": \"queries per second (single core) and nanoseconds of per-query latency\",\n",
    );
    json.push_str(
        "  \"workload\": \"epoch-published fleet snapshots; batched (2048) queries sorted by \
         (shard, fabric, source); SplitMix64 workload streams\",\n",
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"fabrics\": {}, \"mesh\": \"{}\", \"queries\": {}, \
             \"wall_seconds\": {:.3}, \"qps\": {:.0}, \"latency_ns\": {{\"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"p999\": {}, \"max\": {}}}}}{}",
            p.workload,
            p.fabrics,
            p.mesh,
            r.queries,
            r.wall_seconds,
            r.qps,
            r.latency_ns(0.50),
            r.latency_ns(0.90),
            r.latency_ns(0.99),
            r.latency_ns(0.999),
            r.latency_ns(1.0),
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    // The registry's view of everything the load loops above executed:
    // batch counters plus per-lane latency percentiles (each lane pass
    // timed once, elapsed divided over its queries).
    let snap = metrics.snapshot();
    let lane_q = |id: SpanId, q: f64| snap.span(id).map_or(0, |h| h.quantile_raw(q));
    let _ = writeln!(
        json,
        "  \"metrics\": {{\"serve_batches\": {}, \"queries_next_hop\": {}, \
         \"queries_cost\": {}, \"queries_path\": {}, \
         \"lane_next_hop_p50_ns\": {}, \"lane_next_hop_p999_ns\": {}, \
         \"lane_cost_p50_ns\": {}, \"lane_path_p50_ns\": {}}},",
        snap.counter(CounterId::ServeBatches),
        snap.counter(CounterId::ServeQueriesNextHop),
        snap.counter(CounterId::ServeQueriesCost),
        snap.counter(CounterId::ServeQueriesPath),
        lane_q(SpanId::ServeLatencyNextHop, 0.50),
        lane_q(SpanId::ServeLatencyNextHop, 0.999),
        lane_q(SpanId::ServeLatencyCost, 0.50),
        lane_q(SpanId::ServeLatencyPath, 0.50),
    );
    json.push_str("  \"layout\": {\n");
    json.push_str(
        "    \"method\": \"AoS mirror vs SoA planes interleaved in one process; \
         alternating reps, min-over-reps ns/query, identical batch streams\",\n",
    );
    let _ = writeln!(
        json,
        "    \"next_hop_lane_ns\": {:.1}, \"cost_lane_ns\": {:.1}, \"path_lane_ns\": {:.1}, \
         \"mixed_lane_ns\": {:.1},",
        layout.next_hop.0, layout.cost.0, layout.path.0, layout.mixed.0
    );
    let _ = writeln!(
        json,
        "    \"aos_next_hop_ns\": {:.1}, \"aos_cost_ns\": {:.1}, \"aos_path_ns\": {:.1}, \
         \"aos_mixed_ns\": {:.1},",
        layout.next_hop.1, layout.cost.1, layout.path.1, layout.mixed.1
    );
    let _ = writeln!(
        json,
        "    \"layout_speedup\": {:.2}, \"mixed_speedup\": {:.2}",
        layout.next_hop.1 / layout.next_hop.0,
        layout.mixed.1 / layout.mixed.0
    );
    json.push_str("  },\n");
    json.push_str("  \"publish\": {\n");
    json.push_str(
        "    \"method\": \"steady repair drain (Dijkstra backend, incremental repair, EAR, 3 \
         striped modules), one battery bucket per frame in (frame*7+3)%K order over one full \
         node cycle after 8 warm-up frames, no pins held; per frame the delta publish and a \
         direct TableSnapshot::fill_from of the same state, in alternating order\",\n",
    );
    json.push_str("    \"points\": [\n");
    for (i, p) in publish.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"k\": {}, \"frames\": {}, \"publish_delta_mean_ns\": {:.0}, \
             \"publish_delta_p50_ns\": {}, \"publish_delta_p99_ns\": {}, \
             \"publish_delta_max_ns\": {}, \"fill_from_mean_ns\": {:.0}, \
             \"fill_from_p50_ns\": {}, \"fill_from_p99_ns\": {}, \"fill_from_max_ns\": {}, \
             \"cells_per_publish\": {:.0}, \"full_fallbacks\": {}}}{}",
            p.k,
            p.frames,
            p.delta.mean,
            p.delta.p50,
            p.delta.p99,
            p.delta.max,
            p.fill.mean,
            p.fill.p50,
            p.fill.p99,
            p.fill.max,
            p.cells_per_publish,
            p.full_fallbacks,
            if i + 1 == publish.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"daemon\": {\n");
    json.push_str(
        "    \"transport\": \"etx-served over loopback TCP; 1 shard (per-core figure); \
         closed loop on 2048-query frames, open loop paced on 256-query frames at factors \
         of the same-size closed capacity; open points are min-over-reps by p99 (steal-prone \
         single-vCPU host); bounded queue sheds past saturation\",\n",
    );
    let _ = writeln!(
        json,
        "    \"daemon_closed_qps\": {:.0}, \"closed_p50_ns\": {}, \"closed_p99_ns\": {}, \
         \"open_capacity_qps\": {:.0},",
        daemon.closed.qps,
        daemon.closed.latency_ns(0.50),
        daemon.closed.latency_ns(0.99),
        daemon.capacity.qps,
    );
    let o = &daemon.open_60;
    let _ = writeln!(
        json,
        "    \"open_60\": {{\"offered_qps\": {:.0}, \"qps\": {:.0}, \"p50_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"shed_fraction\": {:.4}}},",
        o.offered_qps,
        o.qps,
        o.latency_ns(0.50),
        o.latency_ns(0.99),
        o.latency_ns(0.999),
        o.shed_fraction(),
    );
    json.push_str("    \"degradation\": [\n");
    for (i, (factor, r)) in daemon.degradation.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"load_factor\": {:.1}, \"offered_qps\": {:.0}, \"qps\": {:.0}, \
             \"p99_ns\": {}, \"shed_fraction\": {:.4}}}{}",
            factor,
            r.offered_qps,
            r.qps,
            r.latency_ns(0.99),
            r.shed_fraction(),
            if i + 1 == daemon.degradation.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  }\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}

/// Determinism mode: a fixed fleet + fixed workload, every resolved
/// answer rendered as one line. Byte-identical across `--shards` values,
/// across `--strategy full|incremental` (published snapshots carry no
/// trace of how phase 2/3 were computed), and across `--layout soa|aos`
/// (the plane gather and the struct walk resolve the same entries).
fn dump(path: &str, shards: usize, strategy: RecomputeStrategy, layout: &str) {
    let spec = fleet_spec(8, 6, strategy);
    let frontend = FleetFrontend::from_spec(&spec, 4_000, shards).expect("dump spec is valid");
    let aos = match layout {
        "soa" => None,
        "aos" => Some(AosFrontend::mirror(&frontend)),
        other => panic!("unknown layout `{other}` (expected soa|aos)"),
    };
    let mut generator =
        WorkloadGen::new(WorkloadSpec { seed: 77, batch: 512, ..WorkloadSpec::default() });
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    let mut text = String::new();
    for round in 0..3 {
        generator.fill(&frontend, &mut batch);
        match &aos {
            Some(aos) => aos.execute(&mut batch, &mut out),
            None => frontend.execute(&mut batch, &mut out),
        }
        for (query, result) in batch.queries().iter().zip(out.results()) {
            let _ = write!(text, "round {round} {query:?} => ");
            match result {
                QueryResult::Path { entry, .. } => {
                    let _ = writeln!(text, "Path {entry:?} via {:?}", out.path_nodes(result));
                }
                other => {
                    let _ = writeln!(text, "{other:?}");
                }
            }
        }
    }
    std::fs::write(path, &text).expect("write dump");
    eprintln!("wrote {path} ({} lines)", 3 * 512);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut dump_path: Option<String> = None;
    let mut shards = 2usize;
    let mut strategy = RecomputeStrategy::Auto;
    let mut layout = "soa".to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--dump" => dump_path = Some(it.next().expect("--dump needs a path")),
            "--shards" => {
                shards = it.next().and_then(|v| v.parse().ok()).expect("--shards needs a count");
            }
            "--strategy" => {
                let name = it.next().expect("--strategy needs a name");
                strategy = RecomputeStrategy::parse(&name)
                    .unwrap_or_else(|| panic!("unknown strategy `{name}`"));
            }
            "--layout" => layout = it.next().expect("--layout needs soa|aos"),
            other if !other.starts_with("--") => out_path = Some(other.to_string()),
            other => panic!("unknown flag `{other}`"),
        }
    }
    if let Some(path) = dump_path {
        dump(&path, shards, strategy, &layout);
    } else {
        bench(smoke, &out_path.unwrap_or_else(|| "BENCH_serve.json".to_string()));
    }
}
