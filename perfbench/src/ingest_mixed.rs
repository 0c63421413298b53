//! `ingest_mixed`: telemetry writes beside reads on one K=1024 fabric.
//!
//! A one-shard daemon serves one warm 32×32 EAR fabric. Single-node
//! INGESTs each lower one node by one battery bucket, as the engine's
//! upload does, walking the nodes in the `(i*7+3) % K` order from a
//! seed-chosen start. They run first as a closed loop, one INGEST in
//! flight: its throughput and its latency from send to INGEST_ACK,
//! which follows the publish (the ingest-to-visible time), are the
//! end-to-end metrics. Then they run open-loop at a fixed rate with
//! 256-query batches at a fixed rate on the same connection (latency
//! from each INGEST's due time to its ack, printed as diagnostics).
//! Routing repair and publish do the work; queries wait behind them on
//! the shared shard worker.
//!
//! An in-process replica — the same spec, warm-up and write-side loop
//! as the daemon's — supplies the start levels (so every ingest
//! applies), replays the stream afterwards as the correctness oracle,
//! and in the traced run times `Router::recompute_dirty_into` and
//! `EpochPublisher::publish` per closed-loop ingest.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use etx::graph::{DiGraph, NodeId};
use etx::routing::{RecomputeStats, Router, RoutingScratch, RoutingState, SystemReport};
use etx::serve::{
    EpochPublisher, FleetFrontend, QueryBatch, QueryOutput, WorkloadGen, WorkloadSpec,
};
use etx::sim::{SimPool, TableObserver};

use crate::cpu::Meter;
use crate::query_wire::{fleet_spec, start_daemon, WARM_CYCLES};
use crate::report::{Report, Samples};
use crate::wire::{digest, run_open, Got, Op};

/// Warm-up ingests inside set-up: the first one runs a full recompute
/// on the daemon's cold scratch.
const WARM_INGESTS: usize = 4;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of the measuring time spent in the closed ingest loop.
const CLOSED_SHARE: f64 = 0.75;
/// Open-loop ingest rate, ingests per second (fixed).
const INGEST_RATE: f64 = 25.0;
/// Open-loop query rate, batches per second (fixed).
const QUERY_RATE: f64 = 200.0;
/// Queries per batch.
const BATCH: usize = 256;
/// Queries in the final probe checked against the replica.
const PROBE: usize = 1_024;

/// The write side of one fabric, built and driven exactly as the
/// daemon's: the same spec sample, warm-up, router and publish loop.
struct Replica {
    graph: DiGraph,
    modules: Vec<Vec<NodeId>>,
    router: Router,
    scratch: RoutingScratch,
    state: RoutingState,
    report: SystemReport,
    publisher: Arc<Mutex<EpochPublisher>>,
    frontend: FleetFrontend,
}

/// Forwards the engine's warm-up recomputes to the replica's publisher.
struct Forward(Arc<Mutex<EpochPublisher>>);

impl TableObserver for Forward {
    fn on_tables(&mut self, _version: u64, routing: &RoutingState, _report: &SystemReport) {
        self.0.lock().expect("publisher lock").publish(routing);
    }
}

/// Per-ingest layer timings of a traced replay.
#[derive(Default)]
struct Spans {
    recompute_ms: Samples,
    publish_ms: Samples,
    stats: RecomputeStats,
}

impl Replica {
    fn build() -> Result<Replica, String> {
        let spec = fleet_spec(1);
        let mut pool = SimPool::new();
        let mut sim = spec.sample(0).build_pooled(&mut pool).map_err(|e| format!("{e:?}"))?;
        let (publisher, reader) = EpochPublisher::new();
        let publisher = Arc::new(Mutex::new(publisher));
        sim.set_table_observer(Box::new(Forward(Arc::clone(&publisher))));
        for _ in 0..WARM_CYCLES {
            if sim.step().is_some() {
                break;
            }
        }
        let cfg = sim.config();
        let placement = cfg.placement().map_err(|e| format!("{e:?}"))?;
        let mut frontend = FleetFrontend::new(1);
        frontend.register(reader, sim.routing().node_count(), sim.routing().module_count());
        Ok(Replica {
            graph: cfg.build_graph(),
            modules: placement.module_nodes().to_vec(),
            router: Router::with_weighting(cfg.algorithm, cfg.weighting)
                .with_strategy(cfg.recompute_strategy),
            scratch: RoutingScratch::new(),
            state: sim.routing().clone(),
            report: sim.last_report().clone(),
            publisher,
            frontend,
        })
    }

    /// Applies one `(node, wire level)` item as the daemon does and
    /// returns the published epoch; with `spans`, times the recompute
    /// and the publish.
    fn ingest(&mut self, (node, level): (u32, u32), spans: Option<&mut Spans>) -> u64 {
        let id = NodeId::new(node as usize);
        self.report.set_battery_level(id, level - 1);
        let before = self.scratch.stats();
        let t0 = Instant::now();
        self.router.recompute_dirty_into(
            &self.graph,
            &self.modules,
            &self.report,
            &[id],
            &mut self.scratch,
            &mut self.state,
        );
        let t1 = Instant::now();
        let epoch = self.publisher.lock().expect("publisher lock").publish(&self.state);
        if let Some(spans) = spans {
            let t2 = Instant::now();
            spans.recompute_ms.push((t1 - t0).as_secs_f64() * 1e3);
            spans.publish_ms.push((t2 - t1).as_secs_f64() * 1e3);
            let d = self.scratch.stats().delta_since(&before);
            let s = &mut spans.stats;
            s.repaired_sources += d.repaired_sources;
            s.fallback_sources += d.fallback_sources;
            s.nodes_scanned += d.nodes_scanned;
            s.table_entries_rebuilt += d.table_entries_rebuilt;
        }
        epoch
    }

    fn epoch(&self) -> u64 {
        self.publisher.lock().expect("publisher lock").epoch()
    }

    /// The ingest stream: from the seed-chosen start, nodes in the
    /// `(i*7+3) % K` order, each lowered one bucket below its current
    /// level (wire level `k` is battery level `k − 1`); nodes already
    /// at the bottom bucket are skipped, so every item applies.
    fn plan(&self, seed: u64, len: usize) -> Vec<(u32, u32)> {
        let k = self.report.node_count();
        let mut levels: Vec<u32> = (0..k)
            .map(|n| {
                let id = NodeId::new(n);
                if self.report.is_alive(id) {
                    self.report.battery_level(id)
                } else {
                    0
                }
            })
            .collect();
        let mut items = Vec::with_capacity(len);
        let mut i = seed as usize % k;
        while items.len() < len && levels.iter().any(|&l| l > 0) {
            let node = (i * 7 + 3) % k;
            if levels[node] > 0 {
                items.push((node as u32, levels[node]));
                levels[node] -= 1;
            }
            i += 1;
        }
        items
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut replica = Replica::build()?;
    let plan = replica.plan(seed, 4 * replica.report.node_count());
    let mut probe = QueryBatch::new();
    let mut batches = Vec::new();
    {
        let spec = WorkloadSpec { seed: seed ^ 0x5eed, batch: BATCH, ..WorkloadSpec::default() };
        let mut generator = WorkloadGen::new(spec);
        let n = (seconds * QUERY_RATE) as usize + 1;
        for _ in 0..n {
            let mut batch = QueryBatch::new();
            generator.fill(&replica.frontend, &mut batch);
            batches.push(batch);
        }
        let spec = WorkloadSpec { seed: !seed, batch: PROBE, ..WorkloadSpec::default() };
        WorkloadGen::new(spec).fill(&replica.frontend, &mut probe);
    }

    // Set-up: daemon start plus the warm-up ingests, repeated; the last
    // daemon serves the run.
    let spec = fleet_spec(1);
    let mut out = QueryOutput::new();
    let mut setup = Samples::new();
    let mut daemon = None;
    let mut acks: Vec<u64> = Vec::new();
    for _ in 0..SETUPS {
        drop(daemon.take());
        acks.clear();
        let start = Instant::now();
        let (served, mut conn) = start_daemon(&spec)?;
        for (i, item) in plan[..WARM_INGESTS].iter().enumerate() {
            conn.send_ingest(i as u64, 0, std::slice::from_ref(item))?;
            match conn.recv(&mut out)?.0 {
                Got::Ack { epoch, applied: 1, .. } => acks.push(epoch),
                other => return Err(format!("warm-up ingest failed: {other:?}")),
            }
        }
        setup.push(start.elapsed().as_secs_f64());
        daemon = Some((served, conn));
    }
    let (served, mut conn) = daemon.ok_or("no daemon")?;
    let mut sent = WARM_INGESTS;
    let mut failed = 0u64;
    let mut all_applied = true;

    // Closed loop: one ingest in flight at a time.
    let mut closed_ms = Samples::new();
    let budget = Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let meter = Meter::start();
    let start = Instant::now();
    while start.elapsed() < budget && sent < plan.len() {
        let issued = Instant::now();
        conn.send_ingest(sent as u64, 0, std::slice::from_ref(&plan[sent]))?;
        let (got, _) = conn.recv(&mut out)?;
        closed_ms.push(issued.elapsed().as_secs_f64() * 1e3);
        sent += 1;
        match got {
            Got::Ack { epoch, applied, .. } => {
                acks.push(epoch);
                all_applied &= applied == 1;
                failed += u64::from(applied != 1);
            }
            _ => failed += 1,
        }
    }
    let usage = meter.stop();
    let closed_ingests = sent - WARM_INGESTS;

    // Open loop: ingests and query batches at their fixed rates, merged
    // by due time on the one connection.
    let open_s = seconds * (1.0 - CLOSED_SHARE);
    let n_ingest = ((open_s * INGEST_RATE) as usize).min(plan.len() - sent);
    let n_query = (open_s * QUERY_RATE) as usize;
    let mut schedule: Vec<(u64, Op<'_>)> = Vec::with_capacity(n_ingest + n_query);
    for j in 0..n_ingest {
        let item = plan[sent + j];
        schedule.push(((j as f64 * 1e9 / INGEST_RATE) as u64, Op::Ingest { fabric: 0, item }));
    }
    for (q, batch) in batches.iter().take(n_query).enumerate() {
        let due = ((q as f64 + 0.5) * 1e9 / QUERY_RATE) as u64;
        schedule.push((due, Op::Query(batch.queries())));
    }
    schedule.sort_by_key(|(due, op)| (*due, matches!(op, Op::Query(_))));
    let is_ingest: Vec<bool> =
        schedule.iter().map(|(_, op)| matches!(op, Op::Ingest { .. })).collect();
    let (due, ops): (Vec<u64>, Vec<Op<'_>>) = schedule.into_iter().unzip();
    let mut ingest_ms = Samples::new();
    let mut query_ms = Samples::new();
    let mut shed = 0u64;
    let mut open_acks: Vec<(u64, u64)> = Vec::new();
    let (sent_open, missing) = run_open(&mut conn, &due, &ops, &mut out, |got, recv_ns, _| {
        let i = got.id() as usize;
        let ms = recv_ns.saturating_sub(due[i]) as f64 / 1e6;
        match got {
            Got::Ack { epoch, applied, .. } if is_ingest[i] => {
                ingest_ms.push(ms);
                open_acks.push((i as u64, epoch));
                all_applied &= applied == 1;
                failed += u64::from(applied != 1);
            }
            Got::Results { .. } if !is_ingest[i] => query_ms.push(ms),
            Got::Reject { .. } => {
                shed += 1;
                failed += 1;
            }
            _ => failed += 1,
        }
    })?;
    failed += missing;
    // Replies of one connection's shard arrive in send order; keep the
    // epochs in that order for the monotonicity gate.
    open_acks.sort_by_key(|(i, _)| *i);
    acks.extend(open_acks.iter().map(|(_, epoch)| *epoch));
    sent += n_ingest;

    // The probe: answers at the final epoch.
    conn.send_queries(u64::MAX, probe.queries())?;
    let (got, _) = conn.recv(&mut out)?;
    drop(conn);
    drop(served);

    // Replay the exact ingest stream the last daemon applied.
    // Layer timings cover the closed loop's ingests, whose latency is
    // the end-to-end figure.
    let mut spans = trace.then(Spans::default);
    let timed = WARM_INGESTS..WARM_INGESTS + closed_ingests;
    let replay = Instant::now();
    for (i, item) in plan[..sent].iter().enumerate() {
        replica.ingest(*item, spans.as_mut().filter(|_| timed.contains(&i)));
    }
    let replay_s = replay.elapsed().as_secs_f64();
    let mut expected = QueryOutput::new();
    replica.frontend.execute(&mut probe.clone(), &mut expected);

    report.attempted = (sent + n_query) as u64;
    report.failed = failed;
    report.gate("every_ingest_applies", all_applied && missing == 0);
    report.gate(
        "ack_epochs_strictly_increase",
        acks.len() == sent && acks.windows(2).all(|w| w[0] < w[1]),
    );
    report.gate(
        "final_probe_matches_replica",
        matches!(got, Got::Results { .. })
            && acks.last() == Some(&replica.epoch())
            && digest(&out) == digest(&expected),
    );

    let per_cpu_s = closed_ingests as f64 / usage.cpu_s;
    report.figure("ingest_closed_per_s", closed_ingests as f64 / usage.wall_s, "1/s");
    report.figure("ingest_closed_per_cpu_s", per_cpu_s, "1/s");
    report.figure("ingest_closed_mean_ms", closed_ms.mean(), "ms");
    report.figure("ingest_mean_ms", ingest_ms.mean(), "ms");
    report.figure("ingest_p50_ms", ingest_ms.median(), "ms");
    report.figure("ingest_p90_ms", ingest_ms.quantile(0.9), "ms");
    report.figure("ingest_p99_ms", ingest_ms.quantile(0.99), "ms");
    report.figure("ingest_open_count", ingest_ms.len() as f64, "count");
    report.figure("mixed_query_p50_ms", query_ms.median(), "ms");
    report.figure("mixed_query_p99_ms", query_ms.quantile(0.99), "ms");
    report.figure("driver.late_p99_us", sent_open.late_us.quantile(0.99), "us");
    report.figure("host_steal_frac", usage.steal_frac, "ratio");
    report.e2e("setup_s", setup.median(), "s");
    report.e2e("throughput_per_cpu_s", per_cpu_s, "1/s");
    report.e2e("latency_p50_us", closed_ms.median() * 1e3, "us");
    report.e2e("latency_p90_us", closed_ms.quantile(0.9) * 1e3, "us");

    if let Some(spans) = spans {
        // The untraced twin: a fresh replica replaying the same stream
        // without per-call timers.
        let mut twin = Replica::build()?;
        let untimed = Instant::now();
        for item in &plan[..sent] {
            twin.ingest(*item, None);
        }
        let untimed_s = untimed.elapsed().as_secs_f64();
        let requests = (sent + n_query) as u64;
        traced(&mut report, &replica, &spans, &closed_ms, shed, requests, &sent_open.late_us);
        report.breakdown.push(format!(
            "tracing overhead: traced replay {:.3} ms - untraced {:.3} ms = {:.4} ms per ingest",
            replay_s * 1e3 / sent as f64,
            untimed_s * 1e3 / sent as f64,
            (replay_s - untimed_s) * 1e3 / sent as f64,
        ));
    }
    Ok(report)
}

/// The traced run's per-layer metrics and the breakdown of the mean
/// closed-loop ingest latency.
fn traced(
    report: &mut Report,
    replica: &Replica,
    spans: &Spans,
    closed_ms: &Samples,
    shed: u64,
    requests: u64,
    late_us: &Samples,
) {
    let n = spans.recompute_ms.len().max(1) as f64;
    let s = &spans.stats;
    let attempts = (s.repaired_sources + s.fallback_sources).max(1) as f64;
    let recompute = spans.recompute_ms.mean();
    let publish = spans.publish_ms.mean();
    let e2e = closed_ms.mean();
    report.layer("routing.recompute_ms.mean", recompute, "ms");
    report.layer("routing.recompute_ms.p99", spans.recompute_ms.quantile(0.99), "ms");
    report.layer("routing.repaired_sources", s.repaired_sources as f64 / n, "count");
    report.layer("routing.fallback_sources", s.fallback_sources as f64 / n, "count");
    report.layer("routing.nodes_scanned", s.nodes_scanned as f64 / n, "count");
    report.layer("routing.table_entries_rebuilt", s.table_entries_rebuilt as f64 / n, "count");
    report.layer("routing.repair_yield", s.repaired_sources as f64 / attempts, "ratio");
    report.layer("serve.publish_ms.mean", publish, "ms");
    report.layer("serve.publish_ms.p99", spans.publish_ms.quantile(0.99), "ms");
    report.layer("serve.publish_bytes", publish_bytes(replica), "B");
    report.layer("net.ingest_remainder_ms", e2e - recompute - publish, "ms");
    report.layer("net.shed_frac", shed as f64 / requests.max(1) as f64, "ratio");
    report.layer("driver.late_p99_us", late_us.quantile(0.99), "us");

    report.breakdown.push(format!("breakdown of the closed-loop ingest ({e2e:.3} ms mean):"));
    report.part("routing recompute_dirty_into", recompute, e2e, "ms");
    report.part("serve publish", publish, e2e, "ms");
    report.part("unattributed (net, hand-off)", e2e - recompute - publish, e2e, "ms");
}

/// Bytes one publish copies: the route-table planes (two index planes,
/// the distance plane, the validity bits) plus the K² distance and
/// successor planes, at the snapshot's index width.
fn publish_bytes(replica: &Replica) -> f64 {
    let snapshot = replica.frontend.pin(0).expect("fabric 0 is served");
    let index = if snapshot.wide_index_planes() { 4 } else { 2 };
    let k = snapshot.node_count();
    let entries = k * snapshot.module_count();
    let table = entries * (2 * index + 8) + entries.div_ceil(8);
    let matrices = k * k * (8 + index);
    (table + matrices) as f64
}
