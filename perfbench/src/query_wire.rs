//! `query_wire`: query-only traffic over loopback.
//!
//! A one-shard daemon serves a warm 4×(32×32) EAR fleet. One
//! connection carries 256-query 8:1:1 batches, first as a closed loop
//! with a fixed number of requests outstanding (throughput), then as
//! an open loop at a fixed rate (latency from each request's due time
//! to its RESULTS). `net` and the `serve` query lanes do the work;
//! routing, publish and the simulator do none.

use std::time::{Duration, Instant};

use etx::fleet::{BatteryChoice, ScenarioSpec, TopologyChoice};
use etx::routing::{Algorithm, RecomputeStrategy};
use etx::serve::net::proto;
use etx::serve::{
    FleetFrontend, QueryBatch, QueryOutput, Served, ServedConfig, WorkloadGen, WorkloadSpec,
};

use crate::cpu::Meter;
use crate::report::{Report, Samples};
use crate::wire::{digest, payload, run_open, Got, Op, WireConn};

/// Fabrics in the served fleet.
const FABRICS: usize = 4;
/// Warm-up engine cycles per fabric before its tables are served.
pub const WARM_CYCLES: u64 = 8_000;
/// Queries per request.
const BATCH: usize = 256;
/// Requests outstanding in the pipelined closed loop.
const DEPTH: usize = 8;
/// Open-loop request rate, requests per second (fixed; never derived
/// from a measured capacity).
const OPEN_RATE: f64 = 4_000.0;
/// Share of the measuring time spent in the pipelined closed loop
/// (throughput).
const PIPELINED_SHARE: f64 = 0.3;
/// Share spent in the serial closed loop, one request in flight
/// (latency); the rest is the open loop.
const SERIAL_SHARE: f64 = 0.3;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct pre-generated batches the loops cycle through.
const POOL: usize = 2_048;
/// Every this many replies, one is digested for the correctness gate
/// (prime, so the sampled batches cycle through the whole pool).
const SAMPLE_EVERY: u64 = 97;
/// Shard queue capacity: deep enough that a multi-millisecond stall
/// of the host queues requests instead of shedding them.
const QUEUE_CAPACITY: usize = 1_024;

/// The served fleet: `count` warm 32×32 EAR meshes.
pub fn fleet_spec(count: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: "serve-32x32".to_string(),
        seed: 2005,
        instances: count,
        mesh_side: (32, 32),
        topologies: vec![TopologyChoice::Mesh],
        algorithms: vec![Algorithm::Ear],
        strategy: RecomputeStrategy::Auto,
        battery_models: vec![BatteryChoice::Ideal],
        battery_pj: (40_000.0, 60_000.0),
        heterogeneity: 0.2,
        churn: (0, 0),
        concurrent_jobs: (2, 4),
        broadcast_fraction: 0.0,
        max_cycles: 10_000_000,
        ..ScenarioSpec::default()
    }
}

/// Starts a one-shard daemon over `spec` and returns it with a
/// handshaken connection.
pub fn start_daemon(spec: &ScenarioSpec) -> Result<(Served, WireConn), String> {
    let mut config = ServedConfig::new(spec.clone());
    config.warm_cycles = Some(WARM_CYCLES);
    config.shards = 1;
    config.queue_capacity = QUEUE_CAPACITY;
    let served = Served::start(config)?;
    let conn = WireConn::connect(served.addr())?;
    Ok((served, conn))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let spec = fleet_spec(FABRICS);
    let reference = FleetFrontend::from_spec(&spec, WARM_CYCLES, 1)?;
    let workload = WorkloadSpec { seed, batch: BATCH, ..WorkloadSpec::default() };
    let mut generator = WorkloadGen::new(workload);
    let pool: Vec<QueryBatch> = (0..POOL)
        .map(|_| {
            let mut batch = QueryBatch::new();
            generator.fill(&reference, &mut batch);
            batch
        })
        .collect();

    // Set-up: daemon start (fleet sampling, warm-up, bind), handshake
    // and a few warming exchanges, repeated; the last daemon serves.
    let mut out = QueryOutput::new();
    let mut setup = Samples::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let start = Instant::now();
        let (served, mut conn) = start_daemon(&spec)?;
        for batch in &pool[..4] {
            conn.send_queries(u64::MAX, batch.queries())?;
            conn.recv(&mut out)?;
        }
        setup.push(start.elapsed().as_secs_f64());
        daemon = Some((served, conn));
    }
    let (served, mut conn) = daemon.ok_or("no daemon")?;
    if conn.dims.len() != reference.fabric_count() {
        return Err("daemon and reference fleets differ".into());
    }

    let mut kept: Vec<(usize, u64)> = Vec::new();
    let meter = Meter::start();
    let pipelined =
        closed_loop(&mut conn, &pool, seconds * PIPELINED_SHARE, DEPTH, &mut kept, false)?;
    let usage = meter.stop();
    let serial = closed_loop(&mut conn, &pool, seconds * SERIAL_SHARE, 1, &mut kept, false)?;
    let open_s = seconds * (1.0 - PIPELINED_SHARE - SERIAL_SHARE);
    let open = open_loop(&mut conn, &pool, open_s, &mut kept)?;
    report.attempted = pipelined.requests + serial.requests + open.requests;
    report.failed = pipelined.failed + serial.failed + open.failed;

    let mut expected = QueryOutput::new();
    let mut agree = !kept.is_empty();
    for (index, answers) in &kept {
        let mut batch = pool[*index].clone();
        reference.execute(&mut batch, &mut expected);
        agree &= *answers == digest(&expected);
    }
    report.gate("wire_answers_match_in_process", agree);

    let per_cpu_s = pipelined.queries as f64 / usage.cpu_s;
    report.figure("query_qps", pipelined.queries as f64 / usage.wall_s, "1/s");
    report.figure("query_per_cpu_s", per_cpu_s, "1/s");
    report.figure("serial_rtt_p50_us", serial.rtt_us.median(), "us");
    report.figure("serial_rtt_p90_us", serial.rtt_us.quantile(0.9), "us");
    report.figure("query_p50_us", open.latency_us.median(), "us");
    report.figure("query_p90_us", open.latency_us.quantile(0.9), "us");
    report.figure("query_p99_us", open.latency_us.quantile(0.99), "us");
    report.figure("open_requests", open.requests as f64, "count");
    report.figure("sampled_batches_checked", kept.len() as f64, "count");
    report.figure("driver.late_p99_us", open.late_us.quantile(0.99), "us");
    report.figure("host_steal_frac", usage.steal_frac, "ratio");
    report.e2e("setup_s", setup.median(), "s");
    report.e2e("throughput_per_cpu_s", per_cpu_s, "1/s");
    report.e2e("latency_p50_us", serial.rtt_us.median(), "us");
    report.e2e("latency_p90_us", serial.rtt_us.quantile(0.9), "us");

    if trace {
        traced(
            &mut report,
            &reference,
            &pool,
            &mut conn,
            seconds * SERIAL_SHARE,
            &pipelined,
            &serial,
            &open,
        )?;
    }
    drop(conn);
    drop(served);
    Ok(report)
}

/// What a closed loop measured.
struct Closed {
    requests: u64,
    failed: u64,
    queries: u64,
    /// Round trip of every answered request, microseconds.
    rtt_us: Samples,
    bytes: u64,
    /// Time spent in the client's send call (traced loop only).
    client_send_ns: f64,
}

/// Keeps `depth` requests outstanding for `seconds`, then drains.
/// With `traced`, the client's send call (encode + socket write) is
/// timed inline.
fn closed_loop(
    conn: &mut WireConn,
    pool: &[QueryBatch],
    seconds: f64,
    depth: usize,
    kept: &mut Vec<(usize, u64)>,
    traced: bool,
) -> Result<Closed, String> {
    let mut c = Closed {
        requests: 0,
        failed: 0,
        queries: 0,
        rtt_us: Samples::new(),
        bytes: 0,
        client_send_ns: 0.0,
    };
    let mut out = QueryOutput::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut issued = vec![start; depth];
    let mut next = 0u64;
    loop {
        while next < c.requests + depth as u64 && (next == 0 || start.elapsed() < budget) {
            let t = Instant::now();
            issued[next as usize % depth] = t;
            c.bytes += conn.send_queries(next, pool[next as usize % pool.len()].queries())? as u64;
            if traced {
                c.client_send_ns += t.elapsed().as_nanos() as f64;
            }
            next += 1;
        }
        if c.requests == next {
            break;
        }
        let (got, received) = conn.recv(&mut out)?;
        let id = c.requests;
        let rtt = issued[id as usize % depth].elapsed();
        let index = id as usize % pool.len();
        c.bytes += received as u64;
        c.requests += 1;
        match got {
            Got::Results { id: got } if got == id => {
                c.queries += pool[index].len() as u64;
                c.rtt_us.push(rtt.as_nanos() as f64 / 1e3);
                if id.is_multiple_of(SAMPLE_EVERY) {
                    kept.push((index, digest(&out)));
                }
            }
            _ => c.failed += 1,
        }
    }
    Ok(c)
}

/// What the open loop measured.
struct Open {
    requests: u64,
    failed: u64,
    /// Per-request latency from due time to RESULTS, microseconds.
    latency_us: Samples,
    late_us: Samples,
    shed: u64,
}

/// Requests at the fixed rate for `seconds`, each timed from its due
/// time to its RESULTS.
fn open_loop(
    conn: &mut WireConn,
    pool: &[QueryBatch],
    seconds: f64,
    kept: &mut Vec<(usize, u64)>,
) -> Result<Open, String> {
    let n = (seconds * OPEN_RATE) as usize;
    let due: Vec<u64> = (0..n).map(|i| (i as f64 * 1e9 / OPEN_RATE) as u64).collect();
    let ops: Vec<Op<'_>> = (0..n).map(|i| Op::Query(pool[i % pool.len()].queries())).collect();
    let mut latency_us = Samples::new();
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut out = QueryOutput::new();
    let (sent, missing) = run_open(conn, &due, &ops, &mut out, |got, recv_ns, out| match got {
        Got::Results { id } if (id as usize) < n => {
            latency_us.push(recv_ns.saturating_sub(due[id as usize]) as f64 / 1e3);
            if id.is_multiple_of(SAMPLE_EVERY) {
                kept.push((id as usize % pool.len(), digest(out)));
            }
        }
        Got::Reject { .. } => {
            shed += 1;
            failed += 1;
        }
        _ => failed += 1,
    })?;
    Ok(Open {
        requests: n as u64,
        failed: failed + missing,
        latency_us,
        late_us: sent.late_us,
        shed,
    })
}

/// The traced run: the daemon's per-request layers replayed
/// in-process on the same batch stream (decode the QUERY, execute on
/// the shard, encode the RESULTS, plus the client's encode and
/// decode), and a second serial loop with the client send timed
/// inline, whose slow-down against the untraced loop is the tracing
/// overhead.
#[allow(clippy::too_many_arguments)]
fn traced(
    report: &mut Report,
    reference: &FleetFrontend,
    pool: &[QueryBatch],
    conn: &mut WireConn,
    seconds: f64,
    pipelined: &Closed,
    serial: &Closed,
    open: &Open,
) -> Result<(), String> {
    let mut kept = Vec::new();
    let traced = closed_loop(conn, pool, seconds, 1, &mut kept, true)?;

    let mut out = QueryOutput::new();
    let mut execute_ns = 0.0;
    let mut codec_ns = 0.0;
    let mut queries = 0u64;
    let mut batches = 0u64;
    let mut qbuf = Vec::new();
    let mut rbuf = Vec::new();
    let mut decoded = QueryBatch::new();
    let mut client_out = QueryOutput::new();
    let budget = Duration::from_secs_f64(seconds.max(0.5));
    let start = Instant::now();
    while start.elapsed() < budget {
        for (i, batch) in pool.iter().enumerate() {
            let t0 = Instant::now();
            let frame = proto::encode_query(&mut qbuf, i as u64, batch.queries());
            proto::decode_query_into(payload(frame), &mut decoded).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            reference.execute_pinned(&mut decoded, &mut out);
            let t2 = Instant::now();
            let frame = proto::encode_results(&mut rbuf, i as u64, &out);
            proto::decode_results_into(payload(frame), &mut client_out)
                .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            codec_ns += ((t1 - t0) + (t3 - t2)).as_nanos() as f64;
            execute_ns += (t2 - t1).as_nanos() as f64;
            queries += batch.len() as u64;
            batches += 1;
        }
    }
    let execute_per_query = execute_ns / queries as f64;
    let codec_per_batch = codec_ns / batches as f64;
    let rtt_us = serial.rtt_us.median();
    let execute_us = execute_per_query * BATCH as f64 / 1e3;
    let codec_us = codec_per_batch / 1e3;
    let remainder_us = rtt_us - execute_us - codec_us;
    let requests = pipelined.requests + serial.requests + open.requests;
    let sent = pipelined.bytes as f64 / pipelined.queries.max(1) as f64;

    report.layer("serve.execute_ns_per_query", execute_per_query, "ns");
    report.layer("net.codec_ns_per_batch", codec_per_batch, "ns");
    report.layer("net.bytes_per_query", sent, "B");
    report.layer("net.rtt_remainder_us", remainder_us, "us");
    report.layer("net.shed_frac", open.shed as f64 / requests.max(1) as f64, "ratio");
    report.layer("driver.late_p99_us", open.late_us.quantile(0.99), "us");

    report.breakdown.push(format!(
        "breakdown of the median serial round trip ({rtt_us:.3} us, {BATCH} queries):"
    ));
    report.part("serve query lanes (execute_pinned)", execute_us, rtt_us, "us");
    report.part("net codec (4 encode/decode calls)", codec_us, rtt_us, "us");
    report.part("unattributed (loopback, wake-ups)", remainder_us, rtt_us, "us");
    let traced_us = traced.rtt_us.median();
    report.breakdown.push(format!(
        "tracing overhead: serial loop traced {traced_us:.3} us - untraced {rtt_us:.3} us \
         = {:.3} us per request (inline span around the client send: {:.3} us)",
        traced_us - rtt_us,
        traced.client_send_ns / traced.requests.max(1) as f64 / 1e3,
    ));
    Ok(())
}
