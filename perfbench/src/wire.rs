//! The load generator's side of the daemon protocol: a connection that
//! can be split into a paced sender thread and a receiving half, the
//! open-loop schedule runner, a frame-payload helper for the traced
//! codec timings, and the answer digest the correctness gates compare.
//!
//! The generator is one process with at most two threads (the receiving
//! caller and, in open loops, one sender) on one connection. The
//! sender sleeps until each request is due — it never spins, so it
//! takes no processor time from the daemon's threads — and records
//! how late it actually sent.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use etx::routing::RouteEntry;
use etx::serve::net::proto::{self, FabricDims, Reply, PROTOCOL_VERSION};
use etx::serve::net::FrameReader;
use etx::serve::{Query, QueryOutput, QueryResult};

use crate::report::Samples;

/// How long a receive may block before the run counts the missing
/// replies as failed timeouts.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One decoded reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Got {
    /// RESULTS, decoded into the caller's output.
    Results { id: u64 },
    /// INGEST_ACK.
    Ack { id: u64, epoch: u64, applied: u64 },
    /// REJECT (for example OVERLOADED).
    Reject { id: u64 },
}

impl Got {
    pub fn id(self) -> u64 {
        match self {
            Got::Results { id } | Got::Ack { id, .. } | Got::Reject { id } => id,
        }
    }
}

/// A handshaken connection to the daemon.
pub struct WireConn {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    /// Per-fabric `(nodes, modules)` from HELLO_ACK.
    pub dims: FabricDims,
}

impl WireConn {
    /// Connects and handshakes.
    pub fn connect(addr: SocketAddr) -> Result<WireConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
        let mut conn =
            WireConn { stream, reader: FrameReader::new(), buf: Vec::new(), dims: vec![] };
        let frame = proto::encode_hello(&mut conn.buf);
        (&conn.stream).write_all(frame).map_err(|e| format!("hello: {e}"))?;
        let payload = conn
            .reader
            .next_frame(&conn.stream, proto::DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("hello ack: {e}"))?
            .ok_or("daemon closed during handshake")?;
        match proto::decode_reply(payload).map_err(|e| format!("hello ack: {e}"))? {
            Reply::HelloAck { version, fabrics, .. } if version == PROTOCOL_VERSION => {
                conn.dims = fabrics;
                Ok(conn)
            }
            other => Err(format!("unexpected handshake reply {other:?}")),
        }
    }

    /// Sends one QUERY frame.
    pub fn send_queries(&mut self, id: u64, queries: &[Query]) -> Result<usize, String> {
        let frame = proto::encode_query(&mut self.buf, id, queries);
        (&self.stream).write_all(frame).map_err(|e| format!("send query: {e}"))?;
        Ok(frame.len())
    }

    /// Sends one INGEST frame.
    pub fn send_ingest(
        &mut self,
        id: u64,
        fabric: u32,
        items: &[(u32, u32)],
    ) -> Result<(), String> {
        let frame = proto::encode_ingest(&mut self.buf, id, fabric, items);
        (&self.stream).write_all(frame).map_err(|e| format!("send ingest: {e}"))
    }

    /// Receives one reply; RESULTS decode into `out`. Returns the
    /// reply and the frame's payload length.
    pub fn recv(&mut self, out: &mut QueryOutput) -> Result<(Got, usize), String> {
        let payload = self
            .reader
            .next_frame(&self.stream, proto::DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        let len = payload.len();
        if payload.first() == Some(&proto::msg::RESULTS) {
            let id =
                proto::decode_results_into(payload, out).map_err(|e| format!("results: {e}"))?;
            return Ok((Got::Results { id }, len));
        }
        match proto::decode_reply(payload).map_err(|e| format!("reply: {e}"))? {
            Reply::IngestAck { request_id, epoch, applied } => {
                Ok((Got::Ack { id: request_id, epoch, applied }, len))
            }
            Reply::Reject { request_id, .. } => Ok((Got::Reject { id: request_id }, len)),
            other => Err(format!("daemon error {other:?}")),
        }
    }
}

/// One scheduled request of an open loop.
pub enum Op<'a> {
    Query(&'a [Query]),
    Ingest { fabric: u32, item: (u32, u32) },
}

/// What an open loop's sender measured.
pub struct Sent {
    /// Send time minus due time, per request, microseconds.
    pub late_us: Samples,
}

/// Runs an open loop: request `i` is due `due_ns[i]` after the start
/// and carries request id `i`. The sender thread sleeps until each
/// request is due; the calling thread receives and hands every reply
/// to `on_reply` with its receive time (ns since the start). Replies
/// that never arrive are reported through the returned count of
/// missing replies.
pub fn run_open(
    conn: &mut WireConn,
    due_ns: &[u64],
    ops: &[Op<'_>],
    out: &mut QueryOutput,
    mut on_reply: impl FnMut(Got, u64, &QueryOutput),
) -> Result<(Sent, u64), String> {
    assert_eq!(due_ns.len(), ops.len(), "one due time per request");
    let stream = conn.stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Sent, String> {
            tight_timer_slack();
            let mut buf = Vec::new();
            let mut late_us = Samples::new();
            for (i, (&due, op)) in due_ns.iter().zip(ops).enumerate() {
                let now = start.elapsed().as_nanos() as u64;
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let frame = match op {
                    Op::Query(queries) => proto::encode_query(&mut buf, i as u64, queries),
                    Op::Ingest { fabric, item } => proto::encode_ingest(
                        &mut buf,
                        i as u64,
                        *fabric,
                        std::slice::from_ref(item),
                    ),
                };
                let sent = start.elapsed().as_nanos() as u64;
                late_us.push(sent.saturating_sub(due) as f64 / 1e3);
                (&stream).write_all(frame).map_err(|e| format!("send: {e}"))?;
            }
            Ok(Sent { late_us })
        });
        let mut missing = ops.len() as u64;
        while missing > 0 {
            match conn.recv(out) {
                Ok((got, _)) => {
                    let recv_ns = start.elapsed().as_nanos() as u64;
                    missing -= 1;
                    on_reply(got, recv_ns, out);
                }
                Err(e) => {
                    eprintln!("open loop: {e}; {missing} replies missing");
                    break;
                }
            }
        }
        let sent = sender.join().map_err(|_| "sender thread panicked".to_string())??;
        Ok((sent, missing))
    })
}

/// Asks the kernel for 1 ns timer slack on the calling thread, so a
/// sleeping sender wakes when its request is due instead of up to the
/// default 50 µs later.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // only changes the calling thread's timer slack; no memory is read
    // or written through the arguments.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// The payload of an encoded frame (the frame minus its LEB128 length
/// prefix).
pub fn payload(frame: &[u8]) -> &[u8] {
    let prefix = frame.iter().position(|b| b & 0x80 == 0).map_or(frame.len(), |i| i + 1);
    &frame[prefix..]
}

/// A digest of every resolved answer in `out`, in submission order.
/// Path answers contribute their node sequences, not their arena
/// ranges, whose layout may differ between execution orders.
pub fn digest(out: &QueryOutput) -> u64 {
    fn entry(h: &mut DefaultHasher, e: &Option<RouteEntry>) {
        match e {
            None => 0u8.hash(h),
            Some(e) => {
                1u8.hash(h);
                e.destination.index().hash(h);
                e.next_hop.index().hash(h);
                e.distance.to_bits().hash(h);
            }
        }
    }
    let mut h = DefaultHasher::new();
    for r in out.results() {
        match r {
            QueryResult::NextHop(e) => {
                0u8.hash(&mut h);
                entry(&mut h, e);
            }
            QueryResult::Path { entry: e, .. } => {
                1u8.hash(&mut h);
                entry(&mut h, e);
                let nodes = out.path_nodes(r);
                nodes.len().hash(&mut h);
                for n in nodes {
                    n.index().hash(&mut h);
                }
            }
            QueryResult::Cost(c) => {
                2u8.hash(&mut h);
                c.map(f64::to_bits).hash(&mut h);
            }
            QueryResult::UnknownFabric => 3u8.hash(&mut h),
        }
    }
    h.finish()
}
