//! The two live workloads: two `XportNode`s on 127.0.0.1, the client on
//! the first CPU and the server on the second, each on its own thread.
//! The raw-`UdpSocket` floor of the same traffic runs between the
//! transport's sessions, never at the same time (the machine has two
//! cores).
//!
//! `live_rpc` splits a run into ten phases. Each sets up a fresh node
//! pair, measures it for its share of the time, tears it down, and
//! measures the floor. `live_bulk` repeats fixed 8 MiB transfers, each on
//! a fresh pair and each followed by the floor's transfer. Set-up is
//! sampled once per session. Traced runs add a traced session to every
//! phase or transfer, capped so the flight recorder never wraps.

use std::collections::VecDeque;
use std::net::{Ipv6Addr, UdpSocket};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qpip_netstack::engine::EngineStats;
use qpip_netstack::types::{ConnId, Endpoint};
use qpip_nic::types::{
    Completion, CompletionKind, CompletionStatus, CqId, QpId, RecvWr, SendWr, ServiceType,
};
use qpip_sim::rng::SplitMix64;
use qpip_trace::{FlightRecorder, Tracer};
use qpip_xport::{XportConfig, XportNode};

use crate::traced::TraceCounts;
use crate::util::{median, pin_to_nth_cpu, quantile, udp_rcvbuf_errors, SpanLog, Spans, ThreadCpu};
use crate::{layers, Args, E2e, Layers, Outcome, Unit};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xa);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xb);
const PORT: u16 = 5001;
const PHASES: u32 = 10;

const RPC_PAYLOAD: usize = 64;
const BULK_MSG: usize = 8192;
const BULK_INFLIGHT: usize = 32;
const BULK_RECV_WRS: u64 = 64;
/// Messages in one transfer: 8 MiB.
const BULK_TRANSFER_MSGS: u64 = 1024;

/// Round trips in one traced session at most, and the recorder ring
/// that holds all of a session's events per connection.
const TRACED_RPC_OPS: u64 = 20_000;
const LIVE_RING: usize = 1 << 20;

/// A loopback handshake takes tens of microseconds; one that has not
/// finished after this long never will.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Set-ups timed per session: pairs set up and dropped back to back,
/// then the session's own. A lone set-up after a mostly idle
/// `live_bulk` transfer ran on a cold CPU, and its per-run median swung
/// between about 35 and 85 µs with the host's state; the median over
/// back-to-back set-ups follows the set-up code.
const SETUPS_PER_SESSION: usize = 8;

/// What one xport session measured.
#[derive(Default)]
struct Session {
    setup_s: Vec<f64>,
    latency_us: Vec<f64>,
    ops: u64,
    bytes: u64,
    wall_s: f64,
    cpu: ThreadCpu,
    datagrams_tx: u64,
    xport_drops: u64,
    tcp_backlogged: u64,
    engine: EngineStats,
    ooo_drops: u64,
    rcvbuf_drops: u64,
    mismatches: Vec<String>,
    trace: Option<TraceCounts>,
}

impl Session {
    fn finish(&mut self, a: &XportNode, b: &XportNode, rec: Option<&Arc<FlightRecorder>>) {
        for n in [a, b] {
            let s = n.stats();
            self.datagrams_tx += s.datagrams_tx;
            self.xport_drops += s.unroutable_drops + s.udp_no_wr_drops;
            self.tcp_backlogged += s.tcp_backlogged;
            let e = n.engine().stats();
            self.engine.rto_retransmits += e.rto_retransmits;
            self.engine.fast_retransmits += e.fast_retransmits;
            self.engine.dupacks_rx += e.dupacks_rx;
            self.engine.zero_window_events += e.zero_window_events;
        }
        if let Some(r) = rec {
            let counts = TraceCounts::of(r);
            // per connection: EngineStats does not carry ooo drops
            for &(node, conn) in &counts.conns {
                let n = if node == 0 { a } else { b };
                self.ooo_drops += n.engine().conn_ooo_drops(ConnId(conn)).unwrap_or(0);
            }
            self.trace = Some(counts);
        }
    }
}

/// Binds the two nodes, routes them to each other, and installs the
/// recorder when tracing.
fn node_pair(rec: Option<&Arc<FlightRecorder>>) -> (XportNode, XportNode) {
    let mut a = XportNode::bind(FABRIC_A, XportConfig::default()).expect("bind node a");
    let mut b = XportNode::bind(FABRIC_B, XportConfig::default()).expect("bind node b");
    a.add_peer(FABRIC_B, b.local_addr().expect("addr b"));
    b.add_peer(FABRIC_A, a.local_addr().expect("addr a"));
    if let Some(r) = rec {
        a.set_tracer(Tracer::new(Arc::clone(r), 0));
        b.set_tracer(Tracer::new(Arc::clone(r), 1));
    }
    (a, b)
}

/// Server QP: listening, with `recvs` receive WRs of `cap` bytes.
fn listen(b: &mut XportNode, recvs: u64, cap: usize) -> (CqId, QpId) {
    let cq = b.create_cq();
    let qp = b.create_qp(ServiceType::ReliableTcp, cq, cq).expect("server qp");
    b.tcp_listen(qp, PORT).expect("listen");
    for i in 0..recvs {
        b.post_recv(qp, RecvWr { wr_id: i, capacity: cap }).expect("server post_recv");
    }
    (cq, qp)
}

/// Client QP, connected to `b`'s listening QP on `cqb`. The calling
/// thread polls both nodes until each side has its
/// `ConnectionEstablished`, so set-up times the nodes' own work (bind,
/// WR posting, the handshake's segments) and no thread spawn or
/// cross-core wake-up, whose cost swung about twofold with the host's
/// state from one run to the next.
fn connect(
    a: &mut XportNode,
    b: &mut XportNode,
    cqb: CqId,
    recvs: u64,
    cap: usize,
) -> (CqId, QpId) {
    let cq = a.create_cq();
    let qp = a.create_qp(ServiceType::ReliableTcp, cq, cq).expect("client qp");
    for i in 0..recvs {
        a.post_recv(qp, RecvWr { wr_id: i, capacity: cap }).expect("client post_recv");
    }
    a.tcp_connect(qp, 4000, Endpoint::new(FABRIC_B, PORT)).expect("connect");
    let up =
        |c: Option<Completion>| c.is_some_and(|c| c.kind == CompletionKind::ConnectionEstablished);
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let (mut up_a, mut up_b) = (false, false);
    while !(up_a && up_b) {
        assert!(Instant::now() < deadline, "handshake did not complete");
        up_b |= up(b.poll(cqb).expect("server poll"));
        up_a |= up(a.poll(cq).expect("client poll"));
    }
    (cq, qp)
}

/// A connected node pair as a session starts: `b` listening with
/// `recvs_b` receive WRs, `a` connected with `recvs_a`, all of `cap`
/// bytes.
struct Pair {
    a: XportNode,
    b: XportNode,
    cqa: CqId,
    qpa: QpId,
    cqb: CqId,
    qpb: QpId,
}

fn pair(rec: Option<&Arc<FlightRecorder>>, recvs_b: u64, recvs_a: u64, cap: usize) -> Pair {
    let (mut a, mut b) = node_pair(rec);
    let (cqb, qpb) = listen(&mut b, recvs_b, cap);
    let (cqa, qpa) = connect(&mut a, &mut b, cqb, recvs_a, cap);
    Pair { a, b, cqa, qpa, cqb, qpb }
}

/// [`SETUPS_PER_SESSION`] timed set-ups; returns the last pair, with
/// the recorder installed when tracing, and every set-up time.
fn timed_pair(
    rec: Option<&Arc<FlightRecorder>>,
    recvs_b: u64,
    recvs_a: u64,
    cap: usize,
) -> (Pair, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS_PER_SESSION);
    for _ in 1..SETUPS_PER_SESSION {
        let t0 = Instant::now();
        let spare = pair(None, recvs_b, recvs_a, cap);
        times.push(t0.elapsed().as_secs_f64());
        drop(spare);
    }
    let t0 = Instant::now();
    let p = pair(rec, recvs_b, recvs_a, cap);
    times.push(t0.elapsed().as_secs_f64());
    (p, times)
}

/// Runs a server side on its own thread, pinned to the second CPU
/// (the client runs on the first; see [`pin_to_nth_cpu`]).
fn spawn_server<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    thread::spawn(move || {
        pin_to_nth_cpu(1);
        f()
    })
}

fn wait_recv(sp: &mut Spans, n: &mut XportNode, cq: CqId, op: u64) -> Vec<u8> {
    loop {
        let c = sp.span("xport.wait", op, |_| n.wait(cq)).expect("wait");
        assert_eq!(c.status, CompletionStatus::Success, "completion failed: {c:?}");
        if let CompletionKind::Recv { data, .. } = c.kind {
            return data;
        }
    }
}

// ---------------------------------------------------------------------
// live_rpc
// ---------------------------------------------------------------------

/// One closed-loop ping-pong session: 1 client, 1 request outstanding,
/// 64 B echoed. A 1-byte message ends it.
fn rpc_session(
    payloads: &[Vec<u8>],
    budget: Duration,
    max_ops: u64,
    traced: bool,
    spans: &mut Spans,
    log: &mut SpanLog,
) -> Session {
    let rec = traced.then(|| Arc::new(FlightRecorder::new(LIVE_RING)));
    let (Pair { mut a, mut b, cqa, qpa, cqb, qpb }, setup_s) =
        timed_pair(rec.as_ref(), 8, 8, RPC_PAYLOAD);
    let mut s = Session { setup_s, ..Session::default() };
    let mut sp = spans.fork();
    let server = spawn_server(move || {
        let c0 = ThreadCpu::now();
        let mut k = 0u64;
        loop {
            let stop = sp.span("echo", k, |sp| {
                let data = wait_recv(sp, &mut b, cqb, k);
                sp.span("xport.post_recv", k, |_| {
                    b.post_recv(qpb, RecvWr { wr_id: k, capacity: RPC_PAYLOAD })
                })
                .expect("server post_recv");
                let stop = data.len() == 1;
                sp.span("xport.post_send", k, |_| {
                    b.post_send(qpb, SendWr { wr_id: k, payload: data, dst: None })
                })
                .expect("echo post_send");
                stop
            });
            if stop {
                break;
            }
            k += 1;
        }
        (b, ThreadCpu::now().since(c0), sp, k)
    });

    let rcv0 = udp_rcvbuf_errors();
    let c0 = ThreadCpu::now();
    let start = Instant::now();
    let deadline = start + budget;
    let mut op = 0u64;
    while op < max_ops && Instant::now() < deadline {
        let want = &payloads[op as usize % payloads.len()];
        let p = want.clone();
        let t = Instant::now();
        let got = spans.span("rpc", op, |sp| {
            sp.span("xport.post_send", op, |_| {
                a.post_send(qpa, SendWr { wr_id: op, payload: p, dst: None })
            })
            .expect("post_send");
            wait_recv(sp, &mut a, cqa, op)
        });
        s.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        if got != *want {
            s.mismatches.push(format!("live_rpc: echo {op} differs from its request"));
        }
        spans
            .span("xport.post_recv", op, |_| {
                a.post_recv(qpa, RecvWr { wr_id: op, capacity: RPC_PAYLOAD })
            })
            .expect("post_recv");
        op += 1;
    }
    s.wall_s = start.elapsed().as_secs_f64();
    let cpu_a = ThreadCpu::now().since(c0);
    a.post_send(qpa, SendWr { wr_id: u64::MAX, payload: vec![0xff], dst: None }).expect("stop");
    while wait_recv(spans, &mut a, cqa, op).len() != 1 {}
    let (b, cpu_b, sp_b, echoed) = server.join().expect("server thread");
    s.rcvbuf_drops = udp_rcvbuf_errors() - rcv0;
    if echoed != op {
        s.mismatches.push(format!("live_rpc: server echoed {echoed} of {op} requests"));
    }
    s.ops = op;
    s.bytes = 2 * RPC_PAYLOAD as u64 * op;
    s.cpu = cpu_a.plus(cpu_b);
    s.finish(&a, &b, rec.as_ref());
    spans.absorb(sp_b, log, "server");
    s
}

/// Raw `UdpSocket` ping-pong with the same payloads: the OS floor under
/// the live round trip.
fn udp_rpc_floor(payloads: &[Vec<u8>], budget: Duration) -> (Vec<f64>, Vec<String>) {
    let srv = UdpSocket::bind("127.0.0.1:0").expect("bind floor server");
    let cli = UdpSocket::bind("127.0.0.1:0").expect("bind floor client");
    srv.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    cli.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    cli.connect(srv.local_addr().expect("addr")).expect("connect");
    let echo = spawn_server(move || {
        let mut buf = [0u8; 2048];
        loop {
            let (n, from) = srv.recv_from(&mut buf).expect("floor server recv");
            srv.send_to(&buf[..n], from).expect("floor server send");
            if n == 1 {
                break;
            }
        }
    });
    let mut rtts = Vec::new();
    let mut bad = Vec::new();
    let mut buf = [0u8; 2048];
    let deadline = Instant::now() + budget;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let p = &payloads[i % payloads.len()];
        let t = Instant::now();
        cli.send(p).expect("floor send");
        let n = cli.recv(&mut buf).expect("floor recv");
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
        if buf[..n] != p[..] {
            bad.push(format!("udp floor: echo {i} differs"));
        }
        i += 1;
    }
    cli.send(&[0xff]).expect("floor stop");
    let _ = cli.recv(&mut buf).expect("floor stop echo");
    echo.join().expect("floor server thread");
    (rtts, bad)
}

/// `live_rpc`: closed-loop 64 B ping-pong over a reliable-TCP QP.
pub fn rpc(args: &Args) -> Outcome {
    let mut rng = SplitMix64::new(args.seed);
    // 64 B requests; never 1 byte long, which is the stop message
    let payloads: Vec<Vec<u8>> = (0..256).map(|_| rng.bytes(RPC_PAYLOAD)).collect();
    pin_to_nth_cpu(0);
    let phase = args.seconds / PHASES;
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let mut plain = Spans::new(false, epoch);
    let mut traced_sp = Spans::new(true, epoch);
    let mut e2e = E2e::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut floor = Vec::new();
    for p in 0..PHASES {
        let xport_share = if args.trace { 0.3 } else { 0.7 };
        let floor_share = if args.trace { 0.4 } else { 0.3 };
        let run_floor = |floor: &mut Vec<f64>, e2e: &mut E2e| {
            let (rtts, bad) = udp_rpc_floor(&payloads, phase.mul_f64(floor_share));
            floor.extend(rtts);
            e2e.mismatches.extend(bad);
        };
        if p % 2 == 1 {
            run_floor(&mut floor, &mut e2e);
        }
        untraced.push(rpc_session(
            &payloads,
            phase.mul_f64(xport_share),
            u64::MAX,
            false,
            &mut plain,
            &mut log,
        ));
        if args.trace {
            traced.push(rpc_session(
                &payloads,
                phase.mul_f64(0.3),
                TRACED_RPC_OPS,
                true,
                &mut traced_sp,
                &mut log,
            ));
        }
        if p % 2 == 0 {
            run_floor(&mut floor, &mut e2e);
        }
    }
    for s in &untraced {
        e2e.latency_us.extend(&s.latency_us);
    }
    let rtt = &e2e.latency_us;
    let mut notes = vec![format!(
        "rtt_p50_us {:.3} rtt_p90_us {:.3} rtt_p99_us {:.3} us n={}",
        median(rtt),
        quantile(rtt, 0.9),
        quantile(rtt, 0.99),
        rtt.len()
    )];
    notes.push(format!(
        "os floor (raw UdpSocket ping-pong, same payloads, alternated): p50 {:.3} p90 {:.3} us n={}",
        median(&floor),
        quantile(&floor, 0.9),
        floor.len()
    ));
    live_outcome(args, e2e, untraced, traced, floor, 0.0, notes, log, traced_sp)
}

// ---------------------------------------------------------------------
// live_bulk
// ---------------------------------------------------------------------

/// Message `seq` of the stream: a seeded body under an 8-byte sequence
/// number.
fn bulk_message(bodies: &[Vec<u8>], seq: u64) -> Vec<u8> {
    let mut m = bodies[seq as usize % bodies.len()].clone();
    m[..8].copy_from_slice(&seq.to_be_bytes());
    m
}

/// Whether `data` is exactly [`bulk_message`]`(bodies, seq)`, checked
/// without building it.
fn is_bulk_message(bodies: &[Vec<u8>], seq: u64, data: &[u8]) -> bool {
    data.len() == BULK_MSG
        && data[..8] == seq.to_be_bytes()
        && data[8..] == bodies[seq as usize % bodies.len()][8..]
}

/// One transfer: `msgs` messages of 8 KiB, 32 in flight, 64 receive WRs
/// pre-posted. An 8-byte message carrying the count ends it.
fn bulk_session(
    bodies: &Arc<Vec<Vec<u8>>>,
    msgs: u64,
    traced: bool,
    spans: &mut Spans,
    log: &mut SpanLog,
) -> Session {
    let rec = traced.then(|| Arc::new(FlightRecorder::new(LIVE_RING)));
    let (Pair { mut a, mut b, cqa, qpa, cqb, qpb }, setup_s) =
        timed_pair(rec.as_ref(), BULK_RECV_WRS, 0, BULK_MSG);
    let mut s = Session { setup_s, ..Session::default() };
    let rx_bodies = Arc::clone(bodies);
    let mut sp = spans.fork();
    let sink = spawn_server(move || {
        let c0 = ThreadCpu::now();
        let mut received = 0u64;
        let mut verified = 0u64;
        let mut bad = Vec::new();
        loop {
            let data = wait_recv(&mut sp, &mut b, cqb, received);
            if data.len() == 8 {
                let sent = u64::from_be_bytes(data[..8].try_into().expect("count"));
                if sent != received {
                    bad.push(format!(
                        "live_bulk: sender sent {sent} messages, sink got {received}"
                    ));
                }
                break;
            }
            // exactly once, in order, intact; a wrong message is reported
            // and the stream kept flowing, so the run still ends
            if is_bulk_message(&rx_bodies, received, &data) {
                verified += 1;
            } else {
                let head = &data[..data.len().min(8)];
                bad.push(format!(
                    "live_bulk: message {received} arrived wrong ({} bytes, header {head:02x?})",
                    data.len()
                ));
            }
            sp.span("xport.post_recv", received, |_| {
                b.post_recv(qpb, RecvWr { wr_id: received, capacity: BULK_MSG })
            })
            .expect("sink post_recv");
            received += 1;
        }
        (b, ThreadCpu::now().since(c0), sp, verified, bad)
    });

    let rcv0 = udp_rcvbuf_errors();
    let c0 = ThreadCpu::now();
    let start = Instant::now();
    let mut next = 0u64;
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(BULK_INFLIGHT);
    loop {
        while inflight.len() < BULK_INFLIGHT && next < msgs {
            let m = bulk_message(bodies, next);
            inflight.push_back((next, Instant::now()));
            spans
                .span("xport.post_send", next, |_| {
                    a.post_send(qpa, SendWr { wr_id: next, payload: m, dst: None })
                })
                .expect("post_send");
            next += 1;
        }
        let Some(&(seq, _)) = inflight.front() else { break };
        let c = spans.span("xport.wait", seq, |_| a.wait(cqa)).expect("send completion");
        assert_eq!(c.status, CompletionStatus::Success, "send failed: {c:?}");
        if c.kind == CompletionKind::Send {
            let (seq, t) = inflight.pop_front().expect("in flight");
            if c.wr_id != seq {
                s.mismatches
                    .push(format!("live_bulk: completion {} arrived for message {seq}", c.wr_id));
            }
            s.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    let cpu_a = ThreadCpu::now().since(c0);
    a.post_send(qpa, SendWr { wr_id: u64::MAX, payload: next.to_be_bytes().to_vec(), dst: None })
        .expect("end");
    while a.wait(cqa).expect("end completion").kind != CompletionKind::Send {}
    let (b, cpu_b, sp_b, verified, bad) = sink.join().expect("sink thread");
    s.rcvbuf_drops = udp_rcvbuf_errors() - rcv0;
    s.mismatches.extend(bad);
    s.ops = next;
    s.bytes = verified * BULK_MSG as u64;
    s.cpu = cpu_a.plus(cpu_b);
    s.finish(&a, &b, rec.as_ref());
    spans.absorb(sp_b, log, "sink");
    s
}

/// Receive buffer the stream floor asks for: room for the whole window
/// of 8 KiB datagrams with the kernel's per-datagram overhead, so the
/// floor measures the OS's cost of moving the traffic, not a loss
/// recovery policy.
const FLOOR_RCVBUF: i32 = 1 << 20;

mod sys {
    extern "C" {
        pub fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_RCVBUF: i32 = 8;
}

/// Asks the kernel for `bytes` of receive buffer on `sock` (it caps the
/// request at `net.core.rmem_max`).
fn set_rcvbuf(sock: &UdpSocket, bytes: i32) {
    use std::os::fd::AsRawFd;
    // SAFETY: the descriptor is open for the life of `sock`, and the
    // option value points at a live `i32` whose size is passed.
    let rc = unsafe {
        sys::setsockopt(
            sock.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF): {}", std::io::Error::last_os_error());
}

/// Raw `UdpSocket` stream of the same messages with the same window: 32
/// unacknowledged messages and a cumulative 8-byte ACK per message, into
/// a receive buffer that holds the window. Should the kernel drop a
/// datagram anyway, the sender goes back to the first unacknowledged
/// message after 10 ms without progress (the live engine's minimum
/// RTO). Returns verified MB/s.
fn udp_stream_floor(bodies: &Arc<Vec<Vec<u8>>>, msgs: u64) -> (f64, Vec<String>) {
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind floor sink");
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind floor source");
    set_rcvbuf(&rx, FLOOR_RCVBUF);
    rx.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    tx.set_read_timeout(Some(Duration::from_millis(10))).expect("timeout");
    tx.connect(rx.local_addr().expect("addr")).expect("connect");
    let rx_bodies = Arc::clone(bodies);
    let sink = spawn_server(move || {
        let mut buf = vec![0u8; 65536];
        let mut expected = 0u64;
        let mut bad = Vec::new();
        loop {
            let (n, from) = rx.recv_from(&mut buf).expect("floor sink recv");
            if n == 8 {
                rx.send_to(&u64::MAX.to_be_bytes(), from).expect("floor end ack");
                break;
            }
            let seq = u64::from_be_bytes(buf[..8].try_into().expect("header"));
            if seq == expected {
                if !is_bulk_message(&rx_bodies, seq, &buf[..n]) {
                    bad.push(format!("udp stream floor: message {seq} corrupted"));
                }
                expected += 1;
            }
            rx.send_to(&expected.to_be_bytes(), from).expect("floor ack");
        }
        (expected, bad)
    });
    let mut ack = [0u8; 8];
    let start = Instant::now();
    let (mut base, mut next) = (0u64, 0u64);
    loop {
        while next < base + BULK_INFLIGHT as u64 && next < msgs {
            // a full socket buffer is a loss like any other
            let _ = tx.send(&bulk_message(bodies, next));
            next += 1;
        }
        if base == next {
            break;
        }
        match tx.recv(&mut ack) {
            Ok(8) => base = base.max(u64::from_be_bytes(ack)),
            Ok(_) => {}
            Err(_) => next = base,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for _ in 0..100 {
        tx.send(&base.to_be_bytes()).expect("floor end");
        if matches!(tx.recv(&mut ack), Ok(8) if ack == u64::MAX.to_be_bytes()) {
            break;
        }
    }
    let (verified, bad) = sink.join().expect("floor sink thread");
    (verified as f64 * BULK_MSG as f64 / wall / 1e6, bad)
}

/// `live_bulk`: one-way 8 MiB transfers of 8 KiB messages over a
/// reliable-TCP QP, each followed by the raw-UDP floor of the same
/// transfer, until the time is up. Transfers rather than one long stream
/// keep the median steady while a rare transfer meets a retransmission
/// stall.
pub fn bulk(args: &Args) -> Outcome {
    let mut rng = SplitMix64::new(args.seed);
    let bodies: Arc<Vec<Vec<u8>>> = Arc::new((0..64).map(|_| rng.bytes(BULK_MSG)).collect());
    pin_to_nth_cpu(0);
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let mut plain = Spans::new(false, epoch);
    let mut traced_sp = Spans::new(true, epoch);
    let mut e2e = E2e::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut floor = Vec::new();
    let start = Instant::now();
    while untraced.len() < 3 || start.elapsed() < args.seconds {
        let s = bulk_session(&bodies, BULK_TRANSFER_MSGS, false, &mut plain, &mut log);
        e2e.latency_us.push(s.wall_s * 1e6);
        untraced.push(s);
        if args.trace {
            traced.push(bulk_session(&bodies, BULK_TRANSFER_MSGS, true, &mut traced_sp, &mut log));
        }
        let (mbps, bad) = udp_stream_floor(&bodies, BULK_TRANSFER_MSGS);
        floor.push(mbps);
        e2e.mismatches.extend(bad);
    }
    let mut notes = Vec::new();
    let per_msg: Vec<f64> = untraced.iter().flat_map(|s| s.latency_us.iter().copied()).collect();
    notes.push(format!(
        "message post-to-ack latency: p50 {:.3} p90 {:.3} p99 {:.3} us n={}; retransmits rto {} fast {}",
        median(&per_msg),
        quantile(&per_msg, 0.9),
        quantile(&per_msg, 0.99),
        per_msg.len(),
        untraced.iter().map(|s| s.engine.rto_retransmits).sum::<u64>(),
        untraced.iter().map(|s| s.engine.fast_retransmits).sum::<u64>()
    ));
    notes.push(format!(
        "os floor (raw UdpSocket stream, same transfer and window, alternated): p50 {:.3} MB/s n={}",
        median(&floor),
        floor.len()
    ));
    let floor_mbps = median(&floor);
    live_outcome(args, e2e, untraced, traced, Vec::new(), floor_mbps, notes, log, traced_sp)
}

/// Folds the sessions of a live run into its end-to-end measurement
/// and, when traced, its per-layer values.
#[allow(clippy::too_many_arguments)]
fn live_outcome(
    args: &Args,
    mut e2e: E2e,
    untraced: Vec<Session>,
    traced: Vec<Session>,
    rtt_floor: Vec<f64>,
    stream_floor_mbps: f64,
    mut notes: Vec<String>,
    mut log: SpanLog,
    mut traced_sp: Spans,
) -> Outcome {
    let mut layers = Layers::default();
    let ops: u64 = untraced.iter().map(|s| s.ops).sum();
    let rcvbuf: u64 = untraced.iter().chain(&traced).map(|s| s.rcvbuf_drops).sum();
    let slices: u64 = untraced.iter().map(|s| s.cpu.slices).sum();
    let datagrams: u64 = untraced.iter().map(|s| s.datagrams_tx).sum();
    for s in &untraced {
        e2e.setup_s.extend(&s.setup_s);
        e2e.units.push(Unit { bytes: s.bytes, wall_s: s.wall_s, cpu_ns: s.cpu.run_ns, ops: s.ops });
        e2e.attempted += s.ops;
        e2e.mismatches.extend(s.mismatches.iter().cloned());
    }
    for s in &traced {
        e2e.mismatches.extend(s.mismatches.iter().cloned());
    }
    notes.push(format!(
        "os.rcvbuf_drops {rcvbuf} (Udp RcvbufErrors delta over the xport sessions; system-wide counter)"
    ));
    notes.push(format!(
        "datagrams sent per op {:.3}; scheduler wake-ups per op {:.3}; xport backlogged {}",
        datagrams as f64 / ops.max(1) as f64,
        slices as f64 / ops.max(1) as f64,
        untraced.iter().map(|s| s.tcp_backlogged).sum::<u64>()
    ));
    if args.trace {
        let all = || untraced.iter().chain(&traced);
        layers
            .set("os.udp_rtt_p50_us", if rtt_floor.is_empty() { 0.0 } else { median(&rtt_floor) });
        layers.set("os.udp_stream_mbps", stream_floor_mbps);
        layers.set("os.rcvbuf_drops", rcvbuf as f64);
        layers.set("os.wakeups_per_op", slices as f64 / ops.max(1) as f64);
        layers.set("xport.post_send_ns", traced_sp.agg("xport.post_send").mean_ns());
        layers.set("xport.wait_ns", traced_sp.agg("xport.wait").mean_ns());
        // CPU both threads spent inside xport calls in the traced sessions
        let xport_cpu_ns: u64 = ["xport.post_send", "xport.wait", "xport.post_recv"]
            .iter()
            .map(|n| traced_sp.agg(n).cpu_ns)
            .sum();
        let traced_ops: u64 = traced.iter().map(|s| s.ops).sum();
        layers.set("xport.cpu_ns_per_op", xport_cpu_ns as f64 / traced_ops.max(1) as f64);
        layers.set("xport.datagrams_per_op", datagrams as f64 / ops.max(1) as f64);
        layers.set("xport.drops", all().map(|s| s.xport_drops).sum::<u64>() as f64);
        layers.set(
            "netstack.rto_retransmits",
            all().map(|s| s.engine.rto_retransmits).sum::<u64>() as f64,
        );
        layers.set(
            "netstack.fast_retransmits",
            all().map(|s| s.engine.fast_retransmits).sum::<u64>() as f64,
        );
        layers.set("netstack.dupacks_rx", all().map(|s| s.engine.dupacks_rx).sum::<u64>() as f64);
        layers.set(
            "netstack.zero_window_events",
            all().map(|s| s.engine.zero_window_events).sum::<u64>() as f64,
        );
        layers.set("netstack.ooo_drops", traced.iter().map(|s| s.ooo_drops).sum::<u64>() as f64);
        let mut counts = TraceCounts::default();
        for s in &traced {
            counts.add(s.trace.as_ref().expect("traced session counts"));
        }
        layers.set("netstack.useful_seg_ratio", counts.useful_seg_ratio());
        layers.set("trace.events", counts.events as f64);
        layers.set("trace.overwritten", counts.overwritten as f64);
        if counts.overwritten > 0 {
            e2e.mismatches.push(format!("flight recorder overwrote {} events", counts.overwritten));
        }
        notes.push(format!(
            "netstack.ooo_drops cross-check: engine per-connection {} vs replayed from the trace {}",
            traced.iter().map(|s| s.ooo_drops).sum::<u64>(),
            counts.ooo_drops
        ));
        let per_op = |ss: &[Session]| {
            ss.iter().map(|s| s.wall_s).sum::<f64>()
                / ss.iter().map(|s| s.ops).sum::<u64>().max(1) as f64
        };
        layers.set("trace.overhead_ratio", per_op(&traced) / per_op(&untraced));
        layers::micro(&mut layers);
        traced_sp.drain_into(&mut log, "client");
    }
    Outcome { e2e, layers, notes, spans: log }
}
