//! Live two-node tests over 127.0.0.1 — real sockets, real wall clock.
//!
//! These tests assert delivery, ordering and exactly-once semantics,
//! never latencies: the wall clock jitters and the kernel schedules
//! datagrams as it pleases. The acceptance test drives the stock
//! protocol engine through a 2%-loss + reordering proxy and checks the
//! byte stream survives intact.

use std::net::Ipv6Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use qpip_netstack::engine::EngineStats;
use qpip_netstack::types::{ConnId, Endpoint, NetConfig};
use qpip_nic::types::{CompletionKind, CompletionStatus, CqId, QpId, RecvWr, SendWr, ServiceType};
use qpip_trace::{FlightRecorder, TraceEvent, Tracer};
use qpip_xport::{ImpairConfig, ImpairProxy, XportConfig, XportError, XportNode, XportStats};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);

fn node(fabric: Ipv6Addr) -> XportNode {
    XportNode::bind(fabric, XportConfig::default()).expect("bind loopback")
}

/// Tests that move traffic share the machine's cores; the one asserting
/// zero retransmissions runs alone so a descheduled thread cannot sit
/// out the 10 ms minimum RTO.
static CORES: RwLock<()> = RwLock::new(());

fn shared_cores() -> RwLockReadGuard<'static, ()> {
    CORES.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn exclusive_cores() -> RwLockWriteGuard<'static, ()> {
    CORES.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic payload for message `seq`: a 4-byte sequence header
/// followed by a seq-derived fill, so corruption and misordering are
/// both detectable.
fn message(seq: u32, len: usize) -> Vec<u8> {
    let mut m = Vec::with_capacity(len);
    m.extend_from_slice(&seq.to_be_bytes());
    m.extend((4..len).map(|i| (seq as usize).wrapping_mul(31).wrapping_add(i) as u8));
    m
}

#[test]
fn udp_datagram_crosses_live_sockets() {
    let _shared = shared_cores();
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a.local_addr().unwrap());

    let (a_cq, b_cq) = (a.create_cq(), b.create_cq());
    let a_qp = a.create_qp(ServiceType::UnreliableUdp, a_cq, a_cq).unwrap();
    let b_qp = b.create_qp(ServiceType::UnreliableUdp, b_cq, b_cq).unwrap();
    a.udp_bind(a_qp, 7000).unwrap();
    b.udp_bind(b_qp, 7001).unwrap();
    b.post_recv(b_qp, RecvWr { wr_id: 1, capacity: 2048 }).unwrap();

    // UDP is unreliable even on loopback in principle: retry the send
    // until the datagram shows up rather than asserting on one shot
    let payload = message(7, 512);
    let deadline = Instant::now() + Duration::from_secs(10);
    let got = loop {
        assert!(Instant::now() < deadline, "datagram never arrived");
        a.post_send(
            a_qp,
            SendWr { wr_id: 9, payload: payload.clone(), dst: Some(Endpoint::new(FABRIC_B, 7001)) },
        )
        .unwrap();
        // the send CQ entry is immediate for UDP (handed to the wire)
        let sc = a.wait(a_cq).unwrap();
        assert_eq!(sc.kind, CompletionKind::Send);
        let mut found = None;
        for _ in 0..20 {
            if let Some(c) = b.poll(b_cq).unwrap() {
                found = Some(c);
                break;
            }
            b.pump(Duration::from_millis(10)).unwrap();
        }
        if let Some(c) = found {
            break c;
        }
    };
    match got.kind {
        CompletionKind::Recv { data, src } => {
            assert_eq!(data, payload);
            assert_eq!(src, Some(Endpoint::new(FABRIC_A, 7000)));
        }
        other => panic!("expected Recv, got {other:?}"),
    }
    assert_eq!(got.status, CompletionStatus::Success);
}

/// What a [`transfer`] leaves behind for the assertions.
struct Transfer {
    /// Messages the server received, in order.
    received: Vec<Vec<u8>>,
    /// Client engine counters, sampled before close: the teardown that
    /// follows is not part of the transfer.
    client_engine: EngineStats,
    /// Server engine counters, sampled when its last message arrived.
    server_engine: EngineStats,
    /// Both nodes' runtime counters, sampled while their sockets live.
    client: XportStats,
    server: XportStats,
}

/// Runs a TCP transfer of `count` messages of `len` bytes from a
/// client node to a server node whose sockets are already wired
/// (directly or through a proxy). The server stops reading for `pause`
/// after each message it takes.
fn transfer(
    mut client: XportNode,
    server: XportNode,
    count: u32,
    len: usize,
    pause: Duration,
) -> Transfer {
    let server_thread = std::thread::spawn(move || run_server(server, count, len, pause));

    let cq_conn = client.create_cq();
    let cq_send = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq_send, cq_conn).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    let c = client.wait(cq_conn).expect("connection established");
    assert_eq!(c.kind, CompletionKind::ConnectionEstablished);

    // windowed submission: at most 32 sends in flight, refilled as
    // acknowledgment completions retire them (§3 semantics)
    let mut next = 0u32;
    let mut inflight = 0u32;
    let mut completed = 0u32;
    while completed < count {
        while next < count && inflight < 32 {
            client
                .post_send(
                    qp,
                    SendWr { wr_id: u64::from(next), payload: message(next, len), dst: None },
                )
                .unwrap();
            next += 1;
            inflight += 1;
        }
        let done = client.wait(cq_send).expect("send completion");
        assert_eq!(done.kind, CompletionKind::Send);
        assert_eq!(done.status, CompletionStatus::Success, "send {} failed", done.wr_id);
        inflight -= 1;
        completed += 1;
    }

    // sample before close: a FIN retransmitted while this thread waits
    // on the server is teardown, not transfer
    let client_engine = client.engine().stats();
    client.tcp_close(qp).unwrap();
    let (received, server_engine, server_stats) = server_thread.join().expect("server thread");
    // let the FIN handshake drain; nothing is asserted about it (under
    // loss the teardown may outlive our patience — data already landed)
    let until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < until {
        client.pump(Duration::from_millis(10)).unwrap();
    }
    Transfer {
        received,
        client_engine,
        server_engine,
        client: client.stats(),
        server: server_stats,
    }
}

/// Server side: one listening QP, keeps `QUEUE` receive WRs posted,
/// collects `count` messages (idling `pause` after each), then closes.
/// Returns the messages, the server's engine counters as the last
/// message arrived and its runtime counters.
fn run_server(
    mut server: XportNode,
    count: u32,
    len: usize,
    pause: Duration,
) -> (Vec<Vec<u8>>, EngineStats, XportStats) {
    const QUEUE: u32 = 64;
    let cq = server.create_cq();
    let qp = server.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    server.tcp_listen(qp, 5001).unwrap();
    for i in 0..QUEUE {
        server.post_recv(qp, RecvWr { wr_id: u64::from(i), capacity: len }).unwrap();
    }
    let mut got = Vec::new();
    loop {
        let c = server.wait(cq).expect("server completion");
        match c.kind {
            CompletionKind::ConnectionEstablished => {}
            CompletionKind::Recv { data, .. } => {
                assert_eq!(c.status, CompletionStatus::Success);
                got.push(data);
                if got.len() as u32 == count {
                    break;
                }
                // recycle the consumed WR to keep the window open
                server.post_recv(qp, RecvWr { wr_id: 0, capacity: len }).unwrap();
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            CompletionKind::PeerDisconnected => {
                panic!("peer closed after {} of {count} messages", got.len())
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
    let engine = server.engine().stats();
    let _ = server.tcp_close(qp);
    let until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < until {
        server.pump(Duration::from_millis(10)).unwrap();
    }
    (got, engine, server.stats())
}

fn assert_exactly_once_in_order(received: &[Vec<u8>], count: u32, len: usize) {
    assert_eq!(received.len() as u32, count, "message count");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &message(i as u32, len), "message {i} corrupted or misordered");
    }
}

#[test]
fn tcp_transfer_direct() {
    let _shared = shared_cores();
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    let t = transfer(client, server, 100, 1024, Duration::ZERO);
    assert_exactly_once_in_order(&t.received, 100, 1024);
}

/// The socket buffer is the NIC's receive SRAM here: sized at bind and
/// never promised beyond, so a full-window stream of 8 KiB messages
/// loses nothing in the kernel and never waits out a retransmission.
/// The receiver idles briefly after every message, so the sender keeps
/// its 32 messages in flight queued in the receiver's socket — more than
/// a default-sized buffer holds — while every ACK still returns well
/// inside the 10 ms minimum RTO.
#[test]
fn direct_stream_loses_no_datagram_in_the_kernel() {
    let _alone = exclusive_cores();
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    // the client's history goes into the failure message: the stream
    // records ~10 events per message, all of which the rings keep
    let rec = Arc::new(FlightRecorder::new(1 << 15));
    client.set_tracer(Tracer::new(Arc::clone(&rec), 0));

    let (count, len) = (1024, 8192);
    let t = transfer(client, server, count, len, Duration::from_micros(100));
    assert_exactly_once_in_order(&t.received, count, len);
    assert_eq!(t.client.kernel_drops, 0, "client socket dropped: {:?}", t.client);
    assert_eq!(t.server.kernel_drops, 0, "server socket dropped: {:?}", t.server);
    assert!(t.server.rcvbuf_bytes > 0);
    let e = t.client_engine;
    // what led up to the first retransmission and what followed it
    let around_first_retransmit = || {
        let evs = rec.events();
        let at = evs.iter().position(|r| matches!(r.ev, TraceEvent::Retransmit { .. }));
        let at = at.unwrap_or(evs.len());
        qpip_trace::export::dump(&evs[at.saturating_sub(24)..(at + 40).min(evs.len())])
    };
    assert_eq!(
        e.rto_retransmits + e.fast_retransmits,
        0,
        "client retransmitted: {e:?}\nserver engine: {:?}\nclient events around the first \
         retransmission:\n{}",
        t.server_engine,
        around_first_retransmit()
    );
}

/// A QP with more receive-WR space posted than its node's socket buffer
/// holds advertises the buffer's worth, not the posted space.
#[test]
fn advertised_window_never_exceeds_the_socket_buffer_cap() {
    let _shared = shared_cores();
    // a 16 MiB engine buffer: the node clamps it to the cap, whose window
    // scale can still express twice the cap, so only the cap holds the
    // posted space down
    let net = NetConfig { recv_buffer: 16 << 20, ..NetConfig::qpip(9000) };
    let cfg = XportConfig { net, ..XportConfig::default() };
    let mut client = XportNode::bind(FABRIC_A, cfg.clone()).unwrap();
    let mut server = XportNode::bind(FABRIC_B, cfg).unwrap();
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());
    let rec = Arc::new(FlightRecorder::new(4096));
    client.set_tracer(Tracer::new(Arc::clone(&rec), 0));

    let cap = server.recv_window_cap();
    let len = 8192;
    let wrs = cap / len as u64 * 2;
    let scq = server.create_cq();
    let sqp = server.create_qp(ServiceType::ReliableTcp, scq, scq).unwrap();
    server.tcp_listen(sqp, 5001).unwrap();
    for i in 0..wrs {
        server.post_recv(sqp, RecvWr { wr_id: i, capacity: len }).unwrap();
    }
    let ccq = client.create_cq();
    let cqp = client.create_qp(ServiceType::ReliableTcp, ccq, ccq).unwrap();
    client.tcp_connect(cqp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();

    // the client's view of the server's window, sampled through the
    // handshake, a message and a window refresh
    let conn = |rec: &FlightRecorder| rec.events().first().map(|r| ConnId(r.conn));
    let mut peak = 0u64;
    let until = Instant::now() + Duration::from_millis(250);
    let mut sent = false;
    while Instant::now() < until {
        server.pump(Duration::ZERO).unwrap();
        client.pump(Duration::from_millis(1)).unwrap();
        while let Some(c) = client.poll(ccq).unwrap() {
            if c.kind == CompletionKind::ConnectionEstablished && !sent {
                let msg = SendWr { wr_id: 0, payload: message(0, len), dst: None };
                client.post_send(cqp, msg).unwrap();
                sent = true;
            }
        }
        if let Some(w) = conn(&rec).and_then(|c| client.engine().conn_snd_wnd(c)) {
            peak = peak.max(w);
        }
    }
    assert!(sent, "connection never established");
    assert!(wrs * len as u64 > cap, "the posted space must exceed the cap");
    assert!(peak <= cap, "peer advertised {peak} B past the {cap} B cap");
    assert!(peak > cap / 2, "the window never opened to the cap: {peak} B of {cap} B");
}

/// The acceptance test: a transfer through the impairment proxy at 2%
/// loss plus reordering completes with exactly-once, in-order delivery
/// using the stock engine — its retransmission machinery, not the
/// wire, provides reliability.
#[test]
fn tcp_transfer_survives_loss_and_reordering() {
    let _shared = shared_cores();
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    let proxy = ImpairProxy::new(ImpairConfig {
        seed: 42,
        drop_per_mille: 20,    // 2% loss
        reorder_per_mille: 30, // 3% held for reordering
        hold_at_most: Duration::from_millis(15),
    })
    .route(FABRIC_A, client.local_addr().unwrap())
    .route(FABRIC_B, server.local_addr().unwrap())
    .spawn()
    .expect("spawn proxy");
    // both directions pass through the proxy
    client.add_peer(FABRIC_B, proxy.addr());
    server.add_peer(FABRIC_A, proxy.addr());

    let (count, len) = (300, 1024);
    let t = transfer(client, server, count, len, Duration::ZERO);
    assert_exactly_once_in_order(&t.received, count, len);

    let stats = proxy.stats();
    assert!(stats.dropped > 0, "the proxy never dropped anything: {stats:?}");
    let e = t.client_engine;
    assert!(e.rto_retransmits + e.fast_retransmits > 0, "loss recovery never ran; proxy {stats:?}");
    proxy.stop();
}

/// Flight recorder on real wires: a lossy proxied transfer must leave
/// ≥1 retransmit event in the client's trace, and every retransmit's
/// sequence number must name a segment the trace also shows re-sent.
/// Event ordering and counts are wall-clock-dependent; the seq linkage
/// is not.
#[test]
fn lossy_proxied_transfer_traces_retransmits() {
    let _shared = shared_cores();
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    let rec = Arc::new(FlightRecorder::new(65536));
    client.set_tracer(Tracer::new(Arc::clone(&rec), 0));
    let proxy = ImpairProxy::new(ImpairConfig {
        seed: 7,
        drop_per_mille: 30, // 3% loss
        reorder_per_mille: 20,
        hold_at_most: Duration::from_millis(15),
    })
    .route(FABRIC_A, client.local_addr().unwrap())
    .route(FABRIC_B, server.local_addr().unwrap())
    .spawn()
    .expect("spawn proxy");
    client.add_peer(FABRIC_B, proxy.addr());
    server.add_peer(FABRIC_A, proxy.addr());

    let (count, len) = (300, 1024);
    let t = transfer(client, server, count, len, Duration::ZERO);
    assert_exactly_once_in_order(&t.received, count, len);
    assert!(
        t.client_engine.rto_retransmits + t.client_engine.fast_retransmits > 0,
        "loss recovery never ran"
    );
    proxy.stop();

    let events = rec.events();
    let retransmits: Vec<_> =
        events.iter().filter(|r| matches!(r.ev, TraceEvent::Retransmit { .. })).collect();
    assert!(!retransmits.is_empty(), "engine retransmitted but the trace recorded none");
    for r in &retransmits {
        let TraceEvent::Retransmit { seq, .. } = r.ev else { unreachable!() };
        let matched = events.iter().any(|e| {
            e.conn == r.conn
                && matches!(e.ev,
                    TraceEvent::SegTx { seq: s, retransmit: true, .. } if s == seq)
        });
        assert!(matched, "retransmit seq {seq} has no matching retransmitted SegTx");
    }
    // socket-level events landed too (node scope): the live transport
    // stamps rx/tx datagrams into the same recorder
    assert!(
        events.iter().any(|r| matches!(r.ev, TraceEvent::Sock { .. })),
        "no socket-level events traced"
    );
}

#[test]
fn messages_backlog_until_recv_wrs_are_posted() {
    let _shared = shared_cores();
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    // §5.1 flow control counts *bytes*, but one message consumes one
    // whole WR regardless of its size: two 1024-byte WRs advertise a
    // 2048-byte window, into which the client can land eight 100-byte
    // messages. Six of them find no WR and must park in the backlog.
    let server_thread = std::thread::spawn(move || {
        let cq = server.create_cq();
        let qp = server.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
        server.tcp_listen(qp, 5001).unwrap();
        server.post_recv(qp, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
        server.post_recv(qp, RecvWr { wr_id: 1, capacity: 1024 }).unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            let c = server.wait(cq).expect("server completion");
            if let CompletionKind::Recv { data, .. } = c.kind {
                got.push(data);
            }
        }
        // both WRs are consumed but 1848 bytes of window remain: the
        // other six messages arrive and must park
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().tcp_backlogged == 0 {
            assert!(Instant::now() < deadline, "backlog never formed: {:?}", server.stats());
            server.pump(Duration::from_millis(10)).unwrap();
        }
        // now resupply; the backlog drains through the fresh WRs
        for _ in 0..6 {
            server.post_recv(qp, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
        }
        while got.len() < 8 {
            let c = server.wait(cq).expect("server completion");
            if let CompletionKind::Recv { data, .. } = c.kind {
                got.push(data);
            }
        }
        (got, server.stats())
    });

    let cq = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    let mut established = false;
    let mut sends_done = 0;
    for i in 0..8u32 {
        client
            .post_send(qp, SendWr { wr_id: u64::from(i), payload: message(i, 100), dst: None })
            .unwrap();
    }
    while !(established && sends_done == 8) {
        match client.wait(cq).expect("client completion").kind {
            CompletionKind::ConnectionEstablished => established = true,
            CompletionKind::Send => sends_done += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    let (got, sstats) = server_thread.join().expect("server");
    for (i, data) in got.iter().enumerate() {
        assert_eq!(data, &message(i as u32, 100));
    }
    assert!(sstats.tcp_backlogged > 0, "nothing ever backlogged: {sstats:?}");
}

#[test]
fn wait_times_out_with_diagnostic_instead_of_hanging() {
    let cfg = XportConfig { wait_timeout: Duration::from_millis(200), ..XportConfig::default() };
    let mut n = XportNode::bind(FABRIC_A, cfg).expect("bind");
    let cq = n.create_cq();
    let qp = n.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    let _ = qp;
    let err = n.wait(cq).expect_err("nothing can complete");
    match err {
        XportError::WaitTimeout(d) => {
            assert!(d.contains("cq#0"), "diagnostic names the CQ: {d}");
            assert!(d.contains("qp#0"), "diagnostic lists QPs: {d}");
            assert!(d.contains("fabric"), "diagnostic names the node: {d}");
            assert!(d.contains("0 kernel drops"), "diagnostic counts kernel drops: {d}");
            assert!(d.contains("rcvbuf"), "diagnostic names the socket buffer: {d}");
        }
        other => panic!("expected WaitTimeout, got {other:?}"),
    }
}

#[test]
fn verb_errors_on_bad_handles() {
    let mut n = node(FABRIC_A);
    let cq = n.create_cq();
    // unknown CQ on QP creation
    assert!(n.create_qp(ServiceType::ReliableTcp, cq, CqId(99)).is_err());
    // unknown QP and CQ handles on the hot verbs
    assert!(n.post_recv(QpId(99), RecvWr { wr_id: 0, capacity: 64 }).is_err());
    assert!(n.poll(CqId(99)).is_err());
    // service-type misuse
    let qp = n.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
    assert!(n.tcp_listen(qp, 9).is_err());
    assert!(n.tcp_connect(qp, 1, Endpoint::new(FABRIC_B, 2)).is_err());
    let tqp = n.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    assert!(n.udp_bind(tqp, 9).is_err());
    assert!(n.tcp_close(tqp).is_err(), "close before connect");
}
