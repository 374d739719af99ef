//! The [`XportNode`] runtime: QPIP verbs over a live UDP socket.
//!
//! One node owns one nonblocking-with-timeout `UdpSocket`, one
//! **unmodified** [`Engine`], and the same QP-multiplexing state machine
//! the simulated NIC firmware runs (receive-WR queues, SRAM backlog,
//! accept pools, send-token retirement, posted-WR receive windows —
//! §3/§5.1 of the paper), minus the cycle cost model: on real hardware
//! the cost model *is* the hardware.
//!
//! The event loop is [`XportNode::pump`]: fire due engine timers, block
//! on the socket for at most `min(budget, time-to-next-deadline)`, feed
//! any datagram to [`Engine::on_packet`], and transmit whatever the
//! engine emits through the peer table. [`XportNode::wait`] layers a
//! completion-queue wait on top with a hard timeout and a diagnostic
//! error instead of a hang.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{Ipv6Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::clock::WallClock;
use crate::sys;
use qpip_netstack::engine::{Engine, EngineError};
use qpip_netstack::types::{ConnId, Emit, Endpoint, NetConfig, PacketOut, SendToken};
use qpip_nic::types::{
    Completion, CompletionKind, CompletionStatus, CqId, NicError, QpId, RecvWr, SendWr, ServiceType,
};
use qpip_trace::{Snapshot, TraceEvent, Tracer};

/// Largest datagram the runtime will receive in one `recv_from`. The
/// engine never builds a packet above the configured MTU, and the
/// default MTU (9000, jumbo-frame class like the paper's Myrinet MTU)
/// fits comfortably.
const RECV_BUF: usize = 65536;

/// Receive buffer each node's socket asks the kernel for at bind. The
/// socket buffer is this runtime's stand-in for the NIC's receive SRAM:
/// the only place a datagram can wait between the wire and the engine,
/// so every byte a connection advertises must fit in it (§5.1). The
/// kernel clamps the request to `net.core.rmem_max`; the window cap is
/// derived from what it grants, so a small grant shrinks the window
/// instead of losing datagrams.
pub(crate) const SOCKET_RCVBUF: usize = 4 << 20;

/// Bytes Linux allocates per queued datagram beyond the datagram itself,
/// before rounding the allocation up to a power of two: room for the
/// link, IP and UDP headers plus the `skb_shared_info` tail.
const SKB_DATA_OVERHEAD: usize = 512;

/// The `struct sk_buff` charged on top of every datagram's allocation.
const SKB_STRUCT: usize = 256;

/// Largest window a node may advertise with `granted` bytes of socket
/// buffer: how many MTU-sized datagrams the buffer holds, each charged
/// its kernel footprint, times the payload credited per datagram. The
/// credit is half a full segment, so the promise holds for every message
/// of at least half a segment — a smaller message still costs an
/// MTU-class allocation of at most the same footprint. At least one
/// datagram is always allowed, so a tiny grant cannot close the window.
fn window_cap(granted: usize, net: &NetConfig) -> u64 {
    let footprint = (net.mtu + SKB_DATA_OVERHEAD).next_power_of_two() + SKB_STRUCT;
    let datagrams = (granted / footprint).max(1);
    (datagrams * (net.max_tcp_payload() / 2).max(1)) as u64
}

/// Configuration for one live node.
#[derive(Debug, Clone)]
pub struct XportConfig {
    /// Protocol-engine configuration. Defaults to the paper's QPIP
    /// profile ([`NetConfig::qpip`]) at a 9000-byte MTU: one message per
    /// segment, immediate ACKs, 10 ms minimum RTO.
    pub net: NetConfig,
    /// Local socket address to bind. Port 0 lets the OS pick.
    pub bind: SocketAddr,
    /// Hard ceiling on [`XportNode::wait`]: a CQ wait that exceeds this
    /// returns [`XportError::WaitTimeout`] with a diagnostic.
    pub wait_timeout: Duration,
    /// Longest single socket block inside `wait` (the loop re-checks
    /// timers and CQs at least this often).
    pub pump_slice: Duration,
    /// How often an established connection re-advertises its posted-WR
    /// receive window. The engine (faithful to the paper's firmware)
    /// has no persist timer, and on a lossy wire a pure window-update
    /// ACK is neither acked nor retransmitted — a periodic re-send
    /// bounds the stall a lost update can cause.
    pub window_refresh: Duration,
}

impl Default for XportConfig {
    fn default() -> Self {
        XportConfig {
            net: NetConfig::qpip(9000),
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            wait_timeout: Duration::from_secs(30),
            pump_slice: Duration::from_millis(10),
            window_refresh: Duration::from_millis(100),
        }
    }
}

/// Errors from the live runtime: verb-layer rejections, socket
/// failures, or a CQ wait that ran out of wall clock.
#[derive(Debug)]
pub enum XportError {
    /// The verbs layer or protocol engine rejected the call.
    Nic(NicError),
    /// The OS socket failed.
    Io(io::Error),
    /// [`XportNode::wait`] exceeded [`XportConfig::wait_timeout`]; the
    /// string describes the node's pending state.
    WaitTimeout(String),
}

impl fmt::Display for XportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XportError::Nic(e) => write!(f, "verbs: {e}"),
            XportError::Io(e) => write!(f, "socket: {e}"),
            XportError::WaitTimeout(d) => write!(f, "wait timed out: {d}"),
        }
    }
}

impl std::error::Error for XportError {}

impl From<NicError> for XportError {
    fn from(e: NicError) -> Self {
        XportError::Nic(e)
    }
}

impl From<io::Error> for XportError {
    fn from(e: io::Error) -> Self {
        XportError::Io(e)
    }
}

impl From<EngineError> for XportError {
    fn from(e: EngineError) -> Self {
        XportError::Nic(NicError::Engine(e))
    }
}

/// Runtime counters (datapath health; all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XportStats {
    /// Datagrams read off the socket.
    pub datagrams_rx: u64,
    /// Datagrams written to the socket.
    pub datagrams_tx: u64,
    /// Engine packets dropped because the destination fabric address
    /// has no peer-table entry.
    pub unroutable_drops: u64,
    /// UDP messages dropped because no receive WR was posted
    /// (unreliable service — §3).
    pub udp_no_wr_drops: u64,
    /// TCP messages parked in the backlog awaiting a receive WR.
    pub tcp_backlogged: u64,
    /// Datagrams the kernel dropped before this node read them — the
    /// socket's `drops` column in `/proc/net/udp` (or `udp6`); 0 where
    /// `/proc` is unavailable.
    pub kernel_drops: u64,
    /// Receive buffer the kernel granted this node's socket at bind.
    pub rcvbuf_bytes: u64,
}

impl XportStats {
    /// Renders the counters as a named snapshot (scope `"xport"`).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("xport");
        s.push("datagrams_rx", self.datagrams_rx)
            .push("datagrams_tx", self.datagrams_tx)
            .push("unroutable_drops", self.unroutable_drops)
            .push("udp_no_wr_drops", self.udp_no_wr_drops)
            .push("tcp_backlogged", self.tcp_backlogged)
            .push("kernel_drops", self.kernel_drops)
            .push("rcvbuf_bytes", self.rcvbuf_bytes);
        s
    }
}

/// Per-QP multiplexing state (mirrors the simulated firmware's, minus
/// the cycle accounting).
#[derive(Debug)]
struct Qp {
    service: ServiceType,
    send_cq: CqId,
    recv_cq: CqId,
    conn: Option<ConnId>,
    local_port: u16,
    recv_queue: VecDeque<RecvWr>,
    posted_bytes: u64,
    backlog: VecDeque<(Vec<u8>, Option<Endpoint>)>,
    established: bool,
}

/// One live QPIP node: verbs in, UDP datagrams out.
///
/// See the crate docs for the frame/clock/timer mapping. The verb
/// surface mirrors `qpip::world::QpipWorld` minus the node index (a
/// node *is* the handle) — application code ports by swapping the world
/// handle for a node and threading `?` through the results.
pub struct XportNode {
    cfg: XportConfig,
    sock: UdpSocket,
    engine: Engine,
    clock: WallClock,
    peers: HashMap<Ipv6Addr, SocketAddr>,
    qps: HashMap<QpId, Qp>,
    cqs: HashMap<CqId, VecDeque<Completion>>,
    conn_to_qp: HashMap<ConnId, QpId>,
    udp_port_to_qp: HashMap<u16, QpId>,
    accept_pool: HashMap<u16, VecDeque<QpId>>,
    tokens: HashMap<u64, (QpId, u64)>,
    next_qp: u32,
    next_cq: u32,
    next_token: u64,
    last_refresh: Instant,
    buf: Vec<u8>,
    stats: XportStats,
    /// Most a connection may advertise: the payload the socket buffer
    /// holds (see [`window_cap`]).
    recv_window_cap: u64,
    /// Flight-recorder handle; also installed into the embedded engine.
    /// Events are stamped with this node's wall-clock-mapped [`SimTime`].
    tracer: Option<Tracer>,
}

impl fmt::Debug for XportNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XportNode")
            .field("fabric_addr", &self.engine.local_addr())
            .field("qps", &self.qps.len())
            .field("peers", &self.peers.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl XportNode {
    /// Binds a live node: `fabric_addr` is its IPv6 identity on the
    /// fabric (what peers' engines address packets to), `cfg.bind` is
    /// the OS socket it answers on.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(fabric_addr: Ipv6Addr, cfg: XportConfig) -> io::Result<XportNode> {
        let sock = UdpSocket::bind(cfg.bind)?;
        sock.set_read_timeout(Some(Duration::from_millis(1)))?;
        let rcvbuf = sys::size_rcvbuf(&sock, SOCKET_RCVBUF)?;
        let recv_window_cap = window_cap(rcvbuf, &cfg.net);
        // the engine's initial receive space is what SYNs and SYN-ACKs
        // advertise before the node sets the posted-WR window: cap it too
        let mut net = cfg.net.clone();
        net.recv_buffer = net.recv_buffer.min(recv_window_cap as usize);
        let engine = Engine::new(net, fabric_addr);
        Ok(XportNode {
            cfg,
            sock,
            engine,
            clock: WallClock::start(),
            peers: HashMap::new(),
            qps: HashMap::new(),
            cqs: HashMap::new(),
            conn_to_qp: HashMap::new(),
            udp_port_to_qp: HashMap::new(),
            accept_pool: HashMap::new(),
            tokens: HashMap::new(),
            next_qp: 0,
            next_cq: 0,
            next_token: 1,
            last_refresh: Instant::now(),
            buf: vec![0; RECV_BUF],
            stats: XportStats { rcvbuf_bytes: rcvbuf as u64, ..XportStats::default() },
            recv_window_cap,
            tracer: None,
        })
    }

    /// Installs a flight-recorder handle on the runtime and its embedded
    /// engine. Socket-level tx/rx are recorded node-scoped; protocol
    /// events carry their connection. Timestamps are this node's
    /// wall-clock-mapped simulation time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The OS socket address this node receives on (the address to hand
    /// to peers' [`add_peer`](Self::add_peer), or to a proxy).
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// This node's fabric IPv6 address.
    pub fn fabric_addr(&self) -> Ipv6Addr {
        self.engine.local_addr()
    }

    /// Routes fabric address `fabric` to live socket `at` — the role
    /// the Myrinet source-route table played in the paper's testbed.
    /// Re-adding an address overwrites the route (e.g. to interpose a
    /// proxy).
    pub fn add_peer(&mut self, fabric: Ipv6Addr, at: SocketAddr) {
        self.peers.insert(fabric, at);
    }

    /// Runtime counters. Reads the kernel's drop count for this socket
    /// from `/proc` on every call, so keep it out of timed loops.
    pub fn stats(&self) -> XportStats {
        let kernel_drops = self.sock.local_addr().map_or(0, kernel_drops);
        XportStats { kernel_drops, ..self.stats }
    }

    /// The most any connection on this node advertises, in bytes: the
    /// payload the socket buffer granted at bind holds. A QP with more
    /// receive-WR space posted than this advertises this instead.
    pub fn recv_window_cap(&self) -> u64 {
        self.recv_window_cap
    }

    /// The current instant on this node's wall-clock-backed simulation
    /// time axis (what completions' `visible_at` is stamped with).
    pub fn now(&self) -> qpip_sim::time::SimTime {
        self.clock.now()
    }

    /// Read-only view of the protocol engine (retransmission counters,
    /// connection state — useful for asserting that loss recovery
    /// actually ran).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs the embedded engine's TCB invariant oracle (full sweep; see
    /// [`qpip_netstack::invariant`]).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_invariants(&mut self) -> Result<(), qpip_netstack::invariant::InvariantViolation> {
        self.engine.check_invariants()
    }

    // ----- verbs ----------------------------------------------------------

    /// Creates a completion queue.
    pub fn create_cq(&mut self) -> CqId {
        let id = CqId(self.next_cq);
        self.next_cq += 1;
        self.cqs.insert(id, VecDeque::new());
        id
    }

    /// Creates a queue pair bound to the given service and CQs.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] if either CQ does not exist.
    pub fn create_qp(
        &mut self,
        service: ServiceType,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> Result<QpId, XportError> {
        for cq in [send_cq, recv_cq] {
            if !self.cqs.contains_key(&cq) {
                return Err(NicError::UnknownCq(cq).into());
            }
        }
        let id = QpId(self.next_qp);
        self.next_qp += 1;
        self.qps.insert(
            id,
            Qp {
                service,
                send_cq,
                recv_cq,
                conn: None,
                local_port: 0,
                recv_queue: VecDeque::new(),
                posted_bytes: 0,
                backlog: VecDeque::new(),
                established: false,
            },
        );
        Ok(id)
    }

    /// Binds a UDP QP to a local port.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a TCP QP; engine errors (e.g.
    /// port in use) via [`NicError::Engine`].
    pub fn udp_bind(&mut self, qp: QpId, port: u16) -> Result<(), XportError> {
        {
            let q = self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))?;
            if q.service != ServiceType::UnreliableUdp {
                return Err(NicError::InvalidState("udp_bind on a TCP QP").into());
            }
        }
        self.engine.udp_bind(port).map_err(NicError::Engine)?;
        self.qps.get_mut(&qp).expect("checked").local_port = port;
        self.udp_port_to_qp.insert(port, qp);
        Ok(())
    }

    /// Adds a TCP QP to the accept pool for `port` (and starts the
    /// listener if this is the first QP on that port) — §3's rendezvous
    /// model.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a UDP or already-connected QP;
    /// engine errors via [`NicError::Engine`].
    pub fn tcp_listen(&mut self, qp: QpId, port: u16) -> Result<(), XportError> {
        {
            let q = self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))?;
            if q.service != ServiceType::ReliableTcp {
                return Err(NicError::InvalidState("tcp_listen on a UDP QP").into());
            }
            if q.conn.is_some() {
                return Err(NicError::InvalidState("tcp_listen on a connected QP").into());
            }
        }
        match self.engine.tcp_listen(port) {
            Ok(()) => {}
            // pooling more QPs behind one listening port is the normal
            // multi-accept pattern
            Err(EngineError::PortInUse(_)) if self.accept_pool.contains_key(&port) => {}
            Err(e) => return Err(NicError::Engine(e).into()),
        }
        self.qps.get_mut(&qp).expect("checked").local_port = port;
        self.accept_pool.entry(port).or_default().push_back(qp);
        Ok(())
    }

    /// Opens a connection from a TCP QP to `remote` (a fabric
    /// endpoint). The SYN leaves immediately; completion arrives later
    /// as a [`CompletionKind::ConnectionEstablished`] entry on the
    /// QP's receive CQ.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a UDP or already-connected QP.
    pub fn tcp_connect(
        &mut self,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), XportError> {
        {
            let q = self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))?;
            if q.service != ServiceType::ReliableTcp {
                return Err(NicError::InvalidState("tcp_connect on a UDP QP").into());
            }
            if q.conn.is_some() {
                return Err(NicError::InvalidState("tcp_connect on a connected QP").into());
            }
        }
        let now = self.clock.now();
        let (conn, emits) = self.engine.tcp_connect(now, local_port, remote);
        let posted = {
            let q = self.qps.get_mut(&qp).expect("checked");
            q.conn = Some(conn);
            q.local_port = local_port;
            q.posted_bytes
        };
        self.conn_to_qp.insert(conn, qp);
        self.dispatch(emits)?;
        // announce the posted-WR window so the SYN-ACK peer sees real
        // space as soon as the handshake completes (§5.1)
        let upd = self.advertise(conn, posted)?;
        self.dispatch(upd)?;
        Ok(())
    }

    /// Posts a send work request. UDP sends complete immediately
    /// (handed to the wire); TCP sends complete when every byte is
    /// acknowledged (§3).
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] if the QP is not ready;
    /// [`NicError::Engine`] for engine rejections (e.g. message larger
    /// than one segment in message-per-segment mode).
    pub fn post_send(&mut self, qp: QpId, wr: SendWr) -> Result<(), XportError> {
        let (service, conn, local_port, send_cq) = {
            let q = self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))?;
            (q.service, q.conn, q.local_port, q.send_cq)
        };
        match service {
            ServiceType::UnreliableUdp => {
                let dst = wr.dst.ok_or(NicError::InvalidState("UDP send needs a destination"))?;
                let emit =
                    self.engine.udp_send(local_port, dst, &wr.payload).map_err(NicError::Engine)?;
                self.dispatch(vec![emit])?;
                let now = self.clock.now();
                self.complete(
                    send_cq,
                    Completion {
                        qp,
                        wr_id: wr.wr_id,
                        kind: CompletionKind::Send,
                        status: CompletionStatus::Success,
                        visible_at: now,
                    },
                );
                Ok(())
            }
            ServiceType::ReliableTcp => {
                let conn =
                    conn.ok_or(NicError::InvalidState("post_send on an unconnected TCP QP"))?;
                let token = self.next_token;
                self.next_token += 1;
                self.tokens.insert(token, (qp, wr.wr_id));
                let now = self.clock.now();
                match self.engine.tcp_send(now, conn, wr.payload, SendToken(token)) {
                    Ok(emits) => self.dispatch(emits),
                    Err(e) => {
                        self.tokens.remove(&token);
                        Err(NicError::Engine(e).into())
                    }
                }
            }
        }
    }

    /// Posts a receive work request, draining any backlog it can now
    /// absorb and growing the advertised window (§5.1: the window *is*
    /// the posted receive-WR space).
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] for a bad handle.
    pub fn post_recv(&mut self, qp: QpId, wr: RecvWr) -> Result<(), XportError> {
        let (was_small, conn, established) = {
            let q = self.qps.get_mut(&qp).ok_or(NicError::UnknownQp(qp))?;
            let was_small = q.posted_bytes < self.cfg.net.mtu as u64;
            q.posted_bytes += wr.capacity as u64;
            q.recv_queue.push_back(wr);
            (was_small, q.conn, q.established)
        };
        self.drain_backlog(qp);
        if let Some(conn) = conn {
            // read the posted space AFTER the drain: a backlogged
            // message may have consumed the WR just posted, and the
            // advertised window must equal the space actually available
            let posted = self.qps[&qp].posted_bytes;
            let emits = self.advertise(conn, posted)?;
            if was_small && established {
                self.dispatch(emits)?;
            }
            // otherwise: the window rides on normal ACKs; suppress the
            // extra update packet
        }
        Ok(())
    }

    /// Begins a graceful close of a connected TCP QP. The peer sees
    /// [`CompletionKind::PeerDisconnected`]; in-flight sends that can
    /// no longer complete are flushed with
    /// [`CompletionStatus::ConnectionError`] once the connection dies.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] if the QP has no connection.
    pub fn tcp_close(&mut self, qp: QpId) -> Result<(), XportError> {
        let conn = {
            let q = self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))?;
            q.conn.ok_or(NicError::InvalidState("tcp_close on an unconnected QP"))?
        };
        let now = self.clock.now();
        let emits = self.engine.tcp_close(now, conn)?;
        self.dispatch(emits)
    }

    /// Pops the oldest completion from a CQ, servicing the socket once
    /// (without blocking) first.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for a bad handle; socket errors.
    pub fn poll(&mut self, cq: CqId) -> Result<Option<Completion>, XportError> {
        if !self.cqs.contains_key(&cq) {
            return Err(NicError::UnknownCq(cq).into());
        }
        self.pump(Duration::ZERO)?;
        Ok(self.cqs.get_mut(&cq).expect("checked").pop_front())
    }

    /// Blocks (servicing the socket and timers) until a completion
    /// lands on `cq`.
    ///
    /// # Errors
    ///
    /// [`XportError::WaitTimeout`] — with a pending-state diagnostic —
    /// after [`XportConfig::wait_timeout`] of no completion; socket
    /// errors.
    pub fn wait(&mut self, cq: CqId) -> Result<Completion, XportError> {
        if !self.cqs.contains_key(&cq) {
            return Err(NicError::UnknownCq(cq).into());
        }
        let start = Instant::now();
        loop {
            if let Some(c) = self.cqs.get_mut(&cq).expect("checked").pop_front() {
                return Ok(c);
            }
            if start.elapsed() > self.cfg.wait_timeout {
                return Err(XportError::WaitTimeout(self.pending_summary(cq)));
            }
            self.pump(self.cfg.pump_slice)?;
        }
    }

    /// Services the node once: fires due timers, blocks on the socket
    /// for at most `min(max_wait, time-to-next-deadline)`, processes
    /// one datagram if one arrived. Returns whether a datagram was
    /// processed. Call in a loop to run the node without waiting on a
    /// specific CQ (e.g. a server between requests).
    ///
    /// # Errors
    ///
    /// Socket errors other than timeout/would-block.
    pub fn pump(&mut self, max_wait: Duration) -> Result<bool, XportError> {
        self.fire_due_timers()?;
        self.refresh_windows()?;
        let mut budget = max_wait;
        if let Some(d) = self.engine.next_deadline() {
            budget = budget.min(self.clock.until(d));
        }
        let got = if budget.is_zero() {
            self.sock.set_nonblocking(true)?;
            let r = self.recv_once();
            self.sock.set_nonblocking(false)?;
            r?
        } else {
            // clamp: set_read_timeout(0) is an error, and sub-ms
            // timeouts just spin against OS timer granularity
            self.sock.set_read_timeout(Some(budget.max(Duration::from_millis(1))))?;
            self.recv_once()?
        };
        if got {
            // drain the burst behind the first datagram without
            // blocking, so queued packets don't sit out an RTO while
            // the loop sleeps between single reads
            self.sock.set_nonblocking(true)?;
            let mut drained = Ok(());
            for _ in 0..63 {
                match self.recv_once() {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => {
                        drained = Err(e);
                        break;
                    }
                }
            }
            self.sock.set_nonblocking(false)?;
            drained?;
        }
        self.fire_due_timers()?;
        Ok(got)
    }

    // ----- event loop internals -------------------------------------------

    fn fire_due_timers(&mut self) -> Result<(), XportError> {
        // loop: handling one batch takes real wall time, which may ripen
        // the next deadline
        while let Some(d) = self.engine.next_deadline() {
            let now = self.clock.now();
            if d > now {
                break;
            }
            let emits = self.engine.on_timer(now);
            self.dispatch(emits)?;
        }
        Ok(())
    }

    /// Re-advertises every established QP's posted-WR window. The
    /// engine has no persist timer (faithful to the paper's firmware),
    /// so a window-update ACK lost on a real wire would otherwise stall
    /// a zero-window sender forever.
    fn refresh_windows(&mut self) -> Result<(), XportError> {
        if self.last_refresh.elapsed() < self.cfg.window_refresh {
            return Ok(());
        }
        self.last_refresh = Instant::now();
        let live: Vec<(ConnId, u64)> = self
            .qps
            .values()
            .filter(|q| q.established)
            .filter_map(|q| q.conn.map(|c| (c, q.posted_bytes)))
            .collect();
        for (conn, posted) in live {
            if let Ok(emits) = self.advertise(conn, posted) {
                self.dispatch(emits)?;
            }
        }
        Ok(())
    }

    fn recv_once(&mut self) -> Result<bool, XportError> {
        match self.sock.recv_from(&mut self.buf) {
            Ok((n, _from)) => {
                self.stats.datagrams_rx += 1;
                let now = self.clock.now();
                if let Some(tr) = &self.tracer {
                    tr.emit_node(now, TraceEvent::Sock { op: "rx", bytes: n as u32 });
                }
                let emits = self.engine.on_packet(now, &self.buf[..n]);
                self.dispatch(emits)?;
                Ok(true)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Processes engine emissions iteratively (an emission handler may
    /// produce further emissions — e.g. an accepted connection with no
    /// idle QP emits an abort RST).
    fn dispatch(&mut self, emits: Vec<Emit>) -> Result<(), XportError> {
        // debug-build oracle gate: every engine interaction funnels
        // through here, so a latched TCB invariant violation surfaces
        // on the very next dispatch
        #[cfg(debug_assertions)]
        if let Some(v) = self.engine.take_invariant_violation() {
            panic!("TCB invariant `{}` violated in live transport: {}", v.invariant, v.detail);
        }
        let mut queue: VecDeque<Emit> = emits.into();
        while let Some(e) = queue.pop_front() {
            match e {
                Emit::Packet(p) => self.transmit(p)?,
                Emit::UdpDelivered { port, src, payload } => self.deliver_udp(port, src, payload),
                Emit::TcpDelivered { conn, data } => self.deliver_tcp(conn, data),
                Emit::TcpSendComplete { conn: _, token } => self.complete_send(token.0),
                Emit::TcpConnected { conn } => {
                    let more = self.connection_up(conn)?;
                    queue.extend(more);
                }
                Emit::TcpAccepted { listener_port, conn, peer: _ } => {
                    let more = self.mate_connection(listener_port, conn)?;
                    queue.extend(more);
                }
                Emit::TcpPeerClosed { conn } => self.peer_event(
                    conn,
                    CompletionKind::PeerDisconnected,
                    CompletionStatus::Success,
                ),
                Emit::TcpClosed { conn } => self.conn_down(conn, false),
                Emit::TcpReset { conn } => self.conn_down(conn, true),
            }
        }
        Ok(())
    }

    fn transmit(&mut self, p: PacketOut) -> Result<(), XportError> {
        let Some(&to) = self.peers.get(&p.dst) else {
            self.stats.unroutable_drops += 1;
            return Ok(());
        };
        self.sock.send_to(&p.bytes, to)?;
        self.stats.datagrams_tx += 1;
        if let Some(tr) = &self.tracer {
            tr.emit_node(
                self.clock.now(),
                TraceEvent::Sock { op: "tx", bytes: p.bytes.len() as u32 },
            );
        }
        Ok(())
    }

    fn complete(&mut self, cq: CqId, c: Completion) {
        self.cqs.entry(cq).or_default().push_back(c);
    }

    fn deliver_udp(&mut self, port: u16, src: Endpoint, payload: Vec<u8>) {
        let Some(&qp) = self.udp_port_to_qp.get(&port) else {
            self.stats.udp_no_wr_drops += 1;
            return;
        };
        let q = self.qps.get_mut(&qp).expect("bound port has a QP");
        let Some(wr) = q.recv_queue.pop_front() else {
            // no WR posted: the datagram is dropped (unreliable service)
            self.stats.udp_no_wr_drops += 1;
            return;
        };
        q.posted_bytes = q.posted_bytes.saturating_sub(wr.capacity as u64);
        let recv_cq = q.recv_cq;
        self.place_message(qp, recv_cq, wr, payload, Some(src));
    }

    fn deliver_tcp(&mut self, conn: ConnId, data: Vec<u8>) {
        let Some(&qp) = self.conn_to_qp.get(&conn) else {
            return;
        };
        let q = self.qps.get_mut(&qp).expect("mapped conn has a QP");
        if let Some(wr) = q.recv_queue.pop_front() {
            q.posted_bytes = q.posted_bytes.saturating_sub(wr.capacity as u64);
            let recv_cq = q.recv_cq;
            self.place_message(qp, recv_cq, wr, data, None);
        } else {
            // reliable service: park until the host posts a WR
            q.backlog.push_back((data, None));
            self.stats.tcp_backlogged += 1;
        }
    }

    fn place_message(
        &mut self,
        qp: QpId,
        recv_cq: CqId,
        wr: RecvWr,
        data: Vec<u8>,
        src: Option<Endpoint>,
    ) {
        let status = if data.len() > wr.capacity {
            CompletionStatus::LocalLengthError { len: data.len(), capacity: wr.capacity }
        } else {
            CompletionStatus::Success
        };
        let now = self.clock.now();
        self.complete(
            recv_cq,
            Completion {
                qp,
                wr_id: wr.wr_id,
                kind: CompletionKind::Recv { data, src },
                status,
                visible_at: now,
            },
        );
    }

    fn complete_send(&mut self, token: u64) {
        let Some((qp, wr_id)) = self.tokens.remove(&token) else {
            return;
        };
        let send_cq = self.qps[&qp].send_cq;
        let now = self.clock.now();
        self.complete(
            send_cq,
            Completion {
                qp,
                wr_id,
                kind: CompletionKind::Send,
                status: CompletionStatus::Success,
                visible_at: now,
            },
        );
    }

    fn connection_up(&mut self, conn: ConnId) -> Result<Vec<Emit>, XportError> {
        let Some(&qp) = self.conn_to_qp.get(&conn) else {
            return Ok(Vec::new());
        };
        let (posted, recv_cq) = {
            let q = self.qps.get_mut(&qp).expect("mapped");
            q.established = true;
            (q.posted_bytes, q.recv_cq)
        };
        let now = self.clock.now();
        self.complete(
            recv_cq,
            Completion {
                qp,
                wr_id: 0,
                kind: CompletionKind::ConnectionEstablished,
                status: CompletionStatus::Success,
                visible_at: now,
            },
        );
        // announce the real (posted-WR) window now that we are connected
        Ok(self.advertise(conn, posted).unwrap_or_default())
    }

    /// Sets a connection's receive window to its posted-WR space, capped
    /// at what the socket buffer holds: the node never promises room a
    /// datagram could not land in.
    fn advertise(&mut self, conn: ConnId, posted: u64) -> Result<Vec<Emit>, EngineError> {
        let now = self.clock.now();
        self.engine.set_recv_space(now, conn, posted.min(self.recv_window_cap))
    }

    fn mate_connection(
        &mut self,
        listener_port: u16,
        conn: ConnId,
    ) -> Result<Vec<Emit>, XportError> {
        let Some(qp) = self.accept_pool.get_mut(&listener_port).and_then(VecDeque::pop_front)
        else {
            // no idle QP: refuse the connection
            let now = self.clock.now();
            return Ok(self.engine.tcp_abort(now, conn).unwrap_or_default());
        };
        self.conn_to_qp.insert(conn, qp);
        self.qps.get_mut(&qp).expect("pool QP exists").conn = Some(conn);
        self.connection_up(conn)
    }

    fn peer_event(&mut self, conn: ConnId, kind: CompletionKind, status: CompletionStatus) {
        let Some(&qp) = self.conn_to_qp.get(&conn) else {
            return;
        };
        let recv_cq = self.qps[&qp].recv_cq;
        let now = self.clock.now();
        self.complete(recv_cq, Completion { qp, wr_id: 0, kind, status, visible_at: now });
    }

    fn conn_down(&mut self, conn: ConnId, reset: bool) {
        let Some(qp) = self.conn_to_qp.remove(&conn) else {
            return;
        };
        if let Some(q) = self.qps.get_mut(&qp) {
            q.conn = None;
            q.established = false;
        }
        if reset {
            let recv_cq = self.qps[&qp].recv_cq;
            let now = self.clock.now();
            self.complete(
                recv_cq,
                Completion {
                    qp,
                    wr_id: 0,
                    kind: CompletionKind::PeerDisconnected,
                    status: CompletionStatus::ConnectionError,
                    visible_at: now,
                },
            );
        }
        self.flush_qp(qp);
    }

    /// Retires every in-flight send token owned by a dead QP with
    /// [`CompletionStatus::ConnectionError`].
    fn flush_qp(&mut self, qp: QpId) {
        let Some(q) = self.qps.get(&qp) else { return };
        let send_cq = q.send_cq;
        let stale: Vec<(u64, u64)> = self
            .tokens
            .iter()
            .filter(|(_, (owner, _))| *owner == qp)
            .map(|(&tok, &(_, wr_id))| (tok, wr_id))
            .collect();
        let now = self.clock.now();
        for (tok, wr_id) in stale {
            self.tokens.remove(&tok);
            self.complete(
                send_cq,
                Completion {
                    qp,
                    wr_id,
                    kind: CompletionKind::Send,
                    status: CompletionStatus::ConnectionError,
                    visible_at: now,
                },
            );
        }
    }

    fn drain_backlog(&mut self, qp: QpId) {
        loop {
            let q = self.qps.get_mut(&qp).expect("caller checked");
            if q.backlog.is_empty() || q.recv_queue.is_empty() {
                break;
            }
            let (data, src) = q.backlog.pop_front().expect("nonempty");
            let wr = q.recv_queue.pop_front().expect("nonempty");
            q.posted_bytes = q.posted_bytes.saturating_sub(wr.capacity as u64);
            let recv_cq = q.recv_cq;
            self.place_message(qp, recv_cq, wr, data, src);
        }
    }

    /// Describes the node's pending state for the wait-timeout
    /// diagnostic: which CQ was being waited on, what every QP still
    /// has outstanding, and what the engine thinks is in flight.
    fn pending_summary(&self, cq: CqId) -> String {
        use fmt::Write as _;
        let stats = self.stats();
        let mut s = format!(
            "no completion on {cq} within {:?} (fabric {}, {} datagrams rx / {} tx, \
             {} kernel drops, rcvbuf {}B, window cap {}B)",
            self.cfg.wait_timeout,
            self.fabric_addr(),
            stats.datagrams_rx,
            stats.datagrams_tx,
            stats.kernel_drops,
            stats.rcvbuf_bytes,
            self.recv_window_cap,
        );
        let mut qps: Vec<_> = self.qps.iter().collect();
        qps.sort_by_key(|(id, _)| id.0);
        for (id, q) in qps {
            let _ = write!(
                s,
                "; {id}: {:?} conn={:?} established={} recv_wrs={} backlog={} posted={}B",
                q.service,
                q.conn,
                q.established,
                q.recv_queue.len(),
                q.backlog.len(),
                q.posted_bytes,
            );
        }
        let _ = write!(
            s,
            "; in-flight send tokens={}; engine conns={} retransmissions={}",
            self.tokens.len(),
            self.engine.conn_count(),
            self.engine.retransmissions(),
        );
        s
    }
}

/// The kernel's drop count for the UDP socket bound at `local`: its
/// `drops` column in `/proc/net/udp` (IPv4) or `/proc/net/udp6`. 0 where
/// `/proc` is missing or the socket is not listed.
fn kernel_drops(local: SocketAddr) -> u64 {
    let table = if local.is_ipv4() { "/proc/net/udp" } else { "/proc/net/udp6" };
    std::fs::read_to_string(table).ok().and_then(|t| socket_drops(&t, local)).unwrap_or(0)
}

/// Finds the row of a `/proc/net/udp{,6}` table whose local address is
/// `local` and returns its last column (`drops`). The kernel prints each
/// 32-bit word of the address as `%08X` of its in-memory value and the
/// port in host order.
fn socket_drops(table: &str, local: SocketAddr) -> Option<u64> {
    let want: Vec<u8> = match local.ip() {
        std::net::IpAddr::V4(a) => a.octets().to_vec(),
        std::net::IpAddr::V6(a) => a.octets().to_vec(),
    };
    table.lines().skip(1).find_map(|row| {
        let mut cols = row.split_whitespace();
        let (addr, port) = cols.nth(1)?.split_once(':')?;
        if u16::from_str_radix(port, 16).ok()? != local.port() || addr.len() != want.len() * 2 {
            return None;
        }
        let mut bytes = Vec::with_capacity(want.len());
        for word in addr.as_bytes().chunks(8) {
            let w = u32::from_str_radix(std::str::from_utf8(word).ok()?, 16).ok()?;
            bytes.extend_from_slice(&w.to_ne_bytes());
        }
        if bytes != want {
            return None;
        }
        cols.last()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders an address the way the kernel's `/proc/net/udp{,6}` does.
    fn proc_addr(a: SocketAddr) -> String {
        let octets = match a.ip() {
            std::net::IpAddr::V4(v) => v.octets().to_vec(),
            std::net::IpAddr::V6(v) => v.octets().to_vec(),
        };
        let words: String = octets
            .chunks(4)
            .map(|w| format!("{:08X}", u32::from_ne_bytes(w.try_into().unwrap())))
            .collect();
        format!("{words}:{:04X}", a.port())
    }

    fn row(sl: u32, a: SocketAddr, drops: u64) -> String {
        format!(
            "  {sl}: {} 00000000:0000 07 00000000:00000000 00:00000000 00000000  1000        0 \
             4242 2 0000000000000000 {drops}",
            proc_addr(a)
        )
    }

    #[test]
    fn socket_drops_matches_address_and_port() {
        let ours: SocketAddr = "127.0.0.1:40001".parse().unwrap();
        let other_port: SocketAddr = "127.0.0.1:40002".parse().unwrap();
        let other_addr: SocketAddr = "127.0.0.2:40001".parse().unwrap();
        let table = format!(
            "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   \
             uid  timeout inode ref pointer drops\n{}\n{}\n{}\n",
            row(0, other_port, 5),
            row(1, other_addr, 6),
            row(2, ours, 1137),
        );
        assert_eq!(socket_drops(&table, ours), Some(1137));
        let absent: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert_eq!(socket_drops(&table, absent), None);
    }

    #[test]
    fn socket_drops_reads_udp6_rows() {
        let ours: SocketAddr = "[::1]:5001".parse().unwrap();
        let table = format!("header\n{}\n", row(0, ours, 3));
        assert_eq!(socket_drops(&table, ours), Some(3));
    }

    #[test]
    fn live_socket_is_found_in_proc_with_no_drops() {
        let n = XportNode::bind(Ipv6Addr::LOCALHOST, XportConfig::default()).unwrap();
        let table = std::fs::read_to_string("/proc/net/udp");
        if let Ok(t) = table {
            assert_eq!(socket_drops(&t, n.local_addr().unwrap()), Some(0));
        }
        assert!(n.stats().rcvbuf_bytes > 0);
    }

    #[test]
    fn window_cap_charges_each_datagram_its_kernel_footprint() {
        let net = NetConfig::qpip(9000);
        // a 9000 B datagram lands in a 16 KiB allocation plus its sk_buff
        let footprint = 16384 + SKB_STRUCT;
        let credit = (net.max_tcp_payload() / 2) as u64;
        assert_eq!(window_cap(212_992, &net), 12 * credit);
        assert_eq!(window_cap(8 << 20, &net), (8 << 20) as u64 / footprint as u64 * credit);
        // a grant smaller than one datagram still admits one
        assert_eq!(window_cap(4096, &net), credit);
        // every 8 KiB message the cap admits fits the buffer
        let granted = 425_984;
        let messages = window_cap(granted, &net) / 8192;
        assert!(messages as usize * footprint <= granted);
    }
}
