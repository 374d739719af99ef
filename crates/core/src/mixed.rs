//! A mixed fabric: QPIP nodes and conventional socket hosts side by
//! side on one network.
//!
//! §3: "Using inter-network protocols … provides a straightforward
//! means to bridge the SAN to external networks … Communication can
//! occur between QPIP applications or QPIP and traditional (socket)
//! systems. QP to QP is the high performance mode … In the latter mode,
//! the remote end sees a conventional IP socket, but the QP end is
//! aware of the remote limitations and may have to re-assemble incoming
//! data into a complete unit."
//!
//! [`MixedWorld`] realizes exactly that: the same wire, one node with
//! the stack in its NIC behind queue pairs, the other with the stack on
//! its host behind sockets — both with their full cost models.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use qpip_fabric::{Fabric, FabricConfig, TransmitOutcome};
use qpip_host::cpu::{CpuLedger, WorkClass};
use qpip_host::stack::{HostOutput, HostStack, SendOutcome, SockId, StackConfig};
use qpip_netstack::types::Endpoint;
use qpip_nic::{Completion, CqId, NicConfig, NicError, NicOutput, QpId, QpipNic, RecvWr, SendWr};
use qpip_sim::kernel::{EventId, Simulator};
use qpip_sim::params;
use qpip_sim::time::{SimDuration, SimTime};

use crate::world::NodeIdx;

#[derive(Debug)]
enum Ev {
    Packet { node: usize, bytes: qpip_wire::Packet },
    Timer { node: usize },
}

enum Backend {
    Qpip { nic: Box<QpipNic>, cpu: CpuLedger, cqs: HashMap<CqId, VecDeque<Completion>> },
    Host { stack: Box<HostStack>, events: Vec<HostOutput> },
}

struct Node {
    backend: Backend,
    app_time: SimTime,
    fabric_id: qpip_fabric::NodeId,
    timer_event: Option<(SimTime, EventId)>,
}

/// A network mixing QPIP and socket nodes.
pub struct MixedWorld {
    sim: Simulator<Ev>,
    fabric: Fabric,
    nodes: Vec<Node>,
    /// Fabric port → node index (dense: ports are assigned in attach
    /// order), so packet delivery is O(1) at any fleet size.
    fabric_to_node: Vec<usize>,
}

impl core::fmt::Debug for MixedWorld {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MixedWorld")
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl MixedWorld {
    /// Creates a mixed world over the given fabric. The fabric MTU must
    /// suit both node kinds (e.g. 9000 for Myrinet carrying both).
    pub fn new(fabric: FabricConfig) -> Self {
        MixedWorld {
            sim: Simulator::new(),
            fabric: Fabric::new(fabric),
            nodes: Vec::new(),
            fabric_to_node: Vec::new(),
        }
    }

    /// Adds a QPIP node (stack in the NIC, queue-pair interface).
    pub fn add_qpip_node(&mut self, cfg: NicConfig) -> NodeIdx {
        let n = self.nodes.len();
        let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0xaaaa, (n + 1) as u16);
        let mut cfg = cfg;
        cfg.mtu = cfg.mtu.min(self.fabric.config().mtu);
        let fabric_id = self.fabric.attach(addr);
        debug_assert_eq!(fabric_id.0 as usize, self.fabric_to_node.len());
        self.fabric_to_node.push(n);
        self.nodes.push(Node {
            backend: Backend::Qpip {
                nic: Box::new(QpipNic::new(cfg, addr)),
                cpu: CpuLedger::new(),
                cqs: HashMap::new(),
            },
            app_time: SimTime::ZERO,
            fabric_id,
            timer_event: None,
        });
        NodeIdx(n)
    }

    /// Adds a conventional socket host (stack on the host CPU).
    pub fn add_host_node(&mut self, cfg: StackConfig) -> NodeIdx {
        let n = self.nodes.len();
        let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0xbbbb, (n + 1) as u16);
        let fabric_id = self.fabric.attach(addr);
        debug_assert_eq!(fabric_id.0 as usize, self.fabric_to_node.len());
        self.fabric_to_node.push(n);
        self.nodes.push(Node {
            backend: Backend::Host {
                stack: Box::new(HostStack::new(cfg, addr)),
                events: Vec::new(),
            },
            app_time: SimTime::ZERO,
            fabric_id,
            timer_event: None,
        });
        NodeIdx(n)
    }

    /// The address of a node.
    pub fn addr(&self, node: NodeIdx) -> Ipv6Addr {
        match &self.nodes[node.0].backend {
            Backend::Qpip { nic, .. } => nic.addr(),
            Backend::Host { stack, .. } => stack.addr(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Traffic and drop counters of a node's protocol engine, wherever
    /// it runs (NIC firmware or host kernel).
    pub fn engine_stats(&self, node: NodeIdx) -> qpip_netstack::engine::EngineStats {
        match &self.nodes[node.0].backend {
            Backend::Qpip { nic, .. } => nic.engine_stats(),
            Backend::Host { stack, .. } => stack.engine_stats(),
        }
    }

    /// Total discrete events the world's simulator has delivered.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Wall-clock drain rate of the event loop.
    pub fn events_per_sec(&self) -> f64 {
        self.sim.events_per_sec()
    }

    fn qpip(
        &mut self,
        node: NodeIdx,
    ) -> (&mut QpipNic, &mut CpuLedger, &mut HashMap<CqId, VecDeque<Completion>>, &mut SimTime)
    {
        let n = &mut self.nodes[node.0];
        match &mut n.backend {
            Backend::Qpip { nic, cpu, cqs } => (nic, cpu, cqs, &mut n.app_time),
            Backend::Host { .. } => panic!("node {} is a socket host", node.0),
        }
    }

    fn host(&mut self, node: NodeIdx) -> (&mut HostStack, &mut Vec<HostOutput>, &mut SimTime) {
        let n = &mut self.nodes[node.0];
        match &mut n.backend {
            Backend::Host { stack, events } => (stack, events, &mut n.app_time),
            Backend::Qpip { .. } => panic!("node {} is a QPIP node", node.0),
        }
    }

    // ----- QPIP-node verbs (subset mirroring QpipWorld) -------------------

    /// Creates a CQ on a QPIP node.
    pub fn create_cq(&mut self, node: NodeIdx) -> CqId {
        let (nic, _, cqs, _) = self.qpip(node);
        let cq = nic.create_cq();
        cqs.insert(cq, VecDeque::new());
        cq
    }

    /// Creates a QP on a QPIP node.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn create_qp(
        &mut self,
        node: NodeIdx,
        service: qpip_nic::ServiceType,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> Result<QpId, NicError> {
        self.qpip(node).0.create_qp(service, send_cq, recv_cq)
    }

    /// Monitors a TCP port on a QPIP node.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn tcp_listen(&mut self, node: NodeIdx, port: u16, qp: QpId) -> Result<(), NicError> {
        self.qpip(node).0.tcp_listen(port, qp)
    }

    /// Connects a QPIP node's QP to any peer (QPIP or socket).
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn tcp_connect(
        &mut self,
        node: NodeIdx,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), NicError> {
        let t = self.verbs_preamble(node);
        let (nic, _, _, _) = self.qpip(node);
        let outs = nic.tcp_connect(t, qp, local_port, remote)?;
        self.absorb_qpip(node.0, outs);
        Ok(())
    }

    /// Posts a send WR on a QPIP node.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn post_send(&mut self, node: NodeIdx, qp: QpId, wr: SendWr) -> Result<(), NicError> {
        let t = self.verbs_preamble(node);
        let (nic, _, _, _) = self.qpip(node);
        let outs = nic.post_send(t, qp, wr)?;
        self.absorb_qpip(node.0, outs);
        Ok(())
    }

    /// Posts a receive WR on a QPIP node.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn post_recv(&mut self, node: NodeIdx, qp: QpId, wr: RecvWr) -> Result<(), NicError> {
        let t = self.verbs_preamble(node);
        let (nic, _, _, _) = self.qpip(node);
        let outs = nic.post_recv(t, qp, wr)?;
        self.absorb_qpip(node.0, outs);
        Ok(())
    }

    /// Blocks a QPIP node's application until a CQ entry arrives.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry first.
    pub fn wait(&mut self, node: NodeIdx, cq: CqId) -> Completion {
        loop {
            {
                let (_, cpu, cqs, app_time) = self.qpip(node);
                if let Some(head) = cqs.get(&cq).and_then(|q| q.front()) {
                    let visible = head.visible_at;
                    *app_time = cpu.charge(
                        (*app_time).max(visible),
                        WorkClass::Verbs,
                        params::QPIP_POLL_HIT_CYCLES,
                    );
                    return cqs.get_mut(&cq).expect("cq").pop_front().expect("head");
                }
            }
            assert!(self.step(), "mixed wait() deadlocked on node {}", node.0);
        }
    }

    /// Waits for a matching completion, discarding others.
    pub fn wait_matching(
        &mut self,
        node: NodeIdx,
        cq: CqId,
        mut pred: impl FnMut(&Completion) -> bool,
    ) -> Completion {
        loop {
            let c = self.wait(node, cq);
            if pred(&c) {
                return c;
            }
        }
    }

    fn verbs_preamble(&mut self, node: NodeIdx) -> SimTime {
        let now = self.sim.now();
        let (_, cpu, _, app_time) = self.qpip(node);
        *app_time = (*app_time).max(now);
        let t = cpu.charge(*app_time, WorkClass::Verbs, params::qpip_post_cycles());
        *app_time = t;
        t + SimDuration::from_nanos(200)
    }

    // ----- socket-node API (subset mirroring SocketWorld) -----------------

    /// Creates a TCP socket on a host node.
    pub fn tcp_socket(&mut self, node: NodeIdx) -> SockId {
        self.host(node).0.tcp_socket()
    }

    /// Listens on a host node.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn listen(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        port: u16,
    ) -> Result<(), qpip_host::SockError> {
        self.host(node).0.listen(sock, port)
    }

    /// Connects a host socket to any peer, blocking until established.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn connect_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), qpip_host::SockError> {
        let t = {
            let now = self.sim.now();
            let (_, _, app_time) = self.host(node);
            (*app_time).max(now)
        };
        let outs = {
            let (stack, _, _) = self.host(node);
            stack.connect(t, sock, local_port, remote)?
        };
        self.absorb_host(node.0, outs);
        loop {
            {
                let (_, events, _) = self.host(node);
                if let Some(pos) = events
                    .iter()
                    .position(|e| matches!(e, HostOutput::Connected { sock: s, .. } if *s == sock))
                {
                    events.remove(pos);
                    return Ok(());
                }
            }
            assert!(self.step(), "connect_blocking deadlocked");
        }
    }

    /// Accepts a connection on a listening host socket.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn accept_blocking(&mut self, node: NodeIdx, listener: SockId) -> SockId {
        loop {
            {
                let (_, events, app_time) = self.host(node);
                if let Some(pos) = events.iter().position(
                    |e| matches!(e, HostOutput::Accepted { listener: l, .. } if *l == listener),
                ) {
                    let HostOutput::Accepted { sock, at, .. } = events.remove(pos) else {
                        unreachable!()
                    };
                    *app_time = (*app_time).max(at);
                    return sock;
                }
            }
            assert!(self.step(), "accept_blocking deadlocked");
        }
    }

    /// Sends bytes from a host socket, blocking on buffer space.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn send_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        data: &[u8],
    ) -> Result<(), qpip_host::SockError> {
        // a blocking write loops over pieces the socket buffer can hold
        let mut offset = 0;
        while offset < data.len() {
            let n = (data.len() - offset).min(16 * 1024);
            let t = {
                let now = self.sim.now();
                let (_, _, app_time) = self.host(node);
                (*app_time).max(now)
            };
            let (outcome, outs) = {
                let (stack, _, _) = self.host(node);
                stack.send(t, sock, &data[offset..offset + n])?
            };
            self.absorb_host(node.0, outs);
            match outcome {
                SendOutcome::Sent { done } => {
                    offset += n;
                    let (_, _, app_time) = self.host(node);
                    *app_time = (*app_time).max(done);
                }
                SendOutcome::WouldBlock => {
                    assert!(self.step(), "send_blocking deadlocked");
                }
            }
        }
        Ok(())
    }

    /// Receives exactly `len` bytes on a host socket.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn recv_exact(&mut self, node: NodeIdx, sock: SockId, len: usize) -> Vec<u8> {
        let mut got = Vec::with_capacity(len);
        while got.len() < len {
            let readable = self.host(node).0.readable(sock);
            if readable == 0 {
                assert!(self.step(), "recv_exact deadlocked at {} bytes", got.len());
                continue;
            }
            let t = {
                let now = self.sim.now();
                let (_, _, app_time) = self.host(node);
                (*app_time).max(now)
            };
            let (data, done) = {
                let (stack, _, _) = self.host(node);
                stack.recv(t, sock, len - got.len()).expect("known socket")
            };
            got.extend(data);
            let (_, _, app_time) = self.host(node);
            *app_time = (*app_time).max(done);
        }
        got
    }

    // ----- event loop ------------------------------------------------------

    /// Processes one event; `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.sim.next() else {
            return false;
        };
        match ev {
            Ev::Packet { node, bytes } => match &mut self.nodes[node].backend {
                Backend::Qpip { nic, .. } => {
                    let outs = nic.on_packet(t, &bytes);
                    self.absorb_qpip(node, outs);
                    self.enforce_oracle(node);
                }
                Backend::Host { stack, .. } => {
                    let outs = stack.on_frame(t, &bytes);
                    self.absorb_host(node, outs);
                    self.enforce_oracle(node);
                }
            },
            Ev::Timer { node } => {
                self.nodes[node].timer_event = None;
                match &mut self.nodes[node].backend {
                    Backend::Qpip { nic, .. } => {
                        let outs = nic.on_timer(t);
                        self.absorb_qpip(node, outs);
                    }
                    Backend::Host { stack, .. } => {
                        let outs = stack.on_timer(t);
                        self.absorb_host(node, outs);
                    }
                }
                self.enforce_oracle(node);
            }
        }
        true
    }

    /// Debug-build oracle gate: after every event, surface any TCB
    /// invariant violation latched by either backend's engine.
    ///
    /// # Panics
    ///
    /// Panics naming the violated invariant.
    #[cfg(debug_assertions)]
    fn enforce_oracle(&mut self, node: usize) {
        let v = match &mut self.nodes[node].backend {
            Backend::Qpip { nic, .. } => nic.take_invariant_violation(),
            Backend::Host { stack, .. } => stack.take_invariant_violation(),
        };
        if let Some(v) = v {
            panic!("TCB invariant `{}` violated on node {node}: {}", v.invariant, v.detail);
        }
    }

    #[cfg(not(debug_assertions))]
    fn enforce_oracle(&mut self, _node: usize) {}

    fn transmit(&mut self, node: usize, at: SimTime, dst: Ipv6Addr, bytes: qpip_wire::Packet) {
        let from = self.nodes[node].fabric_id;
        if let TransmitOutcome::Delivered { to, at: arrive, marked } =
            self.fabric.transmit(at, from, dst, bytes.len())
        {
            let dest = self.fabric_to_node[to.0 as usize];
            let mut bytes = bytes;
            if marked
                && qpip_wire::ipv6::Ipv6Header::ecn_of_packet(&bytes)
                    == qpip_wire::ipv6::Ecn::Capable
            {
                qpip_wire::ipv6::Ipv6Header::set_ecn_in_packet(
                    &mut bytes,
                    qpip_wire::ipv6::Ecn::CongestionExperienced,
                );
            }
            let arrive = arrive.max(self.sim.now());
            self.sim.schedule_at(arrive, Ev::Packet { node: dest, bytes });
        }
    }

    fn absorb_qpip(&mut self, node: usize, outs: Vec<NicOutput>) {
        for o in outs {
            match o {
                NicOutput::Transmit { at, dst, bytes, .. } => self.transmit(node, at, dst, bytes),
                NicOutput::Complete(cq, c) => {
                    let Backend::Qpip { cqs, .. } = &mut self.nodes[node].backend else {
                        unreachable!()
                    };
                    cqs.entry(cq).or_default().push_back(c);
                }
            }
        }
        self.refresh_timer(node);
    }

    fn absorb_host(&mut self, node: usize, outs: Vec<HostOutput>) {
        for o in outs {
            match o {
                HostOutput::Frame { at, dst, bytes } => self.transmit(node, at, dst, bytes),
                ev => {
                    if let HostOutput::DataReady { at, .. }
                    | HostOutput::Connected { at, .. }
                    | HostOutput::SendSpace { at, .. }
                    | HostOutput::Accepted { at, .. } = &ev
                    {
                        let n = &mut self.nodes[node];
                        n.app_time = n.app_time.max(*at);
                    }
                    // only connect_blocking and accept_blocking read the
                    // log, and each removes the event it returns on; the
                    // send/recv helpers poll the stack, so keeping their
                    // per-segment wake-ups would grow it with every byte
                    if matches!(ev, HostOutput::Connected { .. } | HostOutput::Accepted { .. }) {
                        let Backend::Host { events, .. } = &mut self.nodes[node].backend else {
                            unreachable!()
                        };
                        events.push(ev);
                    }
                }
            }
        }
        self.refresh_timer(node);
    }

    fn refresh_timer(&mut self, node: usize) {
        let deadline = match &self.nodes[node].backend {
            Backend::Qpip { nic, .. } => nic.next_deadline(),
            Backend::Host { stack, .. } => stack.next_deadline(),
        };
        let current = self.nodes[node].timer_event;
        match (deadline, current) {
            (Some(d), Some((t, _))) if t <= d => {}
            (Some(d), existing) => {
                if let Some((_, id)) = existing {
                    self.sim.cancel(id);
                }
                let at = d.max(self.sim.now());
                let id = self.sim.schedule_at(at, Ev::Timer { node });
                self.nodes[node].timer_event = Some((at, id));
            }
            (None, Some((_, id))) => {
                self.sim.cancel(id);
                self.nodes[node].timer_event = None;
            }
            (None, None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bulk stream between two socket hosts wakes the reader and the
    /// writer once per segment or so; none of those wake-ups may pile up
    /// in a host's event log, and the consumed connect/accept events are
    /// gone too.
    #[test]
    fn host_event_log_stays_bounded_over_a_bulk_stream() {
        const LEN: usize = 1 << 20;
        let mut w = MixedWorld::new(FabricConfig::gigabit_ethernet());
        let a = w.add_host_node(StackConfig::gige());
        let b = w.add_host_node(StackConfig::gige());
        let ls = w.tcp_socket(b);
        w.listen(b, ls, 80).unwrap();
        let cs = w.tcp_socket(a);
        let remote = Endpoint::new(w.addr(b), 80);
        w.connect_blocking(a, cs, 4000, remote).unwrap();
        let ss = w.accept_blocking(b, ls);

        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let mut got = Vec::with_capacity(LEN);
        for piece in data.chunks(64 * 1024) {
            w.send_blocking(a, cs, piece).unwrap();
            got.extend(w.recv_exact(b, ss, piece.len()));
            for node in [a, b] {
                let log = w.host(node).1.len();
                assert_eq!(log, 0, "node {} holds {log} unconsumed events", node.0);
            }
        }
        assert_eq!(got, data);
    }
}
