//! The baseline testbed: host-based socket stacks over a fabric.
//!
//! [`SocketWorld`] is the counterpart of [`crate::world::QpipWorld`] for
//! the paper's comparison systems — IP over Gigabit Ethernet and IP over
//! Myrinet/GM (§4.2) — wiring `qpip-host` stacks to a `qpip-fabric`
//! network with the same event loop discipline, so both sides of every
//! figure are measured the same way.

use qpip_fabric::{Fabric, FabricConfig, TransmitOutcome};
use qpip_host::cpu::CpuLedger;
use qpip_host::stack::{HostOutput, HostStack, SendOutcome, SockError, SockId, StackConfig};
use qpip_netstack::types::Endpoint;
use qpip_sim::kernel::{EventId, Simulator};
use qpip_sim::time::SimTime;

use crate::world::NodeIdx;

#[derive(Debug)]
enum WorldEvent {
    Frame { node: usize, bytes: qpip_wire::Packet },
    Timer { node: usize },
}

struct Node {
    stack: HostStack,
    app_time: SimTime,
    fabric_id: qpip_fabric::NodeId,
    timer_event: Option<(SimTime, EventId)>,
    events: Vec<HostOutput>,
}

/// A simulated network of conventional socket hosts.
pub struct SocketWorld {
    sim: Simulator<WorldEvent>,
    fabric: Fabric,
    nodes: Vec<Node>,
    /// Fabric port → node index (dense: ports are assigned in attach
    /// order), so packet delivery is O(1) at any fleet size.
    fabric_to_node: Vec<usize>,
}

impl core::fmt::Debug for SocketWorld {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SocketWorld")
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl SocketWorld {
    /// Creates a world over the given fabric.
    pub fn new(fabric: FabricConfig) -> Self {
        SocketWorld {
            sim: Simulator::new(),
            fabric: Fabric::new(fabric),
            nodes: Vec::new(),
            fabric_to_node: Vec::new(),
        }
    }

    /// The IP-over-Gigabit-Ethernet testbed (§4.2.1).
    pub fn gige() -> Self {
        SocketWorld::new(FabricConfig::gigabit_ethernet())
    }

    /// The IP-over-Myrinet (GM, 9000-byte MTU) testbed (§4.2.1).
    pub fn gm_myrinet() -> Self {
        SocketWorld::new(FabricConfig::myrinet_gm())
    }

    /// Adds a host; the stack configuration should match the fabric.
    pub fn add_node(&mut self, cfg: StackConfig) -> NodeIdx {
        let n = self.nodes.len();
        let addr = std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, (n + 1) as u16);
        let fabric_id = self.fabric.attach(addr);
        debug_assert_eq!(fabric_id.0 as usize, self.fabric_to_node.len());
        self.fabric_to_node.push(n);
        self.nodes.push(Node {
            stack: HostStack::new(cfg, addr),
            app_time: SimTime::ZERO,
            fabric_id,
            timer_event: None,
            events: Vec::new(),
        });
        NodeIdx(n)
    }

    /// The address of a node.
    pub fn addr(&self, node: NodeIdx) -> std::net::Ipv6Addr {
        self.nodes[node.0].stack.addr()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// A node's application clock.
    pub fn app_time(&self, node: NodeIdx) -> SimTime {
        self.nodes[node.0].app_time
    }

    /// Host CPU ledger of a node.
    pub fn cpu(&self, node: NodeIdx) -> &CpuLedger {
        self.nodes[node.0].stack.cpu()
    }

    /// Charges application cycles on a node.
    pub fn charge_app(&mut self, node: NodeIdx, cycles: u64) {
        let n = &mut self.nodes[node.0];
        n.app_time = n.stack.cpu_mut().charge(n.app_time, qpip_host::WorkClass::App, cycles);
    }

    /// Stack access for instrumentation.
    pub fn stack(&self, node: NodeIdx) -> &HostStack {
        &self.nodes[node.0].stack
    }

    // ----- sockets ---------------------------------------------------------

    /// Creates a TCP socket.
    pub fn tcp_socket(&mut self, node: NodeIdx) -> SockId {
        self.nodes[node.0].stack.tcp_socket()
    }

    /// Creates a UDP socket.
    pub fn udp_socket(&mut self, node: NodeIdx) -> SockId {
        self.nodes[node.0].stack.udp_socket()
    }

    /// Binds a UDP socket.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn udp_bind(&mut self, node: NodeIdx, sock: SockId, port: u16) -> Result<(), SockError> {
        self.nodes[node.0].stack.udp_bind(sock, port)
    }

    /// Listens on a TCP port.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn listen(&mut self, node: NodeIdx, sock: SockId, port: u16) -> Result<(), SockError> {
        self.nodes[node.0].stack.listen(sock, port)
    }

    /// Connects and blocks until established; returns the connected
    /// socket on success.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks before the handshake finishes.
    pub fn connect_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), SockError> {
        let t = self.nodes[node.0].app_time.max(self.sim.now());
        let outs = self.nodes[node.0].stack.connect(t, sock, local_port, remote)?;
        self.absorb(node.0, outs);
        self.block_until(node, |evs| {
            evs.iter().any(|e| matches!(e, HostOutput::Connected { sock: s, .. } if *s == sock))
        });
        Ok(())
    }

    /// Blocks until a listener produces a connection; returns the new
    /// socket.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn accept_blocking(&mut self, node: NodeIdx, listener: SockId) -> SockId {
        self.block_until(node, |evs| {
            evs.iter()
                .any(|e| matches!(e, HostOutput::Accepted { listener: l, .. } if *l == listener))
        });
        let evs = &mut self.nodes[node.0].events;
        let pos = evs
            .iter()
            .position(|e| matches!(e, HostOutput::Accepted { listener: l, .. } if *l == listener))
            .expect("just observed");
        let HostOutput::Accepted { sock, at, .. } = evs.remove(pos) else { unreachable!() };
        let n = &mut self.nodes[node.0];
        n.app_time = n.app_time.max(at);
        sock
    }

    /// Sends all of `data`, blocking (and retrying) when the socket
    /// buffer is full. Returns when the final write syscall returns.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock while waiting for send space.
    pub fn send_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        data: &[u8],
    ) -> Result<(), SockError> {
        // a blocking write loops over pieces the socket buffer can hold
        let mut offset = 0;
        while offset < data.len() {
            let n = (data.len() - offset).min(16 * 1024);
            let piece = &data[offset..offset + n];
            let t = self.nodes[node.0].app_time.max(self.sim.now());
            let (outcome, outs) = self.nodes[node.0].stack.send(t, sock, piece)?;
            self.absorb(node.0, outs);
            match outcome {
                SendOutcome::Sent { done } => {
                    offset += n;
                    let nd = &mut self.nodes[node.0];
                    nd.app_time = nd.app_time.max(done);
                }
                SendOutcome::WouldBlock => {
                    // sleep until the stack signals space
                    self.nodes[node.0]
                        .events
                        .retain(|e| !matches!(e, HostOutput::SendSpace { .. }));
                    self.block_until(node, |evs| {
                        evs.iter().any(|e| matches!(e, HostOutput::SendSpace { .. }))
                    });
                }
            }
        }
        Ok(())
    }

    /// Receives exactly `len` bytes, blocking as needed.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn recv_exact(&mut self, node: NodeIdx, sock: SockId, len: usize) -> Vec<u8> {
        let mut got = Vec::with_capacity(len);
        while got.len() < len {
            if self.nodes[node.0].stack.readable(sock) == 0 {
                self.block_until(node, |evs| {
                    evs.iter()
                        .any(|e| matches!(e, HostOutput::DataReady { sock: s, .. } if *s == sock))
                });
                self.nodes[node.0]
                    .events
                    .retain(|e| !matches!(e, HostOutput::DataReady { sock: s, .. } if *s == sock));
            }
            let t = self.nodes[node.0].app_time.max(self.sim.now());
            let (data, done) =
                self.nodes[node.0].stack.recv(t, sock, len - got.len()).expect("known socket");
            got.extend(data);
            let n = &mut self.nodes[node.0];
            n.app_time = n.app_time.max(done);
        }
        got
    }

    /// Non-blocking send attempt: returns `true` when accepted, `false`
    /// when the send buffer is full (use [`SocketWorld::step`] to make
    /// progress and retry) — the building block for pumped workloads
    /// like ttcp where one driver loop plays both endpoints.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn try_send(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        data: &[u8],
    ) -> Result<bool, SockError> {
        let t = self.nodes[node.0].app_time.max(self.sim.now());
        let (outcome, outs) = self.nodes[node.0].stack.send(t, sock, data)?;
        self.absorb(node.0, outs);
        match outcome {
            SendOutcome::Sent { done } => {
                let n = &mut self.nodes[node.0];
                n.app_time = n.app_time.max(done);
                Ok(true)
            }
            SendOutcome::WouldBlock => Ok(false),
        }
    }

    /// Bytes currently readable on a socket.
    pub fn readable(&self, node: NodeIdx, sock: SockId) -> usize {
        self.nodes[node.0].stack.readable(sock)
    }

    /// Drains up to `max` readable bytes without blocking.
    pub fn recv_available(&mut self, node: NodeIdx, sock: SockId, max: usize) -> Vec<u8> {
        if self.readable(node, sock) == 0 {
            return Vec::new();
        }
        let t = self.nodes[node.0].app_time.max(self.sim.now());
        let (data, done) = self.nodes[node.0].stack.recv(t, sock, max).expect("known socket");
        let n = &mut self.nodes[node.0];
        n.app_time = n.app_time.max(done);
        data
    }

    /// Sends one UDP datagram.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn udp_send(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
    ) -> Result<(), SockError> {
        let t = self.nodes[node.0].app_time.max(self.sim.now());
        let (done, outs) = self.nodes[node.0].stack.udp_send(t, sock, dst, data)?;
        self.absorb(node.0, outs);
        let n = &mut self.nodes[node.0];
        n.app_time = n.app_time.max(done);
        Ok(())
    }

    /// Blocks until a UDP datagram is readable, then returns it.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn udp_recv_blocking(&mut self, node: NodeIdx, sock: SockId) -> (Endpoint, Vec<u8>) {
        loop {
            let t = self.nodes[node.0].app_time.max(self.sim.now());
            if let Some((src, data, done)) = self.nodes[node.0].stack.udp_recv(t, sock) {
                let n = &mut self.nodes[node.0];
                n.app_time = n.app_time.max(done);
                return (src, data);
            }
            assert!(self.step(), "udp_recv deadlocked");
        }
    }

    /// Half-closes a TCP socket.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn close(&mut self, node: NodeIdx, sock: SockId) -> Result<(), SockError> {
        let t = self.nodes[node.0].app_time.max(self.sim.now());
        let outs = self.nodes[node.0].stack.close(t, sock)?;
        self.absorb(node.0, outs);
        Ok(())
    }

    // ----- event loop -------------------------------------------------------

    /// Processes one event; `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.sim.next() else {
            return false;
        };
        match ev {
            WorldEvent::Frame { node, bytes } => {
                let outs = self.nodes[node].stack.on_frame(t, &bytes);
                self.absorb(node, outs);
                self.enforce_oracle(node);
            }
            WorldEvent::Timer { node } => {
                self.nodes[node].timer_event = None;
                let outs = self.nodes[node].stack.on_timer(t);
                self.absorb(node, outs);
                self.enforce_oracle(node);
            }
        }
        true
    }

    /// Debug-build oracle gate: after every event, surface any TCB
    /// invariant violation the engine's per-event hook latched.
    ///
    /// # Panics
    ///
    /// Panics naming the violated invariant.
    #[cfg(debug_assertions)]
    fn enforce_oracle(&mut self, node: usize) {
        if let Some(v) = self.nodes[node].stack.take_invariant_violation() {
            panic!("TCB invariant `{}` violated on node {node}: {}", v.invariant, v.detail);
        }
    }

    #[cfg(not(debug_assertions))]
    fn enforce_oracle(&mut self, _node: usize) {}

    /// Runs until idle.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    fn block_until(&mut self, node: NodeIdx, pred: impl Fn(&[HostOutput]) -> bool) {
        loop {
            if pred(&self.nodes[node.0].events) {
                // the waking event's timestamp lifts the app clock
                return;
            }
            assert!(self.step(), "socket world deadlocked waiting on node {}", node.0);
        }
    }

    fn absorb(&mut self, node: usize, outs: Vec<HostOutput>) {
        for o in outs {
            match o {
                HostOutput::Frame { at, dst, bytes } => {
                    let from = self.nodes[node].fabric_id;
                    match self.fabric.transmit(at, from, dst, bytes.len()) {
                        TransmitOutcome::Delivered { to, at: arrive, marked } => {
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
                            self.sim.schedule_at(arrive, WorldEvent::Frame { node: dest, bytes });
                        }
                        TransmitOutcome::Dropped(_) => {}
                    }
                }
                ev => {
                    // lift the app clock to wakeup instants when blocked
                    if let HostOutput::DataReady { at, .. }
                    | HostOutput::Connected { at, .. }
                    | HostOutput::SendSpace { at, .. } = &ev
                    {
                        let n = &mut self.nodes[node];
                        n.app_time = n.app_time.max(*at);
                    }
                    self.nodes[node].events.push(ev);
                }
            }
        }
        self.refresh_timer(node);
    }

    fn refresh_timer(&mut self, node: usize) {
        let deadline = self.nodes[node].stack.next_deadline();
        let current = self.nodes[node].timer_event;
        match (deadline, current) {
            (Some(d), Some((t, _))) if t <= d => {}
            (Some(d), existing) => {
                if let Some((_, id)) = existing {
                    self.sim.cancel(id);
                }
                let at = d.max(self.sim.now());
                let id = self.sim.schedule_at(at, WorldEvent::Timer { node });
                self.nodes[node].timer_event = Some((at, id));
            }
            (None, Some((_, id))) => {
                self.sim.cancel(id);
                self.nodes[node].timer_event = None;
            }
            (None, None) => {}
        }
    }

    /// Discards buffered application events on a node (between phases).
    pub fn clear_events(&mut self, node: NodeIdx) {
        self.nodes[node.0].events.clear();
    }

    /// Buffered application events on a node (wakeups not yet consumed).
    pub fn events(&self, node: NodeIdx) -> &[HostOutput] {
        &self.nodes[node.0].events
    }

    /// Fabric statistics.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Traffic and drop counters of a node's in-kernel protocol engine.
    pub fn engine_stats(&self, node: NodeIdx) -> qpip_netstack::engine::EngineStats {
        self.nodes[node.0].stack.engine_stats()
    }

    /// Total discrete events the world's simulator has delivered.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Wall-clock drain rate of the event loop.
    pub fn events_per_sec(&self) -> f64 {
        self.sim.events_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_gige() -> (SocketWorld, NodeIdx, NodeIdx, SockId, SockId) {
        let mut w = SocketWorld::gige();
        let a = w.add_node(StackConfig::gige());
        let b = w.add_node(StackConfig::gige());
        let ls = w.tcp_socket(b);
        w.listen(b, ls, 5000).unwrap();
        let cs = w.tcp_socket(a);
        let remote = Endpoint::new(w.addr(b), 5000);
        w.connect_blocking(a, cs, 4000, remote).unwrap();
        let ss = w.accept_blocking(b, ls);
        (w, a, b, cs, ss)
    }

    #[test]
    fn sockets_connect_and_transfer_over_gige_fabric() {
        let (mut w, a, b, cs, ss) = connected_gige();
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        w.send_blocking(a, cs, &payload).unwrap();
        let got = w.recv_exact(b, ss, payload.len());
        assert_eq!(got, payload);
    }

    #[test]
    fn gige_transfer_burns_host_cpu_on_both_sides() {
        let (mut w, a, b, cs, ss) = connected_gige();
        w.send_blocking(a, cs, &[0; 64 * 1024]).unwrap();
        let _ = w.recv_exact(b, ss, 64 * 1024);
        assert!(w.cpu(a).total_cycles() > 50_000, "{}", w.cpu(a).total_cycles());
        assert!(w.cpu(b).total_cycles() > 50_000, "{}", w.cpu(b).total_cycles());
        assert!(w.stack(b).interrupts() > 0);
    }

    #[test]
    fn udp_round_trip_over_gige() {
        let mut w = SocketWorld::gige();
        let a = w.add_node(StackConfig::gige());
        let b = w.add_node(StackConfig::gige());
        let sa = w.udp_socket(a);
        let sb = w.udp_socket(b);
        w.udp_bind(a, sa, 7000).unwrap();
        w.udp_bind(b, sb, 7001).unwrap();
        let db = Endpoint::new(w.addr(b), 7001);
        w.udp_send(a, sa, db, b"ping").unwrap();
        let (src, data) = w.udp_recv_blocking(b, sb);
        assert_eq!(data, b"ping");
        let da = src;
        w.udp_send(b, sb, da, b"pong").unwrap();
        let (_, data) = w.udp_recv_blocking(a, sa);
        assert_eq!(data, b"pong");
        // round trip took tens of microseconds of simulated time
        let rtt = w.app_time(a).as_micros_f64();
        assert!((30.0..400.0).contains(&rtt), "{rtt}");
    }

    #[test]
    fn gm_world_uses_jumbo_frames() {
        let mut w = SocketWorld::gm_myrinet();
        let a = w.add_node(StackConfig::gm_myrinet());
        let b = w.add_node(StackConfig::gm_myrinet());
        let ls = w.tcp_socket(b);
        w.listen(b, ls, 5000).unwrap();
        let cs = w.tcp_socket(a);
        let remote = Endpoint::new(w.addr(b), 5000);
        w.connect_blocking(a, cs, 4000, remote).unwrap();
        let ss = w.accept_blocking(b, ls);
        w.send_blocking(a, cs, &[3; 32 * 1024]).unwrap();
        let got = w.recv_exact(b, ss, 32 * 1024);
        assert_eq!(got.len(), 32 * 1024);
        // 9000-byte MTU → at most ceil(32768/8928) + handshake frames
        let frames = w.fabric().stats().delivered;
        assert!(frames < 30, "{frames} frames is too many for jumbo MTU");
    }
}
