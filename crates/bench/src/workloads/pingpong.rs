//! Application-to-application round-trip time (Figure 3): one 1-byte
//! message from one application to another and back, over each of the
//! three implementations and both transports.

use std::sync::Arc;

use qpip::baseline::SocketWorld;
use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_host::stack::StackConfig;
use qpip_netstack::types::Endpoint;
use qpip_sim::stats::Summary;
use qpip_trace::{FlightRecorder, Snapshot};

/// RTT measurement result.
#[derive(Debug, Clone)]
pub struct RttResult {
    /// Mean round-trip time in microseconds.
    pub mean_us: f64,
    /// Sample summary.
    pub samples: Summary,
}

/// Measures QPIP QP-to-QP RTT over TCP (reliable service).
pub fn qpip_tcp_rtt(nic: NicConfig, payload: usize, rounds: usize) -> RttResult {
    qpip_tcp_rtt_observed(nic, payload, rounds, None).0
}

/// [`qpip_tcp_rtt`] with observability: optionally installs a flight
/// recorder on the world (tracing changes no simulation outcome — the
/// RTT numbers are identical either way) and also returns the world's
/// unified counter snapshots for the benches' `counters` JSON section.
pub fn qpip_tcp_rtt_observed(
    nic: NicConfig,
    payload: usize,
    rounds: usize,
    recorder: Option<Arc<FlightRecorder>>,
) -> (RttResult, Vec<Snapshot>) {
    let mut w = QpipWorld::myrinet();
    if let Some(rec) = recorder {
        w.install_recorder(rec);
    }
    let a = w.add_node(nic.clone());
    let b = w.add_node(nic);
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    // pre-post generously so reposting stays off the critical path
    for i in 0..4u64 {
        w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);

    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        // keep one spare receive posted on each side
        w.post_recv(a, qa, RecvWr { wr_id: 900 + round as u64, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: 900 + round as u64, capacity: 16 * 1024 }).unwrap();
        let t0 = w.app_time(a);
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![0x5a; payload], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.post_send(b, qb, SendWr { wr_id: 2, payload: vec![0xa5; payload], dst: None }).unwrap();
        w.wait_matching(a, cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    (RttResult { mean_us: samples.mean(), samples }, w.counter_snapshots())
}

/// Measures QPIP QP-to-QP RTT over UDP (unreliable service).
pub fn qpip_udp_rtt(nic: NicConfig, payload: usize, rounds: usize) -> RttResult {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(nic.clone());
    let b = w.add_node(nic);
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::UnreliableUdp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::UnreliableUdp, cqb, cqb).unwrap();
    w.udp_bind(a, qa, 9000).unwrap();
    w.udp_bind(b, qb, 9001).unwrap();
    let to_b = Endpoint::new(w.addr(b), 9001);
    let to_a = Endpoint::new(w.addr(a), 9000);
    for i in 0..4u64 {
        w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        w.post_recv(a, qa, RecvWr { wr_id: 900, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: 900, capacity: 16 * 1024 }).unwrap();
        let t0 = w.app_time(a);
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![1; payload], dst: Some(to_b) })
            .unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.post_send(b, qb, SendWr { wr_id: 2, payload: vec![2; payload], dst: Some(to_a) })
            .unwrap();
        w.wait_matching(a, cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples }
}

/// Which host baseline fabric to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// IP over Gigabit Ethernet.
    GigE,
    /// IP over Myrinet (GM).
    GmMyrinet,
}

fn baseline_world(which: Baseline) -> (SocketWorld, StackConfig) {
    match which {
        Baseline::GigE => (SocketWorld::gige(), StackConfig::gige()),
        Baseline::GmMyrinet => (SocketWorld::gm_myrinet(), StackConfig::gm_myrinet()),
    }
}

/// Measures socket-to-socket TCP RTT on a host baseline.
pub fn socket_tcp_rtt(which: Baseline, payload: usize, rounds: usize) -> RttResult {
    let (mut w, cfg) = baseline_world(which);
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let ls = w.tcp_socket(b);
    w.listen(b, ls, 5000).unwrap();
    let cs = w.tcp_socket(a);
    let remote = Endpoint::new(w.addr(b), 5000);
    w.connect_blocking(a, cs, 4000, remote).unwrap();
    let ss = w.accept_blocking(b, ls);
    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        let t0 = w.app_time(a);
        w.send_blocking(a, cs, &vec![0x5a; payload]).unwrap();
        let _ = w.recv_exact(b, ss, payload);
        w.send_blocking(b, ss, &vec![0xa5; payload]).unwrap();
        let _ = w.recv_exact(a, cs, payload);
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples }
}

/// Measures socket-to-socket UDP RTT on a host baseline.
pub fn socket_udp_rtt(which: Baseline, payload: usize, rounds: usize) -> RttResult {
    let (mut w, cfg) = baseline_world(which);
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let sa = w.udp_socket(a);
    let sb = w.udp_socket(b);
    w.udp_bind(a, sa, 9000).unwrap();
    w.udp_bind(b, sb, 9001).unwrap();
    let to_b = Endpoint::new(w.addr(b), 9001);
    let to_a = Endpoint::new(w.addr(a), 9000);
    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        let t0 = w.app_time(a);
        w.udp_send(a, sa, to_b, &vec![1; payload]).unwrap();
        let _ = w.udp_recv_blocking(b, sb);
        w.udp_send(b, sb, to_a, &vec![2; payload]).unwrap();
        let _ = w.udp_recv_blocking(a, sa);
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpip_rtt_is_stable_across_rounds() {
        let r = qpip_tcp_rtt(NicConfig::paper_default(), 1, 10);
        let spread = r.samples.max().unwrap() - r.samples.min().unwrap();
        assert!(spread < 3.0, "steady-state rtt jitter {spread} µs");
    }

    #[test]
    fn udp_rtt_is_below_tcp_rtt() {
        let udp = qpip_udp_rtt(NicConfig::paper_default(), 1, 8);
        let tcp = qpip_tcp_rtt(NicConfig::paper_default(), 1, 8);
        assert!(udp.mean_us < tcp.mean_us, "udp {} vs tcp {}", udp.mean_us, tcp.mean_us);
    }

    #[test]
    fn firmware_checksum_adds_latency() {
        let hw = qpip_udp_rtt(NicConfig::paper_default(), 1, 6);
        let fw = qpip_udp_rtt(NicConfig::firmware_checksum(), 1, 6);
        assert!(fw.mean_us > hw.mean_us);
    }

    #[test]
    fn socket_rtts_measure() {
        let t = socket_tcp_rtt(Baseline::GigE, 1, 6);
        let u = socket_udp_rtt(Baseline::GigE, 1, 6);
        assert!(t.mean_us > 0.0 && u.mean_us > 0.0);
        assert!(u.mean_us < t.mean_us);
    }
}
