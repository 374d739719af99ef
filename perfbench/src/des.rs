//! The DES workloads: `des_paper` (the five paper experiments' default
//! configurations, checked against the values the paper binaries
//! print), `des_fanin` (1024 clients streaming into one server over one
//! Myrinet switch) and `des_fanin_lossy` (the same fan-in with 1 %
//! random fabric loss). All run in one thread and open no OS socket.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, NodeIdx, RecvWr, SendWr, ServiceType};
use qpip_bench::report::{f1, pct};
use qpip_bench::workloads::pingpong::{
    qpip_tcp_rtt, qpip_tcp_rtt_observed, qpip_udp_rtt, socket_tcp_rtt, socket_udp_rtt, Baseline,
    RttResult,
};
use qpip_bench::workloads::ttcp::{qpip_ttcp, socket_ttcp, TtcpResult};
use qpip_fabric::{FabricConfig, FaultPlan};
use qpip_host::stack::{HostOutput, HostStack, StackConfig};
use qpip_host::WorkClass;
use qpip_nbd::socket_impl::{self, Transport};
use qpip_nbd::{qpip_impl, rdma_impl, NbdConfig, NbdResult};
use qpip_netstack::types::Endpoint;
use qpip_nic::{PacketClass, Stage};
use qpip_sim::params;
use qpip_sim::rng::SplitMix64;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_trace::FlightRecorder;

use crate::layers;
use crate::traced::TraceCounts;
use crate::util::{median, quantile, SpanLog, Spans, ThreadCpu};
use crate::{Args, E2e, Layers, Outcome, Unit};

/// Per-ring capacity of the recorders installed on DES worlds: the
/// fan-in server's node ring holds about 30 firmware charges per
/// message. A ring's buffer is reserved up front but the OS backs only
/// the pages events fill, so the unused capacity costs address space,
/// not memory. A run fails if any ring still overwrites.
const DES_RING: usize = 1 << 20;

// ---------------------------------------------------------------------
// des_paper
// ---------------------------------------------------------------------

/// Values the paper binaries print with their default arguments
/// (`fig3_rtt`, `fig4_throughput`, `table1_overhead`,
/// `tables23_occupancy`, `fig7_nbd`), in the order each experiment
/// below renders them.
const GOLDEN_FIG3: [&str; 8] = ["87.7", "99.1", "108.5", "119.7", "74.8", "119.0", "76.2", "124.0"];
const GOLDEN_FIG4: [&str; 21] = [
    "42.5", "63.3%", "94.6%", // IP/GigE (1500)
    "58.4", "49.3%", "58.0%", // IP/Myrinet (9000)
    "79.7", "0.7%", "0.7%", // QPIP native (16K)
    "36.7", "3.8%", "3.8%", // QPIP @1500
    "79.8", "1.3%", "1.3%", // QPIP @9000
    "24.7", "0.2%", "0.2%", // QPIP fw csum (16K)
    "79.7", "0.7%", "0.7%", // QPIP @1500 +ipfrag
];
const GOLDEN_TABLE1: [&str; 2] = ["16447", "1386"];
const GOLDEN_TABLES23: [&str; 30] = [
    // Table 2: data send (node A), then ACK send (node B)
    "1.0", "2.0", "5.5", "4.5", "5.0", "1.0", "1.0", "1.5", //
    "1.0", "2.0", "-", "-", "5.0", "1.0", "1.0", "1.5", //
    // Table 3: data recv (node B), then ACK recv (node A)
    "1.0", "1.0", "1.5", "7.0", "5.5", "4.5", "1.5", //
    "-", "1.0", "1.5", "13.6", "-", "-", "9.0",
];
const GOLDEN_FIG7: [&str; 18] = [
    "30.4", "31.2", "38.3", "32.6", "24.0%", // IP/GigE
    "34.9", "46.3", "58.4", "54.4", "35.8%", // IP/Myrinet
    "79.8", "79.9", "129.6", "126.3", "61.7%", // QPIP (9000 MTU)
    "79.6", "132.6", "59.7%", // QPIP+RDMA reads
];

const FIG3_ROUNDS: usize = 40;
const FIG7_BYTES: u64 = 64 * 1024 * 1024;
const TABLE1_ROUNDS: u64 = 16;
const TABLES23_MSGS: u64 = 32;

/// Two-node worlds built and connected before every pass for `setup_s`,
/// so its samples spread over the whole run as the passes do.
const SETUPS_PER_PASS: usize = 8;

/// Simulated payload bytes a run moved at `mbytes_per_sec` for
/// `elapsed_s`, as the ttcp and NBD results report them.
fn moved_bytes(mbytes_per_sec: f64, elapsed_s: f64) -> u64 {
    (mbytes_per_sec * 1e6 * elapsed_s).round() as u64
}

/// One experiment's printed values and the simulated payload bytes
/// its runs moved.
struct Rendered {
    values: Vec<String>,
    bytes: u64,
}

/// DES-side counts gathered from the worlds a traced pass can reach.
#[derive(Default)]
struct PaperTrace {
    /// Recorders of the current pass, folded into `counts` after it.
    recorders: Vec<Arc<FlightRecorder>>,
    counts: TraceCounts,
    events: u64,
    events_wall_s: f64,
    /// Messages in the recorded worlds.
    messages: u64,
    /// Messages in the worlds whose event counts are read.
    world_messages: u64,
    tcp_backlogged: u64,
}

impl PaperTrace {
    fn recorder(&mut self, on: bool) -> Option<Arc<FlightRecorder>> {
        on.then(|| {
            let r = Arc::new(FlightRecorder::new(DES_RING));
            self.recorders.push(Arc::clone(&r));
            r
        })
    }

    fn world(&mut self, w: &QpipWorld, wall_s: f64, messages: u64) {
        self.events += w.events_processed();
        self.events_wall_s += wall_s;
        self.messages += messages;
        self.world_messages += messages;
        self.tcp_backlogged +=
            (0..2).map(|i| w.nic(NodeIdx(i)).stats().tcp_backlogged).sum::<u64>();
    }
}

fn check(mismatches: &mut Vec<String>, what: &str, got: &[String], want: &[&str]) {
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| g != w) {
        mismatches.push(format!("{what}: got {got:?}, paper binary prints {want:?}"));
    }
}

fn fig3(sp: &mut Spans, op: u64, tr: &mut PaperTrace, traced: bool) -> Rendered {
    let mut v = Vec::new();
    let sock = |sp: &mut Spans, f: &dyn Fn() -> RttResult| sp.span("socket_world", op, |_| f());
    v.push(sock(sp, &|| socket_udp_rtt(Baseline::GigE, 1, FIG3_ROUNDS)));
    v.push(sock(sp, &|| socket_tcp_rtt(Baseline::GigE, 1, FIG3_ROUNDS)));
    v.push(sock(sp, &|| socket_udp_rtt(Baseline::GmMyrinet, 1, FIG3_ROUNDS)));
    v.push(sock(sp, &|| socket_tcp_rtt(Baseline::GmMyrinet, 1, FIG3_ROUNDS)));
    let rec = tr.recorder(traced);
    let q = |sp: &mut Spans, f: &mut dyn FnMut() -> RttResult| sp.span("qpip_world", op, |_| f());
    v.push(q(sp, &mut || qpip_udp_rtt(NicConfig::paper_default(), 1, FIG3_ROUNDS)));
    v.push(q(sp, &mut || match &rec {
        // the traced run records the paper's TCP ping-pong, as
        // `fig3_rtt --trace` does; tracing must not move the result
        Some(r) => {
            let cfg = NicConfig::paper_default();
            qpip_tcp_rtt_observed(cfg, 1, FIG3_ROUNDS, Some(Arc::clone(r))).0
        }
        None => qpip_tcp_rtt(NicConfig::paper_default(), 1, FIG3_ROUNDS),
    }));
    if traced {
        tr.messages += 2 * (FIG3_ROUNDS as u64 + 4);
    }
    v.push(q(sp, &mut || qpip_udp_rtt(NicConfig::firmware_checksum(), 1, FIG3_ROUNDS)));
    v.push(q(sp, &mut || qpip_tcp_rtt(NicConfig::firmware_checksum(), 1, FIG3_ROUNDS)));
    // one 1-byte message each way per measured round
    let bytes = v.iter().map(|r| 2 * r.samples.count() as u64).sum();
    Rendered { values: v.iter().map(|r| f1(r.mean_us)).collect(), bytes }
}

fn fig4(sp: &mut Spans, op: u64) -> Rendered {
    let total = params::TTCP_TRANSFER_BYTES;
    let chunk = params::TTCP_CHUNK_BYTES;
    let mut rs: Vec<TtcpResult> = Vec::new();
    rs.push(sp.span("socket_world", op, |_| socket_ttcp(Baseline::GigE, total, chunk)));
    rs.push(sp.span("socket_world", op, |_| socket_ttcp(Baseline::GmMyrinet, total, chunk)));
    let nics = [
        NicConfig::paper_default(),
        NicConfig { mtu: 1500, ..NicConfig::paper_default() },
        NicConfig { mtu: 9000, ..NicConfig::paper_default() },
        NicConfig::firmware_checksum(),
        NicConfig::fragmented(1500),
    ];
    for nic in nics {
        rs.push(sp.span("qpip_world", op, |_| qpip_ttcp(nic, total, chunk)));
    }
    Rendered {
        values: rs
            .iter()
            .flat_map(|r| [f1(r.mbytes_per_sec), pct(r.sender_cpu), pct(r.receiver_cpu)])
            .collect(),
        bytes: rs.iter().map(|r| moved_bytes(r.mbytes_per_sec, r.elapsed_s)).sum(),
    }
}

// Table 1 and Tables 2/3 are computed in the bodies of their binaries
// (`crates/bench/src/bin/table1_overhead.rs`, `tables23_occupancy.rs`),
// not in qpip-bench's library, so the three functions below are copies
// of those bodies. The golden values pin the copies to what the binaries
// print today; once the measurements move into `qpip_bench::workloads`,
// these copies should be replaced by calls to them.

/// Table 1's host-based figure: stack cycles for one 1-byte send plus
/// receive through the loopback interface (copy of `table1_overhead`).
fn host_loopback_cycles() -> u64 {
    let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
    let mut host = HostStack::new(StackConfig::loopback(), addr);
    let ls = host.tcp_socket();
    host.listen(ls, 9000).expect("listen");
    let cs = host.tcp_socket();
    let mut now = SimTime::ZERO;
    let mut frames: VecDeque<qpip_wire::Packet> = VecDeque::new();
    let mut server = None;
    let pump = |host: &mut HostStack,
                now: &mut SimTime,
                frames: &mut VecDeque<qpip_wire::Packet>,
                server: &mut Option<qpip_host::SockId>| {
        while let Some(f) = frames.pop_front() {
            *now += SimDuration::from_nanos(100);
            for o in host.on_frame(*now, &f) {
                match o {
                    HostOutput::Frame { bytes, .. } => frames.push_back(bytes),
                    HostOutput::Accepted { sock, .. } => *server = Some(sock),
                    _ => {}
                }
            }
        }
    };
    for o in host.connect(now, cs, 9001, Endpoint::new(addr, 9000)).expect("connect") {
        if let HostOutput::Frame { bytes, .. } = o {
            frames.push_back(bytes);
        }
    }
    pump(&mut host, &mut now, &mut frames, &mut server);
    let server = server.expect("loopback accept");
    host.cpu_mut().reset_stats();
    let rounds = TABLE1_ROUNDS;
    for _ in 0..rounds {
        for (tx_sock, rx_sock) in [(cs, server), (server, cs)] {
            let (_, outs) = host.send(now, tx_sock, vec![0x55]).expect("send");
            for o in outs {
                if let HostOutput::Frame { bytes, .. } = o {
                    frames.push_back(bytes);
                }
            }
            let mut sink = Some(server);
            pump(&mut host, &mut now, &mut frames, &mut sink);
            let (data, _) = host.recv(now, rx_sock, usize::MAX).expect("recv");
            assert_eq!(data.len(), 1);
        }
    }
    host.cpu().total_cycles() / (2 * rounds)
}

/// A connected two-node QPIP pair over one reliable QP each, with
/// `recvs` receive WRs of `cap` bytes pre-posted on B (and on A when
/// `both`), as the Table 1 and Tables 2/3 experiments build it.
struct Pair {
    w: QpipWorld,
    a: NodeIdx,
    b: NodeIdx,
    cqa: qpip::CqId,
    cqb: qpip::CqId,
    qa: qpip::QpId,
    qb: qpip::QpId,
}

fn pair(
    nic: NicConfig,
    recvs: u64,
    cap: usize,
    both: bool,
    rec: Option<Arc<FlightRecorder>>,
) -> Pair {
    let mut w = QpipWorld::myrinet();
    if let Some(r) = rec {
        w.install_recorder(r);
    }
    let a = w.add_node(nic.clone());
    let b = w.add_node(nic);
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).expect("qp a");
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).expect("qp b");
    for i in 0..recvs {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: cap }).expect("post_recv b");
        if both {
            w.post_recv(a, qa, RecvWr { wr_id: i, capacity: cap }).expect("post_recv a");
        }
    }
    w.tcp_listen(b, 5000, qb).expect("listen");
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).expect("connect");
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    Pair { w, a, b, cqa, cqb, qa, qb }
}

/// Table 1's QPIP figure: verb cycles for one 1-byte message (copy of
/// `table1_overhead`).
fn qpip_verbs_cycles(tr: &mut PaperTrace, traced: bool) -> u64 {
    let t0 = Instant::now();
    let rec = tr.recorder(traced);
    let Pair { mut w, a, b, cqb, qa, qb, .. } =
        pair(NicConfig::paper_default(), 4, 16 * 1024, true, rec);
    let before = w.cpu(a).cycles(WorkClass::Verbs) + w.cpu(b).cycles(WorkClass::Verbs);
    let rounds = TABLE1_ROUNDS;
    for i in 0..rounds {
        w.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 16 * 1024 }).expect("post_recv");
        w.post_send(a, qa, SendWr { wr_id: i, payload: vec![1], dst: None }).expect("post_send");
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    }
    let after = w.cpu(a).cycles(WorkClass::Verbs) + w.cpu(b).cycles(WorkClass::Verbs);
    if traced {
        tr.world(&w, t0.elapsed().as_secs_f64(), rounds);
    }
    (after - before) / rounds
}

fn table1(sp: &mut Spans, op: u64, tr: &mut PaperTrace, traced: bool) -> Rendered {
    let host = sp.span("socket_world", op, |_| host_loopback_cycles());
    let qpip = sp.span("qpip_world", op, |_| qpip_verbs_cycles(tr, traced));
    // 1-byte messages: both ways on the loopback, one way over QPIP
    Rendered { values: vec![host.to_string(), qpip.to_string()], bytes: 3 * TABLE1_ROUNDS }
}

/// Tables 2/3: per-stage NIC occupancy of one-way 1-byte messages (copy
/// of `tables23_occupancy` without `--hw-multiply`).
fn tables23(sp: &mut Spans, op: u64, tr: &mut PaperTrace, traced: bool) -> Rendered {
    sp.span("qpip_world", op, |_| {
        let t0 = Instant::now();
        let rec = tr.recorder(traced);
        let Pair { mut w, a, b, cqa, cqb, qa, qb } =
            pair(NicConfig::paper_default(), 8, 4096, false, rec);
        w.nic_mut(a).reset_occupancy();
        w.nic_mut(b).reset_occupancy();
        for i in 0..TABLES23_MSGS {
            w.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 4096 }).expect("post_recv");
            w.post_send(a, qa, SendWr { wr_id: i, payload: vec![0x5a], dst: None })
                .expect("post_send");
            w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
            while w.try_wait(a, cqa).is_some() {}
        }
        w.run_until_idle();
        if traced {
            tr.world(&w, t0.elapsed().as_secs_f64(), TABLES23_MSGS);
        }
        let cell = |node: NodeIdx, stage: Stage, class: PacketClass| match w
            .nic(node)
            .occupancy()
            .mean_us(stage, class)
        {
            Some(us) => format!("{us:.1}"),
            None => "-".into(),
        };
        let tx = [
            Stage::DoorbellProcess,
            Stage::Schedule,
            Stage::GetWr,
            Stage::GetData,
            Stage::BuildTcpHdr,
            Stage::BuildIpHdr,
            Stage::MediaXmt,
            Stage::UpdateTx,
        ];
        let rx = [
            Stage::DoorbellProcess,
            Stage::MediaRcv,
            Stage::IpParse,
            Stage::TcpParse,
            Stage::GetWr,
            Stage::PutData,
            Stage::UpdateRx,
        ];
        let mut v: Vec<String> = tx.iter().map(|s| cell(a, *s, PacketClass::DataSend)).collect();
        v.extend(tx.iter().map(|s| cell(b, *s, PacketClass::AckSend)));
        v.extend(rx.iter().map(|s| cell(b, *s, PacketClass::DataRecv)));
        v.extend(rx.iter().map(|s| cell(a, *s, PacketClass::AckRecv)));
        Rendered { values: v, bytes: TABLES23_MSGS }
    })
}

fn fig7(sp: &mut Spans, op: u64) -> Rendered {
    let cfg = NbdConfig { total_bytes: FIG7_BYTES, ..NbdConfig::default() };
    let row = |r: &NbdResult| {
        [
            f1(r.write.mbytes_per_sec),
            f1(r.read.mbytes_per_sec),
            f1(r.write.mb_per_cpu_sec),
            f1(r.read.mb_per_cpu_sec),
            pct(r.read.fs_fraction),
        ]
    };
    let gige = sp.span("nbd", op, |_| socket_impl::run(Transport::GigE, cfg));
    let gm = sp.span("nbd", op, |_| socket_impl::run(Transport::GmMyrinet, cfg));
    let qpip = sp.span("nbd", op, |_| qpip_impl::run(cfg));
    let rdma = sp.span("nbd", op, |_| rdma_impl::run_read(cfg));
    let mut v: Vec<String> = [gige, gm, qpip].iter().flat_map(row).collect();
    v.extend([f1(rdma.mbytes_per_sec), f1(rdma.mb_per_cpu_sec), pct(rdma.fs_fraction)]);
    let phases = [gige, gm, qpip].into_iter().flat_map(|r| [r.write, r.read]).chain([rdma]);
    Rendered { values: v, bytes: phases.map(|p| moved_bytes(p.mbytes_per_sec, p.elapsed_s)).sum() }
}

const EXPERIMENTS: [&str; 5] = ["fig3", "fig4", "table1", "tables23", "fig7"];

/// One pass over the paper set in `order`; returns its wall seconds and
/// the simulated payload bytes it moved.
fn paper_pass(
    sp: &mut Spans,
    op: u64,
    order: &[usize],
    tr: &mut PaperTrace,
    traced: bool,
    mismatches: &mut Vec<String>,
) -> (f64, u64) {
    let t0 = Instant::now();
    let bytes = sp.span("pass", op, |sp| {
        let mut bytes = 0;
        for &e in order {
            let name = EXPERIMENTS[e];
            let (binary, r, want): (_, _, &[&str]) = sp.span(name, op, |sp| match e {
                0 => ("fig3_rtt", fig3(sp, op, tr, traced), &GOLDEN_FIG3[..]),
                1 => ("fig4_throughput", fig4(sp, op), &GOLDEN_FIG4[..]),
                2 => ("table1_overhead", table1(sp, op, tr, traced), &GOLDEN_TABLE1[..]),
                3 => ("tables23_occupancy", tables23(sp, op, tr, traced), &GOLDEN_TABLES23[..]),
                _ => ("fig7_nbd", fig7(sp, op), &GOLDEN_FIG7[..]),
            });
            check(mismatches, binary, &r.values, want);
            bytes += r.bytes;
        }
        bytes
    });
    (t0.elapsed().as_secs_f64(), bytes)
}

/// `des_paper`: passes over the five paper experiments, each in an
/// order drawn from the seed, until the time is up.
pub fn paper(args: &Args) -> Outcome {
    let mut rng = SplitMix64::new(args.seed);
    let mut e2e = E2e::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let mut log = SpanLog::default();
    let epoch = Instant::now();
    let mut plain = Spans::new(false, epoch);
    let mut traced_sp = Spans::new(true, epoch);
    let mut tr = PaperTrace::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    // at least two passes, so the traced run also has an untraced one
    while op < 2 || start.elapsed() < args.seconds {
        let mut order: Vec<usize> = (0..EXPERIMENTS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0, i + 1));
        }
        // traced runs alternate untraced and traced passes
        let traced = args.trace && op % 2 == 1;
        // set-up: building and connecting the two-node QPIP world the
        // experiments start from, a few times before every pass
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            let p = pair(NicConfig::paper_default(), 4, 16 * 1024, true, None);
            e2e.setup_s.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(p.w.now());
        }
        let sp = if traced { &mut traced_sp } else { &mut plain };
        let mut mism = Vec::new();
        let c0 = ThreadCpu::now();
        let (wall, bytes) = paper_pass(sp, op, &order, &mut tr, traced, &mut mism);
        let cpu_ns = ThreadCpu::now().since(c0).run_ns;
        e2e.attempted += 1;
        if !mism.is_empty() {
            e2e.failed += 1;
            e2e.mismatches.extend(mism.into_iter().map(|m| format!("pass {op}: {m}")));
        }
        for r in tr.recorders.drain(..) {
            tr.counts.add(&TraceCounts::of(&r));
        }
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            e2e.latency_us.push(wall * 1e6);
            e2e.units.push(Unit { bytes, wall_s: wall, cpu_ns, ops: 1 });
        }
        op += 1;
    }

    notes.push(format!(
        "wall_s (one pass over fig3/fig4/table1/tables23/fig7@64MB): p50 {:.4} p90 {:.4} n={}",
        median(&untraced_walls),
        quantile(&untraced_walls, 0.9),
        untraced_walls.len()
    ));
    notes.push(format!(
        "simulated outputs checked against the paper binaries' values on every pass: {}",
        if e2e.mismatches.is_empty() { "all equal" } else { "MISMATCH" }
    ));

    if args.trace {
        let passes = traced_walls.len() as f64;
        let per_pass = |name: &str| traced_sp.agg(name).self_ns as f64 / 1e9 / passes;
        layers.set("core.qpip_world_s", per_pass("qpip_world"));
        layers.set("host.socket_world_s", per_pass("socket_world"));
        layers.set("nbd.wall_s", per_pass("nbd"));
        for e in EXPERIMENTS {
            notes.push(format!(
                "span {e:<9} total {:.4} s/pass, self {:.6} s/pass",
                traced_sp.agg(e).total_ns as f64 / 1e9 / passes,
                per_pass(e)
            ));
        }
        let counts = &tr.counts;
        des_trace_layers(&mut layers, counts, tr.messages);
        layers.set("trace.events", counts.events as f64 / passes);
        layers.set("sim.events", tr.events as f64 / passes);
        layers.set("sim.events_per_s", tr.events as f64 / tr.events_wall_s);
        layers.set("sim.events_per_msg", tr.events as f64 / tr.world_messages.max(1) as f64);
        layers.set("nic.tcp_backlogged", tr.tcp_backlogged as f64 / passes);
        layers.set("trace.overhead_ratio", median(&traced_walls) / median(&untraced_walls));
        notes.push(
            "sim.* and nic.* count the worlds the benchmark builds itself (Table 1 verbs, Tables 2/3) \
             and the traced Fig 3 TCP ping-pong; worlds built inside library calls are not reachable"
                .into(),
        );
        if counts.overwritten > 0 {
            e2e.mismatches.push(format!("flight recorder overwrote {} events", counts.overwritten));
        }
        layers::micro(&mut layers);
        traced_sp.drain_into(&mut log, "main");
    }
    Outcome { e2e, layers, notes, spans: log }
}

/// Per-layer values every traced DES run derives from its recorders.
fn des_trace_layers(layers: &mut Layers, c: &TraceCounts, messages: u64) {
    let per_msg = |n: u64| n as f64 / messages.max(1) as f64;
    layers.set("nic.fw_charges_per_msg.doorbell", per_msg(c.fw_charges[0]));
    layers.set("nic.fw_charges_per_msg.management", per_msg(c.fw_charges[1]));
    layers.set("nic.fw_charges_per_msg.transmit", per_msg(c.fw_charges[2]));
    layers.set("nic.fw_charges_per_msg.receive", per_msg(c.fw_charges[3]));
    layers.set("netstack.ooo_drops", c.ooo_drops as f64);
    layers.set("netstack.useful_seg_ratio", c.useful_seg_ratio());
    layers.set("trace.events", c.events as f64);
    layers.set("trace.overwritten", c.overwritten as f64);
}

// ---------------------------------------------------------------------
// des_fanin, des_fanin_lossy
// ---------------------------------------------------------------------

const FLOWS: usize = 1024;
const MSGS: usize = 16;
const MSG: usize = 8192;
/// Random fabric loss of `des_fanin_lossy`, per mille.
pub const LOSS_PERMILLE: u32 = 10;

/// Message `m` of client `c`: a seeded body under an 8-byte header
/// naming the client and the message.
fn fanin_message(bodies: &[Vec<u8>], c: usize, m: usize) -> Vec<u8> {
    let mut p = bodies[(c * MSGS + m) % bodies.len()].clone();
    p[..4].copy_from_slice(&(c as u32).to_be_bytes());
    p[4..8].copy_from_slice(&(m as u32).to_be_bytes());
    p
}

/// Whether `data` is exactly [`fanin_message`]`(bodies, c, m)`, checked
/// without building it.
fn is_fanin_message(bodies: &[Vec<u8>], c: usize, m: usize, data: &[u8]) -> bool {
    data.len() == MSG
        && data[..4] == (c as u32).to_be_bytes()
        && data[4..8] == (m as u32).to_be_bytes()
        && data[8..] == bodies[(c * MSGS + m) % bodies.len()][8..]
}

/// One fan-in: set-up, then the stream until every message arrived or
/// the simulation ran dry.
struct FaninOnce {
    setup_s: f64,
    stream_s: f64,
    stream_cpu_ns: u64,
    delivered: u64,
    delivered_bytes: u64,
    sim_stream_s: f64,
    stalled: Vec<String>,
    /// `(client, node)` of each stalled flow.
    stalled_nodes: Vec<(usize, u32)>,
    stalled_flows: u64,
    mismatches: Vec<String>,
    events: u64,
    events_per_s: f64,
    fabric_delivered: u64,
    fabric_seen: u64,
    injected_drops: u64,
    engine: qpip_netstack::engine::EngineStats,
    tcp_backlogged: u64,
}

/// One fan-in under a `fanin` span with `setup` and `stream` children.
fn fanin_once(
    seed: u64,
    loss_permille: u32,
    bodies: &[Vec<u8>],
    rec: Option<Arc<FlightRecorder>>,
    sp: &mut Spans,
    op: u64,
) -> FaninOnce {
    // the inputs are built before any timing starts
    let msgs: Vec<Vec<u8>> = (0..FLOWS)
        .flat_map(|c| (0..MSGS).map(move |m| (c, m)))
        .map(|(c, m)| fanin_message(bodies, c, m))
        .collect();
    sp.span("fanin", op, |sp| {
        let t0 = Instant::now();
        let (w, server, cq_s, clients) =
            sp.span("setup", op, |_| fanin_setup(seed, loss_permille, rec));
        let setup_s = t0.elapsed().as_secs_f64();
        sp.span("stream", op, |_| fanin_stream(w, server, cq_s, clients, msgs, bodies, setup_s))
    })
}

type Clients = Vec<(NodeIdx, qpip::CqId, qpip::QpId)>;

/// World build plus connect storm; the fabric drops `loss_permille`
/// of its packets at random, seeded by `seed`.
fn fanin_setup(
    seed: u64,
    loss_permille: u32,
    rec: Option<Arc<FlightRecorder>>,
) -> (QpipWorld, NodeIdx, qpip::CqId, Clients) {
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::new(FabricConfig { mtu: nic.mtu, ..FabricConfig::myrinet() });
    if let Some(r) = rec {
        w.install_recorder(r);
    }
    if loss_permille > 0 {
        w.set_fault_plan(FaultPlan::DropRandom { permille: loss_permille, seed });
    }
    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    // one listening QP per expected flow, pooled on one port, each with
    // receive WRs for its whole stream
    for i in 0..FLOWS {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).expect("server qp");
        for j in 0..MSGS {
            let wr = RecvWr { wr_id: (i * MSGS + j) as u64, capacity: MSG };
            w.post_recv(server, qp, wr).expect("server post_recv");
        }
        w.tcp_listen(server, 5000, qp).expect("listen");
    }
    let remote = Endpoint::new(w.addr(server), 5000);
    let mut clients = Vec::with_capacity(FLOWS);
    for _ in 0..FLOWS {
        let node = w.add_node(nic.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).expect("client qp");
        w.tcp_connect(node, qp, 4000, remote).expect("connect");
        clients.push((node, cq, qp));
    }
    for &(node, cq, _) in &clients {
        w.wait_matching(node, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
    }
    (w, server, cq_s, clients)
}

/// Every client posts its 16 messages (`msgs`, client by client); the
/// world runs until all have arrived or it falls idle.
fn fanin_stream(
    mut w: QpipWorld,
    server: NodeIdx,
    cq_s: qpip::CqId,
    clients: Clients,
    msgs: Vec<Vec<u8>>,
    bodies: &[Vec<u8>],
    setup_s: f64,
) -> FaninOnce {
    let t1 = Instant::now();
    let c1 = ThreadCpu::now();
    let sim0 = w.now();
    let mut msgs = msgs.into_iter();
    for &(node, _, qp) in &clients {
        for m in 0..MSGS {
            let payload = msgs.next().expect("one message per client and index");
            w.post_send(node, qp, SendWr { wr_id: m as u64, payload, dst: None })
                .expect("client post_send");
        }
    }
    let want = (FLOWS * MSGS) as u64;
    let mut got = vec![0usize; FLOWS];
    let mut flow_qp: HashMap<usize, qpip::QpId> = HashMap::new();
    let mut delivered = 0u64;
    let mut delivered_bytes = 0u64;
    let mut last = sim0;
    let mut mismatches = Vec::new();
    // drive the world event by event: an idle simulation with messages
    // outstanding is a stall, counted as failed messages
    loop {
        while let Some(cpl) = w.try_wait(server, cq_s) {
            let CompletionKind::Recv { data, .. } = cpl.kind else { continue };
            let c = u32::from_be_bytes(data[..4].try_into().expect("header")) as usize;
            let m = u32::from_be_bytes(data[4..8].try_into().expect("header")) as usize;
            if c >= FLOWS || m != got[c] {
                mismatches.push(format!("fan-in: message {m} of client {c} out of order"));
                continue;
            }
            if *flow_qp.entry(c).or_insert(cpl.qp) != cpl.qp {
                mismatches.push(format!("fan-in: client {c} switched server QP"));
            }
            if !is_fanin_message(bodies, c, m, &data) {
                mismatches.push(format!("fan-in: message {m} of client {c} corrupted"));
            }
            got[c] += 1;
            delivered += 1;
            delivered_bytes += data.len() as u64;
            last = cpl.visible_at;
        }
        if delivered == want || !w.step() {
            break;
        }
    }
    let stream_s = t1.elapsed().as_secs_f64();
    let stream_cpu_ns = ThreadCpu::now().since(c1).run_ns;

    // stalled flows: name the cause from public state
    let mut stalled = Vec::new();
    let mut stalled_nodes = Vec::new();
    let mut stalled_flows = 0;
    for (c, &(node, cq, _)) in clients.iter().enumerate() {
        if got[c] == MSGS {
            continue;
        }
        stalled_flows += 1;
        stalled_nodes.push((c, node.0 as u32));
        let mut acked = 0;
        while let Some(cpl) = w.try_wait(node, cq) {
            acked += usize::from(cpl.kind == CompletionKind::Send);
        }
        let st = w.engine_stats(node);
        stalled.push(format!(
            "stalled flow: client {c} delivered {}/{MSGS}, sends outstanding {}, zero_window_events {}, rto_retransmits {}",
            got[c],
            MSGS - acked,
            st.zero_window_events,
            st.rto_retransmits
        ));
    }

    let mut engine = qpip_netstack::engine::EngineStats::default();
    let mut tcp_backlogged = 0;
    for n in 0..=FLOWS {
        let s = w.engine_stats(NodeIdx(n));
        engine.rto_retransmits += s.rto_retransmits;
        engine.fast_retransmits += s.fast_retransmits;
        engine.dupacks_rx += s.dupacks_rx;
        engine.zero_window_events += s.zero_window_events;
        tcp_backlogged += w.nic(NodeIdx(n)).stats().tcp_backlogged;
    }
    let fs = w.fabric().stats();
    FaninOnce {
        setup_s,
        stream_s,
        stream_cpu_ns,
        delivered,
        delivered_bytes,
        sim_stream_s: last.duration_since(sim0).as_secs_f64(),
        stalled,
        stalled_nodes,
        stalled_flows,
        mismatches,
        events: w.events_processed(),
        events_per_s: w.events_per_sec(),
        fabric_delivered: fs.delivered,
        fabric_seen: fs.delivered + fs.dropped,
        injected_drops: w.fabric().injected_drops(),
        engine,
        tcp_backlogged,
    }
}

/// The send window a stalled client last heard from the server, read
/// from the client's connection ring.
fn window_cause(rec: &FlightRecorder, node: u32) -> String {
    for (n, conn) in rec.scopes() {
        if n != node || conn == qpip_trace::NODE_SCOPE {
            continue;
        }
        let last_rx =
            rec.last_events(n, conn, usize::MAX).into_iter().rev().find_map(|r| match r.ev {
                qpip_trace::TraceEvent::SegRx { wnd, flags, .. } => Some((wnd, flags)),
                _ => None,
            });
        return match last_rx {
            Some((wnd, f)) => format!(
                "last segment from the server advertised window {wnd}{} and no later update arrived",
                if f & qpip_trace::flags::SYN != 0 { " (its SYN-ACK)" } else { "" }
            ),
            None => "no segment from the server was recorded".into(),
        };
    }
    "no connection recorded".into()
}

/// `des_fanin` (`loss_permille` 0) and `des_fanin_lossy`
/// ([`LOSS_PERMILLE`]): repeated fan-ins of 1024 clients × 16 messages
/// of 8 KiB into one server, the loss pattern seeded by `--seed`, until
/// the time is up.
pub fn fanin(args: &Args, loss_permille: u32) -> Outcome {
    let mut rng = SplitMix64::new(args.seed ^ 0x9e37_79b9_7f4a_7c15);
    let bodies: Vec<Vec<u8>> = (0..64).map(|_| rng.bytes(MSG)).collect();
    let mut e2e = E2e::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let epoch = Instant::now();
    let mut plain = Spans::new(false, epoch);
    let mut traced_sp = Spans::new(true, epoch);
    let mut log = SpanLog::default();
    let start = Instant::now();
    let mut runs: Vec<FaninOnce> = Vec::new();
    let mut traced_runs: Vec<(FaninOnce, TraceCounts)> = Vec::new();
    // the first traced fan-in's stall causes, read before its recorder
    // is dropped (each holds the events of a whole fan-in)
    let mut causes = Vec::new();
    let mut i = 0u64;
    // at least three fan-ins (two untraced), so set-up has a median
    while i < 3 || start.elapsed() < args.seconds {
        if args.trace && i % 2 == 1 {
            let rec = Arc::new(FlightRecorder::new(DES_RING));
            let r = fanin_once(
                args.seed,
                loss_permille,
                &bodies,
                Some(Arc::clone(&rec)),
                &mut traced_sp,
                i,
            );
            if traced_runs.is_empty() {
                causes = r
                    .stalled_nodes
                    .iter()
                    .map(|&(c, node)| {
                        format!("stalled flow: client {c}: {}", window_cause(&rec, node))
                    })
                    .collect();
            }
            traced_runs.push((r, TraceCounts::of(&rec)));
        } else {
            runs.push(fanin_once(args.seed, loss_permille, &bodies, None, &mut plain, i));
        }
        i += 1;
    }
    let want = (FLOWS * MSGS) as u64;
    for r in &runs {
        e2e.setup_s.push(r.setup_s);
        e2e.latency_us.push(r.stream_s * 1e6);
        e2e.units.push(Unit {
            bytes: r.delivered_bytes,
            wall_s: r.stream_s,
            cpu_ns: r.stream_cpu_ns,
            ops: want,
        });
        e2e.attempted += want;
        e2e.failed += want - r.delivered;
        e2e.mismatches.extend(r.mismatches.iter().cloned());
    }
    let first = &runs[0];
    if runs.iter().any(|r| r.delivered != first.delivered || r.sim_stream_s != first.sim_stream_s) {
        e2e.mismatches.push("fan-in: the same seed gave different simulations".into());
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.stream_s).collect();
    let sim_goodput = first.delivered_bytes as f64 / first.sim_stream_s / 1e6;
    notes.push(format!(
        "wall_s (stream phase of one fan-in): p50 {:.4} p90 {:.4} n={}",
        median(&walls),
        quantile(&walls, 0.9),
        walls.len()
    ));
    notes.push(format!(
        "sim_goodput_mbps {sim_goodput:.4} MB/s (delivered bytes / simulated time to last delivery; deterministic per seed)"
    ));
    notes.push(format!(
        "delivered {}/{} messages per fan-in; {} of {FLOWS} flows stalled (no persist timer: a lost window update leaves a zero window)",
        first.delivered, want, first.stalled_flows
    ));
    notes.push(format!(
        "fabric: {} delivered, {} injected drops of {} packets ({:.4}% achieved loss)",
        first.fabric_delivered,
        first.injected_drops,
        first.fabric_seen,
        100.0 * first.injected_drops as f64 / first.fabric_seen.max(1) as f64
    ));
    notes.extend(first.stalled.iter().cloned());

    if args.trace {
        let (r, counts) = &traced_runs[0];
        notes.extend(causes);
        des_trace_layers(&mut layers, counts, r.delivered);
        layers.set("sim.events", r.events as f64);
        layers.set("sim.events_per_s", first.events_per_s);
        layers.set("sim.events_per_msg", r.events as f64 / r.delivered.max(1) as f64);
        layers.set("core.sim_goodput_mbps", sim_goodput);
        layers.set("core.stalled_flows", r.stalled_flows as f64);
        layers.set("core.qpip_world_s", median(&walls) + median(&e2e.setup_s));
        layers.set("nic.tcp_backlogged", r.tcp_backlogged as f64);
        layers.set("fabric.delivered", r.fabric_delivered as f64);
        layers.set("fabric.injected_drops", r.injected_drops as f64);
        layers.set("fabric.loss_ratio", r.injected_drops as f64 / r.fabric_seen.max(1) as f64);
        layers.set("netstack.rto_retransmits", r.engine.rto_retransmits as f64);
        layers.set("netstack.fast_retransmits", r.engine.fast_retransmits as f64);
        layers.set("netstack.dupacks_rx", r.engine.dupacks_rx as f64);
        layers.set("netstack.zero_window_events", r.engine.zero_window_events as f64);
        let traced_walls: Vec<f64> =
            traced_runs.iter().map(|(r, _)| r.stream_s + r.setup_s).collect();
        let plain: Vec<f64> = runs.iter().map(|r| r.stream_s + r.setup_s).collect();
        layers.set("trace.overhead_ratio", median(&traced_walls) / median(&plain));
        if r.delivered != first.delivered {
            e2e.mismatches.push("fan-in: tracing changed the simulation".into());
        }
        if counts.overwritten > 0 {
            e2e.mismatches.push(format!("flight recorder overwrote {} events", counts.overwritten));
        }
        for (r, _) in &traced_runs {
            e2e.mismatches.extend(r.mismatches.iter().cloned());
        }
        layers::micro(&mut layers);
        traced_sp.drain_into(&mut log, "main");
    }
    Outcome { e2e, layers, notes, spans: log }
}
