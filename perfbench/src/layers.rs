//! Layer timings that need no workload: the `wire` checksum and packet
//! codec, and the `netstack` engine driven by an in-memory two-engine
//! replay. Every traced run reports them, so each workload's per-layer
//! set carries the same floor.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

use qpip_netstack::codec::{build_tcp_packet, decode_packet};
use qpip_netstack::engine::Engine;
use qpip_netstack::tcp::SegmentOut;
use qpip_netstack::types::{ConnId, Emit, Endpoint, NetConfig, PacketKind, SendToken};
use qpip_sim::rng::SplitMix64;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_wire::checksum::checksum;
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpOptions};

use crate::util::time_per_call;
use crate::Layers;

const SIZES: [(usize, &str); 2] = [(64, "64B"), (8192, "8KiB")];
const MIN_TIME: Duration = Duration::from_millis(40);

fn data_segment(payload: Vec<u8>) -> SegmentOut {
    SegmentOut {
        seq: SeqNum(0x1000),
        ack: SeqNum(0x2000),
        flags: TcpFlags { ack: true, psh: true, ..TcpFlags::NONE },
        window: 32_000,
        options: TcpOptions { timestamps: Some((7, 9)), ..TcpOptions::default() },
        payload,
        kind: PacketKind::TcpData,
        is_retransmit: false,
        ect: false,
    }
}

/// Checksum and codec timings.
fn wire(layers: &mut Layers) {
    let mut rng = SplitMix64::new(0x5eed);
    for (len, name) in [
        (64usize, "wire.checksum_ns_per_kib.64B"),
        (8192, "wire.checksum_ns_per_kib.8KiB"),
        (16384, "wire.checksum_ns_per_kib.16KiB"),
    ] {
        let buf = rng.bytes(len);
        let ns = time_per_call(MIN_TIME, 1000, || {
            black_box(checksum(black_box(&buf)));
        });
        layers.set(name, ns / (len as f64 / 1024.0));
    }
    let src = Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1), 4000);
    let dst = Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 5000);
    for (len, tag) in SIZES {
        let seg = data_segment(rng.bytes(len));
        let enc = time_per_call(MIN_TIME, 1000, || {
            black_box(build_tcp_packet(black_box(src), black_box(dst), black_box(&seg)));
        });
        let pkt = build_tcp_packet(src, dst, &seg);
        let bytes = pkt.as_slice().to_vec();
        assert!(decode_packet(&bytes).is_ok(), "codec round trip");
        let dec = time_per_call(MIN_TIME, 1000, || {
            black_box(decode_packet(black_box(&bytes)).is_ok());
        });
        let (e, d) = if tag == "64B" {
            ("wire.encode_ns.64B", "wire.decode_ns.64B")
        } else {
            ("wire.encode_ns.8KiB", "wire.decode_ns.8KiB")
        };
        layers.set(e, enc);
        layers.set(d, dec);
    }
}

/// Accumulated engine-call timings of the replay.
#[derive(Default)]
struct Calls {
    ns: u64,
    n: u64,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.n += 1;
        r
    }

    fn mean(&self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64
    }
}

/// What crossing the in-memory wire produced.
#[derive(Default)]
struct Shuttled {
    accepted: Option<ConnId>,
    connected: bool,
    delivered: u64,
    completed: u64,
}

/// Carries packets between the two engines until both fall quiet.
/// `to_b` holds the first side's emissions. Every `on_packet` is timed.
fn shuttle(
    a: &mut Engine,
    b: &mut Engine,
    from_a: Vec<Emit>,
    now: SimTime,
    calls: &mut Calls,
) -> Shuttled {
    let mut out = Shuttled::default();
    let mut q: VecDeque<(bool, Vec<u8>)> = VecDeque::new();
    let push =
        |q: &mut VecDeque<(bool, Vec<u8>)>, to_b: bool, emits: Vec<Emit>, out: &mut Shuttled| {
            for e in emits {
                match e {
                    Emit::Packet(p) => q.push_back((to_b, p.bytes.as_slice().to_vec())),
                    Emit::TcpAccepted { conn, .. } => out.accepted = Some(conn),
                    Emit::TcpConnected { .. } => out.connected = true,
                    Emit::TcpDelivered { .. } => out.delivered += 1,
                    Emit::TcpSendComplete { .. } => out.completed += 1,
                    _ => {}
                }
            }
        };
    push(&mut q, true, from_a, &mut out);
    while let Some((to_b, bytes)) = q.pop_front() {
        let emits = if to_b {
            calls.time(|| b.on_packet(now, &bytes))
        } else {
            calls.time(|| a.on_packet(now, &bytes))
        };
        push(&mut q, !to_b, emits, &mut out);
    }
    out
}

/// Two engines over an in-memory wire: one connection, then `tcp_send`
/// of 64 B and 8 KiB messages, each shuttled to delivery and
/// acknowledgment, with a timer tick per message.
fn replay(layers: &mut Layers) {
    let cfg = NetConfig::qpip(9000);
    let a_addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xa);
    let b_addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xb);
    let mut a = Engine::new(cfg.clone(), a_addr);
    let mut b = Engine::new(cfg, b_addr);
    b.tcp_listen(5000).expect("listen");
    let mut now = SimTime::from_micros(1);
    let (ca, syn) = a.tcp_connect(now, 4000, Endpoint::new(b_addr, 5000));
    let mut setup = Calls::default();
    let s = shuttle(&mut a, &mut b, syn, now, &mut setup);
    assert!(s.connected && s.accepted.is_some(), "replay handshake");

    let mut rng = SplitMix64::new(0x5eed_0002);
    let mut timer = Calls::default();
    let mut token = 0u64;
    for (len, tag) in SIZES {
        let payload = rng.bytes(len);
        let mut send = Calls::default();
        let mut rx = Calls::default();
        let start = Instant::now();
        let mut msgs = 0u64;
        while msgs < 1000 || start.elapsed() < MIN_TIME {
            now += SimDuration::from_micros(5);
            token += 1;
            let p = payload.clone();
            let emits = send.time(|| a.tcp_send(now, ca, p, SendToken(token))).expect("tcp_send");
            let s = shuttle(&mut a, &mut b, emits, now, &mut rx);
            assert_eq!(
                (s.delivered, s.completed),
                (1, 1),
                "replay message {token} not delivered and acked"
            );
            let emits = timer.time(|| a.on_timer(now));
            assert!(emits.is_empty(), "no timer is due on a lossless wire");
            timer.time(|| b.on_timer(now));
            msgs += 1;
        }
        let (p, t) = if tag == "64B" {
            ("netstack.on_packet_ns.64B", "netstack.tcp_send_ns.64B")
        } else {
            ("netstack.on_packet_ns.8KiB", "netstack.tcp_send_ns.8KiB")
        };
        layers.set(p, rx.mean());
        layers.set(t, send.mean());
    }
    layers.set("netstack.on_timer_ns", timer.mean());
}

/// Fills the `wire.*` and replay `netstack.*` timings.
pub fn micro(layers: &mut Layers) {
    wire(layers);
    replay(layers);
}
