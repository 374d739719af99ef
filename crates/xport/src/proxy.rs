//! A userspace impairment proxy: drop, reorder and delay real
//! datagrams between live nodes.
//!
//! The DES worlds impair traffic inside the simulated fabric; on real
//! sockets the loopback interface is lossless and in-order, which
//! exercises none of the engine's recovery machinery. The proxy sits
//! between nodes — each node's peer table routes the *other* node's
//! fabric address at the proxy socket — and forwards datagrams to the
//! true destination, read from the IPv6 destination field the engine
//! already wrote (bytes 24..40 of every packet).
//!
//! Impairment decisions come from the in-tree [`SplitMix64`] stream,
//! so for a given seed the *decision sequence* (drop 7th, hold 12th,
//! …) is reproducible; what is not reproducible is which bytes the
//! OS delivers as the 7th datagram — that schedule belongs to the
//! kernel. Tests therefore assert delivery semantics, never timings.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qpip_sim::rng::SplitMix64;

/// Impairment policy.
#[derive(Debug, Clone)]
pub struct ImpairConfig {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Per-datagram drop probability in units of 1/1000 (20 = 2%).
    pub drop_per_mille: u64,
    /// Per-datagram probability (1/1000) of being *held* so that at
    /// least one later datagram overtakes it.
    pub reorder_per_mille: u64,
    /// Longest a held datagram waits: if nothing overtakes it within
    /// this delay it is released anyway (pure extra latency).
    pub hold_at_most: Duration,
}

impl Default for ImpairConfig {
    fn default() -> Self {
        ImpairConfig {
            seed: 0x9e3779b97f4a7c15,
            drop_per_mille: 0,
            reorder_per_mille: 0,
            hold_at_most: Duration::from_millis(20),
        }
    }
}

/// Shared forwarding counters (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Datagrams forwarded to a destination.
    pub forwarded: u64,
    /// Datagrams deliberately dropped.
    pub dropped: u64,
    /// Datagrams held and later released out of order.
    pub reordered: u64,
    /// Datagrams with no route for their IPv6 destination (or too
    /// short to carry one) — discarded.
    pub unroutable: u64,
}

impl ProxyStats {
    /// Renders the counters as a named snapshot (scope `"proxy"`).
    pub fn snapshot(&self) -> qpip_trace::Snapshot {
        let mut s = qpip_trace::Snapshot::new("proxy");
        s.push("forwarded", self.forwarded)
            .push("dropped", self.dropped)
            .push("reordered", self.reordered)
            .push("unroutable", self.unroutable);
        s
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    reordered: AtomicU64,
    unroutable: AtomicU64,
}

/// Builder for a proxy: impairment policy plus the fabric-address
/// routing table.
#[derive(Debug)]
pub struct ImpairProxy {
    cfg: ImpairConfig,
    routes: HashMap<Ipv6Addr, SocketAddr>,
}

impl ImpairProxy {
    /// Starts a builder with the given policy.
    pub fn new(cfg: ImpairConfig) -> Self {
        ImpairProxy { cfg, routes: HashMap::new() }
    }

    /// Routes datagrams whose IPv6 destination is `fabric` to the live
    /// socket `to` (a node's [`local_addr`](crate::XportNode::local_addr)).
    #[must_use]
    pub fn route(mut self, fabric: Ipv6Addr, to: SocketAddr) -> Self {
        self.routes.insert(fabric, to);
        self
    }

    /// Binds the proxy socket on 127.0.0.1 and starts the forwarding
    /// thread. Point each node's peer table at
    /// [`ProxyHandle::addr`] instead of the real peer.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn spawn(self) -> io::Result<ProxyHandle> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        // sized like a node's socket, so the proxy's own losses are only
        // the injected ones
        crate::sys::size_rcvbuf(&sock, crate::node::SOCKET_RCVBUF)?;
        sock.set_read_timeout(Some(Duration::from_millis(5)))?;
        let addr = sock.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());
        let worker = ProxyWorker {
            sock,
            cfg: self.cfg,
            routes: self.routes,
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
        };
        let join = std::thread::Builder::new()
            .name("qpip-impair-proxy".into())
            .spawn(move || worker.run())?;
        Ok(ProxyHandle { addr, stop, stats, join: Some(join) })
    }
}

/// A running proxy. Dropping the handle stops the thread (held
/// datagrams are flushed first).
#[derive(Debug)]
pub struct ProxyHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    join: Option<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The socket address nodes should use as their "peer".
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the forwarding counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            forwarded: self.stats.forwarded.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            reordered: self.stats.reordered.load(Ordering::Relaxed),
            unroutable: self.stats.unroutable.load(Ordering::Relaxed),
        }
    }

    /// Stops the forwarding thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct ProxyWorker {
    sock: UdpSocket,
    cfg: ImpairConfig,
    routes: HashMap<Ipv6Addr, SocketAddr>,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
}

impl ProxyWorker {
    fn run(self) {
        let mut rng = SplitMix64::new(self.cfg.seed);
        let mut buf = [0u8; 65536];
        // datagrams held back to force reordering: (dest, bytes, release-by)
        let mut held: Vec<(SocketAddr, Vec<u8>, Instant)> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            // release anything that waited past its deadline without
            // being overtaken (degenerates to pure delay)
            held.retain(|(to, bytes, release_by)| {
                if *release_by <= now {
                    let _ = self.sock.send_to(bytes, *to);
                    self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            });
            let n = match self.sock.recv_from(&mut buf) {
                Ok((n, _src)) => n,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    continue;
                }
                Err(_) => break,
            };
            // IPv6 destination address lives at bytes 24..40 of the
            // fixed header the engine built
            if n < 40 {
                self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut dst = [0u8; 16];
            dst.copy_from_slice(&buf[24..40]);
            let Some(&to) = self.routes.get(&Ipv6Addr::from(dst)) else {
                self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if rng.chance(self.cfg.drop_per_mille, 1000) {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if rng.chance(self.cfg.reorder_per_mille, 1000) {
                held.push((to, buf[..n].to_vec(), now + self.cfg.hold_at_most));
                continue;
            }
            let _ = self.sock.send_to(&buf[..n], to);
            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            // this datagram overtook everything held: release the held
            // ones now, counted as reordered
            for (hto, bytes, _) in held.drain(..) {
                let _ = self.sock.send_to(&bytes, hto);
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            }
        }
        // flush on shutdown so nothing is silently swallowed
        for (to, bytes, _) in held {
            let _ = self.sock.send_to(&bytes, to);
            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}
