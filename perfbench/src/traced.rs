//! Per-layer counts read back from a `qpip_trace::FlightRecorder` after a
//! traced run.

use std::collections::HashMap;

use qpip_trace::{flags, FlightRecorder, TraceEvent};

/// Counts folded out of one recorder's events.
#[derive(Debug, Clone, Default)]
pub struct TraceCounts {
    /// Events recorded.
    pub events: u64,
    /// Events the rings overwrote (must stay 0: the counts below would
    /// be short).
    pub overwritten: u64,
    /// Firmware charges per FSM: doorbell (host PIO), management
    /// (connection control packets), transmit, receive.
    pub fw_charges: [u64; 4],
    /// Data segments sent for the first time.
    pub data_first: u64,
    /// Data segments sent, retransmissions included.
    pub data_all: u64,
    /// Out-of-order data segments, replayed from each connection's
    /// `SegRx` stream with the subset's drop rule (no reassembly).
    pub ooo_drops: u64,
    /// `(node, conn)` scopes that carried a connection.
    pub conns: Vec<(u32, u32)>,
}

impl TraceCounts {
    /// Reads every ring of `rec`.
    pub fn of(rec: &FlightRecorder) -> TraceCounts {
        let mut c = TraceCounts { events: rec.total_recorded(), ..TraceCounts::default() };
        for (node, conn) in rec.scopes() {
            c.overwritten += rec.overwritten(node, conn);
            if conn != qpip_trace::NODE_SCOPE {
                c.conns.push((node, conn));
            }
        }
        let mut rcv_nxt: HashMap<(u32, u32), u32> = HashMap::new();
        for r in rec.events() {
            match r.ev {
                TraceEvent::FwFsm { stage, class } => {
                    let i = match (stage, class) {
                        ("doorbell", _) => 0,
                        (_, "control") => 1,
                        (_, "data_send" | "ack_send" | "udp_send") => 2,
                        _ => 3,
                    };
                    c.fw_charges[i] += 1;
                }
                TraceEvent::SegTx { len, retransmit, .. } if len > 0 => {
                    c.data_all += 1;
                    c.data_first += u64::from(!retransmit);
                }
                TraceEvent::SegRx { seq, len, flags: f, .. } => {
                    let key = (r.node, r.conn);
                    if f & flags::SYN != 0 {
                        rcv_nxt.insert(key, seq.wrapping_add(1).wrapping_add(len));
                    } else if let Some(nxt) = rcv_nxt.get_mut(&key) {
                        let end = seq.wrapping_add(len);
                        if len > 0 && (seq.wrapping_sub(*nxt) as i32) > 0 {
                            c.ooo_drops += 1;
                        } else if (end.wrapping_sub(*nxt) as i32) > 0 {
                            *nxt = end;
                        }
                        if f & flags::FIN != 0 && end == *nxt {
                            *nxt = nxt.wrapping_add(1);
                        }
                    }
                }
                _ => {}
            }
        }
        c
    }

    /// Adds another recorder's counts.
    pub fn add(&mut self, o: &TraceCounts) {
        self.events += o.events;
        self.overwritten += o.overwritten;
        for i in 0..4 {
            self.fw_charges[i] += o.fw_charges[i];
        }
        self.data_first += o.data_first;
        self.data_all += o.data_all;
        self.ooo_drops += o.ooo_drops;
    }

    /// First transmissions over all data segments (1 with no data sent).
    pub fn useful_seg_ratio(&self) -> f64 {
        if self.data_all == 0 {
            1.0
        } else {
            self.data_first as f64 / self.data_all as f64
        }
    }
}
