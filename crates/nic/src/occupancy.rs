//! Per-stage NIC-processor occupancy instrumentation.
//!
//! Reproduces the measurement the paper made with the LANai 9 cycle
//! counter (§4.2.2, Tables 2 & 3): every firmware stage records how long
//! the NIC processor was occupied, bucketed by what kind of packet was
//! being handled.
//!
//! Only each cell's mean and sample count are ever read, so a cell is a
//! running sum plus a count in a fixed array indexed by the two enum
//! discriminants: recording is two adds, allocates nothing, and the
//! table's size does not grow with simulated traffic.

use qpip_sim::time::SimDuration;

/// A firmware processing stage (the rows of Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Doorbell FIFO service.
    DoorbellProcess,
    /// Endpoint scheduler pass.
    Schedule,
    /// Work-request fetch (DMA from host memory).
    GetWr,
    /// Data fetch (DMA setup + start).
    GetData,
    /// TCP header construction.
    BuildTcpHdr,
    /// UDP header construction.
    BuildUdpHdr,
    /// IPv6 header construction.
    BuildIpHdr,
    /// Firmware checksum loop (absent in hardware mode).
    FwChecksum,
    /// Handoff to the media transmit engine.
    MediaXmt,
    /// Post-send WR/QP status update.
    UpdateTx,
    /// Media receive engine service.
    MediaRcv,
    /// IPv6 header parse.
    IpParse,
    /// TCP header parse (incl. RTT-estimator math on ACKs).
    TcpParse,
    /// UDP header parse.
    UdpParse,
    /// Data placement (DMA to the posted host buffer).
    PutData,
    /// Receive-side WR/CQ update.
    UpdateRx,
}

impl Stage {
    /// Every stage, in declaration (and therefore `Ord`) order; the
    /// occupancy table indexes its rows by position in this list.
    const ALL: [Stage; 16] = [
        Stage::DoorbellProcess,
        Stage::Schedule,
        Stage::GetWr,
        Stage::GetData,
        Stage::BuildTcpHdr,
        Stage::BuildUdpHdr,
        Stage::BuildIpHdr,
        Stage::FwChecksum,
        Stage::MediaXmt,
        Stage::UpdateTx,
        Stage::MediaRcv,
        Stage::IpParse,
        Stage::TcpParse,
        Stage::UdpParse,
        Stage::PutData,
        Stage::UpdateRx,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::DoorbellProcess => "Doorbell Process",
            Stage::Schedule => "Schedule",
            Stage::GetWr => "Get WR",
            Stage::GetData => "Get Data",
            Stage::BuildTcpHdr => "Build TCP Hdr",
            Stage::BuildUdpHdr => "Build UDP Hdr",
            Stage::BuildIpHdr => "Build IP Hdr",
            Stage::FwChecksum => "FW Checksum",
            Stage::MediaXmt => "Send",
            Stage::UpdateTx => "Update",
            Stage::MediaRcv => "Media Rcv",
            Stage::IpParse => "IP Parse",
            Stage::TcpParse => "TCP Parse",
            Stage::UdpParse => "UDP Parse",
            Stage::PutData => "Put Data",
            Stage::UpdateRx => "Update",
        }
    }

    /// Stable snake-case name for traces.
    pub fn trace_name(self) -> &'static str {
        match self {
            Stage::DoorbellProcess => "doorbell",
            Stage::Schedule => "schedule",
            Stage::GetWr => "get_wr",
            Stage::GetData => "get_data",
            Stage::BuildTcpHdr => "build_tcp_hdr",
            Stage::BuildUdpHdr => "build_udp_hdr",
            Stage::BuildIpHdr => "build_ip_hdr",
            Stage::FwChecksum => "fw_checksum",
            Stage::MediaXmt => "media_xmt",
            Stage::UpdateTx => "wr_status_tx",
            Stage::MediaRcv => "media_rcv",
            Stage::IpParse => "ip_parse",
            Stage::TcpParse => "tcp_parse",
            Stage::UdpParse => "udp_parse",
            Stage::PutData => "put_data",
            Stage::UpdateRx => "wr_status_rx",
        }
    }
}

/// What the NIC was handling when a stage ran (the columns of Tables 2
/// and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketClass {
    /// Transmit path carrying payload.
    DataSend,
    /// Transmit path for a pure acknowledgment.
    AckSend,
    /// Receive path carrying payload.
    DataRecv,
    /// Receive path for a pure acknowledgment.
    AckRecv,
    /// UDP transmit.
    UdpSend,
    /// UDP receive.
    UdpRecv,
    /// Connection management traffic.
    Control,
}

impl PacketClass {
    /// Every class, in declaration (and therefore `Ord`) order; the
    /// occupancy table indexes its columns by position in this list.
    const ALL: [PacketClass; 7] = [
        PacketClass::DataSend,
        PacketClass::AckSend,
        PacketClass::DataRecv,
        PacketClass::AckRecv,
        PacketClass::UdpSend,
        PacketClass::UdpRecv,
        PacketClass::Control,
    ];

    /// Stable snake-case name for traces.
    pub fn trace_name(self) -> &'static str {
        match self {
            PacketClass::DataSend => "data_send",
            PacketClass::AckSend => "ack_send",
            PacketClass::DataRecv => "data_recv",
            PacketClass::AckRecv => "ack_recv",
            PacketClass::UdpSend => "udp_send",
            PacketClass::UdpRecv => "udp_recv",
            PacketClass::Control => "control",
        }
    }
}

/// One (stage, class) cell: the running sum of its samples in
/// microseconds and how many there were.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    sum_us: f64,
    count: usize,
}

impl Cell {
    /// Mean sample, if there was any. Samples are summed in arrival
    /// order and divided once, exactly as `qpip_sim::stats::Summary`
    /// does, so the printed tables keep every bit.
    fn mean_us(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_us / self.count as f64)
    }
}

/// Accumulated per-(stage, class) occupancy.
#[derive(Debug, Default)]
pub struct Occupancy {
    /// Indexed by `[stage as usize][class as usize]`.
    cells: [[Cell; PacketClass::ALL.len()]; Stage::ALL.len()],
    total_busy: SimDuration,
}

impl Occupancy {
    /// Creates an empty table.
    pub fn new() -> Self {
        Occupancy::default()
    }

    fn cell(&self, stage: Stage, class: PacketClass) -> Cell {
        self.cells[stage as usize][class as usize]
    }

    /// Records one stage execution.
    pub fn record(&mut self, stage: Stage, class: PacketClass, d: SimDuration) {
        let cell = &mut self.cells[stage as usize][class as usize];
        cell.sum_us += d.as_micros_f64();
        cell.count += 1;
        self.total_busy += d;
    }

    /// Mean occupancy of a cell in microseconds, if it ever ran.
    pub fn mean_us(&self, stage: Stage, class: PacketClass) -> Option<f64> {
        self.cell(stage, class).mean_us()
    }

    /// Number of executions of a cell.
    pub fn count(&self, stage: Stage, class: PacketClass) -> usize {
        self.cell(stage, class).count
    }

    /// Total processor busy time recorded.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// All populated cells, sorted for stable output.
    pub fn cells(&self) -> Vec<((Stage, PacketClass), f64, usize)> {
        Stage::ALL
            .into_iter()
            .flat_map(|s| PacketClass::ALL.into_iter().map(move |c| (s, c)))
            .filter_map(|(s, c)| {
                let cell = self.cell(s, c);
                cell.mean_us().map(|mean| ((s, c), mean, cell.count))
            })
            .collect()
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        *self = Occupancy::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut o = Occupancy::new();
        o.record(Stage::GetWr, PacketClass::DataSend, SimDuration::from_micros(5));
        o.record(Stage::GetWr, PacketClass::DataSend, SimDuration::from_micros(6));
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::DataSend), Some(5.5));
        assert_eq!(o.count(Stage::GetWr, PacketClass::DataSend), 2);
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::AckSend), None);
        assert_eq!(o.total_busy(), SimDuration::from_micros(11));
    }

    #[test]
    fn cells_sorted_and_reset() {
        let mut o = Occupancy::new();
        o.record(Stage::TcpParse, PacketClass::AckRecv, SimDuration::from_micros(14));
        o.record(Stage::IpParse, PacketClass::AckRecv, SimDuration::from_micros(1));
        let cells = o.cells();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].0 .0 < cells[1].0 .0);
        o.reset();
        assert!(o.cells().is_empty());
        assert_eq!(o.total_busy(), SimDuration::ZERO);
    }

    /// The table against the sample-vector `Summary` it replaced: every
    /// mean, count and the busy total agree bit for bit, across a reset.
    #[test]
    fn matches_summary_reference_bit_for_bit() {
        use std::collections::BTreeMap;

        use qpip_sim::rng::SplitMix64;
        use qpip_sim::stats::Summary;

        let mut rng = SplitMix64::new(0x0cc0_7a6c);
        let mut o = Occupancy::new();
        for round in 0..2 {
            let mut reference: BTreeMap<(Stage, PacketClass), Summary> = BTreeMap::new();
            let mut busy = SimDuration::ZERO;
            for _ in 0..20_000 {
                // a handful of cells, so each collects thousands of samples
                let stage = Stage::ALL[rng.below(5) as usize * 3];
                let class = PacketClass::ALL[rng.below(3) as usize * 3];
                // picosecond durations from 1 ns to ~100 µs, like LANai cycles
                let d = SimDuration::from_picos(rng.range(1_000, 100_000_000));
                o.record(stage, class, d);
                reference.entry((stage, class)).or_default().record_duration_us(d);
                busy += d;
            }
            assert_eq!(o.total_busy(), busy, "round {round}");
            for s in Stage::ALL {
                for c in PacketClass::ALL {
                    let want = reference.get(&(s, c));
                    assert_eq!(
                        o.mean_us(s, c).map(f64::to_bits),
                        want.map(|r| r.mean().to_bits()),
                        "round {round} {s:?}/{c:?}"
                    );
                    assert_eq!(o.count(s, c), want.map_or(0, Summary::count));
                }
            }
            let want: Vec<_> = reference.iter().map(|(&k, r)| (k, r.mean(), r.count())).collect();
            assert_eq!(o.cells(), want, "round {round}");
            o.reset();
            assert!(o.cells().is_empty());
        }
    }

    #[test]
    fn index_is_position_in_ord_order() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?}");
        }
        assert!(Stage::ALL.windows(2).all(|w| w[0] < w[1]));
        for (i, c) in PacketClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        assert!(PacketClass::ALL.windows(2).all(|w| w[0] < w[1]));

        // record every cell once, in reverse, and read them back in order
        let mut o = Occupancy::new();
        for s in Stage::ALL.into_iter().rev() {
            for c in PacketClass::ALL.into_iter().rev() {
                o.record(s, c, SimDuration::from_micros(1));
            }
        }
        let keys: Vec<_> = o.cells().into_iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys.len(), Stage::ALL.len() * PacketClass::ALL.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Stage::GetWr.label(), "Get WR");
        assert_eq!(Stage::MediaXmt.label(), "Send");
        assert_eq!(Stage::UpdateRx.label(), "Update");
    }
}
