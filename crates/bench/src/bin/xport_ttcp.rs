//! ttcp over live sockets: the Fig. 3/4 RTT and throughput workloads
//! run between two real `XportNode`s on 127.0.0.1, printed next to the
//! DES QPIP numbers they correspond to.
//!
//! The DES columns are deterministic model outputs; the live columns
//! are wall-clock measurements that vary with machine and load — they
//! sanity-check that the same engine behaves on real wires (including
//! through a 2%-loss impairment proxy), they do not reproduce figures.
//!
//! Flags: `--smoke` (small counts, for CI), `--json` (also write
//! `BENCH_xport.json` to the current directory).

use std::time::Duration;

use qpip_bench::report::{f1, xport_json, Table};
use qpip_bench::workloads::pingpong::qpip_tcp_rtt;
use qpip_bench::workloads::ttcp::qpip_ttcp;
use qpip_bench::workloads::xport::{live_rtt, live_stream};
use qpip_nic::types::NicConfig;
use qpip_xport::ImpairConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");

    let (rounds, messages, message): (u32, u32, usize) =
        if smoke { (50, 200, 4096) } else { (400, 2000, 8192) };
    let impaired_messages = if smoke { 100 } else { 500 };

    println!("ttcp over live sockets: two XportNodes on 127.0.0.1\n");

    // DES reference points (deterministic)
    let des_rtt = qpip_tcp_rtt(NicConfig::paper_default(), 64, 40);
    let des_ttcp =
        qpip_ttcp(NicConfig::paper_default(), u64::from(messages) * message as u64, 16 * 1024);

    let rtt = live_rtt(rounds, 64);
    let (direct, direct_counters) = live_stream(messages, message, None);
    let (impaired, impaired_counters) = live_stream(
        impaired_messages,
        message,
        Some(ImpairConfig {
            seed: 42,
            drop_per_mille: 20, // 2% loss
            reorder_per_mille: 30,
            hold_at_most: Duration::from_millis(15),
        }),
    );

    let mut t = Table::new("RTT, 64 B message", &["path", "rounds", "mean us", "p50 us", "min us"]);
    t.row(&[
        "live loopback".into(),
        rtt.rounds.to_string(),
        f1(rtt.mean_us),
        f1(rtt.p50_us),
        f1(rtt.min_us),
    ]);
    t.row(&["DES QPIP (Fig. 3)".into(), "40".into(), f1(des_rtt.mean_us), "-".into(), "-".into()]);
    t.print();
    println!();

    let mut t = Table::new(
        "Streaming throughput",
        &["path", "messages", "msg B", "MB/s", "retrans", "proxy drops", "kernel drops"],
    );
    t.row(&[
        "live direct".into(),
        direct.messages.to_string(),
        direct.message_len.to_string(),
        f1(direct.mbytes_per_sec),
        direct.retransmissions.to_string(),
        "0".into(),
        direct.kernel_drops.to_string(),
    ]);
    t.row(&[
        "live 2% loss + reorder".into(),
        impaired.messages.to_string(),
        impaired.message_len.to_string(),
        f1(impaired.mbytes_per_sec),
        impaired.retransmissions.to_string(),
        impaired.proxy_dropped.to_string(),
        impaired.kernel_drops.to_string(),
    ]);
    t.row(&[
        "DES QPIP (Fig. 4)".into(),
        "-".into(),
        "16384".into(),
        f1(des_ttcp.mbytes_per_sec),
        des_ttcp.retransmissions.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.print();

    println!("\nShape checks:");
    let check = |name: &str, ok: bool| {
        println!("  [{}] {}", if ok { "ok" } else { "MISS" }, name);
    };
    check("every direct message delivered in order", direct.messages == messages);
    check(
        "direct stream: 0 retransmissions, 0 kernel drops",
        direct.retransmissions == 0 && direct.kernel_drops == 0,
    );
    check(
        "impaired stream delivered exactly-once despite drops",
        impaired.messages == impaired_messages && impaired.proxy_dropped > 0,
    );
    check("loss recovery engaged on the impaired path", impaired.retransmissions > 0);

    if json {
        // one counters object for the whole document: each scenario's
        // snapshots disambiguated by a scope prefix
        let counters: Vec<qpip_trace::Snapshot> = direct_counters
            .iter()
            .map(|s| ("direct", s))
            .chain(impaired_counters.iter().map(|s| ("impaired", s)))
            .map(|(prefix, s)| s.clone().rescoped(format!("{prefix}_{}", s.scope())))
            .collect();
        let doc = xport_json(
            &rtt,
            &[("direct", direct), ("impaired_2pct_loss", impaired)],
            des_rtt.mean_us,
            des_ttcp.mbytes_per_sec,
            &counters,
        );
        std::fs::write("BENCH_xport.json", &doc).expect("write BENCH_xport.json");
        println!("\nwrote BENCH_xport.json");
    }
}
