//! QPIP benchmark: one command, five workloads, end-to-end metrics with
//! tracing off and per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_rpc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run prints a human-readable report (each metric with its unit
//! and sample count, plus the checks it made) and, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. A failed correctness check prints `"correct": false`
//! and exits with code 1. Workload rationale and the layer map are in
//! `perfbench/README.md`.

mod des;
mod layers;
mod live;
mod traced;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use util::{median, quantile, SpanLog};

/// Every workload the command runs: the four `BENCHMARK.json`
/// declares, then `des_fanin_lossy`, which it does not declare because
/// some of its operations fail by design: with no persist timer in the
/// engine, a flow whose window update is lost never finishes, and the
/// run counts its messages as failed.
const WORKLOADS: [&str; 5] = ["live_rpc", "live_bulk", "des_paper", "des_fanin", "des_fanin_lossy"];

/// Per-layer metrics printed by every traced run, with units. A layer a
/// workload never reaches reports 0 (e.g. `xport.*` on the DES
/// workloads, `os.*` where no OS socket is used).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("os.udp_rtt_p50_us", "us"),
    ("os.udp_stream_mbps", "MB/s"),
    ("os.rcvbuf_drops", "count"),
    ("os.wakeups_per_op", "count"),
    ("xport.post_send_ns", "ns"),
    ("xport.wait_ns", "ns"),
    ("xport.cpu_ns_per_op", "ns"),
    ("xport.datagrams_per_op", "count"),
    ("xport.drops", "count"),
    ("netstack.on_packet_ns.64B", "ns"),
    ("netstack.on_packet_ns.8KiB", "ns"),
    ("netstack.tcp_send_ns.64B", "ns"),
    ("netstack.tcp_send_ns.8KiB", "ns"),
    ("netstack.on_timer_ns", "ns"),
    ("netstack.rto_retransmits", "count"),
    ("netstack.fast_retransmits", "count"),
    ("netstack.dupacks_rx", "count"),
    ("netstack.zero_window_events", "count"),
    ("netstack.ooo_drops", "count"),
    ("netstack.useful_seg_ratio", "ratio"),
    ("wire.checksum_ns_per_kib.64B", "ns"),
    ("wire.checksum_ns_per_kib.8KiB", "ns"),
    ("wire.checksum_ns_per_kib.16KiB", "ns"),
    ("wire.encode_ns.64B", "ns"),
    ("wire.encode_ns.8KiB", "ns"),
    ("wire.decode_ns.64B", "ns"),
    ("wire.decode_ns.8KiB", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_msg", "count"),
    ("core.qpip_world_s", "s"),
    ("core.sim_goodput_mbps", "MB/s"),
    ("core.stalled_flows", "count"),
    ("host.socket_world_s", "s"),
    ("nbd.wall_s", "s"),
    ("nic.fw_charges_per_msg.doorbell", "count"),
    ("nic.fw_charges_per_msg.management", "count"),
    ("nic.fw_charges_per_msg.transmit", "count"),
    ("nic.fw_charges_per_msg.receive", "count"),
    ("nic.tcp_backlogged", "count"),
    ("fabric.delivered", "count"),
    ("fabric.injected_drops", "count"),
    ("fabric.loss_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events", "count"),
    ("trace.overwritten", "count"),
];

/// One measured unit of a workload: a session (`live_rpc`), a transfer
/// (`live_bulk`), a pass over the paper set (`des_paper`), a fan-in
/// (`des_fanin`, `des_fanin_lossy`). Goodput and CPU per operation are the medians
/// over units, so one unit caught in a rare stall moves them little.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Payload bytes delivered and verified.
    pub bytes: u64,
    /// Wall seconds the bytes took.
    pub wall_s: f64,
    /// CPU nanoseconds the benchmark's threads ran.
    pub cpu_ns: u64,
    /// Operations attempted.
    pub ops: u64,
}

/// What one workload run measured with tracing off. An operation
/// (`op`) is the workload's own: a round trip, a message, a pass over
/// the paper set, a fan-in message.
#[derive(Debug, Default)]
pub struct E2e {
    /// Set-up times, seconds, one per set-up.
    pub setup_s: Vec<f64>,
    /// Latency samples, microseconds: a round trip (`live_rpc`), one
    /// 8 MiB transfer (`live_bulk`), one pass over the paper set
    /// (`des_paper`), one fan-in stream phase (`des_fanin`,
    /// `des_fanin_lossy`).
    pub latency_us: Vec<f64>,
    /// The measured units.
    pub units: Vec<Unit>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Failed correctness checks; any one fails the run.
    pub mismatches: Vec<String>,
}

impl E2e {
    /// Median goodput over units, 10⁶ B/s.
    fn goodput_mbps(&self) -> f64 {
        let v: Vec<f64> = self.units.iter().map(|u| u.bytes as f64 / u.wall_s / 1e6).collect();
        median(&v)
    }

    /// Median CPU per operation over units, µs.
    fn cpu_us_per_op(&self) -> f64 {
        let v: Vec<f64> =
            self.units.iter().map(|u| u.cpu_ns as f64 / 1e3 / u.ops.max(1) as f64).collect();
        median(&v)
    }
}

/// Per-layer values, keyed by [`PER_LAYER`] names.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric; the name must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted per-layer metric {name}");
        self.0.insert(name, v);
    }
}

/// Workload output: the end-to-end measurement, the per-layer values
/// (filled only when traced), extra report lines, and the spans.
pub struct Outcome {
    /// End-to-end measurement (tracing off).
    pub e2e: E2e,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    /// Workload-specific report lines (the named metrics of each
    /// workload with their sample counts, stall causes, floors).
    pub notes: Vec<String>,
    /// The benchmark's own spans, written out at exit.
    pub spans: SpanLog,
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// JSON number with all its digits; non-finite values are not JSON.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The end-to-end metrics of one run: name, value, unit, sample count.
fn e2e_metrics(e2e: &E2e) -> Vec<(&'static str, f64, &'static str, usize)> {
    let units = e2e.units.len();
    let lat = e2e.latency_us.len();
    vec![
        ("setup_s", median(&e2e.setup_s), "s", e2e.setup_s.len()),
        ("latency_p50_us", quantile(&e2e.latency_us, 0.5), "us", lat),
        ("latency_p90_us", quantile(&e2e.latency_us, 0.9), "us", lat),
        ("goodput_mbps", e2e.goodput_mbps(), "MB/s", units),
        ("cpu_us_per_op", e2e.cpu_us_per_op(), "us", units),
    ]
}

/// Runs one workload, prints its report and result line, and returns
/// whether every correctness check held.
fn run(args: &Args) -> bool {
    let Outcome { e2e, layers, notes, spans } = match args.workload.as_str() {
        "live_rpc" => live::rpc(args),
        "live_bulk" => live::bulk(args),
        "des_paper" => des::paper(args),
        "des_fanin" => des::fanin(args, 0),
        _ => des::fanin(args, des::LOSS_PERMILLE),
    };
    println!("== {} seed={} trace={} ==", args.workload, args.seed, u8::from(args.trace));
    for n in &notes {
        println!("{n}");
    }
    let e2e_set = e2e_metrics(&e2e);
    println!("-- end to end (tracing off) --");
    for (name, v, unit, n) in &e2e_set {
        println!("{name:<34} {v:>14.4} {unit:<6} n={n}");
    }
    println!(
        "{:<34} {:>14.6} {:<6} failed={} attempted={}",
        "failed_ratio",
        e2e.failed as f64 / e2e.attempted.max(1) as f64,
        "ratio",
        e2e.failed,
        e2e.attempted
    );
    if args.trace {
        println!("-- per layer (traced run) --");
        for (name, unit) in PER_LAYER {
            let v = layers.0.get(name).copied().unwrap_or(0.0);
            println!("{name:<34} {v:>14.4} {unit}");
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match spans.write(&path) {
            Ok(()) => println!(
                "wrote {} spans to {} ({} more kept only in the totals)",
                spans.lines,
                path.display(),
                spans.dropped
            ),
            Err(e) => println!("could not write spans to {}: {e}", path.display()),
        }
    }
    if let Some(hwm) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|st| st.lines().find(|l| l.starts_with("VmHWM:")).map(str::to_owned))
    {
        println!("peak resident memory {}", hwm.trim_start_matches("VmHWM:").trim());
    }
    for m in e2e.mismatches.iter().take(20) {
        println!("MISMATCH {m}");
    }
    if e2e.mismatches.len() > 20 {
        println!("MISMATCH ... and {} more", e2e.mismatches.len() - 20);
    }
    let correct = e2e.mismatches.is_empty();
    let metric = |name: &str, v: f64, unit: &str| {
        format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v))
    };
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        e2e_set.iter().map(|(name, v, unit, _)| metric(name, *v, unit)).collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e2e.attempted.max(1),
        e2e.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let correct = if args.workload == "all" {
        // every workload in turn, each for the full time; the last line
        // is the last workload's result
        let mut all = true;
        for w in WORKLOADS {
            all &= run(&Args { workload: w.to_string(), ..args });
        }
        all
    } else {
        run(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads `BENCHMARK.json` declares, in its order. On each
    /// of them no operation fails.
    const DECLARED: [&str; 4] = ["live_rpc", "live_bulk", "des_paper", "des_fanin"];

    /// The metrics a run prints are the ones `BENCHMARK.json` declares,
    /// with the same units.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let e2e: Vec<(&str, &str)> =
            e2e_metrics(&E2e::default()).iter().map(|m| (m.0, m.2)).collect();
        for (name, unit) in e2e.iter().chain(PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        for w in WORKLOADS {
            assert_eq!(
                json.contains(&format!("\"name\": \"{w}\"")),
                DECLARED.contains(&w),
                "BENCHMARK.json must declare exactly the workloads in DECLARED ({w})"
            );
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            e2e.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics no run prints"
        );
    }
}
