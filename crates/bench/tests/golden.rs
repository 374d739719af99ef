//! Golden outputs of the deterministic bench binaries (the five paper
//! binaries plus `ablations`, `rdma_bench` and `latency_sweep`): each
//! one's stdout at its default arguments must match the checked-in
//! fixture byte for byte.
//!
//! The simulation is deterministic, so any difference means a cost,
//! protocol or reporting change moved a printed figure. A change that
//! means to move one regenerates the fixture in the same commit:
//!
//! ```sh
//! for b in fig3_rtt fig4_throughput table1_overhead tables23_occupancy fig7_nbd \
//!          ablations rdma_bench latency_sweep; do
//!     cargo run --release -q -p qpip-bench --bin $b > crates/bench/tests/golden/$b.stdout
//! done
//! ```
//!
//! `manyflow` and `xport_ttcp` print wall-clock figures, so they have no
//! fixture.
//!
//! The gate lives in `qpip-bench` rather than the root package because
//! `env!("CARGO_BIN_EXE_<bin>")` only names binaries of the package the
//! test belongs to; `cargo test --workspace` runs it.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, exe: &str) {
    let out = Command::new(exe).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{bin}.stdout"));
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if out.stdout == want {
        return;
    }
    let got = String::from_utf8_lossy(&out.stdout);
    let want = String::from_utf8_lossy(&want);
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => {}
            (None, None) => panic!("{bin} stdout differs from {} in line endings", path.display()),
            (g, w) => panic!(
                "{bin} stdout differs from {} at line {line}:\n  golden: {}\n  actual: {}",
                path.display(),
                w.unwrap_or("<end of output>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

#[test]
fn fig3_rtt_matches_golden() {
    check("fig3_rtt", env!("CARGO_BIN_EXE_fig3_rtt"));
}

#[test]
fn fig4_throughput_matches_golden() {
    check("fig4_throughput", env!("CARGO_BIN_EXE_fig4_throughput"));
}

#[test]
fn table1_overhead_matches_golden() {
    check("table1_overhead", env!("CARGO_BIN_EXE_table1_overhead"));
}

#[test]
fn tables23_occupancy_matches_golden() {
    check("tables23_occupancy", env!("CARGO_BIN_EXE_tables23_occupancy"));
}

#[test]
fn fig7_nbd_matches_golden() {
    check("fig7_nbd", env!("CARGO_BIN_EXE_fig7_nbd"));
}

#[test]
fn ablations_matches_golden() {
    check("ablations", env!("CARGO_BIN_EXE_ablations"));
}

#[test]
fn rdma_bench_matches_golden() {
    check("rdma_bench", env!("CARGO_BIN_EXE_rdma_bench"));
}

#[test]
fn latency_sweep_matches_golden() {
    check("latency_sweep", env!("CARGO_BIN_EXE_latency_sweep"));
}
