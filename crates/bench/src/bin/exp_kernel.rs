//! Benchmarks the fast MAC-window paths against the bit-serial
//! reference and writes `BENCH_kernel.json`.
//!
//! Usage: `cargo run --release -p usystolic-bench --bin exp_kernel --
//! [--short] [--out PATH] [--workers 1,2,4,8]`
//!
//! `--short` shrinks the timed case and the sweeps for CI smoke runs.

use std::process::ExitCode;

use usystolic_bench::cli::{self, bad};
use usystolic_bench::kernel;
use usystolic_obs::ToJson;

const USAGE: &str = "usage: exp_kernel [--short] [--out PATH] [--workers 1,2,4,8]";

fn main() -> ExitCode {
    let mut workers: Vec<usize> = Vec::new();
    let args = cli::bench_args(
        std::env::args().skip(1),
        "BENCH_kernel.json",
        |flag, argv| {
            if flag != "--workers" {
                return Ok(false);
            }
            let v = argv.value()?;
            workers = v
                .split(',')
                .map(|w| w.trim().parse().ok().filter(|&w| w > 0))
                .collect::<Option<_>>()
                .ok_or_else(|| bad(flag, &v, "expected comma-separated positive integers"))?;
            Ok(true)
        },
    );
    let (short, out) = match args {
        Ok(args) => args,
        Err(e) => return cli::fail("exp_kernel", USAGE, &e),
    };
    let report = kernel::run(short, &workers);
    let healthy = report.checksums_match
        && report.bit_exact
        && report.workers_consistent
        && report.temporal_bit_exact
        && report.hybrid_bit_exact;
    let complaint = "kernel bench found a mismatch";
    cli::finish_bench(&report.table(), &report.to_json(), &out, healthy, complaint)
}
