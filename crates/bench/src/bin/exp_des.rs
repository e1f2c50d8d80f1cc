//! Benchmarks the serving engine's fidelity tiers on a fleet-scale
//! VGG-16 workload and writes `BENCH_des.json`.
//!
//! Usage: `cargo run --release -p usystolic-bench --bin exp_des --
//! [--short] [--out PATH]`
//!
//! `--short` shrinks the fleet and the arrival horizon for CI smoke
//! runs (and relaxes the speedup bar — smoke-scale timing is noisy).
//!
//! The run fails (non-zero exit) when the analytic tier misses its
//! wall-clock speedup target over the cycle-accurate reference, when
//! the packed tier is not bit-identical to the reference, or when the
//! analytic latency estimates drift out of tolerance.

use std::process::ExitCode;

use usystolic_bench::cli;
use usystolic_bench::des_fleet;
use usystolic_obs::ToJson;

const USAGE: &str = "usage: exp_des [--short] [--out PATH]";

fn main() -> ExitCode {
    let (short, out) =
        match cli::bench_args(std::env::args().skip(1), "BENCH_des.json", |_, _| Ok(false)) {
            Ok(args) => args,
            Err(e) => return cli::fail("exp_des", USAGE, &e),
        };
    let bench = des_fleet::run(short);
    let healthy =
        bench.speedup_target_met && bench.packed_bit_identical && bench.estimates_within_tolerance;
    let complaint = "fidelity bench missed a target";
    cli::finish_bench(&bench.table(), &bench.to_json(), &out, healthy, complaint)
}
