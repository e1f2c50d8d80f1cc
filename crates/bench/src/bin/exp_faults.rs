//! Characterizes accuracy vs bit-error rate for the unary codings
//! against the binary baseline and writes `BENCH_faults.json`.
//!
//! Usage: `cargo run --release -p usystolic-bench --bin exp_faults --
//! [--short] [--out PATH] [--seed N]`
//!
//! Exits non-zero when any pinned claim fails: serial/packed kernel
//! agreement, replay determinism, or the graceful-degradation ordering
//! (unary strictly below binary at every non-zero BER).

use std::process::ExitCode;

use usystolic_bench::cli;
use usystolic_bench::faults;
use usystolic_obs::ToJson;

const USAGE: &str = "usage: exp_faults [--short] [--out PATH] [--seed N]";

fn main() -> ExitCode {
    let mut seed = 0x5eed_fa11;
    let args = cli::bench_args(
        std::env::args().skip(1),
        "BENCH_faults.json",
        |flag, argv| {
            if flag == "--seed" {
                seed = argv.int()?;
            }
            Ok(flag == "--seed")
        },
    );
    let (short, out) = match args {
        Ok(args) => args,
        Err(e) => return cli::fail("exp_faults", USAGE, &e),
    };
    let report = faults::run(short, seed);
    let complaint = "faults bench found a broken claim";
    cli::finish_bench(
        &report.table(),
        &report.to_json(),
        &out,
        report.healthy(),
        complaint,
    )
}
