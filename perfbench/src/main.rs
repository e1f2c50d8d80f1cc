//! Offline benchmark of the uSystolic workspace, end to end and layer by
//! layer.
//!
//! ```text
//! usystolic-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                     [--short] [--out DIR]
//! ```
//!
//! One process runs one workload on one thread. Every input is generated
//! here from `--seed` (SplitMix64); the program only receives those
//! inputs. A run sets the workload up, runs one untimed warm-up iteration
//! whose simulated results become the reference (`peak_rss_mb` is read
//! after it), then runs iterations back to back for `--seconds`, checking
//! every one. The set-up is repeated, timed and dropped, before each
//! iteration. A fixed host reference kernel is timed between iterations
//! (see [`hostref`]); `wall_s` and `setup_s` are the medians of their
//! samples, each scaled to the reference host speed, and the per-run
//! report keeps the unscaled samples too. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A per-run report (and, traced, every span) is written to
//! `--out`.
//!
//! The traced run alternates untraced and traced iterations. Traced
//! iterations wrap each call into the program in a span named after the
//! crate it enters; per-layer numbers are span self times, plus probes
//! that time one crate's public function on the workload's own inputs.
//! One extra iteration runs with a `usystolic_obs` session installed, only
//! to read the counters the program already records.

mod fleet;
mod gemm_layers;
mod hostref;
mod spans;

use fleet::{Fleet, Kind};
use hostref::{HostRef, Kernel};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use usystolic_obs::{JsonValue, Session, ToJson};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "gemm_layers",
    "fleet_steady",
    "fleet_saturated",
    "fleet_faults",
];

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("macs_per_s", "MAC/s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`) and their units. A workload that never
/// enters a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 43] = [
    ("unary.window_ns.rate8", "ns"),
    ("unary.window_ns.rate12", "ns"),
    ("gemm.quantize_s", "s"),
    ("gemm.im2col_s", "s"),
    ("core.exec_lowered_s.ur8", "s"),
    ("core.exec_lowered_s.ur8e6", "s"),
    ("core.exec_lowered_s.ur12", "s"),
    ("core.exec_lowered_s.ut8", "s"),
    ("core.exec_lowered_s.ug8", "s"),
    ("core.exec_lowered_s.bp8", "s"),
    ("core.cycle_accurate_s.ur8", "s"),
    ("core.cycle_accurate_s.ut8", "s"),
    ("core.cycle_accurate_s.ug8", "s"),
    ("core.cycle_accurate_s.bp8", "s"),
    ("core.mac_windows", "count"),
    ("core.saturation_events", "count"),
    ("core.kernel.fallback", "count"),
    ("sim.layer_timing_us", "us"),
    ("des.ns_per_event", "ns"),
    ("des.events", "count"),
    ("des.peak_pending", "count"),
    ("serve.loadgen_s", "s"),
    ("serve.next_batch_us", "us"),
    ("serve.remove_by_id_us", "us"),
    ("serve.rss_bytes_per_request", "B"),
    ("serve.batches", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.timed_out", "count"),
    ("serve.retries", "count"),
    ("share.gemm", "ratio"),
    ("share.core", "ratio"),
    ("share.sim", "ratio"),
    ("share.des", "ratio"),
    ("share.serve", "ratio"),
    ("share.serve.loadgen", "ratio"),
    ("share.serve.next_batch", "ratio"),
    ("share.serve.remove_by_id", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("unattributed_frac", "ratio"),
    ("exact.output_rmse", "1"),
    ("exact.sim_p99_latency_ms", "ms"),
    ("exact.sim_throughput_per_s", "req/s"),
];

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERS: usize = 5;

/// The outcome of checking one iteration.
#[derive(Debug, Default)]
pub struct Checked {
    /// Failed output checks; empty when the iteration is correct.
    pub errors: Vec<String>,
    /// Simulated results that must repeat bit for bit for a given seed.
    pub exact: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Bench: Sized {
    /// What [`iterate`](Self::iterate) hands to [`check`](Self::check).
    type Output;

    /// The host reference that scales this workload's host-time metrics.
    const HOST_REF: Kernel;

    /// Errors found by the set-up checks.
    fn setup_errors(&self) -> Vec<String>;

    /// Simulated MACs and requests (GEMM runs or offered requests) per
    /// iteration.
    fn work(&self) -> (f64, f64);

    /// Runs one iteration, wrapping each call into the program in a span.
    fn iterate(&mut self, spans: &mut Spans) -> Self::Output;

    /// Checks one iteration's outputs (not timed).
    fn check(&mut self, out: Self::Output) -> Checked;

    /// Reads the program's own counters after an iteration run with an
    /// obs session installed. `rss_growth_bytes` is how far the first
    /// iteration raised the process's peak RSS.
    fn absorb(&mut self, session: &Session, rss_growth_bytes: f64);

    /// Per-layer metrics of one traced iteration whose span tree is rooted
    /// at `root`. May time probes into further spans.
    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        root: usize,
        wall_s: f64,
    ) -> BTreeMap<&'static str, f64>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut short = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--short" => short = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        short,
        out,
    })
}

/// A `Vm*` line of `/proc/self/status`, in bytes.
fn proc_status_bytes(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

/// Median of a non-empty sample; the mean of the middle two when even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Everything a run produced.
struct RunReport {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: JsonValue,
}

/// Runs one workload; `setup` builds every input from the seed (`short`
/// shrinks the workload) and runs any one-off set-up checks.
fn run<B: Bench>(
    args: &Args,
    setup: impl Fn(u64, bool) -> Result<B, String>,
) -> Result<RunReport, String> {
    let origin = Instant::now();
    let t = Instant::now();
    let mut bench = setup(args.seed, args.short)?;
    let first_setup_s = secs(t.elapsed());
    let mut errors = bench.setup_errors();
    let (mut attempted, mut failed) = (1u64, u64::from(!errors.is_empty()));

    // Warm-up: its simulated results are the reference that every later
    // iteration must repeat exactly.
    let rss_before = proc_status_bytes("VmRSS").unwrap_or(0.0);
    let out = bench.iterate(&mut Spans::disabled());
    let reference = bench.check(out);
    // Peak RSS is read here, after set-up and one iteration: later
    // iterations only add allocator drift (up to ±20% across seeds).
    let peak_rss = proc_status_bytes("VmHWM").unwrap_or(0.0);
    let rss_growth = peak_rss - rss_before;
    if !reference.errors.is_empty() && errors.is_empty() {
        failed += 1;
    }
    errors.extend(reference.errors.iter().cloned());

    let mut tally = |checked: Checked, errors: &mut Vec<String>| {
        attempted += 1;
        let mut bad = checked.errors;
        if checked.exact != reference.exact {
            bad.push(format!(
                "simulated results differ from the warm-up: {:?} vs {:?}",
                checked.exact, reference.exact
            ));
        }
        if !bad.is_empty() {
            failed += 1;
            errors.extend(bad);
        }
    };
    if args.trace {
        usystolic_obs::install(Session::new());
        let out = bench.iterate(&mut Spans::disabled());
        let session = usystolic_obs::take().ok_or("obs session vanished")?;
        bench.absorb(&session, rss_growth);
        tally(bench.check(out), &mut errors);
    }

    // The host reference is timed before the first iteration and after
    // each one, so every set-up and iteration lies between two timings.
    let mut host = HostRef::new(B::HOST_REF);
    let mut host_s = vec![host.time()];
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traces = Vec::new();
    let t0 = Instant::now();
    while walls.len() < MIN_ITERS || secs(t0.elapsed()) < args.seconds {
        // Set up again before every iteration (timed, then dropped), so
        // set-up time is sampled across the run the way iterations are.
        let t = Instant::now();
        drop(setup(args.seed, args.short)?);
        setup_s.push(secs(t.elapsed()));

        let t = Instant::now();
        let out = bench.iterate(&mut Spans::disabled());
        walls.push(secs(t.elapsed()));
        host_s.push(host.time());
        tally(bench.check(out), &mut errors);

        if args.trace {
            let mut spans = Spans::enabled(origin);
            let t = Instant::now();
            let out = spans.nest("bench", "iteration", |s| bench.iterate(s));
            let wall = secs(t.elapsed());
            traced_walls.push(wall);
            tally(bench.check(out), &mut errors);
            let by_layer = spans.self_s_by_layer_under(0);
            let covered: f64 = by_layer
                .iter()
                .filter(|(layer, _)| **layer != "bench")
                .map(|(_, s)| s)
                .sum();
            let mut sample = bench.layer_metrics(&mut spans, 0, wall);
            sample.insert("unattributed_frac", (1.0 - covered / wall).max(0.0));
            samples.push(sample);
            traces.push(spans.to_json());
        }
    }
    errors.truncate(20);

    // Host-time metrics at the reference host speed: each sample scaled by
    // the nominal reference time over the mean of the two around it.
    let scale: Vec<f64> = host_s
        .windows(2)
        .map(|w| B::HOST_REF.nominal_s() * 2.0 / (w[0] + w[1]))
        .collect();
    let scaled = |raw: &[f64]| -> Vec<f64> { raw.iter().zip(&scale).map(|(v, k)| v * k).collect() };
    let wall_s = median(&scaled(&walls));
    let setup_scaled_s = median(&scaled(&setup_s));
    let (macs, requests) = bench.work();
    let exact: Vec<(&str, JsonValue)> = reference
        .exact
        .iter()
        .map(|(k, v)| (*k, v.to_json()))
        .collect();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let metrics: Vec<(&'static str, &'static str, f64)> = if args.trace {
        let mut merged: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            if !values.is_empty() {
                merged.insert(name, median(&values));
            }
        }
        merged.insert("obs.overhead_ratio", median(&traced_walls) / median(&walls));
        for (k, v) in &reference.exact {
            merged.insert(k, *v);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, merged.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            wall_s,
            macs / wall_s,
            requests / wall_s,
            peak_rss / (1024.0 * 1024.0),
            setup_scaled_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let mut detail = vec![
        ("workload", args.workload.to_json()),
        ("seed", args.seed.to_json()),
        ("seconds", args.seconds.to_json()),
        ("trace", args.trace.to_json()),
        ("short", args.short.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("failed_frac", failed_frac.to_json()),
        (
            "errors",
            JsonValue::Array(errors.iter().map(|e| e.to_json()).collect()),
        ),
        ("first_setup_s", first_setup_s.to_json()),
        (
            "setup_s",
            JsonValue::Array(setup_s.iter().map(|v| v.to_json()).collect()),
        ),
        (
            "wall_s",
            JsonValue::Array(walls.iter().map(|v| v.to_json()).collect()),
        ),
        (
            "host_ref_s",
            JsonValue::Array(host_s.iter().map(|v| v.to_json()).collect()),
        ),
        ("wall_s_unscaled_median", median(&walls).to_json()),
        ("setup_s_unscaled_median", median(&setup_s).to_json()),
        (
            "peak_rss_mb_at_end",
            (proc_status_bytes("VmHWM").unwrap_or(0.0) / (1024.0 * 1024.0)).to_json(),
        ),
        ("exact", JsonValue::object(exact)),
        (
            "metrics",
            JsonValue::object(metrics.iter().map(|(n, _, v)| (*n, v.to_json())).collect()),
        ),
    ];
    if args.trace {
        detail.push((
            "traced_wall_s",
            JsonValue::Array(traced_walls.iter().map(|v| v.to_json()).collect()),
        ));
        detail.push(("spans", JsonValue::Array(traces)));
    }
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        detail: JsonValue::object(detail),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usystolic-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "gemm_layers" => run(&args, gemm_layers::GemmLayers::setup),
        "fleet_steady" => run(&args, |seed, short| Fleet::setup(Kind::Steady, seed, short)),
        "fleet_saturated" => run(&args, |seed, short| {
            Fleet::setup(Kind::Saturated, seed, short)
        }),
        _ => run(&args, |seed, short| Fleet::setup(Kind::Faults, seed, short)),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("usystolic-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let file = args.out.join(format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.short { "-short" } else { "" }
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&file, report.detail.render()))
    {
        eprintln!("usystolic-perfbench: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }

    for (name, unit, value) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "attempted {} failed {} (failed_frac {}) report {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted as f64,
        file.display()
    );
    let metrics = JsonValue::object(
        report
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    *name,
                    JsonValue::object(vec![("value", value.to_json()), ("unit", unit.to_json())]),
                )
            })
            .collect(),
    );
    let line = JsonValue::object(vec![
        ("correct", (report.failed == 0).to_json()),
        ("attempted", report.attempted.to_json()),
        ("failed", report.failed.to_json()),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}
