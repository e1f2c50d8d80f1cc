//! The one argument layer behind `sim_cli`, `serve_cli` and the `exp_*`
//! benches.
//!
//! Parsing is pure: every function here returns a [`Result`], and only a
//! binary's `main` turns a [`CliError`] into exit code 2 through
//! [`fail`], so the whole surface is testable in-process. The flag groups
//! both simulators share are parsed once: the array knobs
//! ([`ArrayArgs`]: scheme, early termination, bitwidth, shape, SRAM) and
//! the observability exports ([`ObsArgs`]). Flags whose meaning differs
//! between the two binaries (`--instances`, `--fault-seed`, and
//! `serve_cli`'s repeatable workload flags) stay in [`SimArgs`] and
//! [`ServeArgs`].

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use usystolic_analyze::{RawSpec, RngWiring};
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_faults::{DeviceFaults, StuckAt};
use usystolic_gemm::GemmConfig;
use usystolic_models::zoo::{self, Network};
use usystolic_obs::{JsonValue, Session, ToJson};
use usystolic_serve::{
    ArrivalProcess, BrownoutPolicy, Fidelity, FleetFaultPlan, LoadGenConfig, RetryPolicy,
    ServeConfig, ServeReport, ShardFailure, ShardSlowdown, Workload,
};
use usystolic_sim::{MemoryHierarchy, Simulator, CLOCK_HZ};

use crate::ArrayShape;

/// `sim_cli`'s usage text.
pub const SIM_USAGE: &str = "usage: usystolic_sim [--scheme BP|BS|UG|UR|UT] [--cycles N] [--bits N]
                     [--shape edge|cloud] [--sram|--no-sram] [--instances N]
                     [--trace FILE] [--metrics FILE] [--metrics-format json|prom]
                     [--report FILE.html] [--json]
                     [--fault-ber F] [--fault-stuck R,C,V]... [--fault-seed N]
                     (--conv IH,IW,IC,WH,WW,S,OC | --matmul M,K,N | --network alexnet|resnet18|vgg16|mnist)
       usystolic_sim --check [--scheme S] [--cycles N] [--bits N] [--shape edge|cloud]
                     [--acc-width N] [--acc-budget FRACTION]
                     [--wiring shared|independent] [--fifo-depth N]
                     [--sram|--no-sram] [--json]
                     [--conv ... | --matmul ... | --network ...]

--instances N adds the scaling of N instances sharing one DRAM,
rescaled from the simulated layer (each network layer with --network).

Fault injection (--fault-ber, --fault-stuck, --fault-seed) runs a
deterministic device-fault characterization on a sub-sampled window of
the layer's GEMM: bit-serial and closed-form unary kernels (which must
agree bit for bit) against the binary product-register baseline, under
the same seeded fault sites. --fault-stuck takes R,C,V with V=0|1 and
may repeat; --fault-seed defaults to 1.

--check statically validates the configuration against the paper's
invariants (stable USYxxx diagnostic codes) and exits 1 on any error.
--acc-width, --acc-budget, --wiring and --fifo-depth configure only that
analysis, so without --check they are usage errors (exit 2).
With --network it also runs the whole-network abstract interpreter:
calibrated value ranges prove per-layer overflow freedom or saturation
(USY060/USY061), and the composed early-termination error bound is
compared against --acc-budget (USY062/USY063).";

/// `serve_cli`'s usage text.
pub const SERVE_USAGE: &str =
    "usage: serve_cli [--workers N] [--instances N] [--arrival-rate REQ_PER_S]
                 [--closed-loop CLIENTS] [--think S] [--duration S]
                 [--deadline MS] [--seed N] [--queue-depth N] [--max-batch N]
                 [--hi-frac F] [--scheme BP|BS|UG|UR|UT] [--cycles N] [--bits N]
                 [--shape edge|cloud] [--sram|--no-sram]
                 [--network alexnet|resnet18|vgg16|mnist]... [--matmul M,K,N]...
                 [--conv IH,IW,IC,WH,WW,S,OC]... [--trace FILE] [--metrics FILE]
                 [--metrics-format json|prom] [--report FILE.html] [--json]
                 [--check]
                 [--shard-fail MS[,IDX]]... [--shard-slow MS,PCT[,IDX]]...
                 [--timeout MS] [--retry-max N] [--retry-backoff MS]
                 [--retry-jitter PERMILLE] [--brownout DEPTH,SERVICE]
                 [--shed-expired] [--fault-seed N]
                 [--fidelity cycle|packed]

Each --network/--matmul/--conv adds one workload class; requests draw a
class uniformly. With no workload flags a 64x64x64 matmul is served.
Open-loop Poisson arrivals by default (--arrival-rate, requests per
second of simulated time); --closed-loop switches to a fixed client
population with --think seconds between completion and re-issue.

Fleet faults (all deterministic under --fault-seed, default --seed):
--shard-fail kills instance IDX (default 1) at MS milliseconds of
simulated time; its in-flight requests retry on the survivors up to
--retry-max times with exponential backoff (--retry-backoff base,
--retry-jitter permille of seeded jitter). --shard-slow multiplies
instance IDX's service times by PCT percent from MS on. --timeout bounds
queue wait; --shed-expired drops queued requests past their deadline;
--brownout DEPTH,SERVICE (permille) degrades service to SERVICE/1000 of
nominal once the queue passes DEPTH/1000 of capacity, admitting overflow
up to twice the queue instead of rejecting.

--fidelity picks when service times are derived; both print the same
numbers: cycle (default) re-derives every class's layer profiles at
each dispatch, packed reads the totals derived once before the event
loop.

--check runs the static serving-feasibility analysis instead of the
event simulation: USY070 (provable overload), USY071 (near-saturation
utilisation), USY072 (deadline below the minimum possible latency),
USY073 (DRAM-limited operating point). Exit 0 when feasible, 1 when any
error fires.";

/// Why a command line cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: the usage text is the whole answer.
    Help,
    /// An unknown flag, or nothing to run: the message, then the usage.
    Usage(String),
    /// A malformed flag value, or a step of the run that failed.
    Invalid(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

/// Parse or run result of the command-line layer.
pub type Result<T> = std::result::Result<T, CliError>;

/// Reports `err` on stderr as `{tool}: error: {message}`, with the usage
/// text where the command line as a whole was unusable, and returns exit
/// code 2 for `main` to hand back.
#[must_use]
pub fn fail(tool: &str, usage: &str, err: &CliError) -> ExitCode {
    match err {
        CliError::Help => eprintln!("{usage}"),
        CliError::Usage(m) => eprintln!("{tool}: error: {m}\n{usage}"),
        CliError::Invalid(m) => eprintln!("{tool}: error: {m}"),
    }
    ExitCode::from(2)
}

/// The malformed-value error `{flag} {v}: {why}`.
pub fn bad(flag: &str, v: &str, why: impl Display) -> CliError {
    CliError::Invalid(format!("{flag} {v}: {why}"))
}

/// Looks `v` up among the named `options` of `flag`.
fn pick<T: Copy, const N: usize>(flag: &str, v: &str, options: [(&str, T); N]) -> Result<T> {
    if let Some(&(_, value)) = options.iter().find(|o| o.0 == v) {
        return Ok(value);
    }
    let names = options.map(|o| o.0);
    let (last, rest) = names.split_last().unwrap_or((&"", &[]));
    let why = format!("expected {} or {last}", rest.join(", "));
    Err(bad(flag, v, why))
}

/// A cursor over argv that remembers which flag it is reading a value
/// for, so every error names that flag. The value accessors fail when
/// argv ends early or the value is malformed.
#[derive(Debug)]
pub struct Argv {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Argv {
    /// A cursor over `args` (the command line without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// Advances to the next flag; `None` at the end of argv.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        self.flag.clone_from(&flag);
        Some(flag)
    }

    /// The error for the current flag when no parser knows it.
    #[must_use]
    pub fn unknown(&self) -> CliError {
        match self.flag.as_str() {
            "--help" | "-h" => CliError::Help,
            flag => CliError::Usage(format!("unknown flag {flag}")),
        }
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String> {
        self.args
            .next()
            .ok_or_else(|| CliError::Invalid(format!("{} requires a value", self.flag)))
    }

    /// The value as an integer.
    pub fn int<T: FromStr>(&mut self) -> Result<T> {
        let v = self.value()?;
        v.parse().map_err(|_| bad(&self.flag, &v, "not an integer"))
    }

    /// The value as a finite number for which `ok` holds; `why` says
    /// what else it must be.
    pub fn num(&mut self, ok: impl Fn(f64) -> bool, why: &str) -> Result<f64> {
        let v = self.value()?;
        let x: f64 = v.parse().map_err(|_| bad(&self.flag, &v, "not a number"))?;
        if x.is_finite() && ok(x) {
            Ok(x)
        } else {
            Err(bad(&self.flag, &v, why))
        }
    }

    /// The value as a probability in `[0, 1]`.
    pub fn probability(&mut self) -> Result<f64> {
        self.num(
            |p| (0.0..=1.0).contains(&p),
            "must be a probability in [0, 1]",
        )
    }

    /// The value parsed by its [`FromStr`] implementation.
    pub fn parse<T: FromStr>(&mut self) -> Result<T>
    where
        T::Err: Display,
    {
        let v = self.value()?;
        v.parse().map_err(|e| bad(&self.flag, &v, e))
    }

    /// The value looked up among the named `options`.
    pub fn choice<T: Copy, const N: usize>(&mut self, options: [(&str, T); N]) -> Result<T> {
        let v = self.value()?;
        pick(&self.flag, &v, options)
    }

    /// The value as a time in units of `unit_s` seconds, in cycles (see
    /// [`time_cycles`]).
    pub fn time(&mut self, unit_s: f64, kind: Time) -> Result<u64> {
        let v = self.value()?;
        time_cycles(&self.flag, &v, unit_s, kind)
    }
}

/// Parses an `exp_*` bench's argv into `(short, out)`: `--short`,
/// `--out PATH` (default `out`), and the flags `extra` accepts.
pub fn bench_args(
    args: impl IntoIterator<Item = String>,
    out: &str,
    mut extra: impl FnMut(&str, &mut Argv) -> Result<bool>,
) -> Result<(bool, String)> {
    let (mut argv, mut short, mut out) = (Argv::new(args), false, out.to_owned());
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--short" => short = true,
            "--out" => out = argv.value()?,
            _ if extra(&flag, &mut argv)? => {}
            _ => return Err(argv.unknown()),
        }
    }
    Ok((short, out))
}

/// Prints a bench's table, writes its JSON record to `out`, and exits 0
/// only when the bench is `healthy`; `complaint` says what failed.
#[must_use]
pub fn finish_bench(
    table: &crate::Table,
    record: &JsonValue,
    out: &str,
    healthy: bool,
    complaint: &str,
) -> ExitCode {
    crate::table::emit(table);
    if let Err(e) = std::fs::write(out, record.render()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if !healthy {
        eprintln!("{complaint}; see {out}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Parses exactly `expected` comma-separated non-negative integers, as in
/// `--conv`/`--matmul` dimension lists.
fn parse_dims<T: FromStr>(flag: &str, s: &str, expected: usize) -> Result<Vec<T>> {
    let mut dims = Vec::new();
    for p in s.split(',').map(str::trim) {
        let why = format!("'{p}' is not a non-negative integer");
        dims.push(p.parse().map_err(|_| bad(flag, s, why))?);
    }
    if dims.len() != expected {
        let why = format!(
            "expected {expected} comma-separated dimensions, got {}",
            dims.len()
        );
        return Err(bad(flag, s, why));
    }
    Ok(dims)
}

/// Parses the layer of a `--conv IH,IW,IC,WH,WW,S,OC` or
/// `--matmul M,K,N` flag.
fn parse_gemm(flag: &str, v: &str) -> Result<GemmConfig> {
    let gemm = if flag == "--conv" {
        let d = parse_dims(flag, v, 7)?;
        GemmConfig::conv(d[0], d[1], d[2], d[3], d[4], d[5], d[6])
    } else {
        let d = parse_dims(flag, v, 3)?;
        GemmConfig::matmul(d[0], d[1], d[2])
    };
    gemm.map_err(|e| bad(flag, v, e))
}

/// The model-zoo network a `--network` name selects.
fn network_by_name(name: &str) -> Result<Network> {
    let build = pick(
        "--network",
        name,
        [
            ("alexnet", zoo::alexnet as fn() -> Network),
            ("resnet18", zoo::resnet18),
            ("vgg16", zoo::vgg16),
            ("mnist", zoo::mnist_cnn4),
        ],
    )?;
    Ok(build())
}

/// Seconds per millisecond: the unit of `serve_cli`'s event times.
pub const MS: f64 = 1.0e-3;

/// How a time flag is checked and rounded to whole array cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Time {
    /// A point in time or a gap, which may be zero: the nearest cycle.
    Instant,
    /// A timer, which must be positive: the nearest cycle, at least one.
    Timer,
    /// A run horizon, which must be positive: rounded up.
    Horizon,
}

impl Time {
    /// Whole cycles in `seconds` of simulated time; a time beyond the
    /// `u64` range saturates at `u64::MAX`.
    fn cycles(self, seconds: f64) -> u64 {
        let cycles = seconds * CLOCK_HZ;
        match self {
            Time::Instant => cycles.round() as u64,
            Time::Timer => (cycles.round() as u64).max(1),
            Time::Horizon => cycles.ceil() as u64,
        }
    }
}

/// The one time-to-cycles conversion of every time flag: parses `v`, in
/// units of `unit_s` seconds, and rounds it to cycles as `kind` says.
/// NaN, infinite and negative times are rejected, and so is zero unless
/// `kind` is [`Time::Instant`].
pub fn time_cycles(flag: &str, v: &str, unit_s: f64, kind: Time) -> Result<u64> {
    let t: f64 = v.trim().parse().map_err(|_| bad(flag, v, "not a number"))?;
    if !t.is_finite() || t < 0.0 {
        return Err(bad(flag, v, "must be a non-negative time"));
    }
    if kind != Time::Instant && t <= 0.0 {
        return Err(bad(flag, v, "must be positive"));
    }
    Ok(kind.cycles(t * unit_s))
}

/// The array group: `--scheme`, `--cycles`, `--bits`, `--shape` and
/// `--sram`/`--no-sram`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayArgs {
    /// Computing scheme (`--scheme`, default UR).
    pub scheme: ComputingScheme,
    /// Data bitwidth N (`--bits`, default 8), unchecked until
    /// [`build`](Self::build).
    pub bitwidth: u32,
    cycles: Option<u64>,
    shape: ArrayShape,
    no_sram: Option<bool>,
}

impl Default for ArrayArgs {
    fn default() -> Self {
        Self {
            scheme: ComputingScheme::UnaryRate,
            bitwidth: 8,
            cycles: None,
            shape: ArrayShape::Edge,
            no_sram: None,
        }
    }
}

impl ArrayArgs {
    /// Consumes `flag` if it belongs to the group.
    pub fn accept(&mut self, flag: &str, argv: &mut Argv) -> Result<bool> {
        match flag {
            "--scheme" => {
                self.scheme = argv.choice(ComputingScheme::ALL.map(|s| (s.label(), s)))?;
            }
            "--cycles" => self.cycles = Some(argv.int()?),
            "--bits" => self.bitwidth = argv.int()?,
            "--shape" => self.shape = argv.choice(ArrayShape::ALL.map(|s| (s.label(), s)))?,
            "--sram" => self.no_sram = Some(false),
            "--no-sram" => self.no_sram = Some(true),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether the SRAM is eliminated. By default binary schemes keep it
    /// and unary ones drop it (the paper's conclusion, §III-E).
    #[must_use]
    pub fn no_sram(&self) -> bool {
        self.no_sram.unwrap_or(self.scheme.is_unary())
    }

    /// The memory hierarchy.
    #[must_use]
    pub fn memory(&self) -> MemoryHierarchy {
        if self.no_sram() {
            MemoryHierarchy::no_sram()
        } else {
            self.shape.memory_with_sram()
        }
    }

    /// The validated array and its memory hierarchy; an unsupported
    /// `--bits` or an illegal `--cycles` is an error naming that flag.
    pub fn build(&self) -> Result<(SystolicConfig, MemoryHierarchy)> {
        let (rows, cols) = self.shape.grid();
        let mut config = SystolicConfig::new(rows, cols, self.scheme, self.bitwidth)
            .map_err(|e| bad("--bits", &self.bitwidth.to_string(), e))?;
        if let Some(c) = self.cycles {
            config = config
                .with_mul_cycles(c)
                .map_err(|e| bad("--cycles", &c.to_string(), e))?;
        }
        Ok((config, self.memory()))
    }
}

/// On-disk encoding for `--metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The registry's JSON snapshot.
    #[default]
    Json,
    /// Prometheus text exposition.
    Prom,
}

/// The observability group: `--trace`, `--metrics`, `--metrics-format`,
/// `--report` and `--json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsArgs {
    /// Structured JSON instead of the human report on stdout (`--json`).
    pub json: bool,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_format: MetricsFormat,
    report_html: Option<PathBuf>,
}

impl ObsArgs {
    /// Consumes `flag` if it belongs to the group.
    pub fn accept(&mut self, flag: &str, argv: &mut Argv) -> Result<bool> {
        match flag {
            "--trace" => self.trace = Some(argv.value()?.into()),
            "--metrics" => self.metrics = Some(argv.value()?.into()),
            "--metrics-format" => {
                self.metrics_format =
                    argv.choice([("json", MetricsFormat::Json), ("prom", MetricsFormat::Prom)])?;
            }
            "--report" => self.report_html = Some(argv.value()?.into()),
            "--json" => self.json = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether `--trace` asks for the session's spans.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether any artefact needs an obs session.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.report_html.is_some()
    }

    /// Writes the artefacts the flags ask for from `session`, naming
    /// `tool` in the HTML title and in warnings.
    pub fn export_session(&self, tool: &str, session: &Session) -> Result<()> {
        // Reports each artefact on stderr unless stdout carries JSON.
        let written = |what: &str, path: &PathBuf, r: std::io::Result<()>, note: String| {
            r.map_err(|e| format!("writing {what} to {}: {e}", path.display()))?;
            if !self.json {
                eprintln!("{note}");
            }
            Ok::<(), CliError>(())
        };
        if let Some(path) = &self.trace {
            let (len, dropped) = (session.tracer.len(), session.tracer.dropped());
            let note = format!(
                "trace:  {} ({len} events, {dropped} dropped)",
                path.display()
            );
            written("trace", path, session.tracer.write_chrome(path), note)?;
        }
        if let Some(path) = &self.metrics {
            let result = match self.metrics_format {
                MetricsFormat::Json => session.metrics.write_snapshot(path),
                MetricsFormat::Prom => {
                    std::fs::write(path, usystolic_obs::prometheus_text(&session.metrics))
                }
            };
            written(
                "metrics",
                path,
                result,
                format!("metrics: {}", path.display()),
            )?;
        }
        if let Some(path) = &self.report_html {
            let title = format!("{tool} observability report");
            let html = usystolic_obs::html_report(&title, &session.metrics);
            let note = format!("report: {}", path.display());
            written("report", path, std::fs::write(path, html), note)?;
        }
        if session.tracer.dropped() > 0 {
            eprintln!(
                "{tool}: warning: trace ring full, {} span(s) dropped (oldest first); \
                 raise the tracer capacity to keep them",
                session.tracer.dropped()
            );
        }
        Ok(())
    }
}

/// `sim_cli`'s command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimArgs {
    /// The array group.
    pub array: ArrayArgs,
    /// The observability group.
    pub obs: ObsArgs,
    /// The layer to evaluate (`--conv`/`--matmul`; the last one wins).
    pub gemm: Option<GemmConfig>,
    /// The network to evaluate, or to interpret under `--check`.
    pub network: Option<Network>,
    /// Instance count of the multi-instance scaling report (`--instances`).
    pub instances: Option<usize>,
    /// Static analysis instead of simulation (`--check`).
    pub check: bool,
    /// Composed early-termination error budget (`--acc-budget`).
    pub acc_budget: Option<f64>,
    acc_width: Option<u32>,
    wiring: RngWiring,
    fifo_depth: Option<usize>,
    fault_ber: Option<f64>,
    fault_stuck: Vec<StuckAt>,
    fault_seed: Option<u64>,
}

/// `sim_cli` flags that configure only the static analysis (`--check`):
/// the simulation has no use for them, so they need `--check`.
const SIM_CHECK_ONLY: [&str; 4] = ["--acc-width", "--acc-budget", "--wiring", "--fifo-depth"];

impl SimArgs {
    /// Parses `sim_cli`'s argv (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut argv = Argv::new(args);
        let mut a = Self::default();
        let mut check_only = None;
        while let Some(flag) = argv.next_flag() {
            if a.array.accept(&flag, &mut argv)? || a.obs.accept(&flag, &mut argv)? {
                continue;
            }
            if SIM_CHECK_ONLY.contains(&flag.as_str()) {
                check_only.get_or_insert_with(|| flag.clone());
            }
            match flag.as_str() {
                "--conv" | "--matmul" => a.gemm = Some(parse_gemm(&flag, &argv.value()?)?),
                "--network" => a.network = Some(network_by_name(&argv.value()?)?),
                "--instances" => a.instances = Some(argv.parse::<NonZeroUsize>()?.get()),
                "--check" => a.check = true,
                "--acc-width" => a.acc_width = Some(argv.int()?),
                "--acc-budget" => {
                    a.acc_budget = Some(argv.num(|b| b > 0.0, "must be a positive fraction")?);
                }
                "--wiring" => {
                    a.wiring = argv.choice([
                        ("shared", RngWiring::SharedDelayed),
                        ("shared-delayed", RngWiring::SharedDelayed),
                        ("independent", RngWiring::Independent),
                    ])?;
                }
                "--fifo-depth" => a.fifo_depth = Some(argv.int()?),
                "--fault-ber" => a.fault_ber = Some(argv.probability()?),
                "--fault-stuck" => {
                    let v = argv.value()?;
                    let d: Vec<usize> = parse_dims(&flag, &v, 3)?;
                    if d[2] > 1 {
                        return Err(bad(&flag, &v, format!("value '{}' must be 0 or 1", d[2])));
                    }
                    a.fault_stuck.push(StuckAt {
                        row: d[0],
                        col: d[1],
                        value: d[2] == 1,
                    });
                }
                "--fault-seed" => a.fault_seed = Some(argv.int()?),
                _ => return Err(argv.unknown()),
            }
        }
        if let (false, Some(flag)) = (a.check, check_only) {
            return Err(CliError::Usage(format!(
                "{flag} configures the static analysis only: add --check"
            )));
        }
        if !a.check && a.gemm.is_none() && a.network.is_none() {
            return Err(CliError::Usage(
                "nothing to run: give --conv, --matmul or --network".to_owned(),
            ));
        }
        Ok(a)
    }

    /// The simulator the flags configure.
    pub fn simulator(&self) -> Result<Simulator> {
        let (config, memory) = self.array.build()?;
        Ok(Simulator::new(config, memory))
    }

    /// The unvalidated spec `--check` analyses: the raw knob values,
    /// including ones the simulator's constructors would reject.
    #[must_use]
    pub fn raw_spec(&self) -> RawSpec {
        let (rows, cols) = self.array.shape.grid();
        let mut spec = RawSpec::new(rows, cols, self.array.scheme, self.array.bitwidth)
            .with_wiring(self.wiring);
        spec.mul_cycles = self.array.cycles;
        spec.acc_width = self.acc_width;
        spec.fifo_depth = self.fifo_depth;
        spec
    }

    /// The validated device fault model on the array's physical PE grid,
    /// or `None` when no fault flag was given.
    pub fn device_faults(&self) -> Result<Option<DeviceFaults>> {
        if self.fault_ber.is_none() && self.fault_stuck.is_empty() && self.fault_seed.is_none() {
            return Ok(None);
        }
        let (rows, cols) = self.array.shape.grid();
        let mut faults = DeviceFaults::new(self.fault_seed.unwrap_or(1))
            .with_ber(self.fault_ber.unwrap_or(0.0))
            .with_grid(rows, cols);
        for &s in &self.fault_stuck {
            faults = faults.with_stuck(s);
        }
        faults
            .validate()
            .map_err(|e| format!("--fault-stuck: {e}"))?;
        Ok(Some(faults))
    }
}

/// The head of `sim_cli`'s `--json` record: the array, the memory
/// hierarchy, the workload (`gemm` or `network`) and its evaluation. The
/// binary appends the optional `scaling` and `faults` sections.
#[must_use]
pub fn sim_record(
    sim: &Simulator,
    workload: (&'static str, JsonValue),
    evaluation: JsonValue,
) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("config", sim.config().to_json()),
        ("memory", sim.memory().to_json()),
        workload,
        ("evaluation", evaluation),
    ]
}

/// `serve_cli`'s command line: the engine configuration and its
/// workload classes.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// The observability group.
    pub obs: ObsArgs,
    /// Static feasibility analysis instead of the event simulation
    /// (`--check`).
    pub check: bool,
    /// The engine configuration.
    pub config: ServeConfig,
    /// One class per `--network`/`--conv`/`--matmul`, in flag order; a
    /// 64×64×64 matmul when none is given.
    pub workloads: Vec<Workload>,
}

impl ServeArgs {
    /// Parses `serve_cli`'s argv (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut argv = Argv::new(args);
        let (mut array, mut obs, mut check) = (ArrayArgs::default(), ObsArgs::default(), false);
        // The array, the arrival process and the workload classes are
        // settled once every flag is read; until then they hold defaults.
        let (default_array, default_memory) = array.build()?;
        let mut c = ServeConfig {
            array: default_array,
            memory: default_memory,
            instances: 1,
            queue_capacity: 64,
            max_batch: 8,
            workers: 1,
            duration_cycles: Time::Horizon.cycles(0.01),
            load: LoadGenConfig {
                process: ArrivalProcess::OpenPoisson {
                    mean_interarrival_cycles: CLOCK_HZ / 1000.0,
                },
                seed: 1,
                classes: 1,
                high_priority_fraction: 0.0,
                deadline_cycles: None,
            },
            faults: FleetFaultPlan {
                retry: RetryPolicy {
                    max_retries: 0,
                    backoff_base_cycles: Time::Timer.cycles(0.01 * MS),
                    jitter_permille: 0,
                },
                ..FleetFaultPlan::default()
            },
            fidelity: Fidelity::CycleAccurate,
        };
        let mut workloads = Vec::new();
        let (mut arrival_rate, mut closed_loop, mut think_cycles, mut fault_seed) =
            (None, None, 0, None);
        while let Some(flag) = argv.next_flag() {
            if array.accept(&flag, &mut argv)? || obs.accept(&flag, &mut argv)? {
                continue;
            }
            let faults = &mut c.faults;
            match flag.as_str() {
                "--network" => {
                    let net = network_by_name(&argv.value()?)?;
                    workloads.push(Workload::from_network(&net));
                }
                "--conv" | "--matmul" => {
                    let v = argv.value()?;
                    let gemm = parse_gemm(&flag, &v)?;
                    workloads.push(Workload::from_gemm(&format!("{}{v}", &flag[2..]), gemm));
                }
                "--workers" => c.workers = argv.int()?,
                "--instances" => c.instances = argv.int()?,
                "--queue-depth" => c.queue_capacity = argv.int()?,
                "--max-batch" => c.max_batch = argv.int()?,
                "--arrival-rate" => arrival_rate = Some(argv.num(|r| r > 0.0, "must be positive")?),
                "--closed-loop" => closed_loop = Some(argv.parse::<NonZeroUsize>()?.get()),
                "--think" => think_cycles = argv.time(1.0, Time::Instant)?,
                "--duration" => c.duration_cycles = argv.time(1.0, Time::Horizon)?,
                "--deadline" => c.load.deadline_cycles = Some(argv.time(MS, Time::Instant)?),
                "--hi-frac" => c.load.high_priority_fraction = argv.probability()?,
                "--seed" => c.load.seed = argv.int()?,
                "--shard-fail" => {
                    let v = argv.value()?;
                    let f = fields(&flag, &v, 1..=2, "MS or MS,IDX")?;
                    faults.failures.push(ShardFailure {
                        at: time_cycles(&flag, f[0], MS, Time::Instant)?,
                        instance: instance(&flag, &v, f.get(1))?,
                    });
                }
                "--shard-slow" => {
                    let v = argv.value()?;
                    let f = fields(&flag, &v, 2..=3, "MS,PCT or MS,PCT,IDX")?;
                    let at = time_cycles(&flag, f[0], MS, Time::Instant)?;
                    let factor_percent = f[1]
                        .parse()
                        .map_err(|_| bad(&flag, &v, "PCT is not an integer"))?;
                    faults.slowdowns.push(ShardSlowdown {
                        at,
                        instance: instance(&flag, &v, f.get(2))?,
                        factor_percent,
                    });
                }
                "--timeout" => faults.timeout_cycles = Some(argv.time(MS, Time::Timer)?),
                "--retry-max" => faults.retry.max_retries = argv.int()?,
                "--retry-backoff" => {
                    faults.retry.backoff_base_cycles = argv.time(MS, Time::Timer)?
                }
                "--retry-jitter" => faults.retry.jitter_permille = argv.int()?,
                "--brownout" => {
                    let d = parse_dims(&flag, &argv.value()?, 2)?;
                    faults.brownout = Some(BrownoutPolicy {
                        depth_permille: d[0],
                        service_permille: d[1],
                    });
                }
                "--shed-expired" => faults.shed_expired = true,
                "--fault-seed" => fault_seed = Some(argv.int()?),
                "--fidelity" => c.fidelity = argv.parse()?,
                "--check" => check = true,
                _ => return Err(argv.unknown()),
            }
        }
        match (closed_loop, arrival_rate) {
            (Some(_), Some(_)) => {
                let both = "--closed-loop and --arrival-rate are mutually exclusive";
                return Err(CliError::Invalid(both.to_owned()));
            }
            (Some(clients), None) => {
                c.load.process = ArrivalProcess::ClosedLoop {
                    clients,
                    think_cycles,
                };
            }
            (None, Some(rate)) => {
                c.load.process = ArrivalProcess::OpenPoisson {
                    mean_interarrival_cycles: CLOCK_HZ / rate,
                };
            }
            (None, None) => {}
        }
        (c.array, c.memory) = array.build()?;
        if workloads.is_empty() {
            let gemm = parse_gemm("--matmul", "64,64,64")?;
            workloads.push(Workload::from_gemm("matmul64,64,64", gemm));
        }
        c.load.classes = workloads.len();
        c.faults.seed = fault_seed.unwrap_or(c.load.seed);
        Ok(Self {
            obs,
            check,
            config: c,
            workloads,
        })
    }
}

/// Splits `v` into a number of comma-separated fields within `count`.
fn fields<'a>(
    flag: &str,
    v: &'a str,
    count: std::ops::RangeInclusive<usize>,
    shape: &str,
) -> Result<Vec<&'a str>> {
    let f: Vec<&str> = v.split(',').map(str::trim).collect();
    if count.contains(&f.len()) {
        Ok(f)
    } else {
        Err(bad(flag, v, format!("expected {shape}")))
    }
}

/// The optional `IDX` field of a shard flag; instance 1 when absent.
fn instance(flag: &str, v: &str, idx: Option<&&str>) -> Result<usize> {
    idx.map_or(Ok(1), |s| {
        s.parse().map_err(|_| bad(flag, v, "IDX is not an integer"))
    })
}

/// `serve_cli`'s `--json` record.
#[must_use]
pub fn serve_record(config: &ServeConfig, report: &ServeReport, metrics: JsonValue) -> JsonValue {
    JsonValue::object(vec![
        ("config", config.array.to_json()),
        ("memory", config.memory.to_json()),
        ("seed", config.load.seed.to_json()),
        ("faults", config.faults.to_json()),
        ("report", report.to_json()),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use usystolic_serve::LoadGenConfig;

    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// Every `--flag` named anywhere in `text`.
    fn flags(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--") && t.len() > 2)
            .collect()
    }

    fn message(err: &CliError) -> &str {
        match err {
            CliError::Help => panic!("--help is not a malformed flag"),
            CliError::Usage(m) | CliError::Invalid(m) => m,
        }
    }

    fn ms_cycles(ms: f64) -> u64 {
        (ms * 1.0e-3 * CLOCK_HZ).round() as u64
    }

    /// `sim_cli` argv and what the binary builds from it, spelled with
    /// the constructors the binary called before it shared this layer.
    #[allow(clippy::type_complexity)]
    const SIM_ACCEPTED: &[(&str, fn(&SimArgs))] = &[
        ("--matmul 4,4,4", |a| {
            let sim = a.simulator().expect("valid");
            let ur8 = SystolicConfig::edge(ComputingScheme::UnaryRate, 8);
            assert_eq!(*sim.config(), ur8);
            assert_eq!(*sim.memory(), MemoryHierarchy::no_sram());
            assert_eq!(a.gemm, GemmConfig::matmul(4, 4, 4).ok());
            assert_eq!((a.instances, a.check), (None, false));
            assert_eq!(a.obs, ObsArgs::default());
            assert_eq!(a.device_faults(), Ok(None));
        }),
        ("--scheme BP --matmul 1,9216,4096", |a| {
            let (config, memory) = a.array.build().expect("valid");
            assert_eq!(
                config,
                SystolicConfig::edge(ComputingScheme::BinaryParallel, 8)
            );
            assert_eq!(memory, MemoryHierarchy::edge_with_sram());
        }),
        ("--scheme BS --shape cloud --matmul 4,4,4", |a| {
            let (config, memory) = a.array.build().expect("valid");
            assert_eq!(
                config,
                SystolicConfig::cloud(ComputingScheme::BinarySerial, 8)
            );
            assert_eq!(memory, MemoryHierarchy::cloud_with_sram());
        }),
        (
            "--scheme UG --bits 12 --sram --shape edge --matmul 4,4,4",
            |a| {
                let (config, memory) = a.array.build().expect("valid");
                assert_eq!(
                    config,
                    SystolicConfig::edge(ComputingScheme::UGemmHybrid, 12)
                );
                assert_eq!(memory, MemoryHierarchy::edge_with_sram());
            },
        ),
        ("--scheme BP --no-sram --matmul 4,4,4", |a| {
            assert_eq!(a.array.memory(), MemoryHierarchy::no_sram());
        }),
        ("--scheme UT --bits 6 --network vgg16", |a| {
            let (config, _) = a.array.build().expect("valid");
            assert_eq!(
                config,
                SystolicConfig::edge(ComputingScheme::UnaryTemporal, 6)
            );
            assert_eq!(a.network, Some(zoo::vgg16()));
        }),
        ("--cycles 128 --no-sram --conv 31,31,96,5,5,1,256", |a| {
            let (config, memory) = a.array.build().expect("valid");
            let ur = SystolicConfig::edge(ComputingScheme::UnaryRate, 8).with_mul_cycles(128);
            assert_eq!(Ok(config), ur);
            assert_eq!(memory, MemoryHierarchy::no_sram());
            assert_eq!(a.gemm, GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).ok());
        }),
        ("--network alexnet", |a| {
            assert_eq!(a.network, Some(zoo::alexnet()))
        }),
        ("--network resnet18", |a| {
            assert_eq!(a.network, Some(zoo::resnet18()))
        }),
        ("--network mnist --matmul 4,4,4", |a| {
            assert_eq!(a.network, Some(zoo::mnist_cnn4()));
            assert_eq!(a.gemm, GemmConfig::matmul(4, 4, 4).ok());
        }),
        ("--matmul 4,4,4 --instances 16", |a| {
            assert_eq!(a.instances, Some(16))
        }),
        (
            "--matmul 4,4,4 --trace t.json --metrics m.prom --metrics-format prom --report r.html",
            |a| {
                assert_eq!(a.obs.trace, Some("t.json".into()));
                assert_eq!(a.obs.metrics, Some("m.prom".into()));
                assert_eq!(a.obs.metrics_format, MetricsFormat::Prom);
                assert_eq!(a.obs.report_html, Some("r.html".into()));
                assert!(a.obs.observing() && !a.obs.json);
            },
        ),
        (
            "--matmul 4,4,4 --metrics m.json --metrics-format json --json",
            |a| {
                assert_eq!(a.obs.metrics_format, MetricsFormat::Json);
                assert!(a.obs.json);
            },
        ),
        (
            "--scheme UT --matmul 64,64,64 --fault-ber 1e-3 --fault-stuck 2,3,1 \
             --fault-stuck 0,0,0 --fault-seed 9",
            |a| {
                let stuck = |row, col, value| StuckAt { row, col, value };
                let faults = DeviceFaults::new(9)
                    .with_ber(1e-3)
                    .with_grid(12, 14)
                    .with_stuck(stuck(2, 3, true))
                    .with_stuck(stuck(0, 0, false));
                assert_eq!(a.device_faults(), Ok(Some(faults)));
            },
        ),
        ("--matmul 4,4,4 --shape cloud --fault-ber 0.5", |a| {
            let faults = DeviceFaults::new(1).with_ber(0.5).with_grid(256, 256);
            assert_eq!(a.device_faults(), Ok(Some(faults)));
        }),
        (
            "--check --scheme UR --acc-width 4 --acc-budget 0.01 --wiring independent \
             --fifo-depth 3 --cycles 256 --bits 0",
            |a| {
                let mut spec = RawSpec::new(12, 14, ComputingScheme::UnaryRate, 0)
                    .with_wiring(RngWiring::Independent);
                spec.mul_cycles = Some(256);
                spec.acc_width = Some(4);
                spec.fifo_depth = Some(3);
                assert_eq!(a.raw_spec(), spec);
                assert!(a.check);
                assert_eq!(a.acc_budget, Some(0.01));
            },
        ),
        ("--check --wiring shared --shape cloud", |a| {
            let spec = RawSpec::new(256, 256, ComputingScheme::UnaryRate, 8);
            assert_eq!(a.raw_spec(), spec.with_wiring(RngWiring::SharedDelayed));
        }),
        ("--check --wiring shared-delayed", |a| {
            assert_eq!(a.raw_spec().wiring, RngWiring::SharedDelayed);
        }),
    ];

    /// The configuration `serve_cli` built with no flags, spelled the way
    /// the binary computed it before it shared this layer.
    fn serve_default() -> (ServeConfig, Vec<Workload>) {
        let config = ServeConfig {
            array: SystolicConfig::edge(ComputingScheme::UnaryRate, 8),
            memory: MemoryHierarchy::no_sram(),
            instances: 1,
            queue_capacity: 64,
            max_batch: 8,
            workers: 1,
            duration_cycles: (0.01 * CLOCK_HZ).ceil() as u64,
            load: LoadGenConfig {
                process: ArrivalProcess::OpenPoisson {
                    mean_interarrival_cycles: CLOCK_HZ / 1000.0,
                },
                seed: 1,
                classes: 1,
                high_priority_fraction: 0.0,
                deadline_cycles: None,
            },
            faults: FleetFaultPlan {
                seed: 1,
                retry: RetryPolicy {
                    max_retries: 0,
                    backoff_base_cycles: ms_cycles(0.01).max(1),
                    jitter_permille: 0,
                },
                ..FleetFaultPlan::default()
            },
            fidelity: Fidelity::CycleAccurate,
        };
        let gemm = GemmConfig::matmul(64, 64, 64).expect("valid");
        (config, vec![Workload::from_gemm("matmul64,64,64", gemm)])
    }

    /// `serve_cli` argv and how each moves the binary's configuration
    /// away from [`serve_default`].
    #[allow(clippy::type_complexity)]
    const SERVE_ACCEPTED: &[(&str, fn(&mut ServeConfig, &mut Vec<Workload>))] = &[
        ("", |_, _| {}),
        ("--workers 4 --instances 3", |c, _| {
            c.workers = 4;
            c.instances = 3;
        }),
        ("--queue-depth 16 --max-batch 2", |c, _| {
            c.queue_capacity = 16;
            c.max_batch = 2;
        }),
        ("--arrival-rate 2000000 --duration 0.002", |c, _| {
            c.load.process = ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: CLOCK_HZ / 2_000_000.0,
            };
            c.duration_cycles = (0.002 * CLOCK_HZ).ceil() as u64;
        }),
        ("--closed-loop 16 --think 0.1", |c, _| {
            c.load.process = ArrivalProcess::ClosedLoop {
                clients: 16,
                think_cycles: (0.1 * CLOCK_HZ).round() as u64,
            };
        }),
        ("--think 0 --closed-loop 2", |c, _| {
            c.load.process = ArrivalProcess::ClosedLoop {
                clients: 2,
                think_cycles: 0,
            };
        }),
        ("--deadline 1.0 --hi-frac 0.25 --seed 7", |c, _| {
            c.load.deadline_cycles = Some(ms_cycles(1.0));
            c.load.high_priority_fraction = 0.25;
            c.load.seed = 7;
            c.faults.seed = 7;
        }),
        ("--deadline 1e300", |c, _| {
            c.load.deadline_cycles = Some(u64::MAX)
        }),
        (
            "--scheme UR --bits 12 --cycles 256 --shape cloud --sram",
            |c, _| {
                let ur12 = SystolicConfig::cloud(ComputingScheme::UnaryRate, 12);
                c.array = ur12.with_mul_cycles(256).expect("valid EBT");
                c.memory = MemoryHierarchy::cloud_with_sram();
            },
        ),
        ("--scheme BP --no-sram", |c, _| {
            c.array = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        }),
        ("--scheme BS", |c, _| {
            c.array = SystolicConfig::edge(ComputingScheme::BinarySerial, 8);
            c.memory = MemoryHierarchy::edge_with_sram();
        }),
        (
            "--network mnist --matmul 8,8,8 --conv 8,8,3,3,3,1,8",
            |c, w| {
                c.load.classes = 3;
                *w = vec![
                    Workload::from_network(&zoo::mnist_cnn4()),
                    Workload::from_gemm("matmul8,8,8", GemmConfig::matmul(8, 8, 8).expect("valid")),
                    Workload::from_gemm(
                        "conv8,8,3,3,3,1,8",
                        GemmConfig::conv(8, 8, 3, 3, 3, 1, 8).expect("valid"),
                    ),
                ];
            },
        ),
        ("--network alexnet", |_, w| {
            *w = vec![Workload::from_network(&zoo::alexnet())];
        }),
        (
            "--shard-fail 4,1 --shard-fail 2 --shard-slow 1,150 --shard-slow 3,50,2",
            |c, _| {
                c.faults.failures = vec![
                    ShardFailure {
                        at: ms_cycles(4.0),
                        instance: 1,
                    },
                    ShardFailure {
                        at: ms_cycles(2.0),
                        instance: 1,
                    },
                ];
                c.faults.slowdowns = vec![
                    ShardSlowdown {
                        at: ms_cycles(1.0),
                        instance: 1,
                        factor_percent: 150,
                    },
                    ShardSlowdown {
                        at: ms_cycles(3.0),
                        instance: 2,
                        factor_percent: 50,
                    },
                ];
            },
        ),
        (
            "--timeout 2 --retry-max 3 --retry-backoff 0.05 --retry-jitter 250 \
             --brownout 500,600 --shed-expired --fault-seed 11",
            |c, _| {
                c.faults.seed = 11;
                c.faults.timeout_cycles = Some(ms_cycles(2.0).max(1));
                c.faults.retry = RetryPolicy {
                    max_retries: 3,
                    backoff_base_cycles: ms_cycles(0.05).max(1),
                    jitter_permille: 250,
                };
                c.faults.brownout = Some(BrownoutPolicy {
                    depth_permille: 500,
                    service_permille: 600,
                });
                c.faults.shed_expired = true;
            },
        ),
        ("--timeout 1e-9 --timeout 1e300", |c, _| {
            c.faults.timeout_cycles = Some(u64::MAX);
        }),
        ("--retry-backoff 1e-9", |c, _| {
            c.faults.retry.backoff_base_cycles = 1
        }),
        ("--fidelity packed", |c, _| c.fidelity = Fidelity::Packed),
        ("--fidelity packed --fidelity cycle", |_, _| {}),
        ("--check --json", |_, _| {}),
        (
            "--trace t.json --metrics m.prom --metrics-format prom --report r.html",
            |_, _| {},
        ),
        ("--metrics m.json --metrics-format json", |_, _| {}),
    ];

    #[test]
    fn accepted_sim_argv_builds_the_binarys_configuration() {
        for (line, check) in SIM_ACCEPTED {
            let args = SimArgs::parse(argv(line)).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            check(&args);
        }
    }

    #[test]
    fn accepted_serve_argv_builds_the_binarys_configuration() {
        for (line, change) in SERVE_ACCEPTED {
            let args = ServeArgs::parse(argv(line)).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            let (mut config, mut workloads) = serve_default();
            change(&mut config, &mut workloads);
            assert_eq!(
                format!("{:?}", (&args.config, &args.workloads)),
                format!("{:?}", (&config, &workloads)),
                "serve_cli {line}"
            );
        }
        let args = ServeArgs::parse(argv("--check --json --trace t --report r")).expect("valid");
        assert!(args.check && args.obs.json && args.obs.observing());
        assert_eq!(args.obs.report_html, Some("r".into()));
    }

    #[test]
    fn accepted_tables_cover_every_flag_of_both_usage_texts() {
        let sim: String = SIM_ACCEPTED.iter().map(|(l, _)| format!("{l} ")).collect();
        let serve: String = SERVE_ACCEPTED
            .iter()
            .map(|(l, _)| format!("{l} "))
            .collect();
        assert_eq!(flags(SIM_USAGE), flags(&sim));
        assert_eq!(flags(SERVE_USAGE), flags(&serve));
    }

    /// Argv the binaries must reject with exit code 2, and the flag each
    /// message must name.
    const SIM_MALFORMED: &[(&str, &str)] = &[
        ("--bits 0 --matmul 4,4,4", "--bits 0"),
        ("--bits 1 --matmul 4,4,4", "--bits 1"),
        ("--bits 40 --matmul 4,4,4", "--bits 40"),
        ("--bits x --matmul 4,4,4", "--bits x: not an integer"),
        ("--cycles 300 --matmul 4,4,4", "--cycles 300"),
        ("--cycles -1 --matmul 4,4,4", "--cycles -1: not an integer"),
        (
            "--cycles 3 --matmul 4,4,4",
            "--cycles 3: bad early termination: multiply cycles 3 must be a power of two in 1..=128",
        ),
        (
            "--cycles 256 --matmul 4,4,4",
            "multiply cycles 256 must be a power of two in 1..=128",
        ),
        (
            "--scheme XX --matmul 4,4,4",
            "--scheme XX: expected BP, BS, UG, UR or UT",
        ),
        (
            "--shape huge --matmul 4,4,4",
            "--shape huge: expected edge or cloud",
        ),
        ("--conv 1,2", "--conv 1,2: expected 7"),
        ("--matmul 4,x,4", "--matmul 4,x,4: 'x'"),
        ("--matmul 0,4,4", "--matmul 0,4,4"),
        (
            "--matmul 100000000,100000000,100000000",
            "--matmul 100000000,100000000,100000000",
        ),
        ("--network lenet", "--network lenet"),
        ("--instances 0 --matmul 4,4,4", "--instances 0"),
        ("--instances x --matmul 4,4,4", "--instances x"),
        (
            "--matmul 4,4,4 --fidelity packed",
            "unknown flag --fidelity",
        ),
        (
            "--metrics-format bogus --matmul 4,4,4",
            "--metrics-format bogus",
        ),
        ("--check --acc-width x", "--acc-width x: not an integer"),
        ("--check --acc-budget -1", "--acc-budget -1"),
        ("--check --acc-budget nan", "--acc-budget nan"),
        ("--check --acc-budget x", "--acc-budget x: not a number"),
        ("--check --wiring loose", "--wiring loose"),
        ("--check --fifo-depth -3", "--fifo-depth -3: not an integer"),
        ("--matmul 4,4,4 --acc-width 1", "--acc-width configures"),
        ("--matmul 4,4,4 --acc-budget 0.5", "--acc-budget configures"),
        ("--matmul 4,4,4 --wiring independent", "--wiring configures"),
        ("--matmul 4,4,4 --fifo-depth 0", "--fifo-depth configures"),
        ("--matmul 4,4,4 --fault-ber 1.5", "--fault-ber 1.5"),
        ("--matmul 4,4,4 --fault-ber nan", "--fault-ber nan"),
        ("--matmul 4,4,4 --fault-stuck 2,3,7", "--fault-stuck 2,3,7"),
        ("--matmul 4,4,4 --fault-stuck 2,3", "--fault-stuck 2,3"),
        ("--matmul 4,4,4 --fault-stuck 99,99,1", "--fault-stuck"),
        ("--matmul 4,4,4 --fault-seed x", "--fault-seed x"),
        ("--matmul", "--matmul requires a value"),
        ("--check --trace", "--trace requires a value"),
        ("--matmul 4,4,4 --bogus", "unknown flag --bogus"),
        ("--json", "--conv, --matmul or --network"),
    ];

    const SERVE_MALFORMED: &[(&str, &str)] = &[
        ("--bits 0", "--bits 0"),
        ("--bits 40", "--bits 40"),
        ("--check --bits 0", "--bits 0"),
        ("--cycles 300", "--cycles 300"),
        (
            "--cycles 3",
            "--cycles 3: bad early termination: multiply cycles 3 must be a power of two in 1..=128",
        ),
        (
            "--cycles 256 --bits 8",
            "multiply cycles 256 must be a power of two in 1..=128",
        ),
        ("--scheme XX", "--scheme XX"),
        ("--closed-loop 0", "--closed-loop 0"),
        ("--closed-loop x", "--closed-loop x"),
        (
            "--closed-loop 2 --arrival-rate 5",
            "--closed-loop and --arrival-rate",
        ),
        ("--arrival-rate 0", "--arrival-rate 0"),
        ("--arrival-rate x", "--arrival-rate x: not a number"),
        ("--deadline -1", "--deadline -1"),
        ("--deadline nan", "--deadline nan"),
        ("--deadline inf", "--deadline inf"),
        ("--deadline x", "--deadline x: not a number"),
        ("--think -1", "--think -1"),
        ("--think nan", "--think nan"),
        ("--duration 0", "--duration 0"),
        ("--duration -1", "--duration -1"),
        ("--timeout 0", "--timeout 0"),
        ("--timeout nan", "--timeout nan"),
        ("--retry-backoff 0", "--retry-backoff 0"),
        ("--retry-backoff -1", "--retry-backoff -1"),
        ("--shard-fail -1", "--shard-fail -1"),
        ("--shard-fail nan,1", "--shard-fail nan"),
        ("--shard-fail 4,x", "--shard-fail 4,x: IDX"),
        ("--shard-fail 1,2,3", "--shard-fail 1,2,3"),
        ("--shard-slow 1", "--shard-slow 1"),
        ("--shard-slow 1,x", "--shard-slow 1,x: PCT"),
        ("--shard-slow -1,150", "--shard-slow -1"),
        ("--brownout 1", "--brownout 1"),
        ("--brownout 1,x", "--brownout 1,x"),
        ("--hi-frac 2", "--hi-frac 2"),
        ("--workers x", "--workers x: not an integer"),
        ("--instances -1", "--instances -1: not an integer"),
        ("--queue-depth x", "--queue-depth x"),
        ("--max-batch x", "--max-batch x"),
        ("--seed x", "--seed x"),
        ("--retry-max x", "--retry-max x"),
        ("--retry-jitter -5", "--retry-jitter -5"),
        ("--fault-seed x", "--fault-seed x"),
        ("--fidelity warp", "--fidelity warp"),
        ("--fidelity analytic", "--fidelity analytic"),
        ("--network lenet", "--network lenet"),
        ("--conv 1,2", "--conv 1,2"),
        ("--matmul 4,4", "--matmul 4,4"),
        (
            "--matmul 100000000,100000000,100000000 --duration 0.001",
            "--matmul 100000000,100000000,100000000",
        ),
        ("--metrics-format bogus", "--metrics-format bogus"),
        ("--deadline", "--deadline requires a value"),
        ("--bogus", "unknown flag --bogus"),
    ];

    #[test]
    fn malformed_argv_is_an_error_naming_the_flag() {
        for (line, needle) in SIM_MALFORMED {
            // The simulator and the fault model build after parsing, as
            // in the binary.
            let args = SimArgs::parse(argv(line));
            let built = args.and_then(|a| a.simulator().and_then(|_| a.device_faults()));
            let err = built.expect_err(line);
            assert!(message(&err).contains(needle), "sim_cli {line}: {err:?}");
        }
        for (line, needle) in SERVE_MALFORMED {
            let err = ServeArgs::parse(argv(line)).expect_err(line);
            assert!(message(&err).contains(needle), "serve_cli {line}: {err:?}");
        }
        for help in ["--help", "-h"] {
            assert_eq!(SimArgs::parse(argv(help)), Err(CliError::Help));
            assert!(matches!(ServeArgs::parse(argv(help)), Err(CliError::Help)));
        }
    }

    #[test]
    fn sim_check_keeps_unsupported_bitwidths_for_the_analyzer() {
        // `--check` reports a bad width through the analyzer (exit 1), so
        // parsing accepts it and only the simulator build rejects it.
        let args = SimArgs::parse(argv("--check --bits 0")).expect("parses");
        assert_eq!(args.raw_spec().bitwidth, 0);
        assert!(args.simulator().is_err());
    }

    #[test]
    fn bench_args_share_short_out_and_extra_flags() {
        let mut seed = 0;
        let parsed = bench_args(
            argv("--seed 5 --short --out x.json"),
            "B.json",
            |flag, a| {
                if flag == "--seed" {
                    seed = a.int()?;
                }
                Ok(flag == "--seed")
            },
        );
        assert_eq!(parsed, Ok((true, "x.json".to_owned())));
        assert_eq!(seed, 5);
        let none = |_: &str, _: &mut Argv| Ok(false);
        assert_eq!(
            bench_args(argv(""), "B.json", none),
            Ok((false, "B.json".into()))
        );
        let err = bench_args(argv("--out"), "B.json", none).expect_err("no path");
        assert!(message(&err).contains("--out requires a value"));
        let err = bench_args(argv("--seed 5"), "B.json", none).expect_err("unknown");
        assert!(message(&err).contains("unknown flag --seed"));
    }

    #[test]
    fn time_flags_share_one_conversion() {
        assert_eq!(
            time_cycles("--think", "0.1", 1.0, Time::Instant),
            Ok(40_000_000)
        );
        assert_eq!(time_cycles("--deadline", "0", MS, Time::Instant), Ok(0));
        assert_eq!(time_cycles("--timeout", "1e-9", MS, Time::Timer), Ok(1));
        assert_eq!(
            time_cycles("--duration", "1e-12", 1.0, Time::Horizon),
            Ok(1)
        );
        assert_eq!(
            time_cycles("--shard-fail", "1e300", MS, Time::Instant),
            Ok(u64::MAX)
        );
        for (v, kind) in [
            ("0", Time::Timer),
            ("0", Time::Horizon),
            ("-0.5", Time::Instant),
        ] {
            assert!(time_cycles("--t", v, MS, kind).is_err(), "{v} {kind:?}");
        }
    }
}
