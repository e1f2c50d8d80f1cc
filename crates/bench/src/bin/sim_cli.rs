//! A command-line front end in the spirit of the released uSystolic-Sim:
//! pick a computing scheme, an array shape, a memory hierarchy and a
//! layer, and get the full evaluation record.
//!
//! ```sh
//! cargo run --release -p usystolic-bench --bin sim_cli -- \
//!     --scheme UR --cycles 128 --shape edge --no-sram \
//!     --conv 31,31,96,5,5,1,256
//! cargo run --release -p usystolic-bench --bin sim_cli -- \
//!     --scheme BP --shape cloud --matmul 1,9216,4096
//! cargo run --release -p usystolic-bench --bin sim_cli -- --network alexnet
//! ```
//!
//! Observability (all optional, zero overhead when absent):
//!
//! ```sh
//! sim_cli --scheme UR --cycles 128 --no-sram --conv 31,31,96,5,5,1,256 \
//!     --trace /tmp/t.json --metrics /tmp/m.json --json
//! ```
//!
//! `--trace` writes a Chrome `trace_event` file (open in
//! `chrome://tracing` or Perfetto), `--metrics` a counters/gauges/
//! histograms snapshot, and `--json` replaces the human-readable report
//! with the full evaluation record as structured JSON on stdout.
//!
//! Static analysis (`--check`): validate a configuration against the
//! paper's invariants *without* running anything. The raw knob values go
//! straight to `usystolic_analyze` — including values the simulator's
//! constructors would reject — and every violation is reported with a
//! stable `USYxxx` code. Exits 1 when any error-severity diagnostic
//! fires, 0 otherwise.
//!
//! ```sh
//! sim_cli --check --scheme UR --acc-width 4           # USY020: overflow
//! sim_cli --check --scheme UR --cycles 256            # USY011: n > N
//! sim_cli --check --scheme UR --wiring independent    # USY030: SCC != 0
//! sim_cli --check --scheme BP --no-sram --conv 27,27,96,5,5,1,256
//!                                                     # USY050: bandwidth
//! ```

use std::process::ExitCode;

use usystolic_analyze::{analyze, analyze_network, NetworkAnalysis, Report};
use usystolic_bench::cli::{self, sim_record, CliError, SimArgs};
use usystolic_bench::faults::nrmse;
use usystolic_core::ComputingScheme;
use usystolic_faults::{
    faulty_binary_gemm, faulty_unary_gemm, DeviceFaults, FaultKernel, FaultReport, GemmShape,
};
use usystolic_gemm::GemmConfig;
use usystolic_hw::evaluate_layer_with;
use usystolic_hw::summary::NetworkEvaluation;
use usystolic_obs::{JsonValue, ToJson};
use usystolic_sim::{MultiInstanceSystem, ScalingReport};
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::SplitMix64;
use usystolic_unary::stream_len;

/// The `--check` mode: static analysis of the raw knob values, no
/// simulation. Exit code 1 when any error-severity diagnostic fires.
fn run_check(args: &SimArgs) -> ExitCode {
    let spec = args.raw_spec();
    let memory = args.array.memory();

    // Spec-only checks, plus workload/memory checks per GEMM layer.
    let network = args.network.as_ref();
    let gemms: Vec<GemmConfig> = match (&args.gemm, network) {
        (Some(g), _) => vec![*g],
        (None, Some(net)) => net.gemms(),
        (None, None) => Vec::new(),
    };
    let mut report = if gemms.is_empty() {
        analyze(&spec, None, Some(&memory))
    } else {
        let mut merged = Report::default();
        for gemm in &gemms {
            for d in analyze(&spec, Some(gemm), Some(&memory)).diagnostics {
                if !merged.diagnostics.contains(&d) {
                    merged.diagnostics.push(d);
                }
            }
        }
        merged
    };
    // Whole-network abstract interpretation: calibrated ranges, composed
    // ET error. Only meaningful when a full network is on the table.
    let interp: Option<NetworkAnalysis> =
        network.map(|net| analyze_network(&spec, net, args.acc_budget));
    if let Some(na) = &interp {
        // Calibrated ranges subsume the worst-case width rule: when the
        // interpreter proves every layer overflow-free, the coarse
        // USY020 rejection is withdrawn in favour of the USY060 notes.
        if !na.layers.is_empty() && !na.report.has("USY061") {
            report.diagnostics.retain(|d| d.code != "USY020");
        }
        for d in &na.report.diagnostics {
            if !report.diagnostics.contains(d) {
                report.diagnostics.push(d.clone());
            }
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (a.code, &a.message).cmp(&(b.code, &b.message)));

    if args.obs.json {
        let mut json = report.to_json();
        if let (JsonValue::Object(pairs), Some(na)) = (&mut json, &interp) {
            pairs.push(("network".to_owned(), na.to_json()));
        }
        println!("{}", json.render());
    } else {
        println!(
            "check: {}x{} {} {}b, wiring {}, {}",
            spec.rows,
            spec.cols,
            spec.scheme.label(),
            spec.bitwidth,
            spec.wiring,
            if args.array.no_sram() {
                "DRAM only"
            } else {
                "SRAM + DRAM"
            }
        );
        if let Some(na) = &interp {
            if !na.layers.is_empty() {
                println!(
                    "\n{:<8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>6} {:>10}",
                    "layer",
                    "in_lv",
                    "w_lv",
                    "depth",
                    "window",
                    "acc bound",
                    "capacity",
                    "worst",
                    "et error"
                );
                for l in &na.layers {
                    println!(
                        "{:<8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>6} {:>10.3e}",
                        l.name,
                        l.input_levels,
                        l.weight_levels,
                        l.depth,
                        l.window_bound,
                        l.acc_bound,
                        l.acc_capacity,
                        l.worst_case_width,
                        l.et_rel_error
                    );
                }
                match args.acc_budget {
                    Some(b) => println!(
                        "composed ET error bound {:.3e} vs budget {b}\n",
                        na.composed_et_error
                    ),
                    None => println!(
                        "composed ET error bound {:.3e} (no --acc-budget given)\n",
                        na.composed_et_error
                    ),
                }
            }
        }
        println!("{report}");
    }
    ExitCode::from(u8::from(!report.is_legal()))
}

/// Outcome of the seeded device-fault characterization: both unary
/// kernels and the binary baseline on the same sub-sampled GEMM window,
/// each compared against its own quiet (fault-free) run.
struct FaultCharacterization {
    faults: DeviceFaults,
    shape: GemmShape,
    coding: Coding,
    serial: FaultReport,
    packed: FaultReport,
    binary: FaultReport,
    unary_nrmse: f64,
    binary_nrmse: f64,
    kernels_agree: bool,
}

/// Runs the characterization. The layer's GEMM is sub-sampled to at most
/// an 8×16×8 window so the bit-level simulation stays tractable on full
/// layers; the fault model's `(seed, window, cycle)` determinism is
/// untouched by the sampling.
fn fault_characterization(
    args: &SimArgs,
    faults: DeviceFaults,
    gemm: &GemmConfig,
) -> cli::Result<FaultCharacterization> {
    let shape = GemmShape {
        m: gemm.output_pixels().min(8),
        k: gemm.reduction_len().min(16),
        n: gemm.output_channels().min(8),
    };
    // The array group already held the bitwidth to 2..=MAX_BITWIDTH.
    let bitwidth = args.array.bitwidth;
    let hi = (stream_len(bitwidth) - 1).cast_signed();
    let mut rng = SplitMix64::new(faults.seed);
    let a: Vec<i64> = (0..shape.m * shape.k)
        .map(|_| rng.range_i64(-hi, hi))
        .collect();
    let b: Vec<i64> = (0..shape.k * shape.n)
        .map(|_| rng.range_i64(-hi, hi))
        .collect();
    let coding = match args.array.scheme {
        ComputingScheme::UnaryTemporal => Coding::Temporal,
        _ => Coding::Rate,
    };
    let quiet = DeviceFaults::new(faults.seed).with_grid(faults.rows, faults.cols);
    let injection = |e| format!("fault injection: {e}");
    let run_unary = |model: &DeviceFaults, kernel: FaultKernel| {
        faulty_unary_gemm(&a, &b, shape, bitwidth, coding, model, kernel).map_err(injection)
    };
    let run_binary = |model: &DeviceFaults| {
        faulty_binary_gemm(&a, &b, shape, bitwidth, model).map_err(injection)
    };
    let unary_clean = run_unary(&quiet, FaultKernel::Packed)?;
    let binary_clean = run_binary(&quiet)?;
    let serial = run_unary(&faults, FaultKernel::Serial)?;
    let packed = run_unary(&faults, FaultKernel::Packed)?;
    let binary = run_binary(&faults)?;
    Ok(FaultCharacterization {
        faults,
        shape,
        coding,
        unary_nrmse: nrmse(&packed, &unary_clean),
        binary_nrmse: nrmse(&binary, &binary_clean),
        kernels_agree: serial == packed,
        serial,
        packed,
        binary,
    })
}

impl FaultCharacterization {
    fn kernel_json(report: &FaultReport, error: f64) -> JsonValue {
        JsonValue::object(vec![
            ("transient_flips", report.transient_flips.to_json()),
            ("stuck_windows", report.stuck_windows.to_json()),
            ("corrupted_words", report.corrupted_words.to_json()),
            ("checksum", report.checksum().to_json()),
            ("nrmse", error.to_json()),
        ])
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seed", self.faults.seed.to_json()),
            ("ber", self.faults.ber.to_json()),
            ("stuck", self.faults.stuck.to_json()),
            ("coding", self.coding.to_string().to_json()),
            (
                "shape",
                JsonValue::object(vec![
                    ("m", (self.shape.m as u64).to_json()),
                    ("k", (self.shape.k as u64).to_json()),
                    ("n", (self.shape.n as u64).to_json()),
                ]),
            ),
            ("kernels_agree", self.kernels_agree.to_json()),
            (
                "unary_serial",
                Self::kernel_json(&self.serial, self.unary_nrmse),
            ),
            (
                "unary_packed",
                Self::kernel_json(&self.packed, self.unary_nrmse),
            ),
            ("binary", Self::kernel_json(&self.binary, self.binary_nrmse)),
        ])
    }

    fn print_human(&self) {
        println!(
            "\nfault injection  seed {} BER {:.2e} stuck {} ({} coding, {}x{}x{} window)",
            self.faults.seed,
            self.faults.ber,
            self.faults.stuck.len(),
            self.coding,
            self.shape.m,
            self.shape.k,
            self.shape.n
        );
        println!(
            "  unary ({} = packed: {})  flips {:>6}  stuck windows {:>4}  nrmse {:.4}",
            FaultKernel::Serial,
            self.kernels_agree,
            self.packed.transient_flips,
            self.packed.stuck_windows,
            self.unary_nrmse
        );
        println!(
            "  binary baseline        flips {:>6}  stuck windows {:>4}  nrmse {:.4}",
            self.binary.transient_flips, self.binary.stuck_windows, self.binary_nrmse
        );
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| cli::fail("sim_cli", cli::SIM_USAGE, &e))
}

/// Parses argv, then checks or simulates.
fn run() -> cli::Result<ExitCode> {
    let args = SimArgs::parse(std::env::args().skip(1))?;
    if args.check {
        return Ok(run_check(&args));
    }
    let sim = args.simulator()?;
    let (config, memory) = (*sim.config(), *sim.memory());

    // Collect traces/metrics only when asked for: with no session the
    // instrumented hot paths stay allocation-free.
    if args.obs.observing() {
        usystolic_obs::install(usystolic_obs::Session::new());
    }

    if !args.obs.json {
        println!("array:  {config}");
        println!(
            "memory: {}",
            if args.array.no_sram() {
                "DRAM only (SRAM eliminated)"
            } else {
                "SRAM + DRAM"
            }
        );
    }

    // Device faults characterize on the layer, or the network's first one.
    let characterization = match args.device_faults()? {
        Some(f) => {
            let gemm = args
                .gemm
                .or_else(|| args.network.as_ref()?.gemms().first().copied());
            let gemm = gemm.ok_or_else(|| "fault injection: network has no layers".to_owned())?;
            Some(fault_characterization(&args, f, &gemm)?)
        }
        None => None,
    };

    if let Some(gemm) = args.gemm {
        let ev = evaluate_layer_with(&sim, &gemm);
        let scaling = args
            .instances
            .map(|n| MultiInstanceSystem::new(config, memory).scale(&gemm, n));
        if let Some(session) = usystolic_obs::take() {
            args.obs.export_session("sim_cli", &session)?;
        }
        if args.obs.json {
            let mut pairs = sim_record(&sim, ("gemm", gemm.to_json()), ev.to_json());
            if let Some(s) = &scaling {
                pairs.push(("scaling", s.to_json()));
            }
            if let Some(c) = &characterization {
                pairs.push(("faults", c.to_json()));
            }
            println!("{}", JsonValue::object(pairs).render());
            return Ok(ExitCode::SUCCESS);
        }
        println!("layer:  {gemm}\n");
        println!(
            "runtime          {:>12.6} s  ({} cycles, {:.1}% stall)",
            ev.report.runtime_s,
            ev.report.timing.runtime_cycles,
            100.0 * ev.report.timing.overhead()
        );
        println!(
            "throughput       {:>12.3} layers/s",
            ev.report.throughput_per_s
        );
        println!(
            "DRAM bandwidth   {:>12.3} GB/s",
            ev.report.dram_bandwidth_gbps
        );
        println!(
            "SRAM bandwidth   {:>12.3} GB/s",
            ev.report.sram_bandwidth_gbps
        );
        println!("utilization      {:>12.1} %", 100.0 * ev.report.utilization);
        println!(
            "on-chip energy   {:>12.3} uJ",
            ev.energy.on_chip_j() * 1.0e6
        );
        println!("total energy     {:>12.3} uJ", ev.energy.total_j() * 1.0e6);
        println!("on-chip power    {:>12.3} mW", ev.power.on_chip_w() * 1.0e3);
        println!("total power      {:>12.3} mW", ev.power.total_w() * 1.0e3);
        println!("on-chip area     {:>12.3} mm2", ev.area.total_mm2());
        if let Some(s) = &scaling {
            println!("\n{}", scaling_line(s));
        }
        if let Some(c) = &characterization {
            c.print_human();
        }
        return Ok(ExitCode::SUCCESS);
    }

    let network = args.network.as_ref().ok_or(CliError::Help)?;
    let ev = NetworkEvaluation::evaluate_with(&sim, &network.gemms());
    let scaling: Vec<(String, ScalingReport)> = match args.instances {
        Some(n) => {
            let sys = MultiInstanceSystem::new(config, memory);
            network
                .layers
                .iter()
                .zip(network.gemms())
                .map(|(layer, gemm)| (layer.name.clone(), sys.scale(&gemm, n)))
                .collect()
        }
        None => Vec::new(),
    };
    if let Some(session) = usystolic_obs::take() {
        args.obs.export_session("sim_cli", &session)?;
    }
    if args.obs.json {
        let mut pairs = sim_record(&sim, ("network", network.to_json()), ev.to_json());
        let scaling_json: Vec<JsonValue> = scaling
            .iter()
            .map(|(name, s)| {
                let mut obj = s.to_json();
                if let JsonValue::Object(p) = &mut obj {
                    p.insert(0, ("layer".to_owned(), name.to_json()));
                }
                obj
            })
            .collect();
        if !scaling_json.is_empty() {
            pairs.push(("scaling", JsonValue::Array(scaling_json)));
        }
        if let Some(c) = &characterization {
            pairs.push(("faults", c.to_json()));
        }
        println!("{}", JsonValue::object(pairs).render());
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "network: {} ({} GEMM layers, {} parameters)\n",
        network.name,
        network.layers.len(),
        network.parameters()
    );
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "layer", "runtime s", "on-chip uJ", "total uJ"
    );
    for (layer, l) in network.layers.iter().zip(&ev.layers) {
        println!(
            "{:<10} {:>12.6} {:>14.3} {:>14.3}",
            layer.name,
            l.report.runtime_s,
            l.energy.on_chip_j() * 1.0e6,
            l.energy.total_j() * 1.0e6
        );
    }
    println!(
        "\ninference runtime    {:>12.6} s ({:.2} inf/s, {:.1} GOPS)",
        ev.runtime_s,
        ev.inferences_per_s(),
        ev.gops()
    );
    println!(
        "on-chip energy       {:>12.3} mJ ({:.0} inf per on-chip J)",
        ev.on_chip_j * 1.0e3,
        ev.inferences_per_on_chip_joule()
    );
    println!("total energy         {:>12.3} mJ", ev.total_j * 1.0e3);
    println!(
        "avg on-chip power    {:>12.3} mW",
        ev.on_chip_power_w() * 1.0e3
    );
    println!(
        "avg total power      {:>12.3} mW",
        ev.total_power_w() * 1.0e3
    );
    if !scaling.is_empty() {
        println!();
        for (name, s) in &scaling {
            println!("{name:<10} {}", scaling_line(s));
        }
    }
    if let Some(c) = &characterization {
        c.print_human();
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable line of a [`ScalingReport`].
fn scaling_line(s: &ScalingReport) -> String {
    format!(
        "scaling x{}: {:.3} layers/s aggregate, {:.1}% efficiency{}",
        s.instances,
        s.aggregate_throughput,
        100.0 * s.scaling_efficiency,
        if s.dram_limited { ", DRAM-limited" } else { "" }
    )
}
