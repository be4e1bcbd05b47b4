//! The tsp-rs repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path repobench/Cargo.toml -- --repro [--hw 32]
//! ```
//!
//! Workloads: `resnet50-functional`, `resnet-timing-ladder`,
//! `serve-smallcnn-chaos` (see README.md). Human-readable lines come first;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A failed hard
//! check prints its reason to standard error and exits with code 1 without
//! a result line; bad arguments exit with code 2.

mod metrics;
mod provenance;
mod resnet;
mod serve;
mod spans;
mod speed;

use std::path::PathBuf;

use tsp_nn::compile::CompiledModel;
use tsp_nn::graph::Graph;
use tsp_sim::RunReport;

use metrics::{Results, Tally, END_TO_END, PER_LAYER};
use spans::Recorder;
use speed::{Piece, Samples, Speed};

/// The nominal TSP clock (paper §IV), for rates in simulated seconds.
pub const CLOCK_HZ: f64 = 900e6;

/// One workload run's state.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of the timed loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Host-time spans (recording only when traced).
    pub spans: Recorder,
    /// Counted failures.
    pub tally: Tally,
    /// Measured values.
    pub results: Results,
    /// Instructions + NOPs of every `sim.dispatch` run, for the host
    /// nanoseconds per instruction.
    pub dispatched_instructions: u64,
    /// Host-speed calibration, run before every timed sample.
    pub speed: Speed,
    /// Raw (unscaled) values of the host-time metrics, for the record.
    raw_times: Vec<String>,
}

impl Run {
    /// A fresh run.
    #[must_use]
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Run {
        Run {
            seed,
            seconds,
            traced,
            spans: Recorder::new(traced),
            tally: Tally::default(),
            results: Results::default(),
            dispatched_instructions: 0,
            speed: Speed::new(),
            raw_times: Vec::new(),
        }
    }

    /// Sets host-time metric `name` to the median of `samples`, scaled to
    /// reference speed.
    pub fn set_median(&mut self, name: &'static str, samples: &Samples) {
        self.results.set(name, samples.median(), samples.len());
        self.raw_times
            .push(format!("{name} {:.6}", samples.raw_median()));
    }

    /// Sets host-time metric `name` to the seconds `samples` took per
    /// 1,000 of `units`, scaled to reference speed.
    pub fn set_per_kilo(&mut self, name: &'static str, samples: &Samples, units: usize) {
        let per = 1000.0 / units as f64;
        self.results.set(name, samples.sum() * per, units);
        self.raw_times
            .push(format!("{name} {:.6}", samples.raw_sum() * per));
    }

    /// Runs the calibration kernel once; call before every timed sample.
    pub fn calibrate(&mut self) {
        let span = self.spans.open("bench.calibrate");
        self.speed.calibrate();
        self.spans.close(span);
    }

    /// Runs `f` as one timed piece of `sample`: calibrate, then time `f`
    /// inside span `span`.
    pub fn piece<T>(&mut self, span: &'static str, sample: &mut Piece, f: impl FnOnce() -> T) -> T {
        self.calibrate();
        let t = std::time::Instant::now();
        let out = self.spans.time(span, f);
        self.speed.add(sample, t.elapsed().as_secs_f64());
        out
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let v = self.results.get(name).unwrap_or(0.0);
        self.results.set(name, v + value, 1);
    }

    /// Adds a compiled model's static counts: instructions and the
    /// predicted cycles per op kind. Layer spans end in schedule order, so
    /// `[previous end, end)` partitions the run; the drain after the last
    /// layer is charged to it.
    pub fn note_model(&mut self, graph: &Graph, model: &CompiledModel) {
        let instructions: usize = model.program.queues().map(|(_, q)| q.len()).sum();
        self.add("compiler.instructions", instructions as f64);
        let mut previous = 0;
        let last = model.layer_spans.len().saturating_sub(1);
        for (i, span) in model.layer_spans.iter().enumerate() {
            let end = if i == last { model.cycles } else { span.end };
            let width = end.saturating_sub(previous);
            previous = previous.max(end);
            let kind = graph
                .nodes
                .iter()
                .find(|n| n.name == span.name)
                .map_or("input", |n| resnet::op_kind(&n.op));
            let metric = PER_LAYER
                .iter()
                .find(|(name, _)| name.strip_prefix("compiler.cycles.") == Some(kind));
            let Some(&(metric, _)) = metric else { continue };
            self.add(metric, width as f64);
        }
    }

    /// Adds one simulated run's counters (summed over a ladder pass).
    pub fn note_report(&mut self, r: &RunReport) {
        let t = &r.telemetry;
        self.add("sim.instructions", r.instructions as f64);
        self.add("sim.nops", r.nops as f64);
        self.add("sim.mxm_waves", t.macc_waves() as f64);
        self.add("sim.vxm_issues", t.vxm_issue_total() as f64);
        self.add("sim.sram_reads", t.sram_reads.iter().sum::<u64>() as f64);
        self.add("sim.sram_writes", t.sram_writes.iter().sum::<u64>() as f64);
    }

    /// Records the largest gap between prediction and simulation.
    pub fn note_prediction(&mut self, predicted: u64, simulated: u64) {
        let e = predicted.abs_diff(simulated) as f64;
        let v = self
            .results
            .get("compiler.prediction_error_cycles")
            .unwrap_or(0.0);
        self.results
            .set("compiler.prediction_error_cycles", v.max(e), 1);
    }
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a non-empty sample (sorts it).
pub fn p50_p99(values: &mut [u64]) -> (u64, u64) {
    values.sort_unstable();
    (percentile(values, 0.50), percentile(values, 0.99))
}

/// SplitMix64 of `a` and `b`: derived seeds for windows and chaos.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: bool,
    hw: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repro: false,
        hw: 32,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--repro" {
            args.repro = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--hw" => args.hw = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.repro && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Per-layer metrics derived from the span tree: mean self time per call
/// of each layer span, the dispatch/data-path split, counter overhead,
/// and the tiling of the run's wall time.
fn span_metrics(run: &mut Run, wall_ns: u64) -> Result<(), String> {
    let spans = run.spans.spans();
    let by_name = spans::self_by_name(spans);
    let mean = |name: &str| {
        by_name
            .get(name)
            .map(|&(calls, ns)| (ns as f64 / calls as f64 / 1e9, calls as usize))
    };
    let r = &mut run.results;
    for (span, metric) in [
        ("nn.graph", "nn.graph_s"),
        ("nn.quantize", "nn.quantize_s"),
        ("nn.emplace", "nn.emplace_s"),
        ("nn.readout", "nn.readout_s"),
        ("nn.reference", "nn.reference_s"),
        ("compiler.compile", "compiler.compile_s"),
        ("isa.decode", "isa.decode_s"),
        ("sim.dispatch", "sim.dispatch_s"),
        ("serve.loop", "serve.loop_s"),
        ("serve.verify", "serve.verify_s"),
    ] {
        if let Some((s, n)) = mean(span) {
            r.set(metric, s, n);
        }
    }
    if let (Some((f, n)), Some((d, _))) = (mean("sim.functional"), mean("sim.dispatch")) {
        r.set("sim.datapath_s", f - d, n);
    }
    if let Some(&(calls, ns)) = by_name.get("sim.dispatch") {
        if run.dispatched_instructions > 0 {
            r.set(
                "sim.host_ns_per_instruction",
                ns as f64 / run.dispatched_instructions as f64,
                calls as usize,
            );
        }
    }
    for (on, off) in [
        ("sim.functional", "sim.functional_nocounters"),
        ("sim.dispatch", "sim.dispatch_nocounters"),
    ] {
        if let (Some((a, n)), Some((b, _))) = (mean(on), mean(off)) {
            r.set("sim.counters_overhead", a / b - 1.0, n);
            break;
        }
    }

    let spanned: u64 = by_name.values().map(|&(_, ns)| ns).sum();
    let unspanned = spans::unspanned(spans, wall_ns);
    if spanned + unspanned != wall_ns {
        return Err(format!(
            "span self times {spanned} ns + unspanned {unspanned} ns != wall {wall_ns} ns"
        ));
    }
    // Price of the recorder itself: an open/close pair timed in isolation,
    // times the number of spans this run recorded.
    let mut probe = Recorder::new(true);
    let reps = 20_000u32;
    let t = std::time::Instant::now();
    for _ in 0..reps {
        let s = probe.open("probe");
        probe.close(s);
    }
    let per_span = t.elapsed().as_secs_f64() / f64::from(reps);
    let overhead = per_span * spans.len() as f64;
    let wall = wall_ns as f64 / 1e9;
    r.set("bench.wall_s", wall, 1);
    r.set("bench.spanned_s", spanned as f64 / 1e9, spans.len());
    r.set("bench.unspanned_s", unspanned as f64 / 1e9, 1);
    r.set("bench.trace_overhead_s", overhead, spans.len());
    r.set("bench.trace_overhead_share", overhead / wall, spans.len());

    println!("# traced run: self time per span (s), calls, share of wall");
    for (name, (calls, ns)) in &by_name {
        println!(
            "#   {name:<28} {:>12.6} {calls:>6} {:>7.2}%",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / wall_ns as f64
        );
    }
    println!(
        "#   {:<28} {:>12.6}        {:>7.2}%",
        "(outside any span)",
        unspanned as f64 / 1e9,
        100.0 * unspanned as f64 / wall_ns as f64
    );
    Ok(())
}

/// Writes the traced run's spans as a validated Perfetto document under
/// the build directory.
fn write_trace(run: &Run, workload: &str) -> Result<PathBuf, String> {
    let doc = spans::perfetto_json(run.spans.spans(), workload)?;
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("repobench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{}.json", run.seed));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn execute(args: &Args) -> Result<String, String> {
    if args.repro {
        resnet::repro(args.seed, args.hw)?;
        return Ok(String::new());
    }
    let mut run = Run::new(args.seed, args.seconds, args.trace);
    println!("{}", provenance::describe());
    println!(
        "# workload {} | seed {} | {} s | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match args.workload.as_str() {
        "resnet50-functional" => resnet::functional(&mut run)?,
        "resnet-timing-ladder" => resnet::ladder(&mut run)?,
        "serve-smallcnn-chaos" => serve::chaos(&mut run)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let wall_ns = run.spans.elapsed_ns();
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    run.results.set("peak_rss_mb", rss, 1);
    if let (Some(waves), Some(cycles)) = (
        run.results.get("sim.mxm_waves"),
        run.results.get("sim_cycles"),
    ) {
        run.results
            .set("sim.mxm_waves_per_cycle", waves / cycles, 1);
    }
    println!(
        "failed_share {:.6} ({} of {} operations failed a counted check)",
        run.tally.failed_share(),
        run.tally.failed,
        run.tally.attempted
    );
    let (kernel, n) = run.speed.kernel_median();
    println!(
        "# host speed: calibration kernel median {kernel:.6} s over {n} runs \
         (reference {} s); host times are scaled per sample; raw medians: {}",
        speed::REFERENCE_S,
        run.raw_times.join(", ")
    );
    let table = if args.trace {
        span_metrics(&mut run, wall_ns)?;
        let path = write_trace(&run, &args.workload)?;
        println!("# wrote validated Perfetto trace {}", path.display());
        PER_LAYER
    } else {
        END_TO_END
    };
    print!("{}", run.results.render(table));
    Ok(run.results.json_line(table, &run.tally))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match execute(&args) {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}
