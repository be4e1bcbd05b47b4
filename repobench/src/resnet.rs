//! The two ResNet workloads — functional ResNet-50 and the timing-only
//! depth ladder — plus the 32×32 repro of the known reference defect.

use std::sync::Arc;
use std::time::Instant;

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel, Probe};
use tsp_nn::data::synthetic;
use tsp_nn::graph::{Graph, Op};
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::reference::{final_flat_q, run_int8, ValueQ};
use tsp_nn::resnet::{resnet, Widths};
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, DecodedProgram, RunReport};

use crate::speed::{Piece, Samples};
use crate::{Run, CLOCK_HZ};

/// Weights seed: the model is fixed, the inputs come from `--seed`.
const WEIGHT_SEED: u64 = 7;
/// Set-ups per run of resnet50-functional (≈ 1.2 s each) and of the
/// ladder (≈ 6 s each); `setup_s` is their median.
const SETUPS_FUNCTIONAL: usize = 5;
const SETUPS_LADDER: usize = 3;
/// Distinct images the functional closed loop cycles through. Each is seen
/// at least twice, which is the run-to-run determinism check.
const IMAGES: usize = 3;
/// The depth ladder.
const LADDER: [u32; 3] = [50, 101, 152];
/// The paper's ResNet-50 batch-1 throughput (§IV-F).
const PAPER_IPS: f64 = 20_400.0;

/// One model from nothing to runnable.
struct Prepared {
    graph: Graph,
    q: QuantGraph,
    model: CompiledModel,
    decoded: Arc<DecodedProgram>,
}

/// graph → quantize → compile → decode, each in its own span and timed
/// as one piece of the set-up sample `took`.
fn prepare(
    run: &mut Run,
    depth: u32,
    hw: u32,
    calibration: &[Vec<f32>],
    took: &mut Piece,
) -> Prepared {
    let (graph, params) = run.piece("nn.graph", took, || {
        resnet(depth, hw, 1000, &Widths::standard(), WEIGHT_SEED)
    });
    let q = run.piece("nn.quantize", took, || {
        quantize(&graph, &params, calibration)
    });
    drop(params);
    let model = run.piece("compiler.compile", took, || {
        compile(&q, &CompileOptions::default())
    });
    let decoded = run.piece("isa.decode", took, || model.decoded());
    Prepared {
        graph,
        q,
        model,
        decoded,
    }
}

/// Sets up `depths` `rounds` times, one `setup_s` sample per round;
/// returns the last round's models.
fn setups(run: &mut Run, rounds: usize, depths: &[u32], calibration: &[Vec<f32>]) -> Vec<Prepared> {
    let mut samples = Samples::default();
    let mut last = Vec::new();
    for _ in 0..rounds {
        drop(std::mem::take(&mut last));
        let mut took = Piece::default();
        let span = run.spans.open("setup");
        last = depths
            .iter()
            .map(|&d| prepare(run, d, 224, calibration, &mut took))
            .collect();
        run.spans.close(span);
        samples.push(took);
    }
    run.set_median("setup_s", &samples);
    for p in &last {
        run.note_model(&p.graph, &p.model);
    }
    last
}

/// The simulated count must not exceed the compiler's prediction and may
/// undershoot it by at most 4 cycles (the `resnet_throughput` rule).
pub fn check_prediction(name: &str, simulated: u64, predicted: u64) -> Result<(), String> {
    if simulated <= predicted && predicted - simulated <= 4 {
        Ok(())
    } else {
        Err(format!(
            "{name}: simulated {simulated} cycles vs compiler prediction {predicted}"
        ))
    }
}

/// `Chip::new` + `load_constants` + `write_input`.
pub fn emplace(run: &mut Run, model: &CompiledModel, image: &[i8]) -> Chip {
    run.spans.time("nn.emplace", || {
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, image);
        chip
    })
}

/// One `run_decoded` inside span `span`; any `SimError` is a hard failure.
fn dispatch(
    run: &mut Run,
    span: &'static str,
    chip: &mut Chip,
    p: &Prepared,
    options: &RunOptions,
) -> Result<RunReport, String> {
    run.spans
        .time(span, || chip.run_decoded(&p.decoded, options))
        .map_err(|e| format!("fault-free run failed: {e}"))
}

fn timing_only(counters: bool) -> RunOptions {
    RunOptions {
        functional: false,
        counters,
        ..RunOptions::default()
    }
}

/// `resnet50-functional`: ResNet-50 batch-1 at 224×224, one client in a
/// closed loop, each inference emplaced, run functionally and read out.
pub fn functional(run: &mut Run) -> Result<(), String> {
    let data = synthetic(run.seed, 224, 224, 3, IMAGES + 1, 1);
    let mut models = setups(run, SETUPS_FUNCTIONAL, &[50], &data.images[..1]);
    let p = models.pop().expect("one model");
    let images: Vec<Vec<i8>> = data.images[1..]
        .iter()
        .map(|i| p.q.quantize_image(i))
        .collect();

    let options = RunOptions::default();
    let mut first: Vec<Option<(Vec<i8>, u64)>> = vec![None; IMAGES];
    let mut seen = [0u64; IMAGES];
    let mut run_s = Samples::default();
    let mut last: Option<RunReport> = None;
    let start = Instant::now();
    let mut i = 0;
    while i <= IMAGES || start.elapsed().as_secs_f64() < run.seconds {
        let k = i % IMAGES;
        run.calibrate();
        let t = Instant::now();
        let span = run.spans.open("run");
        let mut chip = emplace(run, &p.model, &images[k]);
        let report = dispatch(run, "sim.functional", &mut chip, &p, &options)?;
        let logits = run.spans.time("nn.readout", || p.model.read_logits(&chip));
        run.spans.close(span);
        run.speed.record(&mut run_s, t.elapsed().as_secs_f64());
        drop(chip);

        check_prediction("resnet50", report.cycles, p.model.cycles)?;
        match &first[k] {
            None => first[k] = Some((logits, report.cycles)),
            Some((l, c)) if *l != logits || *c != report.cycles => {
                return Err(format!(
                    "image {k} is not deterministic: {c} then {} cycles, logits equal: {}",
                    report.cycles,
                    *l == logits
                ))
            }
            Some(_) => {}
        }
        seen[k] += 1;
        if run.traced {
            // Timing-only and counters-off twins of the same inference price
            // the dispatch loop and the utilization counters.
            let mut chip = emplace(run, &p.model, &images[k]);
            let r = dispatch(run, "sim.dispatch", &mut chip, &p, &timing_only(true))?;
            run.dispatched_instructions += r.instructions + r.nops;
            let mut chip = emplace(run, &p.model, &images[k]);
            dispatch(
                run,
                "sim.functional_nocounters",
                &mut chip,
                &p,
                &RunOptions {
                    counters: false,
                    ..RunOptions::default()
                },
            )?;
        }
        last = Some(report);
        i += 1;
    }
    let report = last.expect("at least one inference");
    let cycles = report.cycles;

    // Counted check against the int8 reference executor: one reference
    // run per distinct image (the simulator repeats itself exactly, as
    // checked above), charged to every inference of that image.
    let mut mismatched = 0usize;
    let check = run.spans.open("check");
    for (k, image) in images.iter().enumerate() {
        let Some((logits, _)) = &first[k] else {
            continue;
        };
        let values = run.spans.time("nn.reference", || run_int8(&p.q, image));
        let want = final_flat_q(&values);
        for _ in 0..seen[k] {
            mismatched += run.tally.check_logits(logits, want);
        }
    }
    run.spans.close(check);

    let inferences = run_s.len();
    run.set_median("run_s_p50", &run_s);
    run.set_per_kilo("serve_s_per_kreq", &run_s, inferences);
    let r = &mut run.results;
    r.set("sim_cycles", cycles as f64, inferences);
    r.set("good_share", 1.0, inferences);
    r.set("latency_p50_cycles", cycles as f64, inferences);
    r.set("latency_p99_cycles", cycles as f64, inferences);
    r.set("max_good_rate_ips", CLOCK_HZ / cycles as f64, inferences);
    r.set(
        "nn.ref_mismatch_logits",
        mismatched as f64 / inferences as f64,
        inferences,
    );
    run.note_report(&report);
    run.note_prediction(p.model.cycles, cycles);
    println!(
        "# resnet50 batch-1: {cycles} simulated cycles = {:.0} IPS at 900 MHz \
         vs the paper's {PAPER_IPS:.0} IPS ({:.1}% of it; context, not gated)",
        CLOCK_HZ / cycles as f64,
        100.0 * CLOCK_HZ / cycles as f64 / PAPER_IPS
    );
    Ok(())
}

/// `resnet-timing-ladder`: ResNet-50/101/152 set up once per set-up round
/// (calibrated on one seeded image), then a closed loop of timing-only
/// passes over the three models.
pub fn ladder(run: &mut Run) -> Result<(), String> {
    let data = synthetic(run.seed, 224, 224, 3, 1, 1);
    let models = setups(run, SETUPS_LADDER, &LADDER, &data.images);

    let mut first: Option<Vec<u64>> = None;
    let mut run_s = Samples::default();
    let start = Instant::now();
    while run_s.len() < 2 || start.elapsed().as_secs_f64() < run.seconds {
        run.calibrate();
        let t = Instant::now();
        let span = run.spans.open("run");
        let mut pass = Vec::with_capacity(LADDER.len());
        let mut reports = Vec::with_capacity(LADDER.len());
        for p in &models {
            // Timing never depends on data, so a timing-only run needs no
            // emplace: the pass is the dispatch loop alone.
            let mut chip = Chip::new(ChipConfig::asic());
            let r = dispatch(run, "sim.dispatch", &mut chip, p, &timing_only(true))?;
            pass.push(r.cycles);
            reports.push(r);
        }
        run.spans.close(span);
        run.speed.record(&mut run_s, t.elapsed().as_secs_f64());
        for ((p, r), depth) in models.iter().zip(&reports).zip(LADDER) {
            check_prediction(&format!("resnet{depth}"), r.cycles, p.model.cycles)?;
            run.dispatched_instructions += r.instructions + r.nops;
            run.tally.record(true);
        }
        match &first {
            None => first = Some(pass),
            Some(f) if *f != pass => {
                return Err(format!(
                    "ladder pass not deterministic: {f:?} then {pass:?}"
                ))
            }
            Some(_) => {}
        }
        if run.traced {
            for p in &models {
                let mut chip = Chip::new(ChipConfig::asic());
                dispatch(
                    run,
                    "sim.dispatch_nocounters",
                    &mut chip,
                    p,
                    &timing_only(false),
                )?;
            }
        }
        if run_s.len() == 1 {
            for (p, r) in models.iter().zip(&reports) {
                run.note_report(r);
                run.note_prediction(p.model.cycles, r.cycles);
            }
        }
    }
    let cycles: u64 = first.expect("one pass").iter().sum();
    let passes = run_s.len();
    run.set_median("run_s_p50", &run_s);
    run.set_per_kilo("serve_s_per_kreq", &run_s, passes * LADDER.len());
    let r = &mut run.results;
    r.set("sim_cycles", cycles as f64, passes);
    r.set("good_share", 1.0, passes);
    r.set("latency_p50_cycles", cycles as f64, passes);
    r.set("latency_p99_cycles", cycles as f64, passes);
    r.set(
        "max_good_rate_ips",
        LADDER.len() as f64 * CLOCK_HZ / cycles as f64,
        passes,
    );
    Ok(())
}

/// One node's activations against the int8 reference: `(differing
/// values, total values, differing x columns)`, or `None` if the node is
/// not probed.
fn compare_node(chip: &Chip, probe: &Probe, value: &ValueQ) -> Option<(usize, usize, Vec<u32>)> {
    let (mut bad, mut total, mut cols) = (0usize, 0usize, Vec::new());
    match (probe, value) {
        (
            Probe::Map {
                h,
                w,
                c,
                pad,
                parts,
            },
            ValueQ::Map { data, .. },
        ) => {
            for y in 0..*h {
                for x in 0..*w {
                    let row = (y + pad) * (w + 2 * pad) + (x + pad);
                    for ch in 0..*c {
                        let word = chip
                            .memory
                            .read_unchecked(parts[(ch / 320) as usize].row(row));
                        total += 1;
                        if word.lane((ch % 320) as usize) as i8
                            != data[((y * w + x) * c + ch) as usize]
                        {
                            bad += 1;
                            if !cols.contains(&x) {
                                cols.push(x);
                            }
                        }
                    }
                }
            }
        }
        (Probe::Flat(parts), ValueQ::Flat(data)) => {
            for (i, want) in data.iter().enumerate() {
                let word = chip.memory.read_unchecked(parts[i / 320].row(0));
                total += 1;
                if word.lane(i % 320) as i8 != *want {
                    bad += 1;
                }
            }
        }
        _ => return None,
    }
    cols.sort_unstable();
    Some((bad, total, cols))
}

/// `--repro`: ResNet-50 at `hw`×`hw` against the int8 reference. Prints how
/// many logits differ, then bisects the schedule for the first layer whose
/// activations differ — each probe stops a fresh run at that layer's
/// completion cycle, before any later layer can reuse its buffer. At
/// 32×32 it runs in about a second.
pub fn repro(seed: u64, hw: u32) -> Result<(), String> {
    let data = synthetic(seed, hw, hw, 3, 2, 1);
    let mut run = Run::new(seed, 0.0, false);
    let p = prepare(&mut run, 50, hw, &data.images[..1], &mut Piece::default());
    let image = p.q.quantize_image(&data.images[1]);
    let mut chip = emplace(&mut run, &p.model, &image);
    chip.run_decoded(&p.decoded, &RunOptions::default())
        .map_err(|e| format!("repro run failed: {e}"))?;
    let values = run_int8(&p.q, &image);
    let want = final_flat_q(&values);
    let differing = run.tally.check_logits(&p.model.read_logits(&chip), want);
    println!(
        "resnet50 @{hw}x{hw}: {differing} of {} logits differ from tsp_nn::reference::run_int8",
        want.len()
    );

    // Layers in schedule order, each with its node index.
    let layers: Vec<(usize, u64)> = p
        .model
        .layer_spans
        .iter()
        .filter_map(|s| {
            let node = p.graph.nodes.iter().position(|n| n.name == s.name)?;
            Some((node, s.end))
        })
        .collect();
    let at_end = |&(node, end): &(usize, u64)| -> Option<(usize, usize, Vec<u32>)> {
        let mut chip = Chip::new(ChipConfig::asic());
        p.model.load_constants(&mut chip);
        p.model.write_input(&mut chip, &image);
        let options = RunOptions {
            cycle_limit: end,
            ..RunOptions::default()
        };
        // Stopping at the limit is the point; the error only says so.
        let _ = chip.run_decoded(&p.decoded, &options);
        compare_node(&chip, &p.model.probes[node], &values[node])
    };
    let diverged = |i: usize| at_end(&layers[i]).is_some_and(|(bad, _, _)| bad > 0);
    if differing == 0 || layers.is_empty() || !diverged(layers.len() - 1) {
        println!("no layer boundary to bisect");
        return Ok(());
    }
    let (mut lo, mut hi) = (0, layers.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if diverged(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (node, _) = layers[lo];
    let (bad, total, cols) = at_end(&layers[lo]).expect("probed layer");
    let n = &p.graph.nodes[node];
    println!(
        "first diverging layer: {} ({}): {bad} of {total} values differ, in output columns x = {cols:?}",
        n.name,
        op_kind(&n.op)
    );
    Ok(())
}

/// The op-kind bucket a layer's cycles are summed into.
#[must_use]
pub fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Input { .. } => "input",
        Op::Conv(spec) => match spec.k {
            7 => "conv7x7",
            3 => "conv3x3",
            1 => "conv1x1",
            _ => "conv",
        },
        Op::MaxPool { .. } => "maxpool",
        Op::Add { .. } => "add",
        Op::GlobalAvgPool => "gap",
        Op::Dense { .. } => "dense",
    }
}
