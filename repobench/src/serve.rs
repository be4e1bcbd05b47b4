//! `serve-smallcnn-chaos`: `small_cnn` at batch 4 served by
//! `tsp_serve::serve` on a 4-chip pool under open-loop Poisson load at
//! 0.75 of the pool's capacity rate, with chaos-transient strikes on chip 0.

use std::sync::Arc;
use std::time::Instant;

use tsp_faults::ChaosSpec;
use tsp_nn::batch::BatchModel;
use tsp_nn::compile::{compile, CompileOptions};
use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::train::small_cnn;
use tsp_nn::Graph;
use tsp_serve::{
    open_loop, serve, verify_accounting, HealthConfig, LoadSpec, Request, ServeConfig,
    ServeOutcome, ServeResult,
};
use tsp_sim::chip::RunOptions;

use tsp_arch::ChipConfig;
use tsp_host::try_fan_out;
use tsp_sim::Chip;

use crate::resnet::{check_prediction, emplace};
use crate::speed::{Piece, Samples};
use crate::{mix, percentile, Run, CLOCK_HZ};

const POOL: usize = 4;
const MAX_BATCH: usize = 4;
/// Distinct inputs requests index into.
const INPUTS: usize = 8;
const QUEUE_DEPTH: usize = 32;
/// Requests per `serve` call.
const WINDOW: usize = 256;
/// Windows whose outcomes make the deterministic metrics, at the timed
/// load and at every step of the `max_good_rate_ips` search (2,048 offered
/// requests, so p99 rests on ≥ 1,000 completions).
const SCORED_WINDOWS: usize = 8;
/// Chaos: share (‰) of chip-0 dispatches that draw a transient strike.
const STRIKE_PER_MILLE: u32 = 500;
/// Set-ups per run; `setup_s` is their median (one set-up takes ~2 ms).
const SETUPS: usize = 11;
/// Offered load of the timed windows, as a share of the capacity rate.
/// At the capacity rate itself the queue is critically loaded and the
/// serving latencies spread 15–20% across seeds.
const LOAD: f64 = 0.75;
/// Step of the `max_good_rate_ips` search grid, as a share of capacity.
/// The grid (0.75, 0.85, …, 1.15) keeps its points off the knee near 1.0,
/// where seeds would split between two neighbouring answers.
const LOAD_STEP: f64 = 0.1;
/// Grid points above [`LOAD`] the search may reach.
const STEPS_UP: i32 = 4;
/// What the search demands of a rate.
const GOOD_FLOOR: f64 = 0.99;

/// Pooled outcome of a set of windows.
#[derive(Default)]
struct Pooled {
    offered: usize,
    good: usize,
    failed: usize,
    shed: usize,
    missed: usize,
    latencies: Vec<u64>,
    waits: Vec<u64>,
    batches: usize,
    batch_rows: usize,
    emplace: u64,
    busy: u64,
    capacity: u64,
    attempts: u64,
    struck: u64,
    struck_retried: u64,
    quarantined: usize,
    windows: usize,
}

impl Pooled {
    fn add(&mut self, requests: &[Request], result: &ServeResult) {
        self.windows += 1;
        self.offered += requests.len();
        self.good += result.good();
        self.failed += result.failed();
        self.shed += result.shed_queue_full() + result.shed_expired();
        self.missed += result.deadline_missed();
        self.latencies.extend(result.latencies());
        for r in &result.responses {
            if let ServeOutcome::Completed { dispatched, .. }
            | ServeOutcome::Failed { dispatched, .. } = r.outcome
            {
                self.waits.push(dispatched - r.arrival);
            }
        }
        for b in &result.batches {
            self.batches += 1;
            self.batch_rows += b.served.len();
            self.emplace += b.emplace;
            self.attempts += b.served.iter().map(|s| u64::from(s.attempts)).sum::<u64>();
            if b.chaos != "none" {
                self.struck += 1;
                if b.served.iter().any(|s| !s.failed_attempt_cycles.is_empty()) {
                    self.struck_retried += 1;
                }
            }
        }
        self.busy += result.chips.iter().map(|c| c.busy_cycles).sum::<u64>();
        self.capacity += POOL as u64 * result.horizon;
        self.quarantined += result
            .chips
            .iter()
            .filter(|c| c.quarantined_at.is_some())
            .count();
    }

    fn good_share(&self) -> f64 {
        self.good as f64 / self.offered as f64
    }

    /// good_share ≥ [`GOOD_FLOOR`] with p99 under the deadline.
    fn meets(&mut self, deadline: u64) -> bool {
        self.latencies.sort_unstable();
        self.good_share() >= GOOD_FLOOR && percentile(&self.latencies, 0.99) < deadline
    }
}

/// Everything a window needs besides its index and load.
struct Served {
    model: BatchModel,
    inputs: Vec<Vec<i8>>,
    golden: Vec<Vec<i8>>,
    gap: f64,
    deadline: u64,
}

impl Served {
    fn config(&self, run: &Run, window: usize) -> ServeConfig {
        ServeConfig {
            pool: POOL,
            queue_depth: QUEUE_DEPTH,
            // One exhausted request still trips the breaker outright, as in
            // the default; transient detections alone (score +3, −1 per
            // clean request) no longer can. With the default trip score
            // they quarantine chip 0 in some seeds and not others, and
            // every metric turns bimodal.
            health: HealthConfig {
                trip_score: 64,
                exhaust_penalty: 64,
                ..HealthConfig::default()
            },
            chaos: Some(ChaosSpec {
                chips: vec![0],
                strike_per_mille: STRIKE_PER_MILLE,
                persistent_per_mille: 0,
                targeted_double: true,
                ..ChaosSpec::off(mix(run.seed ^ 0xC4A0_5000, window as u64))
            }),
            ..ServeConfig::default()
        }
    }

    /// Window `window` at `load` × the capacity rate: the same seed at
    /// every load, so a lower load stretches the same arrival pattern.
    fn requests(&self, run: &Run, window: usize, load: f64) -> Vec<Request> {
        open_loop(&LoadSpec {
            seed: mix(run.seed, window as u64),
            requests: WINDOW,
            mean_interarrival: self.gap / load,
            deadline: self.deadline,
            inputs: INPUTS,
        })
    }

    /// Serves one window and applies the hard checks: accounting must
    /// verify and every served answer must equal the int8 reference.
    fn window(
        &self,
        run: &mut Run,
        window: usize,
        load: f64,
    ) -> Result<(Vec<Request>, ServeResult, f64), String> {
        let requests = self.requests(run, window, load);
        let config = self.config(run, window);
        let t = Instant::now();
        let result = run
            .spans
            .time("serve.loop", || {
                serve(&self.model, &config, &self.inputs, &requests)
            })
            .map_err(|e| format!("serve failed: {e}"))?;
        let host_s = t.elapsed().as_secs_f64();
        run.spans
            .time("serve.verify", || {
                verify_accounting(&requests, &result, &self.model, &config)
            })
            .map_err(|v| format!("accounting violations: {}", v.join("; ")))?;
        for r in &result.responses {
            if let ServeOutcome::Completed { logits, .. } = &r.outcome {
                if *logits != self.golden[r.input] {
                    return Err(format!(
                        "request {} (input {}) served logits that differ from run_int8",
                        r.id, r.input
                    ));
                }
            }
        }
        Ok((requests, result, host_s))
    }

    /// Whether [`SCORED_WINDOWS`] windows at `load` meet the search's bar.
    fn probe(&self, run: &mut Run, load: f64) -> Result<bool, String> {
        let mut pooled = Pooled::default();
        for w in 0..SCORED_WINDOWS {
            let (requests, result, _) = self.window(run, w, load)?;
            pooled.add(&requests, &result);
        }
        Ok(pooled.meets(self.deadline))
    }
}

/// graph → quantize → compile → decode for `small_cnn`, each timed as one
/// piece of the set-up sample `took`. Uncached, so that every set-up does
/// the work (`compile_batch_cached` would return the first compile from
/// its memo).
fn prepare(
    run: &mut Run,
    calibration: &[Vec<f32>],
    took: &mut Piece,
) -> (Graph, QuantGraph, BatchModel) {
    let (graph, params) = run.piece("nn.graph", took, || small_cnn(12, 16, 4, 5));
    let q = run.piece("nn.quantize", took, || {
        quantize(&graph, &params, calibration)
    });
    let model = run.piece("compiler.compile", took, || {
        compile(&q, &CompileOptions::default())
    });
    run.piece("isa.decode", took, || model.decoded());
    (
        graph,
        q,
        BatchModel {
            model: Arc::new(model),
            max_batch: MAX_BATCH,
        },
    )
}

pub fn chaos(run: &mut Run) -> Result<(), String> {
    let data = synthetic(run.seed, 12, 12, 2, 4, 6);
    let calibration = &data.images[..2];

    let mut samples = Samples::default();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let mut took = Piece::default();
        let span = run.spans.open("setup");
        prepared = Some(prepare(run, calibration, &mut took));
        run.spans.close(span);
        samples.push(took);
    }
    run.set_median("setup_s", &samples);
    let (graph, q, model) = prepared.expect("at least one set-up");
    run.note_model(&graph, &model.model);
    let inputs: Vec<Vec<i8>> = data.images[..INPUTS]
        .iter()
        .map(|i| q.quantize_image(i))
        .collect();

    // Oracle: the int8 reference per input, and one fault-free run per
    // input that must reproduce it and the compiler's cycle prediction.
    // The runs go through `try_fan_out` like the server's own, so every
    // seed starts serving with the worker threads' heaps already grown
    // (otherwise peak RSS jumps by 16 MiB in the seeds whose windows
    // happen to dispatch two batches at once, and not in the others).
    let check = run.spans.open("check");
    let golden: Vec<Vec<i8>> = inputs
        .iter()
        .map(|image| {
            let values = run.spans.time("nn.reference", || run_int8(&q, image));
            final_flat_q(&values).to_vec()
        })
        .collect();
    let decoded = model.model.decoded();
    let oracle = try_fan_out(inputs.iter().collect(), |image| {
        let mut chip = Chip::new(ChipConfig::asic());
        model.model.load_constants(&mut chip);
        model.model.write_input(&mut chip, image);
        let report = chip.run_decoded(&decoded, &RunOptions::default());
        report.map(|r| (r, model.model.read_logits(&chip)))
    })
    .map_err(|e| format!("oracle worker panicked: {e}"))?;
    let mut service = 0u64;
    for ((outcome, want), image) in oracle.into_iter().zip(&golden).zip(&inputs) {
        let (report, logits) = outcome.map_err(|e| format!("fault-free oracle run failed: {e}"))?;
        if logits != *want {
            return Err("fault-free small_cnn logits differ from run_int8".into());
        }
        check_prediction("small_cnn", report.cycles, model.model.cycles)?;
        if service == 0 {
            run.note_report(&report);
            run.note_prediction(model.model.cycles, report.cycles);
        }
        service = service.max(report.cycles);
        if run.traced {
            // The same run phase by phase, plus its timing-only and
            // counters-off twins, for the per-layer split.
            let quiet = RunOptions {
                counters: false,
                ..RunOptions::default()
            };
            let timing = RunOptions {
                functional: false,
                ..RunOptions::default()
            };
            for (span, options) in [
                ("sim.functional", RunOptions::default()),
                ("sim.dispatch", timing),
                ("sim.functional_nocounters", quiet),
            ] {
                let mut chip = emplace(run, &model.model, image);
                let r = run
                    .spans
                    .time(span, || chip.run_decoded(&decoded, &options))
                    .map_err(|e| format!("fault-free oracle run failed: {e}"))?;
                if span == "sim.dispatch" {
                    run.dispatched_instructions += r.instructions + r.nops;
                }
                if span == "sim.functional" {
                    run.spans
                        .time("nn.readout", || model.model.read_logits(&chip));
                }
            }
        }
    }
    run.spans.close(check);

    // Pool capacity: a batch serves MAX_BATCH requests in
    // emplace + MAX_BATCH·service cycles, on each of POOL chips.
    let emplace = model.emplace_cycles();
    let batch_cycles = emplace + MAX_BATCH as u64 * service;
    let served = Served {
        gap: batch_cycles as f64 / (POOL * MAX_BATCH) as f64,
        deadline: 8 * batch_cycles,
        model,
        inputs,
        golden,
    };
    let capacity_ips = CLOCK_HZ / served.gap;
    println!(
        "# serve: pool {POOL} x batch {MAX_BATCH}, emplace {emplace}, service {service} cycles, \
         capacity {capacity_ips:.0} IPS ({:.1} cycles between arrivals), deadline {} cycles",
        served.gap, served.deadline
    );

    // Timed windows at LOAD × the capacity rate; the first
    // SCORED_WINDOWS make the deterministic metrics.
    let mut pooled = Pooled::default();
    let mut window_s = Samples::default();
    let mut offered_timed = 0usize;
    let mut first: Option<ServeResult> = None;
    let start = Instant::now();
    let mut w = 0;
    while w < SCORED_WINDOWS || start.elapsed().as_secs_f64() < run.seconds {
        run.calibrate();
        let (requests, result, host_s) = served.window(run, w, LOAD)?;
        run.speed.record(&mut window_s, host_s);
        offered_timed += requests.len();
        if w < SCORED_WINDOWS {
            pooled.add(&requests, &result);
        }
        if w == 0 {
            first = Some(result);
        }
        w += 1;
    }
    // Determinism: window 0 again must reproduce every response and batch.
    let (_, again, _) = served.window(run, 0, LOAD)?;
    let first = first.expect("window 0 ran");
    if again.responses != first.responses || again.batches != first.batches {
        return Err("serving window 0 is not deterministic".into());
    }
    if pooled.latencies.len() < 1000 {
        return Err(format!(
            "only {} completions: p99 needs at least 1,000",
            pooled.latencies.len()
        ));
    }

    // Deterministic search on the fixed grid LOAD + k·LOAD_STEP: bisect
    // upward from the timed load (its scored windows are the k = 0 probe)
    // for the highest load whose windows meet GOOD_FLOOR; step down if
    // even the timed load does not.
    let load_at = |k: i32| LOAD + f64::from(k) * LOAD_STEP;
    let best_k = if pooled.meets(served.deadline) {
        let (mut lo, mut hi) = (0, STEPS_UP + 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if served.probe(run, load_at(mid))? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    } else {
        let mut k = -1;
        while !served.probe(run, load_at(k))? {
            k -= 1;
            if load_at(k) <= 0.0 {
                return Err("no offered load met good_share >= 0.99".into());
            }
        }
        k
    };
    let best_load = load_at(best_k);

    let (p50, p99) = crate::p50_p99(&mut pooled.latencies);
    let (w50, w99) = crate::p50_p99(&mut pooled.waits);
    let offered = pooled.offered as f64;
    run.tally.attempted += pooled.offered as u64;
    run.tally.failed += pooled.failed as u64;
    let n = pooled.offered;
    run.set_median("run_s_p50", &window_s);
    run.set_per_kilo("serve_s_per_kreq", &window_s, offered_timed);
    let r = &mut run.results;
    r.set("sim_cycles", service as f64, INPUTS);
    r.set("good_share", pooled.good as f64 / offered, n);
    r.set("latency_p50_cycles", p50 as f64, pooled.latencies.len());
    r.set("latency_p99_cycles", p99 as f64, pooled.latencies.len());
    r.set(
        "max_good_rate_ips",
        best_load * capacity_ips,
        SCORED_WINDOWS * WINDOW,
    );
    r.set(
        "serve.batch_fill",
        pooled.batch_rows as f64 / (pooled.batches * MAX_BATCH) as f64,
        pooled.batches,
    );
    r.set(
        "serve.emplace_share",
        pooled.emplace as f64 / pooled.busy as f64,
        pooled.batches,
    );
    r.set(
        "serve.chip_busy_share",
        pooled.busy as f64 / pooled.capacity as f64,
        pooled.windows,
    );
    r.set(
        "serve.attempts_per_request",
        pooled.attempts as f64 / pooled.batch_rows as f64,
        pooled.batch_rows,
    );
    r.set(
        "faults.applied",
        pooled.struck_retried as f64,
        pooled.batches,
    );
    r.set(
        "faults.vacant",
        (pooled.struck - pooled.struck_retried) as f64,
        pooled.batches,
    );
    r.set(
        "serve.queue_wait_p50_cycles",
        w50 as f64,
        pooled.waits.len(),
    );
    r.set(
        "serve.queue_wait_p99_cycles",
        w99 as f64,
        pooled.waits.len(),
    );
    r.set("serve.shed_share", pooled.shed as f64 / offered, n);
    r.set("serve.miss_share", pooled.missed as f64 / offered, n);
    r.set(
        "serve.quarantined_chips",
        pooled.quarantined as f64 / pooled.windows as f64,
        pooled.windows,
    );
    println!(
        "# serve: {n} offered in {} windows: good {:.4}, shed {}, deadline-missed {}, failed {}, \
         max good load {best_load:.2} x capacity",
        pooled.windows,
        pooled.good_share(),
        pooled.shed,
        pooled.missed,
        pooled.failed
    );
    Ok(())
}
