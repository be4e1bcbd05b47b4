//! Criterion micro-benchmarks: the hot paths of the simulator and compiler.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsp::prelude::*;
use tsp_sim::mxm_unit::MxmPlane;
use tsp_sim::stream_file::{StreamFile, StreamWord};

fn bench_stream_file(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_file");
    g.throughput(Throughput::Elements(1));
    g.bench_function("write_read_roundtrip", |b| {
        let mut f = StreamFile::new();
        let word = std::sync::Arc::new(StreamWord::protect(Vector::splat(7)));
        let mut t = 0u64;
        b.iter(|| {
            f.write(StreamId::east(3), tsp::arch::Position(10), t, word.clone());
            let got = f.read(StreamId::east(3), tsp::arch::Position(20), t + 10);
            t += 1;
            std::hint::black_box(got)
        });
    });
    g.finish();
}

fn bench_mxm(c: &mut Criterion) {
    let mut g = c.benchmark_group("mxm");
    // One activation wave = 102,400 MACs.
    g.throughput(Throughput::Elements(320 * 320));
    g.bench_function("feed_activation_i8", |b| {
        let mut plane = MxmPlane::new();
        for group in 0..20u8 {
            let rows: Vec<Vector> = (0..16).map(|j| Vector::splat(j as u8)).collect();
            plane.load_weight_rows(group, &rows);
        }
        plane.install(tsp::isa::DataType::Int8);
        let act = Vector::from_fn(|i| i as u8);
        let mut t = 0u64;
        b.iter(|| {
            plane.feed_activation_i8(t, &act);
            t += 1;
            // `accumulate` hands back a borrow of the pooled result row.
            std::hint::black_box(plane.accumulate(t + 64, 0, false).is_some())
        });
    });
    g.finish();
}

fn bench_ecc(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecc");
    g.throughput(Throughput::Bytes(16));
    let data = [0xA5u8; 16];
    g.bench_function("encode", |b| {
        b.iter(|| std::hint::black_box(tsp::mem::ecc::encode(&data)))
    });
    g.bench_function("check_clean", |b| {
        let check = tsp::mem::ecc::encode(&data);
        b.iter(|| {
            let mut d = data;
            std::hint::black_box(tsp::mem::ecc::check_and_correct(&mut d, check).unwrap())
        })
    });
    g.finish();
}

fn bench_sim_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    // A steady-state streaming program: how many simulated cycles per second?
    let mut sched = Scheduler::new();
    let n = 2048u32;
    let x = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), n, 320, BankPolicy::Low, 4096)
        .unwrap();
    let (_, _) = copy(&mut sched, &x, Hemisphere::West, BankPolicy::High, 0);
    let program = sched.into_program().unwrap();
    let cycles = {
        let mut chip = Chip::new(ChipConfig::asic());
        chip.run(&program, &RunOptions::default()).unwrap().cycles
    };
    g.throughput(Throughput::Elements(cycles));
    g.bench_function("streaming_copy_2048_rows", |b| {
        b.iter(|| {
            let mut chip = Chip::new(ChipConfig::asic());
            std::hint::black_box(chip.run(&program, &RunOptions::default()).unwrap().cycles)
        })
    });
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    // A steady-state ICU queue: one long streaming-copy program, simulated
    // through the pre-decoded op cache. Timing-only mode so the bench
    // measures dispatch itself rather than data movement. The decode pass is
    // memoized outside the iteration, exactly as `CompiledModel::decoded`
    // amortizes it in the harness.
    let mut sched = Scheduler::new();
    let n = 2048u32;
    let x = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), n, 320, BankPolicy::Low, 4096)
        .unwrap();
    let (_, _) = copy(&mut sched, &x, Hemisphere::West, BankPolicy::High, 0);
    let program = sched.into_program().unwrap();
    let decoded = tsp_sim::DecodedProgram::decode(&program);
    let options = RunOptions {
        functional: false,
        ..RunOptions::default()
    };
    let cycles = {
        let mut chip = Chip::new(ChipConfig::asic());
        chip.run_decoded(&decoded, &options).unwrap().cycles
    };
    g.throughput(Throughput::Elements(cycles));
    g.bench_function("decoded", |b| {
        b.iter(|| {
            let mut chip = Chip::new(ChipConfig::asic());
            std::hint::black_box(chip.run_decoded(&decoded, &options).unwrap().cycles)
        })
    });
    g.finish();
}

fn bench_vector_add_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    // The Fig. 3 stream program (Z = X + Y over 1000 vectors), compiled once
    // and simulated per iteration — the whole Chip::run path including chip
    // construction, exactly what the bench bins pay per experiment point.
    let mut sched = Scheduler::new();
    let x = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), 1000, 320, BankPolicy::Low, 4096)
        .unwrap();
    let y = sched
        .alloc
        .alloc_in(Some(Hemisphere::West), 1000, 320, BankPolicy::Low, 4096)
        .unwrap();
    let _ = binary_ew(
        &mut sched,
        BinaryAluOp::AddSat,
        &x,
        &y,
        Hemisphere::East,
        BankPolicy::High,
        0,
    );
    let program = sched.into_program().unwrap();
    let cycles = {
        let mut chip = Chip::new(ChipConfig::asic());
        chip.run(&program, &RunOptions::default()).unwrap().cycles
    };
    g.throughput(Throughput::Elements(cycles));
    g.bench_function("vector_add_1000_rows_functional", |b| {
        b.iter(|| {
            let mut chip = Chip::new(ChipConfig::asic());
            std::hint::black_box(chip.run(&program, &RunOptions::default()).unwrap().cycles)
        })
    });
    g.bench_function("vector_add_1000_rows_timing", |b| {
        let options = RunOptions {
            functional: false,
            ..RunOptions::default()
        };
        b.iter(|| {
            let mut chip = Chip::new(ChipConfig::asic());
            std::hint::black_box(chip.run(&program, &options).unwrap().cycles)
        })
    });
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    // Report the scheduling *rate*: instructions placed per second.
    let instructions = {
        let mut sched = Scheduler::new();
        let input = tsp::compiler::kernels::conv::alloc_feature_map(
            &mut sched,
            14,
            14,
            64,
            1,
            Hemisphere::East,
            4,
        );
        let w = vec![vec![vec![vec![1i8; 3]; 3]; 64]; 64];
        let weights = tsp::compiler::kernels::emplace_conv_weights(&mut sched, &w, 1);
        let params = tsp::compiler::kernels::Conv2dParams {
            stride: 1,
            pad: 1,
            requant_shift: 6,
            relu: true,
            out_hemisphere: Hemisphere::West,
            ..Default::default()
        };
        let _ = tsp::compiler::kernels::conv2d(&mut sched, &input, &weights, &params);
        sched.into_program().unwrap().len() as u64
    };
    g.throughput(Throughput::Elements(instructions));
    g.bench_function("schedule_conv3x3_64ch", |b| {
        b.iter(|| {
            let mut sched = Scheduler::new();
            let input = tsp::compiler::kernels::conv::alloc_feature_map(
                &mut sched,
                14,
                14,
                64,
                1,
                Hemisphere::East,
                4,
            );
            let w = vec![vec![vec![vec![1i8; 3]; 3]; 64]; 64];
            let weights = tsp::compiler::kernels::emplace_conv_weights(&mut sched, &w, 1);
            let params = tsp::compiler::kernels::Conv2dParams {
                stride: 1,
                pad: 1,
                requant_shift: 6,
                relu: true,
                out_hemisphere: Hemisphere::West,
                ..Default::default()
            };
            let _ = tsp::compiler::kernels::conv2d(&mut sched, &input, &weights, &params);
            std::hint::black_box(sched.into_program().unwrap().len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_file,
    bench_mxm,
    bench_ecc,
    bench_sim_rate,
    bench_dispatch,
    bench_vector_add_end_to_end,
    bench_compile
);
criterion_main!(benches);
