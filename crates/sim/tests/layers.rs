//! Per-layer telemetry slicing: layer marks partition a run's counters into
//! slices that sum **bit-exactly** back to the whole-run telemetry, without
//! perturbing the simulated machine in any way.

use tsp_arch::{ChipConfig, Hemisphere, StreamGroup, StreamId, Vector};
use tsp_isa::{AluIndex, BinaryAluOp, DataType, MemAddr, MemOp, VxmOp};
use tsp_mem::GlobalAddress;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::{Chip, IcuId, LayerMark, Program, Telemetry};

fn mem_icu(h: Hemisphere, i: u8) -> IcuId {
    IcuId::Mem {
        hemisphere: h,
        index: i,
    }
}

fn ga(h: Hemisphere, slice: u8, word: u16) -> GlobalAddress {
    GlobalAddress::new(h, slice, MemAddr::new(word))
}

fn sg1(s: StreamId) -> StreamGroup {
    StreamGroup::new(s, 1)
}

/// The Fig. 3 stream program (Z = X + Y through the VXM) — reads, stream
/// flow, one VXM add, one write-back; enough unit diversity for slicing to
/// have something to attribute.
fn vector_add() -> Program {
    let read_dfunc = 5u64;
    let add_dfunc = 4u64;
    let hops = |index: u8| u64::from(index) + 1;
    let t_arrive = 1 + read_dfunc + hops(5);
    let t4 = t_arrive - read_dfunc - hops(4);

    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push_at(
        t4,
        MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 5)).push_at(
        1,
        MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(1),
        },
    );
    p.builder(IcuId::Vxm {
        alu: AluIndex::new(0),
    })
    .push_at(
        t_arrive,
        VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a: sg1(StreamId::west(0)),
            b: sg1(StreamId::west(1)),
            dst: sg1(StreamId::east(2)),
            alu: AluIndex::new(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 6)).push_at(
        t_arrive + add_dfunc + hops(6),
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::east(2),
        },
    );
    p
}

fn mark(name: &str, end: u64) -> LayerMark {
    LayerMark {
        name: name.into(),
        end,
    }
}

fn run(options: &RunOptions) -> (RunReport, Vector) {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory.write(
        ga(Hemisphere::East, 4, 0),
        Vector::from_fn(|i| (i % 100) as u8),
    );
    chip.memory.write(
        ga(Hemisphere::East, 5, 0),
        Vector::from_fn(|i| (i % 27) as u8),
    );
    let report = chip.run(&vector_add(), options).expect("run");
    (
        report,
        chip.memory.read_unchecked(ga(Hemisphere::East, 6, 0)),
    )
}

fn with_layers(layers: Vec<LayerMark>) -> RunOptions {
    RunOptions {
        layers,
        ..RunOptions::default()
    }
}

/// Folds slices back together; merged counters must equal the whole run's.
fn fold(slices: &[tsp_sim::LayerSlice]) -> Telemetry {
    let mut total = Telemetry::new();
    for s in slices {
        total.merge(&s.telemetry);
    }
    total
}

/// The tentpole invariant: slices partition the run — every counter of
/// every slice sums bit-exactly to the whole-run telemetry.
#[test]
fn slices_sum_bit_exactly_to_whole_run_counters() {
    let (baseline, _) = run(&RunOptions::default());
    let mid = baseline.cycles / 2;
    let (report, _) = run(&with_layers(vec![
        mark("front", mid),
        mark("back", baseline.cycles),
    ]));
    assert_eq!(report.layers.len(), 2);
    assert_eq!(report.layers[0].name.as_ref(), "front");
    assert_eq!(report.layers[1].name.as_ref(), "back");
    assert_eq!(fold(&report.layers), report.telemetry);
    // The slices saw different parts of the run: the write-back lands in
    // the second half only.
    assert_eq!(report.layers[1].telemetry.sram_writes, [0, 1]);
}

/// Layer marks are observation, not simulation: cycles, instruction counts,
/// whole-run telemetry and computed values are identical with slicing on
/// or off.
#[test]
fn layer_marks_do_not_perturb_the_run() {
    let (baseline, z0) = run(&RunOptions::default());
    assert!(baseline.layers.is_empty(), "no marks, no slices");
    let (report, z) = run(&with_layers(vec![
        mark("a", baseline.cycles / 3),
        mark("b", baseline.cycles),
    ]));
    assert_eq!(report.cycles, baseline.cycles);
    assert_eq!(report.instructions, baseline.instructions);
    assert_eq!(report.nops, baseline.nops);
    assert_eq!(report.telemetry, baseline.telemetry);
    assert_eq!(z, z0);
}

/// Degenerate marks are handled exactly: a zero-width layer gets zero
/// counts, and marks past the end of the run still seal (the run's tail —
/// including `dropped_events`, which only lands after the dispatch loop —
/// folds into the **last** slice so the sum stays exact).
#[test]
fn zero_width_and_past_end_marks_still_partition_exactly() {
    let (baseline, _) = run(&RunOptions::default());
    let (report, _) = run(&with_layers(vec![
        mark("empty", 0),
        mark("all", baseline.cycles + 1_000_000),
    ]));
    assert_eq!(report.layers.len(), 2);
    // High-water fields are running maxima (carried, not subtracted), so an
    // empty slice still reports them; every *count* field must be zero.
    let mut expected = Telemetry::new();
    expected.stream_high_water = report.layers[0].telemetry.stream_high_water;
    expected.icu_queue_high_water = report.layers[0].telemetry.icu_queue_high_water;
    assert_eq!(report.layers[0].telemetry, expected, "empty slice");
    assert_eq!(fold(&report.layers), report.telemetry);
    assert_eq!(report.telemetry, baseline.telemetry);
}

/// Trace-capacity overflow (`dropped_events`) is attributed without
/// breaking the partition sum.
#[test]
fn dropped_events_fold_into_the_last_slice() {
    let (baseline, _) = run(&RunOptions::default());
    let options = RunOptions {
        trace: true,
        trace_capacity: 1,
        layers: vec![
            mark("front", baseline.cycles / 2),
            mark("back", baseline.cycles),
        ],
        ..RunOptions::default()
    };
    let (report, _) = run(&options);
    assert!(report.telemetry.dropped_events > 0);
    assert_eq!(fold(&report.layers), report.telemetry);
    assert_eq!(
        report
            .layers
            .last()
            .expect("slices")
            .telemetry
            .dropped_events,
        report.telemetry.dropped_events,
        "overflow is accounted in the final slice"
    );
}
