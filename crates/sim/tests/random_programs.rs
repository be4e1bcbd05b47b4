//! Random small programs — valid or not, fault-free or under seeded fault
//! plans — on the simulator's one dispatch path: no input panics, two runs
//! from the same state are bit-identical (report, memory, CSR log, or the
//! same error), turning counters and tracing off changes nothing but the
//! observations themselves, and a fault-free timing-only run keeps the
//! functional run's schedule.

use proptest::prelude::*;
use tsp_arch::{ChipConfig, Hemisphere, StreamGroup, StreamId, Vector};
use tsp_isa::{AluIndex, DataType, IcuOp, Instruction, MemAddr, MemOp, UnaryAluOp, VxmOp};
use tsp_mem::GlobalAddress;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::faults::{FaultPlan, PlanSpec};
use tsp_sim::{perfetto_json, Chip, IcuId, Program, SimError};

fn mem_icu(i: u8) -> IcuId {
    IcuId::Mem {
        hemisphere: Hemisphere::East,
        index: i,
    }
}

fn ga(slice: u8, word: u16) -> GlobalAddress {
    GlobalAddress::new(Hemisphere::East, slice, MemAddr::new(word))
}

fn sg1(s: StreamId) -> StreamGroup {
    StreamGroup::new(s, 1)
}

/// The MEM slices the random programs touch, and how many words of each a
/// run can reach (base words `0..4` plus a `Repeat` walk of up to 4 more).
const SLICES: std::ops::Range<u8> = 4..8;
const WORDS: u16 = 9;

/// One pseudo-random instruction drawn from a small pool. The schedule is
/// *not* guaranteed valid: invalid programs must fail the same way on every
/// run, valid ones must reproduce bit-for-bit.
#[derive(Debug, Clone)]
enum Pick {
    Nop {
        count: u16,
    },
    Read {
        slice: u8,
        word: u16,
        stream: u8,
    },
    Write {
        slice: u8,
        word: u16,
        stream: u8,
    },
    Unary {
        op: UnaryAluOp,
        src: u8,
        dst: u8,
    },
    /// A data pick followed on its queue by `Repeat n,d`.
    Repeated {
        base: Box<Pick>,
        n: u16,
        d: u16,
    },
    /// `Read → VXM unary → Write`, each stage dispatched when its operand
    /// arrives (so the pipeline is valid unless other picks collide with
    /// it), every stage followed by `Repeat n,d` when `n > 0`.
    Pipeline {
        src: u8,
        word: u16,
        stream: u8,
        alu: u8,
        relu: bool,
        dst: u8,
        n: u16,
        d: u16,
    },
}

fn arb_data_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        (SLICES, 0u16..4, 0u8..4).prop_map(|(slice, word, stream)| Pick::Read {
            slice,
            word,
            stream
        }),
        (SLICES, 0u16..4, 0u8..4).prop_map(|(slice, word, stream)| Pick::Write {
            slice,
            word,
            stream
        }),
        (any::<bool>(), 0u8..4, 0u8..4).prop_map(|(relu, src, dst)| Pick::Unary {
            op: if relu {
                UnaryAluOp::Relu
            } else {
                UnaryAluOp::Mask
            },
            src,
            dst,
        }),
    ]
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        (1u16..4).prop_map(|count| Pick::Nop { count }),
        arb_data_pick(),
        (arb_data_pick(), 0u16..5, 0u16..3).prop_map(|(base, n, d)| Pick::Repeated {
            base: Box::new(base),
            n,
            d
        }),
        (
            (SLICES, 0u16..4, 0u8..4),
            (0u8..4, any::<bool>(), SLICES),
            (0u16..5, 0u16..3)
        )
            .prop_map(
                |((src, word, stream), (alu, relu, dst), (n, d))| Pick::Pipeline {
                    src,
                    word,
                    stream,
                    alu,
                    relu,
                    dst,
                    n,
                    d,
                }
            ),
    ]
}

/// The queue a pick lands on and the instruction it pushes there.
fn lower(pick: &Pick, queue_sel: u8) -> (IcuId, Instruction) {
    match pick {
        Pick::Nop { count } => (
            mem_icu(4 + queue_sel % 4),
            IcuOp::Nop { count: *count }.into(),
        ),
        Pick::Read {
            slice,
            word,
            stream,
        } => (
            mem_icu(*slice),
            MemOp::Read {
                addr: MemAddr::new(*word),
                stream: StreamId::west(*stream),
            }
            .into(),
        ),
        Pick::Write {
            slice,
            word,
            stream,
        } => (
            mem_icu(*slice),
            MemOp::Write {
                addr: MemAddr::new(*word),
                stream: StreamId::west(*stream),
            }
            .into(),
        ),
        Pick::Unary { op, src, dst } => (
            IcuId::Vxm {
                alu: AluIndex::new(0),
            },
            VxmOp::Unary {
                op: *op,
                dtype: DataType::Int8,
                src: sg1(StreamId::west(*src)),
                dst: sg1(StreamId::east(*dst)),
                alu: AluIndex::new(0),
            }
            .into(),
        ),
        Pick::Repeated { base, .. } => lower(base, queue_sel),
        Pick::Pipeline { .. } => unreachable!("a pipeline spans three queues"),
    }
}

/// Pushes `instr` onto `icu`'s queue at `at`, or at the queue's current time
/// if that is later; returns the dispatch cycle. `Repeat n,d` follows when
/// `n > 0`.
fn push(p: &mut Program, icu: IcuId, at: u64, instr: Instruction, n: u16, d: u16) -> u64 {
    let mut b = p.builder(icu);
    let t = b.push_at(at.max(b.time()), instr);
    if n > 0 {
        b.push(IcuOp::Repeat { n, d });
    }
    t
}

/// Builds a program from random picks, spread over random dispatch cycles
/// across a handful of MEM queues and the VXM ALU queues. Requested cycles are
/// clamped forward to the queue's current time (a queue cannot pad into its
/// own past), so any pick sequence is constructible.
fn build_random_program(picks: &[(Pick, u8, u64)]) -> Program {
    let mut p = Program::new();
    for (pick, queue_sel, at) in picks {
        match *pick {
            Pick::Pipeline {
                src,
                word,
                stream,
                alu,
                relu,
                dst,
                n,
                d,
            } => {
                // A MEM_E<i> stream reaches the VXM in i + 1 hops, and back.
                let read = MemOp::Read {
                    addr: MemAddr::new(word),
                    stream: StreamId::west(stream),
                };
                let unary = VxmOp::Unary {
                    op: if relu {
                        UnaryAluOp::Relu
                    } else {
                        UnaryAluOp::Mask
                    },
                    dtype: DataType::Int8,
                    src: sg1(StreamId::west(stream)),
                    dst: sg1(StreamId::east(stream)),
                    alu: AluIndex::new(alu),
                };
                let write = MemOp::Write {
                    addr: MemAddr::new(word),
                    stream: StreamId::east(stream),
                };
                let t = push(&mut p, mem_icu(src), *at, read.into(), n, d);
                let t = t + u64::from(read.time_model().d_func) + u64::from(src) + 1;
                let t = push(
                    &mut p,
                    IcuId::Vxm {
                        alu: AluIndex::new(alu),
                    },
                    t,
                    unary.into(),
                    n,
                    d,
                );
                let t = t + u64::from(unary.time_model().d_func) + u64::from(dst) + 1;
                push(&mut p, mem_icu(dst), t, write.into(), n, d);
            }
            Pick::Repeated { ref base, n, d } => {
                let (icu, instr) = lower(base, *queue_sel);
                push(&mut p, icu, *at, instr, n, d);
            }
            _ => {
                let (icu, instr) = lower(pick, *queue_sel);
                push(&mut p, icu, *at, instr, 0, 0);
            }
        }
    }
    p
}

/// Everything a run leaves behind: its outcome, the words it could have
/// written, and the CSR error log.
struct Run {
    outcome: Result<RunReport, SimError>,
    memory: Vec<Vector>,
    csr: String,
}

fn run(program: &Program, options: &RunOptions, seed_mem: &impl Fn(&mut Chip)) -> Run {
    let mut chip = Chip::new(ChipConfig::asic());
    seed_mem(&mut chip);
    let outcome = chip.run(program, options);
    let memory = SLICES
        .flat_map(|s| (0..WORDS).map(move |w| (s, w)))
        .map(|(s, w)| chip.memory.read_unchecked(ga(s, w)))
        .collect();
    Run {
        outcome,
        memory,
        csr: chip.error_log_dump(),
    }
}

/// Asserts two runs agree on the simulated machine: completion, counts,
/// data, bandwidth and fault accounting — or the same error.
fn assert_same_machine(a: &Run, b: &Run) {
    assert_eq!(a.memory, b.memory, "memory");
    assert_eq!(a.csr, b.csr, "CSR error log");
    match (&a.outcome, &b.outcome) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.cycles, y.cycles, "completion cycle");
            assert_eq!(x.instructions, y.instructions, "instruction count");
            assert_eq!(x.nops, y.nops, "NOP count");
            assert_eq!(x.bandwidth, y.bandwidth, "bandwidth meters");
            assert_eq!(x.ecc_corrected, y.ecc_corrected, "ECC corrections");
            assert_eq!(x.faults_applied, y.faults_applied, "faults applied");
            assert_eq!(x.faults_vacant, y.faults_vacant, "faults vacant");
            assert_eq!(x.egress.len(), y.egress.len(), "egress count");
            for (xw, yw) in x.egress.iter().zip(&y.egress) {
                assert_eq!((xw.0, xw.1), (yw.0, yw.1), "egress link and cycle");
                assert_eq!(*xw.2, *yw.2, "egress word");
            }
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "error"),
        (x, y) => panic!("outcome mismatch: {x:?} vs {y:?}"),
    }
}

/// Asserts two runs under the same options are bit-identical, observations
/// included.
fn assert_bit_identical(a: &Run, b: &Run) {
    assert_same_machine(a, b);
    if let (Ok(x), Ok(y)) = (&a.outcome, &b.outcome) {
        assert_eq!(x.telemetry, y.telemetry, "telemetry counters");
        assert_eq!(x.trace.events(), y.trace.events(), "trace events");
        assert_eq!(
            x.trace.dropped_events(),
            y.trace.dropped_events(),
            "trace overflow"
        );
        assert_eq!(
            perfetto_json(&x.trace),
            perfetto_json(&y.trace),
            "trace bytes"
        );
    }
}

/// Asserts a timing-only run kept the functional run's schedule: timing
/// never depends on data, so only the data itself may differ.
fn assert_same_timing(functional: &Run, timing: &Run) {
    match (&functional.outcome, &timing.outcome) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.cycles, y.cycles, "completion cycle");
            assert_eq!(x.instructions, y.instructions, "instruction count");
            assert_eq!(x.nops, y.nops, "NOP count");
            assert_eq!(x.bandwidth, y.bandwidth, "bandwidth meters");
            let departures =
                |r: &RunReport| -> Vec<(u8, u64)> { r.egress.iter().map(|e| (e.0, e.1)).collect() };
            assert_eq!(departures(x), departures(y), "egress links and cycles");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "error"),
        (x, y) => panic!("outcome mismatch: {x:?} vs {y:?}"),
    }
}

/// Runs `program` twice fully observed, once with counters and tracing off
/// and, without faults, once timing-only, checking the properties of this
/// file.
fn check(program: &Program, faults: FaultPlan, seed_mem: impl Fn(&mut Chip)) {
    let fault_free = faults.is_empty();
    let observed = RunOptions {
        trace: true,
        cycle_limit: 10_000,
        faults,
        ..RunOptions::default()
    };
    let first = run(program, &observed, &seed_mem);
    let second = run(program, &observed, &seed_mem);
    assert_bit_identical(&first, &second);
    let quiet = RunOptions {
        trace: false,
        counters: false,
        ..observed
    };
    assert_same_machine(&first, &run(program, &quiet, &seed_mem));
    if fault_free {
        let timing = RunOptions {
            functional: false,
            ..quiet
        };
        assert_same_timing(&first, &run(program, &timing, &seed_mem));
    }
}

proptest! {
    /// Random small programs, fault-free.
    #[test]
    fn random_programs_are_deterministic_and_observation_free(
        picks in proptest::collection::vec((arb_pick(), 0u8..4, 0u64..48), 1..12),
        tag in any::<u8>(),
    ) {
        check(&build_random_program(&picks), FaultPlan::empty(), |chip| {
            for slice in SLICES {
                for word in 0..4u16 {
                    chip.memory.write(
                        ga(slice, word),
                        Vector::from_fn(|i| (i as u8).wrapping_mul(tag).wrapping_add(slice)),
                    );
                }
            }
        });
    }

    /// Random programs under random seeded fault plans.
    #[test]
    fn random_programs_under_faults_are_deterministic_and_observation_free(
        picks in proptest::collection::vec((arb_pick(), 0u8..4, 0u64..48), 1..10),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::generate(
            seed,
            &PlanSpec {
                cycles: 0..64,
                sram_data: 2,
                sram_check: 1,
                stream_upsets: 2,
                sram_words: 4,
            },
        );
        check(&build_random_program(&picks), plan, |chip| {
            for slice in SLICES {
                for word in 0..4u16 {
                    chip.memory.write(ga(slice, word), Vector::splat(slice ^ word as u8));
                }
            }
        });
    }
}
