//! Every statically detectable program error the dispatcher raises, each
//! pinned to its exact variant, queue, cycle and message.

use tsp_arch::{ChipConfig, Hemisphere, StreamGroup, StreamId};
use tsp_isa::{AccumulateMode, AluIndex, IcuOp, Instruction, MemAddr, MemOp, MxmOp, Plane};
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, IcuId, Program, SimError};

fn mem_icu(i: u8) -> IcuId {
    IcuId::Mem {
        hemisphere: Hemisphere::East,
        index: i,
    }
}

fn read(word: u16) -> MemOp {
    MemOp::Read {
        addr: MemAddr::new(word),
        stream: StreamId::west(0),
    }
}

/// One row of the table: a program, the error it must raise, and that
/// error's rendered message.
struct Case {
    name: &'static str,
    program: Program,
    error: SimError,
    message: &'static str,
}

fn cases() -> Vec<Case> {
    let vxm = IcuId::Vxm {
        alu: AluIndex::new(0),
    };
    let mxm = IcuId::Mxm {
        plane: Plane::new(1),
        port: 0,
    };
    let host = IcuId::Host { port: 0 };
    let pair = StreamGroup::new(StreamId::east(4), 2);

    let mut misrouted = Program::new();
    misrouted.builder(vxm).push_at(3, read(0));

    let mut repeat_first = Program::new();
    repeat_first
        .builder(mem_icu(2))
        .push(IcuOp::Repeat { n: 2, d: 1 });

    // Read 8190 at cycle 0; the Repeat's copies read 8191 at cycle 1 and
    // would read 8192 at cycle 3.
    let mut walk = Program::new();
    {
        let mut b = walk.builder(mem_icu(3));
        b.push(read(8190));
        b.push(IcuOp::Repeat { n: 3, d: 2 });
    }

    let mut acc_pair = Program::new();
    acc_pair.builder(mxm).push_at(
        4,
        MxmOp::Accumulate {
            plane: Plane::new(1),
            dst: pair,
            rows: 1,
            mode: AccumulateMode::Overwrite,
        },
    );

    // The first Notify fires generation 0 at cycle 0; a second queue's
    // Notify for the same generation at cycle 2 is out of order.
    let mut notify_twice = Program::new();
    notify_twice.builder(mem_icu(0)).push(IcuOp::Notify);
    notify_twice.builder(mem_icu(1)).push_at(2, IcuOp::Notify);

    let mut host_fetch = Program::new();
    host_fetch.builder(host).push_at(
        1,
        IcuOp::Ifetch {
            stream: StreamId::east(0),
        },
    );

    vec![
        Case {
            name: "MEM op on a VXM queue",
            program: misrouted,
            error: SimError::WrongSlice {
                icu: vxm,
                instruction: Instruction::from(read(0)).to_string(),
                cycle: 3,
            },
            message: "instruction `Read 0x0000,S0.W` routed to wrong queue icu.vxm.alu0 at cycle 3",
        },
        Case {
            name: "Repeat with no previous instruction",
            program: repeat_first,
            error: SimError::InvalidInstruction {
                reason: "Repeat with no previous instruction".into(),
                icu: mem_icu(2),
                cycle: 0,
            },
            message: "icu.mem.E2: invalid instruction at cycle 0: Repeat with no previous instruction",
        },
        Case {
            name: "Repeat walking past word 8191",
            program: walk,
            error: SimError::InvalidInstruction {
                reason: "Repeat walked address 0x2000 past the slice".into(),
                icu: mem_icu(3),
                cycle: 3,
            },
            message: "icu.mem.E3: invalid instruction at cycle 3: Repeat walked address 0x2000 past the slice",
        },
        Case {
            name: "ACC to a non-quad stream group",
            program: acc_pair,
            error: SimError::InvalidInstruction {
                reason: format!("ACC destination must be a quad-stream group, got {pair}"),
                icu: mxm,
                cycle: 4,
            },
            message: "icu.mxm.plane1.p0: invalid instruction at cycle 4: ACC destination must be a quad-stream group, got SG2[4-5].E",
        },
        Case {
            name: "second Notify out of order",
            program: notify_twice,
            error: SimError::InvalidInstruction {
                reason: "Notify for barrier generation 0 out of order".into(),
                icu: mem_icu(1),
                cycle: 2,
            },
            message: "icu.mem.E1: invalid instruction at cycle 2: Notify for barrier generation 0 out of order",
        },
        Case {
            name: "Ifetch on a host queue",
            program: host_fetch,
            error: SimError::WrongSlice {
                icu: host,
                instruction: "Ifetch".into(),
                cycle: 1,
            },
            message: "instruction `Ifetch` routed to wrong queue icu.host.0 at cycle 1",
        },
    ]
}

#[test]
fn each_invalid_program_raises_its_exact_error() {
    for case in cases() {
        for functional in [true, false] {
            let mut chip = Chip::new(ChipConfig::asic());
            let options = RunOptions {
                functional,
                ..RunOptions::default()
            };
            let err = chip.run(&case.program, &options).expect_err(case.name);
            assert_eq!(err, case.error, "{}", case.name);
            assert_eq!(err.to_string(), case.message, "{}", case.name);
        }
    }
}
