//! A reference for the decode lowering.
//!
//! [`reference`] is a short, direct reading of raw queue text as the
//! sequence of dispatches the simulator performs: `Repeat n,d` is `n` copies
//! of the previous instruction `d.max(1)` cycles apart (MEM `Read`/`Write`
//! walking one word per copy), a multi-row `LW`/`ABC`/`ACC` is one row per
//! cycle, `Nop` waits `count.max(1)` cycles and `Ifetch` two. [`expand`]
//! unrolls `decode_queue`'s op spans the way the simulator steps them. The
//! two must agree dispatch for dispatch — the concrete instruction (walked
//! address or burst row included), its `d_func`, the delay to the queue's
//! next dispatch, which counter it bumps, and for invalid text the error
//! kind and detail string — on random instruction lists for every queue
//! class and on a table of the edge cases.

use proptest::prelude::*;
use tsp_arch::timing::BARRIER_SYNC_CYCLES;
use tsp_arch::{StreamGroup, StreamId, StreamRange};
use tsp_isa::{
    decode_queue, decode_step, AccumulateMode, AluIndex, C2cOp, DataType, DecodedOp, IcuOp,
    Instruction, InvalidKind, LinkId, MemAddr, MemOp, MxmOp, Plane, QueueClass, SxmOp, UnaryAluOp,
    VxmOp,
};

/// What one dispatch does.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    Nop,
    Sync,
    Notify,
    Config(u8),
    Ifetch(StreamId),
    /// `Repeat 0,d`: dispatches and does nothing else.
    Empty,
    /// Executes `instr` (burst row `row`; 0 outside bursts). `d_func` is the
    /// functional delay of single-issue ops; burst rows have none (the
    /// simulator fixes their per-row timing).
    Exec {
        instr: Instruction,
        row: u16,
        d_func: Option<u32>,
    },
    /// Raises an error; the queue stops here.
    Invalid {
        kind: InvalidKind,
        detail: String,
    },
}

/// Which run counter a dispatch bumps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Counts {
    Instruction,
    Nop,
    /// A later iteration of a span counted at its first.
    Neither,
}

#[derive(Debug, Clone, PartialEq)]
struct Dispatch {
    action: Action,
    /// Cycles to the queue's next dispatch; `None` when it parks or stops.
    delay: Option<u64>,
    counts: Counts,
}

fn first(i: u16) -> Counts {
    if i == 0 {
        Counts::Instruction
    } else {
        Counts::Neither
    }
}

fn invalid(kind: InvalidKind, detail: String, counts: Counts) -> Dispatch {
    Dispatch {
        action: Action::Invalid { kind, detail },
        delay: None,
        counts,
    }
}

fn walked_past(word: u32) -> String {
    format!("Repeat walked address {word:#x} past the slice")
}

/// The `k`-th copy of a MEM op under `Repeat`: `Read`/`Write` access `k`
/// words past the base address; past word 8191 is an error.
fn walk(op: MemOp, k: u32) -> Result<MemOp, String> {
    let step = |addr: MemAddr| {
        let word = u32::from(addr.word()) + k;
        u16::try_from(word)
            .ok()
            .filter(|&w| w < 8192)
            .map(MemAddr::new)
            .ok_or_else(|| walked_past(word))
    };
    Ok(match op {
        MemOp::Read { addr, stream } => MemOp::Read {
            addr: step(addr)?,
            stream,
        },
        MemOp::Write { addr, stream } => MemOp::Write {
            addr: step(addr)?,
            stream,
        },
        other => other,
    })
}

fn is_burst(instr: &Instruction) -> bool {
    matches!(
        instr,
        Instruction::Mxm(
            MxmOp::LoadWeights { .. } | MxmOp::ActivationBuffer { .. } | MxmOp::Accumulate { .. }
        )
    )
}

/// Whether a queue of `class` sits on a slice that executes `instr`.
fn executes(class: QueueClass, instr: &Instruction) -> bool {
    match (class, instr) {
        (_, Instruction::Icu(_)) => true,
        (QueueClass::Mem, Instruction::Mem(_))
        | (QueueClass::Vxm, Instruction::Vxm(_))
        | (QueueClass::Sxm, Instruction::Sxm(_))
        | (QueueClass::C2c, Instruction::C2c(_)) => true,
        (QueueClass::Mxm(plane), Instruction::Mxm(op)) => op.plane() == plane,
        _ => false,
    }
}

/// Why `instr` cannot issue as a single-cycle op on `class`, if it cannot:
/// ICU ops and bursts never do (only `Repeat` asks), host queues execute
/// nothing, and SXM ops must pass their shape check.
fn single_issue_error(class: QueueClass, instr: &Instruction) -> Option<(InvalidKind, String)> {
    if class == QueueClass::Host
        || matches!(instr, Instruction::Icu(_))
        || is_burst(instr)
        || !executes(class, instr)
    {
        return Some((InvalidKind::WrongSlice, instr.to_string()));
    }
    match instr {
        Instruction::Sxm(op) => op
            .validate()
            .err()
            .map(|reason| (InvalidKind::InvalidInstruction, reason)),
        _ => None,
    }
}

/// The per-dispatch reading of raw queue text, up to the first error.
fn reference(class: QueueClass, text: &[Instruction]) -> Vec<Dispatch> {
    let mut out = Vec::new();
    for (i, instr) in text.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| &text[j]);
        let icu = |action, delay| Dispatch {
            action,
            delay,
            counts: Counts::Instruction,
        };
        match instr {
            Instruction::Icu(IcuOp::Nop { count }) => out.push(Dispatch {
                action: Action::Nop,
                delay: Some(u64::from((*count).max(1))),
                counts: Counts::Nop,
            }),
            Instruction::Icu(IcuOp::Sync) => out.push(icu(Action::Sync, None)),
            Instruction::Icu(IcuOp::Notify) => {
                out.push(icu(Action::Notify, Some(u64::from(BARRIER_SYNC_CYCLES))))
            }
            Instruction::Icu(IcuOp::Config { superlanes }) => {
                out.push(icu(Action::Config(*superlanes), Some(1)));
            }
            Instruction::Icu(IcuOp::Ifetch { stream }) => {
                if class == QueueClass::Host {
                    out.push(invalid(
                        InvalidKind::WrongSlice,
                        "Ifetch".into(),
                        Counts::Instruction,
                    ));
                    break;
                }
                out.push(icu(Action::Ifetch(*stream), Some(2)));
            }
            Instruction::Icu(IcuOp::Repeat { n, d }) => {
                let Some(prev) = prev else {
                    out.push(invalid(
                        InvalidKind::InvalidInstruction,
                        "Repeat with no previous instruction".into(),
                        Counts::Instruction,
                    ));
                    break;
                };
                if *n == 0 {
                    out.push(icu(Action::Empty, Some(1)));
                    continue;
                }
                if let Some((kind, detail)) = single_issue_error(class, prev) {
                    out.push(invalid(kind, detail, Counts::Instruction));
                    break;
                }
                for k in 0..*n {
                    let copy = match prev {
                        Instruction::Mem(op) => walk(*op, u32::from(k) + 1).map(Instruction::Mem),
                        other => Ok(other.clone()),
                    };
                    match copy {
                        Ok(instr) => out.push(Dispatch {
                            action: Action::Exec {
                                d_func: Some(instr.time_model().d_func),
                                instr,
                                row: 0,
                            },
                            delay: Some(u64::from((*d).max(1))),
                            counts: first(k),
                        }),
                        Err(detail) => {
                            out.push(invalid(InvalidKind::InvalidInstruction, detail, first(k)));
                            break;
                        }
                    }
                }
                if matches!(out.last(), Some(Dispatch { delay: None, .. })) {
                    break;
                }
            }
            Instruction::Mxm(op) if is_burst(instr) => {
                if class == QueueClass::Host || !executes(class, instr) {
                    out.push(invalid(
                        InvalidKind::WrongSlice,
                        instr.to_string(),
                        Counts::Instruction,
                    ));
                    break;
                }
                let rows = match op {
                    MxmOp::LoadWeights { rows, .. } => u16::from(*rows),
                    MxmOp::ActivationBuffer { rows, .. } => *rows,
                    MxmOp::Accumulate { dst, rows, .. } => {
                        if dst.width != 4 {
                            out.push(invalid(
                                InvalidKind::InvalidInstruction,
                                format!("ACC destination must be a quad-stream group, got {dst}"),
                                Counts::Instruction,
                            ));
                            break;
                        }
                        *rows
                    }
                    MxmOp::InstallWeights { .. } => unreachable!("not a burst"),
                };
                for row in 0..rows.max(1) {
                    out.push(Dispatch {
                        action: Action::Exec {
                            instr: instr.clone(),
                            row,
                            d_func: None,
                        },
                        delay: Some(1),
                        counts: first(row),
                    });
                }
            }
            _ => {
                if let Some((kind, detail)) = single_issue_error(class, instr) {
                    out.push(invalid(kind, detail, Counts::Instruction));
                    break;
                }
                out.push(Dispatch {
                    action: Action::Exec {
                        instr: instr.clone(),
                        row: 0,
                        d_func: Some(instr.time_model().d_func),
                    },
                    delay: Some(1),
                    counts: Counts::Instruction,
                });
            }
        }
    }
    out
}

/// Unrolls decoded op spans into dispatches, up to the first error: span
/// iteration `sub` lands `stride` cycles after the previous one and counts
/// only at `sub == 0`; MEM span iteration `sub` accesses word
/// `addr + off + sub`.
fn expand(ops: &[DecodedOp]) -> Vec<Dispatch> {
    let mut out = Vec::new();
    let exec = |instr: Instruction, d_func: u32, stride: u16, sub: u16| Dispatch {
        action: Action::Exec {
            instr,
            row: 0,
            d_func: Some(d_func),
        },
        delay: Some(u64::from(stride)),
        counts: first(sub),
    };
    let icu = |action, delay| Dispatch {
        action,
        delay,
        counts: Counts::Instruction,
    };
    for op in ops {
        match op {
            DecodedOp::Nop { advance } => out.push(Dispatch {
                action: Action::Nop,
                delay: Some(u64::from(*advance)),
                counts: Counts::Nop,
            }),
            DecodedOp::Sync => out.push(icu(Action::Sync, None)),
            DecodedOp::Notify => {
                out.push(icu(Action::Notify, Some(u64::from(BARRIER_SYNC_CYCLES))))
            }
            DecodedOp::Config { superlanes } => {
                out.push(icu(Action::Config(*superlanes), Some(1)));
            }
            DecodedOp::Ifetch { stream } => out.push(icu(Action::Ifetch(*stream), Some(2))),
            DecodedOp::RepeatEmpty => out.push(icu(Action::Empty, Some(1))),
            DecodedOp::Invalid(inv) => {
                out.push(invalid(inv.kind, inv.detail.clone(), Counts::Instruction));
                break;
            }
            DecodedOp::Mem {
                op,
                n,
                stride,
                d_func,
                off,
            } => {
                for sub in 0..*n {
                    let walked = if *off == 0 {
                        Ok(*op)
                    } else {
                        walk(*op, u32::from(*off) + u32::from(sub))
                    };
                    match walked {
                        Ok(op) => out.push(exec(Instruction::Mem(op), *d_func, *stride, sub)),
                        Err(detail) => {
                            out.push(invalid(InvalidKind::InvalidInstruction, detail, first(sub)));
                            return out;
                        }
                    }
                }
            }
            DecodedOp::Vxm {
                op,
                n,
                stride,
                d_func,
            } => (0..*n).for_each(|sub| out.push(exec((*op).into(), *d_func, *stride, sub))),
            DecodedOp::Sxm {
                op,
                n,
                stride,
                d_func,
            } => (0..*n).for_each(|sub| out.push(exec(op.clone().into(), *d_func, *stride, sub))),
            DecodedOp::C2c {
                op,
                n,
                stride,
                d_func,
            } => (0..*n).for_each(|sub| out.push(exec((*op).into(), *d_func, *stride, sub))),
            DecodedOp::MxmInstall {
                plane,
                dtype,
                d_func,
                n,
                stride,
            } => {
                let iw = MxmOp::InstallWeights {
                    plane: *plane,
                    dtype: *dtype,
                };
                (0..*n).for_each(|sub| out.push(exec(iw.into(), *d_func, *stride, sub)));
            }
            DecodedOp::MxmBurst { op, rows } => {
                for row in 0..*rows {
                    out.push(Dispatch {
                        action: Action::Exec {
                            instr: (*op).into(),
                            row,
                            d_func: None,
                        },
                        delay: Some(1),
                        counts: first(row),
                    });
                }
            }
        }
    }
    out
}

/// Decodes `text` and checks it against the reference.
fn assert_matches_reference(class: QueueClass, text: &[Instruction]) {
    let decoded = decode_queue(class, text);
    assert_eq!(decoded.ops.len(), text.len(), "one op per instruction");
    assert_eq!(decoded.tail.as_ref(), text.last(), "tail");
    assert_eq!(
        expand(&decoded.ops),
        reference(class, text),
        "{class:?} queue {text:?}"
    );
}

/// Every queue class, each MXM plane included.
fn classes() -> impl Iterator<Item = QueueClass> {
    [QueueClass::Mem, QueueClass::Vxm]
        .into_iter()
        .chain(Plane::all().map(QueueClass::Mxm))
        .chain([QueueClass::Sxm, QueueClass::C2c, QueueClass::Host])
}

fn read(word: u16) -> Instruction {
    MemOp::Read {
        addr: MemAddr::new(word),
        stream: StreamId::east(1),
    }
    .into()
}

fn write(word: u16) -> Instruction {
    MemOp::Write {
        addr: MemAddr::new(word),
        stream: StreamId::west(2),
    }
    .into()
}

fn repeat(n: u16, d: u16) -> Instruction {
    IcuOp::Repeat { n, d }.into()
}

fn lw(plane: u8, rows: u8) -> Instruction {
    MxmOp::LoadWeights {
        plane: Plane::new(plane),
        streams: StreamGroup::new(StreamId::east(0), 16),
        rows,
    }
    .into()
}

fn acc(plane: u8, width: u8, rows: u16) -> Instruction {
    MxmOp::Accumulate {
        plane: Plane::new(plane),
        dst: StreamGroup::new(StreamId::west(0), width),
        rows,
        mode: AccumulateMode::Accumulate,
    }
    .into()
}

fn unary() -> Instruction {
    VxmOp::Unary {
        op: UnaryAluOp::Relu,
        dtype: DataType::Int8,
        src: StreamGroup::new(StreamId::east(3), 1),
        dst: StreamGroup::new(StreamId::west(3), 1),
        alu: AluIndex::new(1),
    }
    .into()
}

fn nop(count: u16) -> Instruction {
    IcuOp::Nop { count }.into()
}

/// The edge cases, each on every queue class.
#[test]
fn edge_cases_match_the_reference() {
    let cases: Vec<Vec<Instruction>> = vec![
        // `Repeat` first in a queue, and `Repeat 0`.
        vec![repeat(3, 1)],
        vec![repeat(0, 1)],
        vec![read(4), repeat(0, 5), repeat(2, 0)],
        // After ICU ops.
        vec![nop(0), repeat(2, 1)],
        vec![IcuOp::Sync.into(), repeat(1, 1)],
        vec![IcuOp::Config { superlanes: 7 }.into(), repeat(1, 1)],
        // After burst ops, including zero-row bursts.
        vec![lw(0, 0), repeat(2, 1)],
        vec![acc(1, 4, 0), acc(1, 4, 3), repeat(1, 1)],
        vec![acc(2, 2, 1)],
        // Walking toward word 8191: the last copy ends exactly there, or
        // one past it.
        vec![read(8188), repeat(3, 2)],
        vec![write(8189), repeat(3, 1)],
        vec![read(8191), repeat(1, 1)],
        vec![read(0), repeat(u16::MAX, 1)],
        // Repeats of every single-issue kind.
        vec![unary(), repeat(2, 3)],
        vec![
            MxmOp::InstallWeights {
                plane: Plane::new(3),
                dtype: DataType::Fp16,
            }
            .into(),
            repeat(2, 2),
        ],
        vec![
            C2cOp::Deskew {
                link: LinkId::new(5),
            }
            .into(),
            repeat(4, 1),
        ],
        // Ifetch (host queues reject it).
        vec![
            IcuOp::Ifetch {
                stream: StreamId::east(9),
            }
            .into(),
            IcuOp::Notify.into(),
        ],
    ];
    for class in classes() {
        for text in &cases {
            assert_matches_reference(class, text);
        }
    }
}

/// A stream id from `0..32` in either direction.
fn arb_stream() -> impl Strategy<Value = StreamId> {
    (0u8..32, any::<bool>()).prop_map(|(id, east)| {
        if east {
            StreamId::east(id)
        } else {
            StreamId::west(id)
        }
    })
}

/// Word addresses clustered at both ends of the slice, so `Repeat` walks
/// regularly reach word 8191.
fn arb_word() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..8, 8180u16..8192]
}

fn arb_icu() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (0u16..4).prop_map(nop),
        any::<bool>().prop_map(|sync| if sync { IcuOp::Sync } else { IcuOp::Notify }.into()),
        (0u8..24).prop_map(|superlanes| IcuOp::Config { superlanes }.into()),
        arb_stream().prop_map(|stream| IcuOp::Ifetch { stream }.into()),
    ]
}

fn arb_mem() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (arb_word(), arb_stream()).prop_map(|(word, stream)| MemOp::Read {
            addr: MemAddr::new(word),
            stream
        }
        .into()),
        (arb_word(), arb_stream()).prop_map(|(word, stream)| MemOp::Write {
            addr: MemAddr::new(word),
            stream
        }
        .into()),
        (arb_stream(), arb_stream()).prop_map(|(stream, map)| MemOp::Gather { stream, map }.into()),
    ]
}

fn arb_vxm() -> impl Strategy<Value = Instruction> {
    (0u8..4, 0u8..8).prop_map(|(alu, op)| {
        VxmOp::Unary {
            op: if op < 4 {
                UnaryAluOp::Relu
            } else {
                UnaryAluOp::Tanh
            },
            dtype: DataType::Int8,
            src: StreamGroup::new(StreamId::east(op), 1),
            dst: StreamGroup::new(StreamId::west(op), 1),
            alu: AluIndex::new(alu),
        }
        .into()
    })
}

/// An MXM op awaiting its plane: `LW`, `ABC`, `ACC` (bursts of 0–2 rows,
/// `ACC` groups of any width) or `IW`.
#[derive(Debug, Clone)]
struct MxmPick {
    kind: u8,
    rows: u8,
    width_log2: u8,
    fp16: bool,
}

impl MxmPick {
    fn on(&self, plane: u8) -> Instruction {
        match self.kind {
            0 => lw(plane, self.rows),
            1 => MxmOp::ActivationBuffer {
                plane: Plane::new(plane),
                stream: StreamId::east(4),
                rows: self.rows.into(),
            }
            .into(),
            2 => acc(plane, 1 << self.width_log2, self.rows.into()),
            _ => MxmOp::InstallWeights {
                plane: Plane::new(plane),
                dtype: if self.fp16 {
                    DataType::Fp16
                } else {
                    DataType::Int8
                },
            }
            .into(),
        }
    }
}

fn arb_mxm() -> impl Strategy<Value = MxmPick> {
    (0u8..4, 0u8..3, 0u8..4, any::<bool>()).prop_map(|(kind, rows, width_log2, fp16)| MxmPick {
        kind,
        rows,
        width_log2,
        fp16,
    })
}

/// SXM ops, shapes valid or not.
fn arb_sxm() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (arb_stream(), arb_stream(), 0u16..400).prop_map(|(north, south, boundary)| {
            SxmOp::Select {
                north,
                south,
                boundary,
                dst: StreamId::east(5),
            }
            .into()
        }),
        (2u8..6, 2u8..6).prop_map(|(n, rows)| SxmOp::Rotate {
            n,
            src: StreamRange::new(StreamId::east(0), rows),
            dst: StreamRange::new(StreamId::west(0), n * n),
        }
        .into()),
    ]
}

fn arb_c2c() -> impl Strategy<Value = Instruction> {
    (0u8..16, arb_stream(), 0u8..3).prop_map(|(link, stream, kind)| {
        let link = LinkId::new(link);
        match kind {
            0 => C2cOp::Deskew { link },
            1 => C2cOp::Send { link, stream },
            _ => C2cOp::Receive { link, stream },
        }
        .into()
    })
}

/// One queue entry before it is placed on a queue: a candidate instruction
/// of every kind, and rolls choosing among them.
#[derive(Debug, Clone)]
struct Entry {
    roll: u8,
    foreign: u8,
    icu: Instruction,
    repeat: Instruction,
    mem: Instruction,
    vxm: Instruction,
    mxm: MxmPick,
    sxm: Instruction,
    c2c: Instruction,
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        (0u8..10, 0u8..20, arb_icu()),
        prop_oneof![
            (0u16..6, 0u16..4).prop_map(|(n, d)| repeat(n, d)),
            (0u16..14, 0u16..3).prop_map(|(n, d)| repeat(n, d)),
        ],
        (arb_mem(), arb_vxm(), arb_mxm()),
        (arb_sxm(), arb_c2c()),
    )
        .prop_map(
            |((roll, foreign, icu), repeat, (mem, vxm, mxm), (sxm, c2c))| Entry {
                roll,
                foreign,
                icu,
                repeat,
                mem,
                vxm,
                mxm,
                sxm,
                c2c,
            },
        )
}

impl Entry {
    /// The instruction this entry puts on a `class` queue: mostly the
    /// queue's own kind, often an ICU op or `Repeat`, sometimes any kind
    /// (usually misrouted).
    fn place(&self, class: QueueClass) -> Instruction {
        let kind = |k: u8| match k {
            0 => self.mem.clone(),
            1 => self.vxm.clone(),
            2..=5 => self.mxm.on(k - 2),
            6 => self.sxm.clone(),
            _ => self.c2c.clone(),
        };
        match self.roll {
            0 => kind(self.foreign % 8),
            1..=2 => self.icu.clone(),
            3..=4 => self.repeat.clone(),
            _ => match class {
                QueueClass::Mem => kind(0),
                QueueClass::Vxm => kind(1),
                QueueClass::Mxm(plane) => kind(2 + plane.index()),
                QueueClass::Sxm => kind(6),
                QueueClass::C2c => kind(7),
                QueueClass::Host => self.icu.clone(),
            },
        }
    }
}

fn place(class: QueueClass, entries: &[Entry]) -> Vec<Instruction> {
    entries.iter().map(|e| e.place(class)).collect()
}

proptest! {
    /// Random instruction lists on every queue class.
    #[test]
    fn random_queues_match_the_reference(
        entries in proptest::collection::vec(arb_entry(), 0..12),
    ) {
        for class in classes() {
            assert_matches_reference(class, &place(class, &entries));
        }
    }

    /// Text fetched at runtime decodes as if it had been part of the queue
    /// all along: `decode_step` chained from the queue's `tail` continues
    /// `decode_queue` exactly.
    #[test]
    fn fetched_text_continues_the_queue(
        head in proptest::collection::vec(arb_entry(), 0..6),
        fetched in proptest::collection::vec(arb_entry(), 0..6),
    ) {
        for class in classes() {
            let (head, fetched) = (place(class, &head), place(class, &fetched));
            let mut ops = decode_queue(class, &head);
            for instr in &fetched {
                let op = decode_step(class, ops.tail.as_ref(), instr);
                ops.ops.push(op);
                ops.tail = Some(instr.clone());
            }
            let whole: Vec<Instruction> = head.iter().chain(&fetched).cloned().collect();
            prop_assert_eq!(ops, decode_queue(class, &whole));
        }
    }
}
