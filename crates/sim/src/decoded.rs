//! Whole-program decoded-instruction cache ([`DecodedProgram`]).
//!
//! Lowers every ICU queue of a [`Program`] into the dense [`DecodedOp`]
//! representation of [`tsp_isa::decoded`] exactly once, so the dispatch hot
//! loop ([`crate::Chip::run_decoded`]) walks flat op spans instead of
//! re-decoding instruction text on every dispatch. Decoding is pure — it
//! reads only the program — so a `DecodedProgram` can be memoized alongside a
//! compiled model and shared across runs, chips and threads.

use tsp_isa::decoded::{decode_queue, DecodedQueue, QueueClass};

use crate::icu_id::IcuId;
use crate::program::Program;

/// A program lowered to decoded op spans, one queue per ICU, in the
/// program's deterministic queue order.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) queues: Vec<(IcuId, DecodedQueue)>,
}

/// The [`QueueClass`] an ICU's queue decodes under.
#[must_use]
pub fn class_of(icu: IcuId) -> QueueClass {
    match icu {
        IcuId::Mem { .. } => QueueClass::Mem,
        IcuId::Vxm { .. } => QueueClass::Vxm,
        IcuId::Mxm { plane, .. } => QueueClass::Mxm(plane),
        IcuId::Sxm { .. } => QueueClass::Sxm,
        IcuId::C2c { .. } => QueueClass::C2c,
        IcuId::Host { .. } => QueueClass::Host,
    }
}

impl DecodedProgram {
    /// Decodes every queue of `program`. Statically invalid instructions —
    /// misrouted ones, caught by the decode-time `routes` check, and bad
    /// shapes — never fail the decode: they become
    /// [`tsp_isa::DecodedOp::Invalid`] ops that raise their [`SimError`]
    /// at their dispatch cycle.
    ///
    /// [`SimError`]: crate::SimError
    #[must_use]
    pub fn decode(program: &Program) -> DecodedProgram {
        DecodedProgram {
            queues: program
                .queues()
                .map(|(icu, instrs)| (icu, decode_queue(class_of(icu), instrs)))
                .collect(),
        }
    }

    /// The decoded queues in dispatch-seeding order.
    #[must_use]
    pub fn queues(&self) -> &[(IcuId, DecodedQueue)] {
        &self.queues
    }

    /// Total decoded ops across all queues (= total source instructions).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.ops.len()).sum()
    }

    /// Whether the program has no instructions at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
