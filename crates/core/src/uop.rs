//! The FP issue record: an FP instruction decoded once, when the integer
//! core offloads it.
//!
//! The issue stage looks at the instruction at the head of the sequencer
//! on every attempt, and a stalled instruction is attempted every cycle
//! until it issues. Everything that attempt needs from the encoding —
//! which unit the instruction targets, which registers it reads and in
//! which operand positions — is fixed by the instruction alone, so it is
//! derived here once and carried in [`crate::OffloadedFp`]. FREP replays
//! reuse the record from the sequence buffer; register staggering, which
//! renames operands, decodes the renamed instruction afresh.

use sc_fpu::FpuOp;
use sc_isa::{FpFormat, FpReg, Instruction};

/// What an offloaded FP instruction does once it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpUopKind {
    /// FP load into `frd` through the FP load/store unit.
    Load {
        /// Access width.
        fmt: FpFormat,
        /// Destination register.
        frd: FpReg,
    },
    /// FP store of the first operand through the FP load/store unit.
    Store {
        /// Access width.
        fmt: FpFormat,
    },
    /// An FPU operation.
    Compute {
        /// The operation.
        op: FpuOp,
        /// Its format.
        fmt: FpFormat,
    },
}

/// Operand slot that reads as zero: a position the instruction does not
/// use, or the integer-sourced operand of an int→float conversion.
const ZERO_SLOT: u8 = 3;

/// A decoded FP instruction: its [`FpUopKind`], the distinct FP registers
/// it reads, and where each operand position takes its value from.
///
/// A register named in two operand positions (`fmadd f3, f0, f0, f0`) is
/// one register-file read or one chained/stream pop, broadcast to every
/// position that names it; the record lists it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpUop {
    kind: FpUopKind,
    /// Distinct source registers in first-use order; `num_sources` valid.
    sources: [FpReg; 3],
    num_sources: u8,
    /// Per operand position: index into `sources`, or [`ZERO_SLOT`].
    operands: [u8; 3],
}

impl FpUop {
    /// Decodes an FP instruction. Returns `None` for instructions the
    /// integer core executes itself (everything
    /// [`Instruction::is_fp`] rejects).
    #[must_use]
    pub fn decode(inst: &Instruction) -> Option<FpUop> {
        let kind = match *inst {
            Instruction::FpLoad { fmt, frd, .. } => FpUopKind::Load { fmt, frd },
            Instruction::FpStore { fmt, .. } => FpUopKind::Store { fmt },
            _ => {
                let (op, fmt) = FpuOp::from_instruction(inst)?;
                FpUopKind::Compute { op, fmt }
            }
        };
        let mut uop = FpUop {
            kind,
            sources: [FpReg::new(0); 3],
            num_sources: 0,
            operands: [ZERO_SLOT; 3],
        };
        // `fp_sources` lists the registers in operand-position order (the
        // store's data register is its only operand).
        for (pos, reg) in inst.fp_sources().enumerate() {
            let n = usize::from(uop.num_sources);
            let slot = match uop.sources[..n].iter().position(|&s| s == reg) {
                Some(slot) => slot,
                None => {
                    uop.sources[n] = reg;
                    uop.num_sources += 1;
                    n
                }
            };
            uop.operands[pos] = slot as u8;
        }
        Some(uop)
    }

    /// What the instruction does once it issues.
    #[must_use]
    pub fn kind(&self) -> FpUopKind {
        self.kind
    }

    /// The distinct FP registers read, in first-use order.
    #[must_use]
    pub fn sources(&self) -> &[FpReg] {
        &self.sources[..usize::from(self.num_sources)]
    }

    /// The positional operands, given the value read for each of
    /// [`FpUop::sources`] (in the same order) in `values[..3]`;
    /// `values[3]` must be zero. Unused positions read as zero.
    pub(crate) fn operand_values(&self, values: &[u64; 4]) -> [u64; 3] {
        self.operands.map(|slot| values[usize::from(slot)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_isa::{FmaOp, FpBinOp, FpCmpOp, FpCvtOp, IntReg};

    /// Registers drawn from a small pool so repeats are common.
    fn fp_reg() -> impl Strategy<Value = FpReg> {
        prop_oneof![
            (0u8..4).prop_map(FpReg::new),
            (0u8..32).prop_map(FpReg::new)
        ]
    }

    fn fmt() -> impl Strategy<Value = FpFormat> {
        prop_oneof![Just(FpFormat::Single), Just(FpFormat::Double)]
    }

    fn cvt_op() -> impl Strategy<Value = FpCvtOp> {
        prop_oneof![
            Just(FpCvtOp::DFromW),
            Just(FpCvtOp::DFromWu),
            Just(FpCvtOp::WFromD),
            Just(FpCvtOp::WuFromD),
            Just(FpCvtOp::DFromS),
            Just(FpCvtOp::SFromD),
            Just(FpCvtOp::MvXW),
            Just(FpCvtOp::MvWX),
        ]
    }

    /// Every FP instruction shape the issue stage sees.
    fn fp_instruction() -> impl Strategy<Value = Instruction> {
        let int = (0u8..32).prop_map(IntReg::new);
        prop_oneof![
            (fmt(), fp_reg(), fp_reg(), fp_reg(), 0u8..9).prop_map(|(fmt, frd, frs1, frs2, op)| {
                let op = [
                    FpBinOp::Add,
                    FpBinOp::Sub,
                    FpBinOp::Mul,
                    FpBinOp::Div,
                    FpBinOp::Min,
                    FpBinOp::Max,
                    FpBinOp::Sgnj,
                    FpBinOp::Sgnjn,
                    FpBinOp::Sgnjx,
                ][usize::from(op)];
                Instruction::FpBin {
                    op,
                    fmt,
                    frd,
                    frs1,
                    frs2,
                }
            }),
            (fmt(), fp_reg(), fp_reg(), fp_reg(), fp_reg(), 0u8..4).prop_map(
                |(fmt, frd, frs1, frs2, frs3, op)| Instruction::FpFma {
                    op: [FmaOp::Madd, FmaOp::Msub, FmaOp::Nmsub, FmaOp::Nmadd][usize::from(op)],
                    fmt,
                    frd,
                    frs1,
                    frs2,
                    frs3,
                }
            ),
            (fmt(), fp_reg(), fp_reg()).prop_map(|(fmt, frd, frs1)| Instruction::FpSqrt {
                fmt,
                frd,
                frs1
            }),
            (fmt(), int.clone(), fp_reg(), fp_reg(), 0u8..3).prop_map(
                |(fmt, rd, frs1, frs2, op)| Instruction::FpCmp {
                    op: [FpCmpOp::Eq, FpCmpOp::Lt, FpCmpOp::Le][usize::from(op)],
                    fmt,
                    rd,
                    frs1,
                    frs2,
                }
            ),
            (cvt_op(), int.clone(), fp_reg(), int.clone(), fp_reg()).prop_map(
                |(op, rd, frd, rs1, frs1)| Instruction::FpCvt {
                    op,
                    rd,
                    frd,
                    rs1,
                    frs1,
                }
            ),
            (fmt(), fp_reg(), int.clone(), -2048i32..2048).prop_map(|(fmt, frd, rs1, offset)| {
                Instruction::FpLoad {
                    fmt,
                    frd,
                    rs1,
                    offset,
                }
            }),
            (fmt(), fp_reg(), int, -2048i32..2048).prop_map(|(fmt, frs2, rs1, offset)| {
                Instruction::FpStore {
                    fmt,
                    frs2,
                    rs1,
                    offset,
                }
            }),
        ]
    }

    /// The issue stage's operand mapping before the record existed: each
    /// position looked its register up among the distinct reads.
    fn positional_by_lookup(inst: &Instruction, read: &[(FpReg, u64)]) -> [u64; 3] {
        let lookup = |reg: FpReg| -> u64 {
            read.iter()
                .find(|(r, _)| *r == reg)
                .map(|(_, b)| *b)
                .expect("operand read")
        };
        match *inst {
            Instruction::FpStore { frs2, .. } => [lookup(frs2), 0, 0],
            Instruction::FpLoad { .. } => [0, 0, 0],
            Instruction::FpBin { frs1, frs2, .. } | Instruction::FpCmp { frs1, frs2, .. } => {
                [lookup(frs1), lookup(frs2), 0]
            }
            Instruction::FpFma {
                frs1, frs2, frs3, ..
            } => [lookup(frs1), lookup(frs2), lookup(frs3)],
            Instruction::FpSqrt { frs1, .. } => [lookup(frs1), 0, 0],
            Instruction::FpCvt { op, frs1, .. } => {
                if op.reads_int() {
                    [0, 0, 0]
                } else {
                    [lookup(frs1), 0, 0]
                }
            }
            _ => unreachable!("not an FP instruction"),
        }
    }

    proptest! {
        #[test]
        fn decode_matches_the_per_attempt_derivation(
            inst in fp_instruction(),
            salt in any::<u64>(),
        ) {
            let uop = FpUop::decode(&inst).expect("FP instructions decode");

            // Sources: `fp_sources` deduplicated in first-use order.
            let mut distinct: Vec<FpReg> = Vec::new();
            for s in inst.fp_sources() {
                if !distinct.contains(&s) {
                    distinct.push(s);
                }
            }
            prop_assert_eq!(uop.sources(), &distinct[..]);

            // Kind: the unit and operation the instruction targets.
            let want = match inst {
                Instruction::FpLoad { fmt, frd, .. } => FpUopKind::Load { fmt, frd },
                Instruction::FpStore { fmt, .. } => FpUopKind::Store { fmt },
                _ => {
                    let (op, fmt) = FpuOp::from_instruction(&inst).expect("compute op");
                    FpUopKind::Compute { op, fmt }
                }
            };
            prop_assert_eq!(uop.kind(), want);

            // Operands: a distinct value per source reproduces the old
            // lookup, position by position.
            let mut values = [0u64; 4];
            let mut read = Vec::new();
            for (k, &s) in uop.sources().iter().enumerate() {
                let bits = salt ^ (u64::from(s.index()) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                values[k] = bits;
                read.push((s, bits));
            }
            prop_assert_eq!(
                uop.operand_values(&values),
                positional_by_lookup(&inst, &read)
            );
        }
    }

    #[test]
    fn repeated_register_is_one_source_in_every_position() {
        let f = FpReg::new;
        let inst = Instruction::FpFma {
            op: FmaOp::Madd,
            fmt: FpFormat::Double,
            frd: f(3),
            frs1: f(0),
            frs2: f(0),
            frs3: f(0),
        };
        let uop = FpUop::decode(&inst).expect("FP instruction");
        assert_eq!(uop.sources(), &[f(0)]);
        assert_eq!(uop.operand_values(&[7, 0, 0, 0]), [7, 7, 7]);
    }

    #[test]
    fn integer_instructions_do_not_decode() {
        assert_eq!(FpUop::decode(&Instruction::Ecall), None);
    }
}
