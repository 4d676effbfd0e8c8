//! The instruction set understood by the core model.
//!
//! Covers the subset of RV32IMFD that the paper's kernels need, the CSR
//! instructions, and the custom extensions of the Snitch-like core:
//!
//! * `frep.o` / `frep.i` — floating-point repetition (hardware loop),
//! * `scfgwi` / `scfgri` — stream semantic register configuration.
//!
//! [`Instruction`] is a plain data enum; binary encodings live in
//! [`crate::encode`] / [`crate::decode`], textual assembly in [`crate::asm`].

use std::fmt;

use crate::csr::CsrOp;
use crate::reg::{FpReg, IntReg};

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

impl BranchOp {
    /// Evaluates the branch condition on two 32-bit operands.
    #[must_use]
    pub fn evaluate(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Eq => a == b,
            BranchOp::Ne => a != b,
            BranchOp::Lt => (a as i32) < (b as i32),
            BranchOp::Ge => (a as i32) >= (b as i32),
            BranchOp::Ltu => a < b,
            BranchOp::Geu => a >= b,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Eq => "beq",
            BranchOp::Ne => "bne",
            BranchOp::Lt => "blt",
            BranchOp::Ge => "bge",
            BranchOp::Ltu => "bltu",
            BranchOp::Geu => "bgeu",
        }
    }
}

/// Integer load widths/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extended.
    Lb,
    /// Load half, sign-extended.
    Lh,
    /// Load word.
    Lw,
    /// Load byte, zero-extended.
    Lbu,
    /// Load half, zero-extended.
    Lhu,
}

impl LoadOp {
    /// Access size in bytes.
    #[must_use]
    pub fn size(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
        }
    }
}

/// Integer store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store half.
    Sh,
    /// Store word.
    Sw,
}

impl StoreOp {
    /// Access size in bytes.
    #[must_use]
    pub fn size(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
        }
    }
}

/// ALU operations shared by register-register and register-immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`sub` is only valid in the register-register form).
    Add,
    /// Subtraction (register-register only).
    Sub,
    /// Shift left logical.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl AluOp {
    /// Evaluates the operation on two 32-bit operands.
    #[must_use]
    pub fn evaluate(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1F),
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1F),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1F)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
        }
    }
}

/// RV32M multiply/divide operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of signed × signed.
    Mulh,
    /// High 32 bits of signed × unsigned.
    Mulhsu,
    /// High 32 bits of unsigned × unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

impl MulDivOp {
    /// Evaluates the operation with RISC-V division-by-zero semantics.
    #[must_use]
    pub fn evaluate(self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Mulh => (((sa as i64) * (sb as i64)) >> 32) as u32,
            MulDivOp::Mulhsu => (((sa as i64) * (b as u64 as i64)) >> 32) as u32,
            MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            MulDivOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if sa == i32::MIN && sb == -1 {
                    a
                } else {
                    sa.wrapping_div(sb) as u32
                }
            }
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulDivOp::Rem => {
                if b == 0 {
                    a
                } else if sa == i32::MIN && sb == -1 {
                    0
                } else {
                    sa.wrapping_rem(sb) as u32
                }
            }
            MulDivOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mul => "mul",
            MulDivOp::Mulh => "mulh",
            MulDivOp::Mulhsu => "mulhsu",
            MulDivOp::Mulhu => "mulhu",
            MulDivOp::Div => "div",
            MulDivOp::Divu => "divu",
            MulDivOp::Rem => "rem",
            MulDivOp::Remu => "remu",
        }
    }
}

/// Floating-point operand/result format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpFormat {
    /// IEEE-754 binary32 (`.s`).
    Single,
    /// IEEE-754 binary64 (`.d`).
    Double,
}

impl FpFormat {
    /// Access size in bytes for loads/stores of this format.
    #[must_use]
    pub fn size(self) -> u32 {
        match self {
            FpFormat::Single => 4,
            FpFormat::Double => 8,
        }
    }

    /// Mnemonic suffix (`"s"` or `"d"`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            FpFormat::Single => "s",
            FpFormat::Double => "d",
        }
    }
}

/// Two-operand floating-point compute operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (iterative in hardware).
    Div,
    /// Sign injection (copy sign of rs2).
    Sgnj,
    /// Sign injection, negated.
    Sgnjn,
    /// Sign injection, xored.
    Sgnjx,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl FpBinOp {
    fn mnemonic(self) -> &'static str {
        match self {
            FpBinOp::Add => "fadd",
            FpBinOp::Sub => "fsub",
            FpBinOp::Mul => "fmul",
            FpBinOp::Div => "fdiv",
            FpBinOp::Sgnj => "fsgnj",
            FpBinOp::Sgnjn => "fsgnjn",
            FpBinOp::Sgnjx => "fsgnjx",
            FpBinOp::Min => "fmin",
            FpBinOp::Max => "fmax",
        }
    }
}

/// Fused multiply-add family: `frd = ±(frs1 × frs2) ± frs3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaOp {
    /// `frs1*frs2 + frs3`.
    Madd,
    /// `frs1*frs2 - frs3`.
    Msub,
    /// `-(frs1*frs2) + frs3`.
    Nmsub,
    /// `-(frs1*frs2) - frs3`.
    Nmadd,
}

impl FmaOp {
    fn mnemonic(self) -> &'static str {
        match self {
            FmaOp::Madd => "fmadd",
            FmaOp::Msub => "fmsub",
            FmaOp::Nmsub => "fnmsub",
            FmaOp::Nmadd => "fnmadd",
        }
    }
}

/// Floating-point comparisons writing an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    /// Equal.
    Eq,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
}

impl FpCmpOp {
    fn mnemonic(self) -> &'static str {
        match self {
            FpCmpOp::Eq => "feq",
            FpCmpOp::Lt => "flt",
            FpCmpOp::Le => "fle",
        }
    }
}

/// Conversions and cross-file moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCvtOp {
    /// `fcvt.d.w`: signed 32-bit int → double.
    DFromW,
    /// `fcvt.d.wu`: unsigned 32-bit int → double.
    DFromWu,
    /// `fcvt.w.d`: double → signed 32-bit int (rtz in this model).
    WFromD,
    /// `fcvt.wu.d`: double → unsigned 32-bit int.
    WuFromD,
    /// `fcvt.d.s`: single → double.
    DFromS,
    /// `fcvt.s.d`: double → single.
    SFromD,
    /// `fmv.x.w`: bit move f → x (low 32 bits).
    MvXW,
    /// `fmv.w.x`: bit move x → f (low 32 bits).
    MvWX,
}

impl FpCvtOp {
    /// Whether the destination is an integer register.
    #[must_use]
    pub fn writes_int(self) -> bool {
        matches!(self, FpCvtOp::WFromD | FpCvtOp::WuFromD | FpCvtOp::MvXW)
    }

    /// Whether the source is an integer register.
    #[must_use]
    pub fn reads_int(self) -> bool {
        matches!(self, FpCvtOp::DFromW | FpCvtOp::DFromWu | FpCvtOp::MvWX)
    }

    fn mnemonic(self) -> &'static str {
        match self {
            FpCvtOp::DFromW => "fcvt.d.w",
            FpCvtOp::DFromWu => "fcvt.d.wu",
            FpCvtOp::WFromD => "fcvt.w.d",
            FpCvtOp::WuFromD => "fcvt.wu.d",
            FpCvtOp::DFromS => "fcvt.d.s",
            FpCvtOp::SFromD => "fcvt.s.d",
            FpCvtOp::MvXW => "fmv.x.w",
            FpCvtOp::MvWX => "fmv.w.x",
        }
    }
}

/// Source operand of a CSR instruction: a register or a 5-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw`/`csrrs`/`csrrc`).
    Reg(IntReg),
    /// Immediate form (`csrrwi`/`csrrsi`/`csrrci`), zero-extended 5-bit.
    Imm(u8),
}

/// One decoded instruction.
///
/// Offsets are byte offsets relative to the instruction's own address
/// (branches/jumps) or to the base register (memory ops), sign-extended to
/// `i32` as in the RISC-V spec.
///
/// Field names follow the RISC-V convention (`rd`/`frd` destinations,
/// `rs*`/`frs*` sources, `imm`/`offset` immediates) and are not documented
/// individually.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `lui rd, imm20` — load upper immediate (`imm` is the final 32-bit value).
    Lui { rd: IntReg, imm: u32 },
    /// `auipc rd, imm20`.
    Auipc { rd: IntReg, imm: u32 },
    /// `jal rd, offset`.
    Jal { rd: IntReg, offset: i32 },
    /// `jalr rd, rs1, offset`.
    Jalr {
        rd: IntReg,
        rs1: IntReg,
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: IntReg,
        rs2: IntReg,
        offset: i32,
    },
    /// Integer load.
    Load {
        op: LoadOp,
        rd: IntReg,
        rs1: IntReg,
        offset: i32,
    },
    /// Integer store.
    Store {
        op: StoreOp,
        rs2: IntReg,
        rs1: IntReg,
        offset: i32,
    },
    /// Register-immediate ALU op (`Sub` is invalid here).
    OpImm {
        op: AluOp,
        rd: IntReg,
        rs1: IntReg,
        imm: i32,
    },
    /// Register-register ALU op.
    Op {
        op: AluOp,
        rd: IntReg,
        rs1: IntReg,
        rs2: IntReg,
    },
    /// RV32M multiply/divide.
    MulDiv {
        op: MulDivOp,
        rd: IntReg,
        rs1: IntReg,
        rs2: IntReg,
    },
    /// Memory fence (a timing no-op in this single-core model).
    Fence,
    /// Environment call: halts the simulation (used as program exit).
    Ecall,
    /// Breakpoint: halts the simulation with an error.
    Ebreak,
    /// CSR read-modify-write.
    Csr {
        op: CsrOp,
        rd: IntReg,
        csr: u16,
        src: CsrSrc,
    },
    /// FP load (`flw`/`fld`).
    FpLoad {
        fmt: FpFormat,
        frd: FpReg,
        rs1: IntReg,
        offset: i32,
    },
    /// FP store (`fsw`/`fsd`).
    FpStore {
        fmt: FpFormat,
        frs2: FpReg,
        rs1: IntReg,
        offset: i32,
    },
    /// Two-operand FP compute op.
    FpBin {
        op: FpBinOp,
        fmt: FpFormat,
        frd: FpReg,
        frs1: FpReg,
        frs2: FpReg,
    },
    /// Fused multiply-add family (three sources).
    FpFma {
        op: FmaOp,
        fmt: FpFormat,
        frd: FpReg,
        frs1: FpReg,
        frs2: FpReg,
        frs3: FpReg,
    },
    /// Square root.
    FpSqrt {
        fmt: FpFormat,
        frd: FpReg,
        frs1: FpReg,
    },
    /// FP comparison writing an integer register.
    FpCmp {
        op: FpCmpOp,
        fmt: FpFormat,
        rd: IntReg,
        frs1: FpReg,
        frs2: FpReg,
    },
    /// Conversion / cross-file move. Exactly one of the register pairs is
    /// meaningful per op; the others are ignored (see [`FpCvtOp`]).
    FpCvt {
        op: FpCvtOp,
        rd: IntReg,
        frd: FpReg,
        rs1: IntReg,
        frs1: FpReg,
    },
    /// `frep.o`/`frep.i`: repeat the next `n_instr` FP instructions
    /// `rpt(rs1) + 1` times. `is_outer` selects loop order (outer repeats the
    /// whole block; inner repeats each instruction). `stagger_max`/
    /// `stagger_mask` implement Snitch register staggering.
    Frep {
        is_outer: bool,
        max_rpt: IntReg,
        n_instr: u16,
        stagger_max: u8,
        stagger_mask: u8,
    },
    /// `scfgwi rs1, imm`: write SSR config word `imm` with the value of `rs1`.
    Scfgwi { rs1: IntReg, imm: u16 },
    /// `scfgri rd, imm`: read SSR config word `imm` into `rd`.
    Scfgri { rd: IntReg, imm: u16 },
}

impl Instruction {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Instruction = Instruction::OpImm {
        op: AluOp::Add,
        rd: IntReg::ZERO,
        rs1: IntReg::ZERO,
        imm: 0,
    };

    /// Whether this instruction is handled by the FP subsystem (offloaded
    /// from the integer core in the pseudo dual-issue scheme). FP loads and
    /// stores are offloaded too: they execute on the FP side's LSU port.
    #[must_use]
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instruction::FpLoad { .. }
                | Instruction::FpStore { .. }
                | Instruction::FpBin { .. }
                | Instruction::FpFma { .. }
                | Instruction::FpSqrt { .. }
                | Instruction::FpCmp { .. }
                | Instruction::FpCvt { .. }
        )
    }

    /// FP registers read by this instruction, in operand order (excluding
    /// stream/chain reinterpretation, which the core applies on top). A
    /// register named twice is yielded twice. The iterator is
    /// fixed-capacity and never allocates: the core calls this on every
    /// issue attempt.
    pub fn fp_sources(&self) -> impl Iterator<Item = FpReg> + Clone {
        let regs = match *self {
            Instruction::FpStore { frs2, .. } => [Some(frs2), None, None],
            // Division and sign-injection read both operands as well.
            Instruction::FpBin { frs1, frs2, .. } | Instruction::FpCmp { frs1, frs2, .. } => {
                [Some(frs1), Some(frs2), None]
            }
            Instruction::FpFma {
                frs1, frs2, frs3, ..
            } => [Some(frs1), Some(frs2), Some(frs3)],
            Instruction::FpSqrt { frs1, .. } => [Some(frs1), None, None],
            Instruction::FpCvt { op, frs1, .. } if !op.reads_int() => [Some(frs1), None, None],
            _ => [None; 3],
        };
        regs.into_iter().flatten()
    }

    /// FP register written by this instruction, if any.
    #[must_use]
    pub fn fp_dest(&self) -> Option<FpReg> {
        match *self {
            Instruction::FpLoad { frd, .. }
            | Instruction::FpBin { frd, .. }
            | Instruction::FpFma { frd, .. }
            | Instruction::FpSqrt { frd, .. } => Some(frd),
            Instruction::FpCvt { op, frd, .. } if !op.writes_int() => Some(frd),
            _ => None,
        }
    }

    /// Integer registers read by this instruction (`x0` excluded), in
    /// operand order. Fixed-capacity and allocation-free, like
    /// [`Instruction::fp_sources`].
    pub fn int_sources(&self) -> impl Iterator<Item = IntReg> + Clone {
        let regs = match *self {
            Instruction::Jalr { rs1, .. }
            | Instruction::Load { rs1, .. }
            | Instruction::OpImm { rs1, .. }
            | Instruction::FpLoad { rs1, .. }
            | Instruction::FpStore { rs1, .. }
            | Instruction::Csr {
                src: CsrSrc::Reg(rs1),
                ..
            }
            | Instruction::Scfgwi { rs1, .. } => [Some(rs1), None],
            Instruction::Branch { rs1, rs2, .. }
            | Instruction::Store { rs2, rs1, .. }
            | Instruction::Op { rs1, rs2, .. }
            | Instruction::MulDiv { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Instruction::FpCvt { op, rs1, .. } if op.reads_int() => [Some(rs1), None],
            Instruction::Frep { max_rpt, .. } => [Some(max_rpt), None],
            _ => [None; 2],
        };
        regs.into_iter().flatten().filter(|r| !r.is_zero())
    }

    /// Integer register written by this instruction, if any.
    #[must_use]
    pub fn int_dest(&self) -> Option<IntReg> {
        let rd = match *self {
            Instruction::Lui { rd, .. }
            | Instruction::Auipc { rd, .. }
            | Instruction::Jal { rd, .. }
            | Instruction::Jalr { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::OpImm { rd, .. }
            | Instruction::Op { rd, .. }
            | Instruction::MulDiv { rd, .. }
            | Instruction::Csr { rd, .. }
            | Instruction::FpCmp { rd, .. }
            | Instruction::Scfgri { rd, .. } => rd,
            Instruction::FpCvt { op, rd, .. } if op.writes_int() => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instruction::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instruction::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instruction::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instruction::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic())
            }
            Instruction::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic())
            }
            Instruction::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic())
            }
            Instruction::OpImm { op, rd, rs1, imm } => {
                let m = match op {
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    AluOp::Sra => "srai",
                    AluOp::Slt => "slti",
                    AluOp::Sltu => "sltiu",
                    _ => return write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic()),
                };
                write!(f, "{m} {rd}, {rs1}, {imm}")
            }
            Instruction::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instruction::MulDiv { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instruction::Fence => f.write_str("fence"),
            Instruction::Ecall => f.write_str("ecall"),
            Instruction::Ebreak => f.write_str("ebreak"),
            Instruction::Csr { op, rd, csr, src } => match src {
                CsrSrc::Reg(rs1) => write!(f, "{op} {rd}, {csr:#x}, {rs1}"),
                CsrSrc::Imm(imm) => write!(f, "{op}i {rd}, {csr:#x}, {imm}"),
            },
            Instruction::FpLoad {
                fmt,
                frd,
                rs1,
                offset,
            } => {
                let m = if fmt == FpFormat::Double {
                    "fld"
                } else {
                    "flw"
                };
                write!(f, "{m} {frd}, {offset}({rs1})")
            }
            Instruction::FpStore {
                fmt,
                frs2,
                rs1,
                offset,
            } => {
                let m = if fmt == FpFormat::Double {
                    "fsd"
                } else {
                    "fsw"
                };
                write!(f, "{m} {frs2}, {offset}({rs1})")
            }
            Instruction::FpBin {
                op,
                fmt,
                frd,
                frs1,
                frs2,
            } => {
                write!(
                    f,
                    "{}.{} {frd}, {frs1}, {frs2}",
                    op.mnemonic(),
                    fmt.suffix()
                )
            }
            Instruction::FpFma {
                op,
                fmt,
                frd,
                frs1,
                frs2,
                frs3,
            } => write!(
                f,
                "{}.{} {frd}, {frs1}, {frs2}, {frs3}",
                op.mnemonic(),
                fmt.suffix()
            ),
            Instruction::FpSqrt { fmt, frd, frs1 } => {
                write!(f, "fsqrt.{} {frd}, {frs1}", fmt.suffix())
            }
            Instruction::FpCmp {
                op,
                fmt,
                rd,
                frs1,
                frs2,
            } => {
                write!(f, "{}.{} {rd}, {frs1}, {frs2}", op.mnemonic(), fmt.suffix())
            }
            Instruction::FpCvt {
                op,
                rd,
                frd,
                rs1,
                frs1,
            } => {
                if op.writes_int() {
                    write!(f, "{} {rd}, {frs1}", op.mnemonic())
                } else if op.reads_int() {
                    write!(f, "{} {frd}, {rs1}", op.mnemonic())
                } else {
                    write!(f, "{} {frd}, {frs1}", op.mnemonic())
                }
            }
            Instruction::Frep {
                is_outer,
                max_rpt,
                n_instr,
                stagger_max,
                stagger_mask,
            } => {
                let m = if is_outer { "frep.o" } else { "frep.i" };
                write!(f, "{m} {max_rpt}, {n_instr}, {stagger_max}, {stagger_mask}")
            }
            Instruction::Scfgwi { rs1, imm } => write!(f, "scfgwi {rs1}, {imm}"),
            Instruction::Scfgri { rd, imm } => write!(f, "scfgri {rd}, {imm}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_eval() {
        assert!(BranchOp::Eq.evaluate(5, 5));
        assert!(BranchOp::Ne.evaluate(5, 6));
        assert!(BranchOp::Lt.evaluate(-1i32 as u32, 0));
        assert!(!BranchOp::Ltu.evaluate(-1i32 as u32, 0));
        assert!(BranchOp::Ge.evaluate(0, -1i32 as u32));
        assert!(BranchOp::Geu.evaluate(u32::MAX, 1));
    }

    #[test]
    fn alu_eval() {
        assert_eq!(AluOp::Add.evaluate(2, 3), 5);
        assert_eq!(AluOp::Sub.evaluate(2, 3), u32::MAX);
        assert_eq!(AluOp::Sra.evaluate(0x8000_0000, 31), 0xFFFF_FFFF);
        assert_eq!(AluOp::Srl.evaluate(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.evaluate(-5i32 as u32, 3), 1);
        assert_eq!(AluOp::Sltu.evaluate(-5i32 as u32, 3), 0);
    }

    #[test]
    fn muldiv_spec_corner_cases() {
        assert_eq!(MulDivOp::Div.evaluate(7, 0), u32::MAX);
        assert_eq!(MulDivOp::Rem.evaluate(7, 0), 7);
        assert_eq!(
            MulDivOp::Div.evaluate(i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
        assert_eq!(MulDivOp::Rem.evaluate(i32::MIN as u32, -1i32 as u32), 0);
        assert_eq!(MulDivOp::Mulhu.evaluate(u32::MAX, u32::MAX), 0xFFFF_FFFE);
    }

    #[test]
    fn fp_sources_and_dest() {
        let i = Instruction::FpFma {
            op: FmaOp::Madd,
            fmt: FpFormat::Double,
            frd: FpReg::FT3,
            frs1: FpReg::FT0,
            frs2: FpReg::FT1,
            frs3: FpReg::FT3,
        };
        assert!(i.fp_sources().eq([FpReg::FT0, FpReg::FT1, FpReg::FT3]));
        assert_eq!(i.fp_dest(), Some(FpReg::FT3));
        assert!(i.is_fp());
        assert_eq!(i.int_sources().count(), 0);
    }

    #[test]
    fn repeated_sources_are_yielded_per_operand() {
        // Deduplication is the core's job (one pop per distinct
        // register); the operand list itself keeps every position.
        let i = Instruction::FpFma {
            op: FmaOp::Madd,
            fmt: FpFormat::Double,
            frd: FpReg::new(4),
            frs1: FpReg::FT2,
            frs2: FpReg::FT0,
            frs3: FpReg::FT2,
        };
        assert!(i.fp_sources().eq([FpReg::FT2, FpReg::FT0, FpReg::FT2]));
        assert_eq!(i.fp_sources().last(), Some(FpReg::FT2));
        let s = Instruction::Store {
            op: StoreOp::Sw,
            rs2: IntReg::new(6),
            rs1: IntReg::ZERO,
            offset: 0,
        };
        assert!(s.int_sources().eq([IntReg::new(6)]), "x0 is never a source");
    }

    #[test]
    fn int_dest_x0_is_none() {
        let i = Instruction::OpImm {
            op: AluOp::Add,
            rd: IntReg::ZERO,
            rs1: IntReg::ZERO,
            imm: 0,
        };
        assert_eq!(i.int_dest(), None);
        assert_eq!(i.int_sources().count(), 0);
    }

    #[test]
    fn display_formats() {
        let i = Instruction::FpBin {
            op: FpBinOp::Add,
            fmt: FpFormat::Double,
            frd: FpReg::FT3,
            frs1: FpReg::FT0,
            frs2: FpReg::FT1,
        };
        assert_eq!(i.to_string(), "fadd.d ft3, ft0, ft1");
        assert_eq!(Instruction::NOP.to_string(), "addi zero, zero, 0");
        let f = Instruction::Frep {
            is_outer: true,
            max_rpt: IntReg::new(5),
            n_instr: 4,
            stagger_max: 0,
            stagger_mask: 0,
        };
        assert_eq!(f.to_string(), "frep.o t0, 4, 0, 0");
    }

    #[test]
    fn fp_store_reads_base_int_reg() {
        let i = Instruction::FpStore {
            fmt: FpFormat::Double,
            frs2: FpReg::FT2,
            rs1: IntReg::new(10),
            offset: 8,
        };
        assert!(i.int_sources().eq([IntReg::new(10)]));
        assert!(i.fp_sources().eq([FpReg::FT2]));
        assert_eq!(i.fp_dest(), None);
    }
}
