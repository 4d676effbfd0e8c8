//! Floating-point operations: classification, latency and functional
//! semantics.
//!
//! The FPU is modelled after FPnew as integrated in Snitch: a pipelined
//! ADDMUL path (FMA), short non-computational and conversion paths, and an
//! iterative, unpipelined divide/square-root unit. The ADDMUL latency is
//! **3 cycles** by default — the number the paper quotes for the RAW stall
//! ("three in the case of Snitch") and the source of the chained-FIFO
//! capacity (architectural register + 3 pipeline registers).

use sc_isa::{FmaOp, FpBinOp, FpCmpOp, FpCvtOp, FpFormat, Instruction};

/// Functional-unit path classes with distinct pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Pipelined add/mul/FMA path.
    AddMul,
    /// Iterative divide/sqrt (unpipelined).
    DivSqrt,
    /// Non-computational ops: sign injection, min/max, comparisons, moves.
    NonComp,
    /// Conversions.
    Conv,
}

/// Per-class latency configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpuTiming {
    /// ADDMUL pipeline depth (execute stages). Default 3, like Snitch.
    pub addmul_latency: u32,
    /// Cycles for a divide (occupies the unit exclusively).
    pub div_latency: u32,
    /// Cycles for a square root (occupies the unit exclusively).
    pub sqrt_latency: u32,
    /// Non-computational path latency.
    pub noncomp_latency: u32,
    /// Conversion path latency.
    pub conv_latency: u32,
}

impl FpuTiming {
    /// Snitch-like defaults.
    #[must_use]
    pub fn new() -> Self {
        FpuTiming {
            addmul_latency: 3,
            div_latency: 11,
            sqrt_latency: 21,
            noncomp_latency: 1,
            conv_latency: 2,
        }
    }

    /// Overrides the ADDMUL depth (used by the pipeline-depth ablation).
    #[must_use]
    pub fn with_addmul_latency(mut self, latency: u32) -> Self {
        assert!(latency >= 1, "pipeline depth must be at least 1");
        self.addmul_latency = latency;
        self
    }

    /// Execute-stage count for a class (excludes the writeback stage the
    /// core model appends).
    #[must_use]
    pub fn latency(&self, class: OpClass) -> u32 {
        match class {
            OpClass::AddMul => self.addmul_latency,
            OpClass::DivSqrt => self.div_latency, // refined per-op via `op_latency`
            OpClass::NonComp => self.noncomp_latency,
            OpClass::Conv => self.conv_latency,
        }
    }
}

impl Default for FpuTiming {
    fn default() -> Self {
        Self::new()
    }
}

/// A fully-specified FP operation ready for evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Two-operand arithmetic / non-computational op.
    Bin(FpBinOp),
    /// Fused multiply-add family.
    Fma(FmaOp),
    /// Square root.
    Sqrt,
    /// Comparison (writes an integer register).
    Cmp(FpCmpOp),
    /// Conversion / move.
    Cvt(FpCvtOp),
}

impl FpuOp {
    /// Extracts the FPU op from an instruction, if it is an FPU compute op.
    ///
    /// FP loads/stores return `None`: they use the LSU, not the FPU.
    #[must_use]
    pub fn from_instruction(inst: &Instruction) -> Option<(FpuOp, FpFormat)> {
        match *inst {
            Instruction::FpBin { op, fmt, .. } => Some((FpuOp::Bin(op), fmt)),
            Instruction::FpFma { op, fmt, .. } => Some((FpuOp::Fma(op), fmt)),
            Instruction::FpSqrt { fmt, .. } => Some((FpuOp::Sqrt, fmt)),
            Instruction::FpCmp { op, fmt, .. } => Some((FpuOp::Cmp(op), fmt)),
            Instruction::FpCvt { op, .. } => Some((FpuOp::Cvt(op), FpFormat::Double)),
            _ => None,
        }
    }

    /// The functional-unit class this op executes on.
    #[must_use]
    pub fn class(self) -> OpClass {
        match self {
            FpuOp::Bin(FpBinOp::Add | FpBinOp::Sub | FpBinOp::Mul) => OpClass::AddMul,
            FpuOp::Fma(_) => OpClass::AddMul,
            FpuOp::Bin(FpBinOp::Div) | FpuOp::Sqrt => OpClass::DivSqrt,
            FpuOp::Bin(_) | FpuOp::Cmp(_) => OpClass::NonComp,
            FpuOp::Cvt(_) => OpClass::Conv,
        }
    }

    /// Execute latency of this op under `timing`.
    #[must_use]
    pub fn latency(self, timing: &FpuTiming) -> u32 {
        match self {
            FpuOp::Sqrt => timing.sqrt_latency,
            FpuOp::Bin(FpBinOp::Div) => timing.div_latency,
            other => timing.latency(other.class()),
        }
    }

    /// Whether this op produces an integer result.
    #[must_use]
    pub fn writes_int(self) -> bool {
        match self {
            FpuOp::Cmp(_) => true,
            FpuOp::Cvt(c) => c.writes_int(),
            _ => false,
        }
    }
}

/// Result of evaluating an [`FpuOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpuOutput {
    /// A floating-point result (bit pattern; f64 container).
    Fp(u64),
    /// An integer result.
    Int(u32),
}

/// Evaluates `op` on raw 64-bit register values.
///
/// `srcs` are the up-to-three FP source values (`[rs1, rs2, rs3]`); unused
/// entries are ignored. `int_src` is the integer source for int→fp moves
/// and conversions. Single-precision ops interpret and produce the value in
/// the low 32 bits (NaN boxing is not modelled; the kernels in this
/// repository are double-precision).
#[inline]
#[must_use]
pub fn evaluate(op: FpuOp, fmt: FpFormat, srcs: [u64; 3], int_src: u32) -> FpuOutput {
    match fmt {
        FpFormat::Double => evaluate_f64(op, srcs, int_src),
        FpFormat::Single => evaluate_f32(op, srcs, int_src),
    }
}

fn evaluate_f64(op: FpuOp, srcs: [u64; 3], int_src: u32) -> FpuOutput {
    let [a, b, c] = srcs.map(f64::from_bits);
    let fp = |v: f64| FpuOutput::Fp(v.to_bits());
    match op {
        FpuOp::Bin(FpBinOp::Add) => fp(a + b),
        FpuOp::Bin(FpBinOp::Sub) => fp(a - b),
        FpuOp::Bin(FpBinOp::Mul) => fp(a * b),
        FpuOp::Bin(FpBinOp::Div) => fp(a / b),
        FpuOp::Bin(FpBinOp::Min) => fp(ieee_min(a, b)),
        FpuOp::Bin(FpBinOp::Max) => fp(ieee_max(a, b)),
        FpuOp::Bin(FpBinOp::Sgnj) => fp(f64::from_bits(
            (a.to_bits() & !SIGN64) | (b.to_bits() & SIGN64),
        )),
        FpuOp::Bin(FpBinOp::Sgnjn) => fp(f64::from_bits(
            (a.to_bits() & !SIGN64) | (!b.to_bits() & SIGN64),
        )),
        FpuOp::Bin(FpBinOp::Sgnjx) => fp(f64::from_bits(a.to_bits() ^ (b.to_bits() & SIGN64))),
        FpuOp::Fma(FmaOp::Madd) => fp(a.mul_add(b, c)),
        FpuOp::Fma(FmaOp::Msub) => fp(a.mul_add(b, -c)),
        FpuOp::Fma(FmaOp::Nmsub) => fp((-a).mul_add(b, c)),
        FpuOp::Fma(FmaOp::Nmadd) => fp((-a).mul_add(b, -c)),
        FpuOp::Sqrt => fp(a.sqrt()),
        FpuOp::Cmp(FpCmpOp::Eq) => FpuOutput::Int(u32::from(a == b)),
        FpuOp::Cmp(FpCmpOp::Lt) => FpuOutput::Int(u32::from(a < b)),
        FpuOp::Cmp(FpCmpOp::Le) => FpuOutput::Int(u32::from(a <= b)),
        FpuOp::Cvt(cvt) => evaluate_cvt(cvt, srcs[0], int_src),
    }
}

fn evaluate_f32(op: FpuOp, srcs: [u64; 3], int_src: u32) -> FpuOutput {
    let [a, b, c] = srcs.map(|v| f32::from_bits(v as u32));
    let fp = |v: f32| FpuOutput::Fp(u64::from(v.to_bits()));
    match op {
        FpuOp::Bin(FpBinOp::Add) => fp(a + b),
        FpuOp::Bin(FpBinOp::Sub) => fp(a - b),
        FpuOp::Bin(FpBinOp::Mul) => fp(a * b),
        FpuOp::Bin(FpBinOp::Div) => fp(a / b),
        FpuOp::Bin(FpBinOp::Min) => fp(if a.is_nan() {
            b
        } else if b.is_nan() {
            a
        } else {
            a.min(b)
        }),
        FpuOp::Bin(FpBinOp::Max) => fp(if a.is_nan() {
            b
        } else if b.is_nan() {
            a
        } else {
            a.max(b)
        }),
        FpuOp::Bin(FpBinOp::Sgnj) => fp(f32::from_bits(
            (a.to_bits() & !SIGN32) | (b.to_bits() & SIGN32),
        )),
        FpuOp::Bin(FpBinOp::Sgnjn) => fp(f32::from_bits(
            (a.to_bits() & !SIGN32) | (!b.to_bits() & SIGN32),
        )),
        FpuOp::Bin(FpBinOp::Sgnjx) => fp(f32::from_bits(a.to_bits() ^ (b.to_bits() & SIGN32))),
        FpuOp::Fma(FmaOp::Madd) => fp(a.mul_add(b, c)),
        FpuOp::Fma(FmaOp::Msub) => fp(a.mul_add(b, -c)),
        FpuOp::Fma(FmaOp::Nmsub) => fp((-a).mul_add(b, c)),
        FpuOp::Fma(FmaOp::Nmadd) => fp((-a).mul_add(b, -c)),
        FpuOp::Sqrt => fp(a.sqrt()),
        FpuOp::Cmp(FpCmpOp::Eq) => FpuOutput::Int(u32::from(a == b)),
        FpuOp::Cmp(FpCmpOp::Lt) => FpuOutput::Int(u32::from(a < b)),
        FpuOp::Cmp(FpCmpOp::Le) => FpuOutput::Int(u32::from(a <= b)),
        FpuOp::Cvt(cvt) => evaluate_cvt(cvt, srcs[0], int_src),
    }
}

const SIGN64: u64 = 1 << 63;
const SIGN32: u32 = 1 << 31;

fn evaluate_cvt(op: FpCvtOp, fp_src: u64, int_src: u32) -> FpuOutput {
    match op {
        FpCvtOp::DFromW => FpuOutput::Fp(f64::from(int_src as i32).to_bits()),
        FpCvtOp::DFromWu => FpuOutput::Fp(f64::from(int_src).to_bits()),
        FpCvtOp::WFromD => {
            let v = f64::from_bits(fp_src);
            // Round-towards-zero with RISC-V saturation semantics.
            let clamped = if v.is_nan() || v >= f64::from(i32::MAX) {
                i32::MAX
            } else if v <= f64::from(i32::MIN) {
                i32::MIN
            } else {
                v.trunc() as i32
            };
            FpuOutput::Int(clamped as u32)
        }
        FpCvtOp::WuFromD => {
            let v = f64::from_bits(fp_src);
            let clamped = if v.is_nan() || v >= f64::from(u32::MAX) {
                u32::MAX
            } else if v <= 0.0 {
                0
            } else {
                v.trunc() as u32
            };
            FpuOutput::Int(clamped)
        }
        FpCvtOp::DFromS => FpuOutput::Fp(f64::from(f32::from_bits(fp_src as u32)).to_bits()),
        FpCvtOp::SFromD => FpuOutput::Fp(u64::from((f64::from_bits(fp_src) as f32).to_bits())),
        FpCvtOp::MvXW => FpuOutput::Int(fp_src as u32),
        FpCvtOp::MvWX => FpuOutput::Fp(u64::from(int_src)),
    }
}

fn ieee_min(a: f64, b: f64) -> f64 {
    if a.is_nan() {
        b
    } else if b.is_nan() {
        a
    } else {
        a.min(b)
    }
}

fn ieee_max(a: f64, b: f64) -> f64 {
    if a.is_nan() {
        b
    } else if b.is_nan() {
        a
    } else {
        a.max(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }

    #[test]
    fn classes_and_latencies() {
        let t = FpuTiming::new();
        assert_eq!(FpuOp::Bin(FpBinOp::Add).class(), OpClass::AddMul);
        assert_eq!(FpuOp::Fma(FmaOp::Madd).class(), OpClass::AddMul);
        assert_eq!(FpuOp::Bin(FpBinOp::Div).class(), OpClass::DivSqrt);
        assert_eq!(FpuOp::Sqrt.class(), OpClass::DivSqrt);
        assert_eq!(FpuOp::Bin(FpBinOp::Sgnj).class(), OpClass::NonComp);
        assert_eq!(FpuOp::Cmp(FpCmpOp::Lt).class(), OpClass::NonComp);
        assert_eq!(FpuOp::Cvt(FpCvtOp::DFromW).class(), OpClass::Conv);
        assert_eq!(FpuOp::Fma(FmaOp::Madd).latency(&t), 3);
        assert_eq!(FpuOp::Bin(FpBinOp::Div).latency(&t), 11);
        assert_eq!(FpuOp::Sqrt.latency(&t), 21);
    }

    #[test]
    fn double_arithmetic() {
        let e = |op, a: f64, b: f64| evaluate(op, FpFormat::Double, [bits(a), bits(b), 0], 0);
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Add), 2.0, 0.5),
            FpuOutput::Fp(bits(2.5))
        );
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Mul), 3.0, -2.0),
            FpuOutput::Fp(bits(-6.0))
        );
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Div), 1.0, 4.0),
            FpuOutput::Fp(bits(0.25))
        );
        let fma = evaluate(
            FpuOp::Fma(FmaOp::Madd),
            FpFormat::Double,
            [bits(2.0), bits(3.0), bits(1.0)],
            0,
        );
        assert_eq!(fma, FpuOutput::Fp(bits(7.0)));
    }

    #[test]
    fn fma_is_fused() {
        // mul_add is a single rounding: (1 + 2^-52) * (1 + 2^-52) - 1 exercised
        // via values where fused vs unfused differ.
        let a = 1.0 + f64::EPSILON;
        let fused = evaluate(
            FpuOp::Fma(FmaOp::Msub),
            FpFormat::Double,
            [bits(a), bits(a), bits(a * a)],
            0,
        );
        let unfused = a * a - a * a;
        // Fused computes the exact residual, unfused is zero.
        assert_ne!(fused, FpuOutput::Fp(bits(unfused)));
    }

    #[test]
    fn sign_injection() {
        let e = |op, a: f64, b: f64| evaluate(op, FpFormat::Double, [bits(a), bits(b), 0], 0);
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Sgnj), 2.0, -1.0),
            FpuOutput::Fp(bits(-2.0))
        );
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Sgnjn), 2.0, -1.0),
            FpuOutput::Fp(bits(2.0))
        );
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Sgnjx), -2.0, -1.0),
            FpuOutput::Fp(bits(2.0))
        );
        // fmv.d is fsgnj.d rd, rs, rs
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Sgnj), -3.5, -3.5),
            FpuOutput::Fp(bits(-3.5))
        );
    }

    #[test]
    fn min_max_nan_handling() {
        let nan = f64::NAN;
        let e = |op, a: f64, b: f64| evaluate(op, FpFormat::Double, [bits(a), bits(b), 0], 0);
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Min), nan, 1.0),
            FpuOutput::Fp(bits(1.0))
        );
        assert_eq!(
            e(FpuOp::Bin(FpBinOp::Max), 2.0, nan),
            FpuOutput::Fp(bits(2.0))
        );
    }

    #[test]
    fn comparisons() {
        let e = |op, a: f64, b: f64| evaluate(op, FpFormat::Double, [bits(a), bits(b), 0], 0);
        assert_eq!(e(FpuOp::Cmp(FpCmpOp::Lt), 1.0, 2.0), FpuOutput::Int(1));
        assert_eq!(e(FpuOp::Cmp(FpCmpOp::Le), 2.0, 2.0), FpuOutput::Int(1));
        assert_eq!(
            e(FpuOp::Cmp(FpCmpOp::Eq), f64::NAN, f64::NAN),
            FpuOutput::Int(0)
        );
    }

    #[test]
    fn conversions_saturate() {
        let e = |op, v: f64| evaluate(FpuOp::Cvt(op), FpFormat::Double, [bits(v), 0, 0], 0);
        assert_eq!(e(FpCvtOp::WFromD, 3.7), FpuOutput::Int(3));
        assert_eq!(e(FpCvtOp::WFromD, -3.7), FpuOutput::Int((-3i32) as u32));
        assert_eq!(e(FpCvtOp::WFromD, 1e300), FpuOutput::Int(i32::MAX as u32));
        assert_eq!(
            e(FpCvtOp::WFromD, f64::NAN),
            FpuOutput::Int(i32::MAX as u32)
        );
        assert_eq!(e(FpCvtOp::WuFromD, -1.0), FpuOutput::Int(0));
        let from_int = evaluate(
            FpuOp::Cvt(FpCvtOp::DFromW),
            FpFormat::Double,
            [0, 0, 0],
            -7i32 as u32,
        );
        assert_eq!(from_int, FpuOutput::Fp(bits(-7.0)));
    }

    #[test]
    fn single_precision_path() {
        let a = 1.5f32;
        let b = 2.25f32;
        let out = evaluate(
            FpuOp::Bin(FpBinOp::Add),
            FpFormat::Single,
            [u64::from(a.to_bits()), u64::from(b.to_bits()), 0],
            0,
        );
        assert_eq!(out, FpuOutput::Fp(u64::from((a + b).to_bits())));
    }

    #[test]
    fn from_instruction_excludes_memory_ops() {
        use sc_isa::{FpReg, Instruction, IntReg};
        let fld = Instruction::FpLoad {
            fmt: FpFormat::Double,
            frd: FpReg::FT0,
            rs1: IntReg::ZERO,
            offset: 0,
        };
        assert!(FpuOp::from_instruction(&fld).is_none());
        let fadd = Instruction::FpBin {
            op: FpBinOp::Add,
            fmt: FpFormat::Double,
            frd: FpReg::FT3,
            frs1: FpReg::FT0,
            frs2: FpReg::FT1,
        };
        let (op, fmt) = FpuOp::from_instruction(&fadd).unwrap();
        assert_eq!(op, FpuOp::Bin(FpBinOp::Add));
        assert_eq!(fmt, FpFormat::Double);
    }
}
