//! The paper's Fig. 1 microbenchmark: the vector operation
//! `a = b * (c + d)` in its three incarnations — baseline (RAW-stalled),
//! unrolled-by-4 (three extra registers), and chained (one register,
//! FIFO semantics).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{MemError, Store};
use sc_ssr::CfgAddr;

use crate::cluster_kernel::ClusterKernel;
use crate::kernel::{verify_f64_exact, CheckFn, Kernel, SetupFn};
use crate::partition::split_ranges;

/// The three code variants of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOpVariant {
    /// Fig. 1a: one `fadd`/`fmul` pair per element; the RAW dependency
    /// costs the FPU-depth stall the paper opens with.
    Baseline,
    /// Fig. 1b: unrolled by four with temporaries `ft3`–`ft6`.
    Unrolled,
    /// Fig. 1c: chained through `ft3` (CSR 0x7C3, mask 8).
    Chained,
}

impl VecOpVariant {
    /// All variants in figure order.
    pub const ALL: [VecOpVariant; 3] = [
        VecOpVariant::Baseline,
        VecOpVariant::Unrolled,
        VecOpVariant::Chained,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VecOpVariant::Baseline => "baseline",
            VecOpVariant::Unrolled => "unrolled4",
            VecOpVariant::Chained => "chained",
        }
    }

    /// Extra FP temporary registers beyond the first, for an unroll of 4
    /// (the Fig. 1 configuration).
    #[must_use]
    pub fn extra_registers(self) -> u32 {
        match self {
            VecOpVariant::Baseline => 0,
            VecOpVariant::Unrolled => 3,
            VecOpVariant::Chained => 0,
        }
    }
}

impl std::fmt::Display for VecOpVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generator for the Fig. 1 kernels.
///
/// Streams: `c` → `ft0`, `d` → `ft1`, `a` ← `ft2`; the scalar `b` lives in
/// `f4`. The hot loop is driven by `frep.o` for the unrolled and chained
/// variants (as in real Snitch code); the baseline keeps the branch loop
/// of the figure — its bottleneck is the RAW stall either way.
#[derive(Debug, Clone, Copy)]
pub struct VecOpKernel {
    /// Element count (multiple of the unroll factor).
    pub n: u32,
    /// Code variant.
    pub variant: VecOpVariant,
    /// Software-pipeline depth of the unrolled/chained loops. Must equal
    /// `FPU depth + 1` for stall-free execution; the *chained* variant
    /// achieves any depth with one architectural register, the unrolled
    /// variant needs `unroll` of them — the paper's trade-off.
    pub unroll: u32,
}

const C_BASE: u32 = 0x1000;
const D_BASE: u32 = 0x9000;
const A_BASE: u32 = 0x11000;
const B_ADDR: u32 = 0x100;

impl VecOpKernel {
    /// Creates a generator with the default unroll of 4 (matching the
    /// default 3-stage FPU, as in the paper's Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 4.
    #[must_use]
    pub fn new(n: u32, variant: VecOpVariant) -> Self {
        Self::with_unroll(n, variant, 4)
    }

    /// Creates a generator with an explicit unroll factor (1..=8).
    ///
    /// A chained kernel with `unroll > FPU depth + 1` deadlocks by design
    /// (the logical FIFO holds `depth + 1` elements) and is reported as a
    /// cycle-budget error at run time.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of `unroll` and
    /// `unroll` ≤ 8.
    #[must_use]
    pub fn with_unroll(n: u32, variant: VecOpVariant, unroll: u32) -> Self {
        assert!((1..=8).contains(&unroll), "unroll must be in 1..=8");
        assert!(
            n > 0 && n.is_multiple_of(unroll),
            "element count must be a positive multiple of the unroll"
        );
        VecOpKernel { n, variant, unroll }
    }

    /// Builds the runnable kernel.
    #[must_use]
    pub fn build(&self) -> Kernel {
        let (setup, check) = self.data_fns();
        Kernel::new(
            format!("vecop/{}", self.variant),
            self.emit_range(0, self.n, false),
            u64::from(2 * self.n),
            setup,
            check,
        )
    }

    /// Builds a [`ClusterKernel`] with the element range split into
    /// contiguous per-hart chunks (each a multiple of the unroll;
    /// imbalance at most one unroll group; surplus harts idle). Every
    /// hart rendezvouses on the cluster barrier before halting. A 1-hart
    /// cluster kernel uses the identical program to
    /// [`VecOpKernel::build`] plus the final barrier.
    ///
    /// # Panics
    ///
    /// Panics if `num_harts` is zero.
    #[must_use]
    pub fn build_cluster(&self, num_harts: u32) -> ClusterKernel {
        let ranges = split_ranges(self.n, num_harts, self.unroll);
        let programs = ranges
            .iter()
            .map(|&(start, len)| self.emit_range(start, len, num_harts > 1))
            .collect();
        let (setup, check) = self.data_fns();
        ClusterKernel::new(
            format!("vecop/{} x{num_harts}", self.variant),
            programs,
            u64::from(2 * self.n),
            setup,
            check,
        )
    }

    /// Emits the program for elements `[start, start + len)` — the whole
    /// vector when `(0, n)`. With `barrier`, the hart rendezvouses on the
    /// cluster barrier before `ecall`.
    fn emit_range(&self, start: u32, len: u32, barrier: bool) -> Program {
        let mut b = ProgramBuilder::new();
        let t0 = IntReg::new(5);
        let n = len;

        // A hart with no elements only participates in the rendezvous.
        if len == 0 {
            if barrier {
                b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            }
            b.ecall();
            return b.build().expect("vecop codegen produces valid programs");
        }

        b.li(IntReg::new(12), B_ADDR as i32);
        b.fld(FpReg::new(4), IntReg::new(12), 0);
        b.li(t0, 1);
        b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t0);
        for (dm, base, write) in [(0u8, C_BASE, false), (1, D_BASE, false), (2, A_BASE, true)] {
            let base = base + 8 * start;
            b.li(t0, n as i32 - 1);
            b.scfgwi(t0, CfgAddr { dm, reg: 2 }.to_imm());
            b.li(t0, 8);
            b.scfgwi(t0, CfgAddr { dm, reg: 6 }.to_imm());
            b.li(t0, base as i32);
            b.scfgwi(
                t0,
                CfgAddr {
                    dm,
                    reg: if write { 28 } else { 24 },
                }
                .to_imm(),
            );
        }

        match self.variant {
            VecOpVariant::Baseline => {
                let (i, len) = (IntReg::new(10), IntReg::new(11));
                b.li(i, 0);
                b.li(len, n as i32);
                b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
                b.label("loop");
                b.fadd_d(FpReg::FT3, FpReg::FT0, FpReg::FT1);
                b.fmul_d(FpReg::FT2, FpReg::FT3, FpReg::new(4));
                b.addi(i, i, 1);
                b.bne(i, len, "loop");
                b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
            }
            VecOpVariant::Unrolled => {
                let rpt = IntReg::new(11);
                let u = self.unroll;
                b.li(rpt, (n / u - 1) as i32);
                b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
                b.frep_outer(rpt, |b| {
                    // Temporaries f5.. (the coefficient occupies f4).
                    for k in 0..u as u8 {
                        b.fadd_d(FpReg::new(5 + k), FpReg::FT0, FpReg::FT1);
                    }
                    for k in 0..u as u8 {
                        b.fmul_d(FpReg::FT2, FpReg::new(5 + k), FpReg::new(4));
                    }
                });
                b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
            }
            VecOpVariant::Chained => {
                let rpt = IntReg::new(11);
                let u = self.unroll;
                b.li(rpt, (n / u - 1) as i32);
                b.li(t0, FpReg::FT3.chain_mask_bit() as i32);
                b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t0);
                b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
                b.frep_outer(rpt, |b| {
                    for _ in 0..u {
                        b.fadd_d(FpReg::FT3, FpReg::FT0, FpReg::FT1);
                    }
                    for _ in 0..u {
                        b.fmul_d(FpReg::FT2, FpReg::FT3, FpReg::new(4));
                    }
                });
                b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
                b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
            }
        }
        b.csrrw(IntReg::ZERO, csr::SSR_ENABLE, IntReg::ZERO);
        if barrier {
            b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
        }
        b.ecall();
        b.build().expect("vecop codegen produces valid programs")
    }

    /// The data setup and whole-vector verification closures: the
    /// `c`/`d` input vectors, the scalar `b` and the golden result.
    fn data_fns(&self) -> (SetupFn, CheckFn) {
        let n = self.n;
        let mut rng = StdRng::seed_from_u64(u64::from(n) * 31 + 7);
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let coef: f64 = rng.gen_range(0.5..1.5);
        let golden: Vec<f64> = c
            .iter()
            .zip(&d)
            .map(|(&ci, &di)| coef * (ci + di))
            .collect();
        let setup = move |mem: &mut dyn Store| -> Result<(), MemError> {
            mem.write_f64(B_ADDR, coef)?;
            mem.write_f64_slice(C_BASE, &c)?;
            mem.write_f64_slice(D_BASE, &d)?;
            Ok(())
        };
        let check = move |mem: &dyn Store| verify_f64_exact(mem, A_BASE, &golden);
        (Box::new(setup), Box::new(check))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::CoreConfig;

    #[test]
    fn all_variants_verify() {
        for v in VecOpVariant::ALL {
            let k = VecOpKernel::new(32, v).build();
            k.run(CoreConfig::new(), 100_000)
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn chained_beats_baseline() {
        // n = 256 is the Fig. 1 size.
        for n in [64, 256] {
            let base = VecOpKernel::new(n, VecOpVariant::Baseline)
                .build()
                .run(CoreConfig::new(), 100_000)
                .unwrap();
            let chained = VecOpKernel::new(n, VecOpVariant::Chained)
                .build()
                .run(CoreConfig::new(), 100_000)
                .unwrap();
            let b = base.measured();
            let c = chained.measured();
            assert!(
                c.cycles * 2 < b.cycles,
                "n = {n}: chaining should at least halve runtime: {} vs {}",
                c.cycles,
                b.cycles
            );
            assert!(c.fpu_utilization() > 0.9, "n = {n}");
            assert!((0.35..0.45).contains(&b.fpu_utilization()), "n = {n}");
        }
    }

    #[test]
    fn register_cost_matches_figure() {
        assert_eq!(VecOpVariant::Baseline.extra_registers(), 0);
        assert_eq!(VecOpVariant::Unrolled.extra_registers(), 3);
        assert_eq!(VecOpVariant::Chained.extra_registers(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the unroll")]
    fn odd_sizes_rejected() {
        let _ = VecOpKernel::new(6, VecOpVariant::Chained);
    }
}
