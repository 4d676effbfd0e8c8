//! The paper's Fig. 1 microbenchmark: the vector operation
//! `a = b * (c + d)` in its three incarnations — baseline (RAW-stalled),
//! unrolled-by-4 (three extra registers), and chained (one register,
//! FIFO semantics).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{MemError, Tcdm};
use sc_ssr::CfgAddr;

use crate::cluster_kernel::ClusterKernel;
use crate::kernel::{verify_f64_exact, CheckFn, Kernel, SetupFn};
use crate::partition::split_ranges;
use crate::system_kernel::TiledSystemKernel;
use crate::tiling::{self, TileError};

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

/// Where the generated code finds its four arrays. The defaults are the
/// whole-problem layout; the tiled path retargets `c`/`d`/`a` at
/// ping-pong tile buffers.
#[derive(Debug, Clone, Copy)]
struct VecBases {
    b: u32,
    c: u32,
    d: u32,
    a: u32,
}

const WHOLE_BASES: VecBases = VecBases {
    b: B_ADDR,
    c: C_BASE,
    d: D_BASE,
    a: A_BASE,
};

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
        self.emit_range_into(&mut b, WHOLE_BASES, start, len, barrier);
        b.build().expect("vecop codegen produces valid programs")
    }

    /// Emits the range program into an existing builder against the
    /// given array bases (the tiled path prepends a DMA prologue and
    /// retargets the bases at tile buffers).
    fn emit_range_into(
        &self,
        b: &mut ProgramBuilder,
        bases: VecBases,
        start: u32,
        len: u32,
        barrier: bool,
    ) {
        let t0 = IntReg::new(5);
        let n = len;

        // A hart with no elements only participates in the rendezvous.
        if len == 0 {
            if barrier {
                b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            }
            b.ecall();
            return;
        }

        b.li(IntReg::new(12), bases.b as i32);
        b.fld(FpReg::new(4), IntReg::new(12), 0);
        b.li(t0, 1);
        b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t0);
        for (dm, base, write) in [
            (0u8, bases.c, false),
            (1, bases.d, false),
            (2, bases.a, true),
        ] {
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
    }

    /// Plans a double-buffered DMA tiling of the vecop for one cluster
    /// of `num_harts` harts and a TCDM of at most `capacity` bytes: the
    /// `c`/`d`/`a` vectors live in the background memory at the
    /// whole-problem addresses, and the TCDM holds six ping-pong tile
    /// buffers (two per vector) plus the scalar `b`. The pipeline (see
    /// the `tiling` module) runs as the one cluster of a system; behind
    /// `L2Config::passthrough` its engine reads the Dram directly.
    ///
    /// # Errors
    ///
    /// [`TileError`] when even a one-unroll-group tile cannot be
    /// double-buffered within `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `num_harts` is zero.
    pub fn build_tiled(
        &self,
        num_harts: u32,
        capacity: u32,
    ) -> Result<TiledSystemKernel, TileError> {
        assert!(num_harts >= 1, "a cluster has at least one hart");
        let wait = tiling::WaitStyle::Park;
        let bufs_base = 0x140u32; // past the scalar at B_ADDR
                                  // The cap is hard: round DOWN to a whole TCDM interleave line
                                  // (see the stencil planner) and plan against the rounded size.
        let cap = capacity / tiling::TCDM_LINE_BYTES * tiling::TCDM_LINE_BYTES;

        // Six buffers of 8·E bytes each, 64-byte aligned.
        let plan_bufs = |e: u32| -> ([u32; 6], u32) {
            let bytes = 8 * e;
            let mut bases = [0u32; 6];
            let mut at = bufs_base;
            for slot in &mut bases {
                *slot = at;
                at = tiling::align_up(at + bytes, 64);
            }
            (bases, at)
        };
        let max_elems =
            ((cap.saturating_sub(bufs_base) / 6 / 8) / self.unroll * self.unroll).min(self.n);
        let elems = (1..=max_elems / self.unroll)
            .rev()
            .map(|u| u * self.unroll)
            .find(|&e| plan_bufs(e).1 <= cap)
            .ok_or(TileError {
                needed: plan_bufs(self.unroll).1,
                capacity,
            })?;
        let (bufs, _) = plan_bufs(elems);
        let (cbuf, dbuf, abuf) = (&bufs[0..2], &bufs[2..4], &bufs[4..6]);

        let mut tiles = Vec::new();
        let mut ranges = Vec::new();
        let mut s = 0;
        while s < self.n {
            let l = elems.min(self.n - s);
            let t = tiles.len();
            let mut io = tiling::TileIo::default();
            if t == 0 {
                io.inputs
                    .push(tiling::DmaXfer::contiguous(B_ADDR, B_ADDR, 8, true));
            }
            for (dram_base, buf) in [(C_BASE, cbuf), (D_BASE, dbuf)] {
                io.inputs.push(tiling::DmaXfer::contiguous(
                    dram_base + 8 * s,
                    buf[t % 2],
                    8 * l,
                    true,
                ));
            }
            io.outputs.push(tiling::DmaXfer::contiguous(
                A_BASE + 8 * s,
                abuf[t % 2],
                8 * l,
                false,
            ));
            tiles.push(io);
            ranges.push((s, l));
            s += l;
        }

        let working_set = tiling::WorkingSet::from_tiles(&tiles);
        let sched = tiling::schedule(&tiles);
        let mut stages: Vec<Vec<Program>> = ranges
            .iter()
            .zip(&sched.per_tile)
            .enumerate()
            .map(|(t, (&(_, l), (enq, wait_n)))| {
                let bases = VecBases {
                    b: B_ADDR,
                    c: cbuf[t % 2],
                    d: dbuf[t % 2],
                    a: abuf[t % 2],
                };
                split_ranges(l, num_harts, self.unroll)
                    .iter()
                    .enumerate()
                    .map(|(h, &(hs, hl))| {
                        let mut b = ProgramBuilder::new();
                        if h == 0 {
                            tiling::emit_tile_prologue(&mut b, enq, *wait_n, wait);
                        } else {
                            tiling::emit_tile_prologue(&mut b, &[], 0, wait);
                        }
                        self.emit_range_into(&mut b, bases, hs, hl, true);
                        b.build().expect("tiled vecop codegen is valid")
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        stages.push(tiling::epilogue_programs(
            num_harts,
            &sched.epilogue.0,
            sched.epilogue.1,
            wait,
        ));

        let (setup, check) = self.dram_data_fns();
        Ok(TiledSystemKernel::new(
            format!("vecop/{} m1x{num_harts} tiled", self.variant),
            sc_mem::TcdmConfig::new().with_size(cap),
            vec![stages],
            num_harts,
            u64::from(2 * self.n),
            working_set,
            setup,
            check,
        ))
    }

    /// The background-memory data setup and verification closures for
    /// the tiled path — same data and golden model as
    /// [`VecOpKernel::data_fns`], against the [`sc_mem::Dram`].
    fn dram_data_fns(&self) -> (tiling::DramSetupFn, tiling::DramCheckFn) {
        let (c, d, coef, golden) = self.golden_data();
        let setup = move |dram: &mut sc_mem::Dram| -> Result<(), MemError> {
            dram.write_f64(B_ADDR, coef)?;
            dram.write_f64_slice(C_BASE, &c)?;
            dram.write_f64_slice(D_BASE, &d)?;
            Ok(())
        };
        let check = move |dram: &sc_mem::Dram| {
            for (i, want) in golden.iter().enumerate() {
                tiling::verify_dram_f64(dram, A_BASE + 8 * i as u32, *want, i)?;
            }
            Ok(())
        };
        (Box::new(setup), Box::new(check))
    }

    /// The kernel's problem data: the `c`/`d` input vectors, the scalar
    /// `b` and the golden result. The single source both the unbounded
    /// and tiled paths stage from, so their bit-identical-results
    /// guarantee is structural.
    fn golden_data(&self) -> (Vec<f64>, Vec<f64>, f64, Vec<f64>) {
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
        (c, d, coef, golden)
    }

    /// The shared data setup and whole-vector verification closures.
    fn data_fns(&self) -> (SetupFn, CheckFn) {
        let (c, d, coef, golden) = self.golden_data();
        let setup = move |tcdm: &mut Tcdm| -> Result<(), MemError> {
            tcdm.write_f64(B_ADDR, coef)?;
            tcdm.write_f64_slice(C_BASE, &c)?;
            tcdm.write_f64_slice(D_BASE, &d)?;
            Ok(())
        };
        let check = move |tcdm: &Tcdm| verify_f64_exact(tcdm, A_BASE, &golden);
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
