//! Star-stencil kernels over **indirect** (gather) streams.
//!
//! The box stencils of the paper map onto a 4-D affine stream; star
//! shapes like `j3d7pt` do not — their tap offsets are not an affine
//! sequence. SARIS (the paper's reference [7]) solves this with *indirect
//! stream registers*: the mover walks a packed index array and gathers
//! `in[idx]`. This module exercises that extension end-to-end: the index
//! array enumerates, row by row, the gather order `block → tap → lane`,
//! and the FP code is the same chained/unrolled accumulator schedule as
//! the box kernels.
//!
//! Because a gather costs extra index bandwidth (one index-word fetch per
//! four elements on the same TCDM port), the stream supplies at most
//! ≈ 0.8 elements/cycle — both variants become supply-limited, and the
//! chained variant matches the unrolled one while using three fewer
//! accumulator registers (the paper's register-pressure argument in a
//! bandwidth-bound regime).

use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{MemError, Store};
use sc_ssr::CfgAddr;

use crate::grid::Grid3;
use crate::kernel::{verify_f64_exact, Kernel};
use crate::stencil::Stencil;

/// Accumulator style for the star kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StarVariant {
    /// Four plain accumulator registers, explicitly issued taps.
    Unrolled,
    /// One chained accumulator, taps issued under `frep.i`.
    Chained,
}

impl StarVariant {
    /// Both variants.
    pub const ALL: [StarVariant; 2] = [StarVariant::Unrolled, StarVariant::Chained];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StarVariant::Unrolled => "unrolled",
            StarVariant::Chained => "chained",
        }
    }
}

impl std::fmt::Display for StarVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors constructing a star kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StarBuildError {
    /// The interior x-extent must be a multiple of 4 (the lane count).
    BadWidth {
        /// Interior x size.
        nx: u32,
    },
    /// Packed u16 indices limit the padded grid to 65 536 elements.
    GridTooLarge {
        /// Padded element count.
        padded: usize,
    },
    /// More taps than preloadable coefficient registers.
    TooManyTaps {
        /// Tap count.
        taps: usize,
    },
}

impl std::fmt::Display for StarBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StarBuildError::BadWidth { nx } => {
                write!(f, "interior nx={nx} must be a multiple of 4")
            }
            StarBuildError::GridTooLarge { padded } => {
                write!(f, "padded grid of {padded} elements exceeds u16 indexing")
            }
            StarBuildError::TooManyTaps { taps } => {
                write!(
                    f,
                    "{taps} taps exceed the preloadable coefficient registers"
                )
            }
        }
    }
}

impl std::error::Error for StarBuildError {}

const UNROLL: u32 = 4;
const IDX_BASE: u32 = 0x40_000;
const COEFF_BASE: u32 = 0x100;
const IN_BASE: u32 = 0x400;

/// Generator for star-stencil kernels over indirect streams.
#[derive(Debug, Clone)]
pub struct StarStencilKernel {
    stencil: Stencil,
    grid: Grid3,
    variant: StarVariant,
}

impl StarStencilKernel {
    /// Creates a generator for any stencil shape (star shapes are the
    /// point; dense boxes work too and must produce identical results to
    /// the affine path).
    ///
    /// # Errors
    ///
    /// See [`StarBuildError`].
    pub fn new(
        stencil: Stencil,
        grid: Grid3,
        variant: StarVariant,
    ) -> Result<Self, StarBuildError> {
        if !grid.nx.is_multiple_of(UNROLL) {
            return Err(StarBuildError::BadWidth { nx: grid.nx });
        }
        if grid.padded_len() > usize::from(u16::MAX) + 1 {
            return Err(StarBuildError::GridTooLarge {
                padded: grid.padded_len(),
            });
        }
        let max_taps = match variant {
            StarVariant::Chained => 27,
            // The unrolled variant also needs f28..f31 for accumulators.
            StarVariant::Unrolled => 23,
        };
        if stencil.len() > max_taps {
            return Err(StarBuildError::TooManyTaps {
                taps: stencil.len(),
            });
        }
        Ok(StarStencilKernel {
            stencil,
            grid,
            variant,
        })
    }

    fn out_base(&self) -> u32 {
        IN_BASE + self.grid.byte_len().next_multiple_of(64)
    }

    /// Builds the packed u16 index array: per output row, per block, per
    /// tap, per lane, the absolute word index of the gathered input.
    fn index_array(&self) -> Vec<u16> {
        let g = &self.grid;
        let mut idx = Vec::new();
        for (z, y) in (0..g.nz).flat_map(|z| (0..g.ny).map(move |y| (z, y))) {
            for x0 in (0..g.nx).step_by(UNROLL as usize) {
                for &(dx, dy, dz) in self.stencil.offsets() {
                    for lane in 0..UNROLL {
                        let xi = (1 + x0 + lane) as i32 + dx;
                        let yi = (1 + y) as i32 + dy;
                        let zi = (1 + z) as i32 + dz;
                        let w = g.index(xi as u32, yi as u32, zi as u32);
                        idx.push(u16::try_from(w).expect("grid fits u16 indexing"));
                    }
                }
            }
        }
        idx
    }

    /// Expected flops (1 mul + 2 per remaining tap, per output).
    #[must_use]
    pub fn flops(&self) -> u64 {
        (1 + 2 * (self.stencil.len() as u64 - 1)) * self.grid.interior_len() as u64
    }

    /// Generates the runnable kernel.
    #[must_use]
    pub fn build(&self) -> Kernel {
        let program = self.emit();
        let grid = self.grid;
        let stencil = self.stencil.clone();
        let out_base = self.out_base();
        let input = grid.random_field(0x57A7 ^ u64::from(grid.nx));
        let golden = stencil.golden(&grid, &input);
        let coeffs = stencil.coeffs().to_vec();
        let indices = self.index_array();
        let setup = move |mem: &mut dyn Store| -> Result<(), MemError> {
            mem.write_f64_slice(COEFF_BASE, &coeffs)?;
            mem.write_f64_slice(IN_BASE, &input)?;
            for (i, w) in indices.iter().enumerate() {
                mem.write_u16(IDX_BASE + 2 * i as u32, *w)?;
            }
            Ok(())
        };
        let check = move |mem: &dyn Store| {
            for (i, (x, y, z)) in grid.interior().enumerate() {
                let addr = grid.addr(out_base, x, y, z);
                verify_f64_exact(mem, addr, &golden[i..=i]).map_err(|mut e| {
                    e.index = i;
                    e
                })?;
            }
            Ok(())
        };
        Kernel::new(
            format!("{}-indirect/{}", self.stencil.name(), self.variant),
            program,
            self.flops(),
            Box::new(setup),
            Box::new(check),
        )
    }

    fn emit(&self) -> Program {
        let g = &self.grid;
        let taps = self.stencil.len() as u32;
        let per_row = g.nx * taps; // indices per output row
        let (t0, xblk, xend, ycnt, yend, zcnt, zend) = (
            IntReg::new(5),
            IntReg::new(10),
            IntReg::new(11),
            IntReg::new(15),
            IntReg::new(16),
            IntReg::new(17),
            IntReg::new(18),
        );
        let (idxptr, outptr, rep, coeffb) = (
            IntReg::new(20),
            IntReg::new(21),
            IntReg::new(19),
            IntReg::new(14),
        );
        let acc_chained = FpReg::FT3;
        let coeff = |k: u32| FpReg::new(5 + k as u8);
        // Plain accumulators live above the coefficient window (which
        // reaches f5+26 at most for 27 taps; stars use far fewer).
        let plain_acc = |j: u32| FpReg::new(28 + j as u8);

        let mut b = ProgramBuilder::new();
        // Preload coefficients (both variants: a 7-tap star always fits).
        b.li(coeffb, COEFF_BASE as i32);
        for k in 0..taps {
            b.fld(coeff(k), coeffb, (8 * k) as i32);
        }
        if self.variant == StarVariant::Chained {
            b.li(t0, acc_chained.chain_mask_bit() as i32);
            b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t0);
            b.li(rep, UNROLL as i32 - 1);
        }
        b.li(t0, 1);
        b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t0);
        // Static indirect config for DM0: u16 indices, shift 3 (doubles),
        // one row of gathers per arm.
        b.li(t0, IN_BASE as i32);
        b.scfgwi(t0, CfgAddr { dm: 0, reg: 10 }.to_imm());
        b.li(t0, 0x30); // u16 width | shift 3
        b.scfgwi(t0, CfgAddr { dm: 0, reg: 11 }.to_imm());
        b.li(t0, (per_row * UNROLL / UNROLL) as i32 - 1); // count-1 per row
        b.scfgwi(t0, CfgAddr { dm: 0, reg: 12 }.to_imm());

        b.li(idxptr, IDX_BASE as i32);
        b.li(outptr, g.addr(self.out_base(), 1, 1, 1) as i32);
        b.li(xend, (g.nx / UNROLL) as i32);
        b.li(yend, g.ny as i32);
        b.li(zend, g.nz as i32);
        b.li(IntReg::new(22), 2 * g.row_pitch() as i32); // plane halo skip

        b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
        b.li(zcnt, 0);
        b.label("loop_z");
        b.li(ycnt, 0);
        b.label("loop_y");
        // Arm this row's gather.
        b.scfgwi(idxptr, CfgAddr { dm: 0, reg: 16 }.to_imm());
        b.li(xblk, 0);
        b.label("loop_x");
        match self.variant {
            StarVariant::Chained => {
                b.frep_inner(rep, |b| b.fmul_d(acc_chained, FpReg::FT0, coeff(0)));
                for k in 1..taps {
                    b.frep_inner(rep, |b| {
                        b.fmadd_d(acc_chained, FpReg::FT0, coeff(k), acc_chained);
                    });
                }
                for j in 0..UNROLL {
                    b.fsd(acc_chained, outptr, (8 * j) as i32);
                }
            }
            StarVariant::Unrolled => {
                for j in 0..UNROLL {
                    b.fmul_d(plain_acc(j), FpReg::FT0, coeff(0));
                }
                for k in 1..taps {
                    for j in 0..UNROLL {
                        b.fmadd_d(plain_acc(j), FpReg::FT0, coeff(k), plain_acc(j));
                    }
                }
                for j in 0..UNROLL {
                    b.fsd(plain_acc(j), outptr, (8 * j) as i32);
                }
            }
        }
        b.addi(outptr, outptr, (8 * UNROLL) as i32);
        b.addi(xblk, xblk, 1);
        b.bne(xblk, xend, "loop_x");
        // Next row: advance the index pointer; skip output halo points.
        b.addi(idxptr, idxptr, (2 * per_row) as i32);
        b.addi(outptr, outptr, 16);
        b.addi(ycnt, ycnt, 1);
        b.bne(ycnt, yend, "loop_y");
        b.add(outptr, outptr, IntReg::new(22));
        b.addi(zcnt, zcnt, 1);
        b.bne(zcnt, zend, "loop_z");
        b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);

        if self.variant == StarVariant::Chained {
            b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
        }
        b.csrrw(IntReg::ZERO, csr::SSR_ENABLE, IntReg::ZERO);
        b.ecall();
        b.build().expect("star codegen produces valid programs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::CoreConfig;

    #[test]
    fn star_stencil_runs_on_indirect_streams() {
        for variant in StarVariant::ALL {
            let gen = StarStencilKernel::new(Stencil::j3d7pt(), Grid3::new(8, 3, 2), variant)
                .expect("valid");
            let kernel = gen.build();
            kernel
                .run(CoreConfig::new(), 10_000_000)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }

    #[test]
    fn dense_box_through_indirection_matches_golden_too() {
        // The gather path must agree with the golden model even for shapes
        // the affine path could also handle.
        let gen = StarStencilKernel::new(
            Stencil::box2d1r(),
            Grid3::new(8, 4, 1),
            StarVariant::Chained,
        )
        .expect("valid");
        gen.build()
            .run(CoreConfig::new(), 10_000_000)
            .expect("verifies");
    }

    #[test]
    fn chained_matches_unrolled_with_fewer_registers() {
        let grid = Grid3::new(12, 4, 3);
        let runs: Vec<u64> = StarVariant::ALL
            .iter()
            .map(|&v| {
                StarStencilKernel::new(Stencil::j3d7pt(), grid, v)
                    .expect("valid")
                    .build()
                    .run(CoreConfig::new(), 10_000_000)
                    .expect("runs")
                    .measured()
                    .cycles
            })
            .collect();
        let (unrolled, chained) = (runs[0], runs[1]);
        assert!(
            chained <= unrolled + unrolled / 10,
            "chained {chained} should track unrolled {unrolled}"
        );
    }

    #[test]
    fn oversized_grid_rejected() {
        let err = StarStencilKernel::new(
            Stencil::j3d7pt(),
            Grid3::new(64, 64, 64),
            StarVariant::Chained,
        )
        .unwrap_err();
        assert!(matches!(err, StarBuildError::GridTooLarge { .. }));
    }

    #[test]
    fn bad_width_rejected() {
        let err =
            StarStencilKernel::new(Stencil::j3d7pt(), Grid3::new(6, 4, 4), StarVariant::Chained)
                .unwrap_err();
        assert_eq!(err, StarBuildError::BadWidth { nx: 6 });
    }
}
