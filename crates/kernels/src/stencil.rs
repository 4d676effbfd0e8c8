//! Stencil definitions and the golden (reference) model.
//!
//! The paper evaluates the `box3d1r` and `j3d27pt` stencils from the SARIS
//! suite; both touch the full 27-point radius-1 neighbourhood, which is
//! what makes them *register-limited*: 27 coefficients + accumulators +
//! stream registers exceed the 32 architectural FP registers, unless
//! chaining frees the accumulator registers. Two smaller stencils are
//! non-register-limited contrast shapes: `box2d1r`, a 2-D box the
//! generator also runs, and the 7-point star `j3d7pt`, which it refuses
//! (see [`crate::BuildError::UnsupportedShape`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::Grid3;

/// A stencil: neighbourhood offsets (dx fastest, matching the stream walk)
/// with one coefficient per offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    name: &'static str,
    offsets: Vec<(i32, i32, i32)>,
    coeffs: Vec<f64>,
}

impl Stencil {
    /// Builds a stencil from offsets and coefficients.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or the stencil is empty.
    #[must_use]
    pub fn new(name: &'static str, offsets: Vec<(i32, i32, i32)>, coeffs: Vec<f64>) -> Self {
        assert_eq!(offsets.len(), coeffs.len(), "one coefficient per offset");
        assert!(!offsets.is_empty(), "stencil must have at least one point");
        Stencil {
            name,
            offsets,
            coeffs,
        }
    }

    /// The 27-point box stencil of radius 1 (`box3d1r` in SARIS) with
    /// deterministic pseudo-random coefficients.
    #[must_use]
    pub fn box3d1r() -> Self {
        let mut rng = StdRng::seed_from_u64(0x0b0c_3d17);
        let offsets = box_offsets();
        let coeffs = (0..offsets.len())
            .map(|_| rng.gen_range(0.01..1.0))
            .collect();
        Stencil::new("box3d1r", offsets, coeffs)
    }

    /// The 27-point Jacobi stencil (`j3d27pt`): distance-class weights
    /// normalised to sum to 1.
    #[must_use]
    pub fn j3d27pt() -> Self {
        let offsets = box_offsets();
        let raw: Vec<f64> = offsets
            .iter()
            .map(|&(dx, dy, dz)| {
                let dist = dx.abs() + dy.abs() + dz.abs();
                match dist {
                    0 => 8.0,
                    1 => 4.0,
                    2 => 2.0,
                    _ => 1.0,
                }
            })
            .collect();
        let sum: f64 = raw.iter().sum();
        let coeffs = raw.into_iter().map(|w| w / sum).collect();
        Stencil::new("j3d27pt", offsets, coeffs)
    }

    /// The 7-point star Jacobi stencil (`j3d7pt`) — small enough that even
    /// the baselines can keep all coefficients in registers; used as a
    /// non-register-limited contrast point.
    #[must_use]
    pub fn j3d7pt() -> Self {
        let offsets = vec![
            (0, 0, -1),
            (0, -1, 0),
            (-1, 0, 0),
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ];
        let coeffs = vec![
            1.0 / 12.0,
            1.0 / 12.0,
            1.0 / 12.0,
            0.5,
            1.0 / 12.0,
            1.0 / 12.0,
            1.0 / 12.0,
        ];
        Stencil::new("j3d7pt", offsets, coeffs)
    }

    /// A 9-point 2-D box stencil (`box2d1r`) applied plane by plane.
    #[must_use]
    pub fn box2d1r() -> Self {
        let mut rng = StdRng::seed_from_u64(0x0b0c_2d17);
        let mut offsets = Vec::new();
        for dy in -1..=1 {
            for dx in -1..=1 {
                offsets.push((dx, dy, 0));
            }
        }
        let coeffs = (0..offsets.len())
            .map(|_| rng.gen_range(0.01..1.0))
            .collect();
        Stencil::new("box2d1r", offsets, coeffs)
    }

    /// Stencil name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Neighbourhood offsets, dx fastest.
    #[must_use]
    pub fn offsets(&self) -> &[(i32, i32, i32)] {
        &self.offsets
    }

    /// Coefficients, index-aligned with [`Stencil::offsets`].
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the stencil has no points (never true for constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Applies the stencil functionally over the interior of `grid`,
    /// using fused multiply-adds in coefficient order — the *same*
    /// operation order as every generated code variant, so results are
    /// bit-exact comparable.
    ///
    /// Each output point is its own chain: `v0 * c0`, then one `mul_add`
    /// per further tap. The walk takes each interior row in blocks of 8
    /// points and advances the whole block tap by tap, so the block's
    /// independent chains overlap in the FPU; every point keeps its own
    /// operation order, and so every bit. A full block has a fixed
    /// length, which keeps its accumulators in registers; only a row's
    /// partial last block runs the variable-length loop.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not cover the padded grid or a tap lies
    /// outside the one-point halo.
    #[must_use]
    pub fn golden(&self, grid: &Grid3, input: &[f64]) -> Vec<f64> {
        assert_eq!(
            input.len(),
            grid.padded_len(),
            "input must cover the padded grid"
        );
        let halo = Grid3::HALO as i32;
        let (sx, sy) = (grid.sx() as isize, grid.sy() as isize);
        // Each tap as (linear offset from its point, coefficient).
        let taps: Vec<(isize, f64)> = self
            .offsets
            .iter()
            .zip(&self.coeffs)
            .map(|(&(dx, dy, dz), &c)| {
                assert!(
                    [dx, dy, dz].iter().all(|d| d.abs() <= halo),
                    "tap ({dx}, {dy}, {dz}) lies outside the halo"
                );
                (dx as isize + sx * (dy as isize + sy * dz as isize), c)
            })
            .collect();
        let ((first, c0), rest) = taps.split_first().expect("a stencil is never empty");
        let nx = grid.nx as usize;
        let mut out = Vec::with_capacity(grid.interior_len());
        for z in Grid3::HALO..grid.nz + Grid3::HALO {
            for y in Grid3::HALO..grid.ny + Grid3::HALO {
                let row = grid.index(Grid3::HALO, y, z);
                let full = nx - nx % GOLDEN_BLOCK;
                // Full blocks: the block length is a constant, so the
                // accumulators stay in registers across the taps.
                for x in (0..full).step_by(GOLDEN_BLOCK) {
                    let tap = |off: isize| -> &[f64; GOLDEN_BLOCK] {
                        let start = (row + x).wrapping_add_signed(off);
                        input[start..start + GOLDEN_BLOCK]
                            .try_into()
                            .expect("a full block")
                    };
                    let v0 = tap(*first);
                    let mut acc: [f64; GOLDEN_BLOCK] = std::array::from_fn(|i| v0[i] * c0);
                    for &(off, c) in rest {
                        for (a, &v) in acc.iter_mut().zip(tap(off)) {
                            *a = v.mul_add(c, *a);
                        }
                    }
                    out.extend_from_slice(&acc);
                }
                // The row's partial last block, if any.
                if full < nx {
                    let n = nx - full;
                    let tap = |off: isize| {
                        let start = (row + full).wrapping_add_signed(off);
                        &input[start..start + n]
                    };
                    let mut acc = [0.0f64; GOLDEN_BLOCK];
                    for (a, &v) in acc.iter_mut().zip(tap(*first)) {
                        *a = v * c0;
                    }
                    for &(off, c) in rest {
                        for (a, &v) in acc.iter_mut().zip(tap(off)) {
                            *a = v.mul_add(c, *a);
                        }
                    }
                    out.extend_from_slice(&acc[..n]);
                }
            }
        }
        out
    }

    /// The golden model one point at a time, through
    /// [`Grid3::interior`]: the differential reference
    /// [`Stencil::golden`] is pinned against.
    #[cfg(test)]
    fn golden_per_point(&self, grid: &Grid3, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(grid.interior_len());
        for (x, y, z) in grid.interior() {
            let mut acc = 0.0f64;
            for (k, &(dx, dy, dz)) in self.offsets.iter().enumerate() {
                let xi = (x as i32 + dx) as u32;
                let yi = (y as i32 + dy) as u32;
                let zi = (z as i32 + dz) as u32;
                let v = input[grid.index(xi, yi, zi)];
                if k == 0 {
                    acc = v * self.coeffs[k];
                } else {
                    acc = v.mul_add(self.coeffs[k], acc);
                }
            }
            out.push(acc);
        }
        out
    }
}

/// Output points [`Stencil::golden`] advances together along a row: enough
/// independent FMA chains to cover the FPU's latency.
const GOLDEN_BLOCK: usize = 8;

/// Dense radius-1 box offsets, dx fastest, then dy, then dz — the walk
/// order of the input stream.
fn box_offsets() -> Vec<(i32, i32, i32)> {
    let mut v = Vec::with_capacity(27);
    for dz in -1..=1 {
        for dy in -1..=1 {
            for dx in -1..=1 {
                v.push((dx, dy, dz));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn box3d1r_has_27_points_dx_fastest() {
        let s = Stencil::box3d1r();
        assert_eq!(s.len(), 27);
        assert_eq!(s.offsets()[0], (-1, -1, -1));
        assert_eq!(s.offsets()[1], (0, -1, -1));
        assert_eq!(s.offsets()[26], (1, 1, 1));
    }

    #[test]
    fn j3d27pt_weights_sum_to_one() {
        let s = Stencil::j3d27pt();
        let sum: f64 = s.coeffs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(s.len(), 27);
    }

    #[test]
    fn j3d7pt_is_star() {
        let s = Stencil::j3d7pt();
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn golden_constant_field_jacobi_is_identity() {
        // A weight-normalised stencil over a constant field returns the
        // constant (up to FP rounding).
        let g = Grid3::new(4, 4, 4);
        let input = vec![3.0; g.padded_len()];
        let out = Stencil::j3d27pt().golden(&g, &input);
        for v in out {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn golden_single_impulse_spreads_coefficients() {
        let g = Grid3::new(3, 3, 3);
        let mut input = vec![0.0; g.padded_len()];
        // Impulse at the interior centre (2,2,2).
        input[g.index(2, 2, 2)] = 1.0;
        let s = Stencil::box3d1r();
        let out = s.golden(&g, &input);
        // Output at centre sees coefficient of offset (0,0,0), index 13.
        let centre = out[g.nx as usize * g.ny as usize + g.nx as usize + 1];
        assert!((centre - s.coeffs()[13]).abs() < 1e-15);
        // Output at (1,1,1) sees the impulse at offset (+1,+1,+1) = index 26.
        assert!((out[0] - s.coeffs()[26]).abs() < 1e-15);
    }

    #[test]
    fn golden_rejects_wrong_input_size() {
        let g = Grid3::new(3, 3, 3);
        let result = std::panic::catch_unwind(|| {
            let _ = Stencil::box3d1r().golden(&g, &[1.0, 2.0]);
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "lies outside the halo")]
    fn golden_rejects_taps_beyond_the_halo() {
        // A radius-2 tap would read the neighbouring row through the
        // linear offset instead of failing.
        let g = Grid3::new(3, 3, 3);
        let wide = Stencil::new("wide", vec![(0, 0, 0), (2, 0, 0)], vec![1.0, 1.0]);
        let _ = wide.golden(&g, &g.random_field(1));
    }

    proptest! {
        #[test]
        fn golden_matches_the_per_point_reference(
            which in 0usize..4,
            nx in 1u32..20,
            ny in 1u32..4,
            nz in 1u32..4,
            seed in any::<u64>(),
        ) {
            // Row lengths on both sides of the block size, with a
            // partial last block, for the two 27-point stencils and the
            // two contrast stencils.
            let stencil = match which {
                0 => Stencil::box3d1r(),
                1 => Stencil::j3d27pt(),
                2 => Stencil::j3d7pt(),
                _ => Stencil::box2d1r(),
            };
            let grid = Grid3::new(nx, ny, nz);
            let input = grid.random_field(seed);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(stencil.golden(&grid, &input)),
                bits(stencil.golden_per_point(&grid, &input))
            );
        }
    }
}
