//! Affine multi-dimensional address generation for stream semantic
//! registers.
//!
//! An SSR walks up to four nested affine loops: the innermost dimension 0
//! iterates fastest. Each generated element may additionally be *repeated*
//! (delivered `repeat + 1` times) — Snitch uses this to reuse one loaded
//! value across consecutive FP instructions without re-reading memory.

/// An affine access pattern: `base + Σ idx[d] * stride[d]` for
/// `idx[d] in 0..bounds[d]`, innermost dimension first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinePattern {
    /// Base byte address of the first element.
    pub base: u32,
    /// Iteration counts per dimension (must be ≥ 1 for active dims).
    pub bounds: [u32; 4],
    /// Byte strides per dimension (may be negative).
    pub strides: [i32; 4],
    /// Each element is delivered `repeat + 1` times.
    pub repeat: u32,
    /// Number of active dimensions (1–4).
    pub dims: u8,
}

impl AffinePattern {
    /// A 1-D contiguous stream of `n` doubles starting at `base`.
    #[must_use]
    pub fn linear_f64(base: u32, n: u32) -> Self {
        AffinePattern {
            base,
            bounds: [n, 1, 1, 1],
            strides: [8, 0, 0, 0],
            repeat: 0,
            dims: 1,
        }
    }

    /// Builds a pattern from explicit loop bounds/strides, innermost first.
    ///
    /// # Panics
    ///
    /// Panics if `loops` is empty or has more than 4 dimensions.
    #[must_use]
    pub fn from_loops(base: u32, loops: &[(u32, i32)]) -> Self {
        assert!(
            !loops.is_empty() && loops.len() <= 4,
            "affine pattern must have 1-4 dimensions"
        );
        let mut bounds = [1u32; 4];
        let mut strides = [0i32; 4];
        for (d, &(b, s)) in loops.iter().enumerate() {
            bounds[d] = b;
            strides[d] = s;
        }
        AffinePattern {
            base,
            bounds,
            strides,
            repeat: 0,
            dims: loops.len() as u8,
        }
    }

    /// Sets the repetition count (each element delivered `repeat + 1` times).
    #[must_use]
    pub fn with_repeat(mut self, repeat: u32) -> Self {
        self.repeat = repeat;
        self
    }

    /// Total number of elements the stream will deliver.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        let iters: u64 = self.bounds[..self.dims as usize]
            .iter()
            .map(|&b| u64::from(b))
            .product();
        iters * (u64::from(self.repeat) + 1)
    }
}

/// Iterator state machine producing the byte addresses of a pattern.
///
/// # Examples
///
/// ```
/// use sc_ssr::{AddrGen, AffinePattern};
///
/// // 2×3 row-major walk of doubles with a row gap: addr = 0 + i0*8 + i1*32.
/// let pat = AffinePattern::from_loops(0, &[(3, 8), (2, 32)]);
/// let addrs: Vec<u32> = AddrGen::new(pat).collect();
/// assert_eq!(addrs, vec![0, 8, 16, 32, 40, 48]);
/// ```
#[derive(Debug, Clone)]
pub struct AddrGen {
    pattern: AffinePattern,
    idx: [u32; 4],
    rep: u32,
    current: i64,
    exhausted: bool,
}

impl AddrGen {
    /// Starts a fresh walk of `pattern`.
    #[must_use]
    pub fn new(pattern: AffinePattern) -> Self {
        let exhausted = pattern.bounds[..pattern.dims as usize].contains(&0);
        AddrGen {
            pattern,
            idx: [0; 4],
            rep: 0,
            current: i64::from(pattern.base),
            exhausted,
        }
    }

    /// Whether all addresses have been produced.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The address the next call to `next` returns, without advancing.
    #[must_use]
    pub fn peek(&self) -> Option<u32> {
        (!self.exhausted).then_some(self.current as u32)
    }

    /// Elements remaining (including repetitions).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        if self.exhausted {
            return 0;
        }
        // Linear index of the current position in the index walk.
        let dims = self.pattern.dims as usize;
        let mut lin: u64 = 0;
        let mut mul: u64 = 1;
        for d in 0..dims {
            lin += u64::from(self.idx[d]) * mul;
            mul *= u64::from(self.pattern.bounds[d]);
        }
        let per_elem = u64::from(self.pattern.repeat) + 1;
        let total = mul * per_elem;
        total - (lin * per_elem + u64::from(self.rep))
    }
}

impl Iterator for AddrGen {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.exhausted {
            return None;
        }
        let addr = self.current as u32;
        // Repetition first.
        if self.rep < self.pattern.repeat {
            self.rep += 1;
            return Some(addr);
        }
        self.rep = 0;
        // Carry-propagating increment, innermost dimension first.
        let dims = self.pattern.dims as usize;
        let mut d = 0;
        loop {
            if d == dims {
                self.exhausted = true;
                break;
            }
            self.idx[d] += 1;
            self.current += i64::from(self.pattern.strides[d]);
            if self.idx[d] < self.pattern.bounds[d] {
                break;
            }
            // Unwind this dimension and carry into the next.
            self.current -= i64::from(self.pattern.strides[d]) * i64::from(self.pattern.bounds[d]);
            self.idx[d] = 0;
            d += 1;
        }
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_walk() {
        let g = AddrGen::new(AffinePattern::linear_f64(0x100, 4));
        let addrs: Vec<u32> = g.collect();
        assert_eq!(addrs, vec![0x100, 0x108, 0x110, 0x118]);
    }

    #[test]
    fn repeat_delivers_each_element_n_plus_one_times() {
        let pat = AffinePattern::linear_f64(0, 2).with_repeat(2);
        let addrs: Vec<u32> = AddrGen::new(pat).collect();
        assert_eq!(addrs, vec![0, 0, 0, 8, 8, 8]);
        assert_eq!(pat.total_elements(), 6);
    }

    #[test]
    fn negative_stride() {
        let pat = AffinePattern::from_loops(64, &[(3, -8)]);
        let addrs: Vec<u32> = AddrGen::new(pat).collect();
        assert_eq!(addrs, vec![64, 56, 48]);
    }

    #[test]
    fn four_dimensional_walk_matches_nested_loops() {
        let (b, s) = ([2u32, 3u32, 2u32, 2u32], [8i32, 100, 1000, 10000]);
        let pat = AffinePattern {
            base: 0,
            bounds: b,
            strides: s,
            repeat: 0,
            dims: 4,
        };
        let got: Vec<u32> = AddrGen::new(pat).collect();
        let mut want = Vec::new();
        for i3 in 0..b[3] {
            for i2 in 0..b[2] {
                for i1 in 0..b[1] {
                    for i0 in 0..b[0] {
                        let a = i64::from(i0) * i64::from(s[0])
                            + i64::from(i1) * i64::from(s[1])
                            + i64::from(i2) * i64::from(s[2])
                            + i64::from(i3) * i64::from(s[3]);
                        want.push(a as u32);
                    }
                }
            }
        }
        assert_eq!(got, want);
        assert_eq!(pat.total_elements(), want.len() as u64);
    }

    #[test]
    fn zero_bound_is_immediately_exhausted() {
        let pat = AffinePattern::from_loops(0, &[(0, 8)]);
        let mut g = AddrGen::new(pat);
        assert!(g.is_exhausted());
        assert_eq!(g.next(), None);
        assert_eq!(g.remaining(), 0);
    }

    #[test]
    fn remaining_counts_down() {
        let pat = AffinePattern::linear_f64(0, 3).with_repeat(1);
        let mut g = AddrGen::new(pat);
        let total = pat.total_elements();
        for left in (1..=total).rev() {
            assert_eq!(g.remaining(), left);
            g.next().unwrap();
        }
        assert_eq!(g.remaining(), 0);
    }

    #[test]
    fn peek_matches_next_through_repeats_and_carries() {
        let pat = AffinePattern::from_loops(64, &[(2, 8), (3, -40)]).with_repeat(1);
        let mut g = AddrGen::new(pat);
        loop {
            let peeked = g.peek();
            assert_eq!(peeked, g.next());
            if peeked.is_none() {
                break;
            }
        }
    }
}
