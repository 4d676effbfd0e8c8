//! The background (main) memory behind the cluster's DMA engine.
//!
//! A real Snitch cluster's 128 KiB L1 scratchpad is fed from a much
//! larger memory (HBM / L2) by an asynchronous DMA mover. This module
//! models that background memory as an *unbounded* byte store with two
//! timing parameters consumed by the DMA engine:
//!
//! * [`DramConfig::latency`] — cycles between a transfer being picked up
//!   and its first beat moving (row activation / request round-trip),
//! * [`DramConfig::cycles_per_beat`] — inverse bandwidth: cycles each
//!   64-bit beat occupies the memory channel (1 = one beat per cycle).
//!
//! Functionally it is a [`Store`], like the [`crate::Tcdm`], so kernels
//! stage their whole problem here with the same closures and verify
//! results after the DMA writes back. Reads beyond the high-water mark
//! return zeroes without growing the backing storage; writes grow it.
//! Every access, read or write, is bounded by the host-safety cap
//! [`DramConfig::max_bytes`].

use crate::store::Store;

/// Timing parameters of the background memory, as seen by the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Fixed cycles before the first beat of each transfer moves.
    pub latency: u32,
    /// Cycles each 64-bit beat occupies the channel (≥ 1).
    pub cycles_per_beat: u32,
    /// Host-safety cap on the backing allocation: writes beyond this
    /// byte address fail with `OutOfBounds` instead of growing the
    /// store. Guards the host against a guest-chosen stray address
    /// (e.g. `DMA_SRC = 0xFFFF_FF00`) allocating gigabytes; the model
    /// is "unbounded" only relative to problem footprints.
    pub max_bytes: u32,
}

impl DramConfig {
    /// Defaults sized like an L2/HBM hop from a 1 GHz cluster: tens of
    /// cycles of latency, one 64-bit beat per cycle once streaming, and
    /// a 256 MiB allocation cap (orders of magnitude above any problem
    /// footprint here).
    #[must_use]
    pub fn new() -> Self {
        DramConfig {
            latency: 64,
            cycles_per_beat: 1,
            max_bytes: 256 << 20,
        }
    }

    /// Sets the allocation cap.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u32) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Sets the per-transfer startup latency.
    #[must_use]
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the inverse bandwidth (cycles per 64-bit beat; ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_beat` is zero.
    #[must_use]
    pub fn with_cycles_per_beat(mut self, cycles_per_beat: u32) -> Self {
        assert!(cycles_per_beat >= 1, "bandwidth is at most one beat/cycle");
        self.cycles_per_beat = cycles_per_beat;
        self
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The unbounded background memory: a grow-on-write byte store.
///
/// # Examples
///
/// ```
/// use sc_mem::{Dram, DramConfig, Store};
/// let mut dram = Dram::new(DramConfig::new());
/// dram.write_f64(0x10_0000, 2.5)?;
/// assert_eq!(dram.read_f64(0x10_0000)?, 2.5);
/// assert_eq!(dram.read_u64(0xFFF_FF00)?, 0, "untouched memory reads zero");
/// # Ok::<(), sc_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    data: Vec<u8>,
}

impl Dram {
    /// Creates an empty background memory.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            data: Vec::new(),
        }
    }

    /// The timing configuration.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Bytes written so far (the grow-on-write high-water mark).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.data.len()
    }
}

impl Store for Dram {
    #[inline]
    fn bound(&self) -> u32 {
        self.cfg.max_bytes
    }

    /// Bytes past the high-water mark read as zero; reads never grow
    /// the backing storage.
    #[inline]
    fn load(&self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        if let Some(bytes) = self.data.get(a..a + buf.len()) {
            buf.copy_from_slice(bytes);
        } else {
            let held = self.data.get(a..).unwrap_or_default();
            let n = held.len().min(buf.len());
            buf[..n].copy_from_slice(&held[..n]);
            buf[n..].fill(0);
        }
    }

    /// Grows the backing storage to cover the write.
    #[inline]
    fn store(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        let end = a + bytes.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[a..end].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemError;

    #[test]
    fn grows_on_write_and_reads_zero_beyond() {
        let mut d = Dram::new(DramConfig::new());
        assert_eq!(d.high_water(), 0);
        assert_eq!(d.read_u64(0x8000).unwrap(), 0);
        assert_eq!(d.high_water(), 0, "reads must not grow the store");
        d.write_u64(0x8000, 0xABCD).unwrap();
        assert_eq!(d.high_water(), 0x8008);
        assert_eq!(d.read_u64(0x8000).unwrap(), 0xABCD);
    }

    #[test]
    fn partial_tail_reads_are_zero_padded() {
        let mut d = Dram::new(DramConfig::new());
        d.write_u32(0x100, 0xDEAD_BEEF).unwrap();
        // The u64 read straddles the high-water mark.
        assert_eq!(d.read_u64(0x100).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn misalignment_is_rejected() {
        let d = Dram::new(DramConfig::new());
        assert_eq!(
            d.read_u64(4).unwrap_err(),
            MemError::Misaligned { addr: 4, width: 8 }
        );
    }

    #[test]
    fn slice_roundtrip() {
        let mut d = Dram::new(DramConfig::new());
        let vals = [1.5, -2.25, 0.0, 1e300];
        d.write_f64_slice(0x40, &vals).unwrap();
        assert_eq!(d.read_f64_slice(0x40, 4).unwrap(), vals);
    }

    #[test]
    fn allocation_cap_rejects_stray_addresses() {
        // A guest-controlled stray address must not allocate gigabytes.
        let mut d = Dram::new(DramConfig::new().with_max_bytes(1 << 20));
        assert_eq!(
            d.write_u64(0xFFFF_FF00, 1).unwrap_err(),
            MemError::OutOfBounds {
                addr: 0xFFFF_FF00,
                width: 8,
                size: 1 << 20
            }
        );
        assert_eq!(d.high_water(), 0, "the failed write must not allocate");
        // The last in-cap slot still works.
        d.write_u64((1 << 20) - 8, 7).unwrap();
    }

    #[test]
    fn byte_reads_past_the_cap_are_out_of_bounds() {
        // Every width shares one bounds check: a byte read beyond the
        // allocation cap fails like a wider one instead of reading zero.
        let d = Dram::new(DramConfig::new().with_max_bytes(1 << 20));
        assert_eq!(
            d.read_u8(1 << 20).unwrap_err(),
            MemError::OutOfBounds {
                addr: 1 << 20,
                width: 1,
                size: 1 << 20
            }
        );
        assert_eq!(d.read_u8((1 << 20) - 1), Ok(0));
    }

    #[test]
    #[should_panic(expected = "one beat/cycle")]
    fn zero_bandwidth_rejected() {
        let _ = DramConfig::new().with_cycles_per_beat(0);
    }
}
