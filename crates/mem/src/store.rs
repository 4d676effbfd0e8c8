//! The functional byte store both memories share.
//!
//! The TCDM and the background memory hold the operands the machine
//! moves; they differ only in their bound and in how bytes are kept
//! ([`crate::Tcdm`]: a fixed, pre-zeroed backing; [`crate::Dram`]:
//! grow-on-write, zero past its high-water mark). [`Store`] asks each
//! for just that, and supplies every typed, alignment- and
//! bounds-checked little-endian accessor once.

use std::fmt;

/// Errors for functional (data) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address (plus access width) beyond the memory size.
    OutOfBounds {
        /// Requested byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
        /// Memory size in bytes.
        size: u32,
    },
    /// Address not aligned to the access width.
    Misaligned {
        /// Requested byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemError::OutOfBounds { addr, width, size } => write!(
                f,
                "access of {width} bytes at {addr:#010x} outside memory of {size} bytes"
            ),
            MemError::Misaligned { addr, width } => {
                write!(f, "misaligned {width}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A byte-addressed functional memory with typed little-endian access.
///
/// An implementation supplies its bound and its raw byte copies; every
/// accessor checks alignment to its width, then that the access ends
/// at or below [`Store::bound`], before touching a byte. Per-cycle
/// callers (the core's LSU, the SSR movers, the DMA engine) call the
/// accessors on the concrete store; data staging and checking take
/// `&dyn Store`, so one closure serves either memory.
///
/// # Examples
///
/// ```
/// use sc_mem::{Dram, DramConfig, Store, Tcdm, TcdmConfig};
///
/// fn stage(mem: &mut dyn Store) -> Result<(), sc_mem::MemError> {
///     mem.write_f64_slice(0x100, &[1.5, -2.0])
/// }
/// let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
/// let mut dram = Dram::new(DramConfig::new());
/// stage(&mut tcdm)?;
/// stage(&mut dram)?;
/// assert_eq!(tcdm.read_f64_slice(0x100, 2)?, dram.read_f64_slice(0x100, 2)?);
/// # Ok::<(), sc_mem::MemError>(())
/// ```
pub trait Store {
    /// One past the highest valid byte address (the size reported in
    /// [`MemError::OutOfBounds`]).
    fn bound(&self) -> u32;

    /// Fills `buf` from the bytes at `addr..addr + buf.len()`, a range
    /// the caller has already checked against [`Store::bound`].
    fn load(&self, addr: u32, buf: &mut [u8]);

    /// Copies `bytes` to `addr..addr + bytes.len()`, a range the caller
    /// has already checked against [`Store::bound`].
    fn store(&mut self, addr: u32, bytes: &[u8]);

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    #[inline]
    fn read_u64(&self, addr: u32) -> Result<u64, MemError> {
        read(self, addr).map(u64::from_le_bytes)
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    #[inline]
    fn write_u64(&mut self, addr: u32, value: u64) -> Result<(), MemError> {
        write(self, addr, value.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    #[inline]
    fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        read(self, addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    #[inline]
    fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        write(self, addr, value.to_le_bytes())
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        read(self, addr).map(u16::from_le_bytes)
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        write(self, addr, value.to_le_bytes())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of bounds.
    fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        read(self, addr).map(u8::from_le_bytes)
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Fails if the address is out of bounds.
    fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        write(self, addr, [value])
    }

    /// Reads an `f64` (bit pattern of [`Store::read_u64`]).
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    fn read_f64(&self, addr: u32) -> Result<f64, MemError> {
        self.read_u64(addr).map(f64::from_bits)
    }

    /// Writes an `f64`.
    ///
    /// # Errors
    ///
    /// Fails if the access is misaligned or out of bounds.
    fn write_f64(&mut self, addr: u32, value: f64) -> Result<(), MemError> {
        self.write_u64(addr, value.to_bits())
    }

    /// Copies a slice of doubles into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if any element lands misaligned or out of bounds.
    fn write_f64_slice(&mut self, addr: u32, values: &[f64]) -> Result<(), MemError> {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(addr + (i as u32) * 8, *v)?;
        }
        Ok(())
    }

    /// Reads `n` doubles starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if any element lands misaligned or out of bounds.
    fn read_f64_slice(&self, addr: u32, n: usize) -> Result<Vec<f64>, MemError> {
        (0..n)
            .map(|i| self.read_f64(addr + (i as u32) * 8))
            .collect()
    }
}

/// The one alignment and bounds check every accessor makes.
#[inline]
fn check(addr: u32, width: u32, bound: u32) -> Result<(), MemError> {
    if !addr.is_multiple_of(width) {
        return Err(MemError::Misaligned { addr, width });
    }
    if addr.checked_add(width).is_none_or(|end| end > bound) {
        return Err(MemError::OutOfBounds {
            addr,
            width,
            size: bound,
        });
    }
    Ok(())
}

#[inline]
fn read<const N: usize, S: Store + ?Sized>(mem: &S, addr: u32) -> Result<[u8; N], MemError> {
    check(addr, N as u32, mem.bound())?;
    let mut bytes = [0; N];
    mem.load(addr, &mut bytes);
    Ok(bytes)
}

#[inline]
fn write<const N: usize, S: Store + ?Sized>(
    mem: &mut S,
    addr: u32,
    bytes: [u8; N],
) -> Result<(), MemError> {
    check(addr, N as u32, mem.bound())?;
    mem.store(addr, &bytes);
    Ok(())
}
