//! The SSR unit: configuration register file + the set of data movers.
//!
//! Software configures streams with `scfgwi value, imm` where
//! `imm = (reg << 5) | dm`, mirroring the Snitch layout:
//!
//! | reg    | meaning                                         |
//! |--------|-------------------------------------------------|
//! | 0      | status (bit 0: done)                            |
//! | 1      | repeat (extra deliveries per element)           |
//! | 2–5    | bounds for dims 0–3, stored as `count - 1`      |
//! | 6–9    | byte strides for dims 0–3 (two's complement)    |
//! | 10     | indirect: data base address                     |
//! | 11     | indirect: bit 0 index width (0 = u16), bits 4–7 shift |
//! | 12     | indirect: index count, stored as `count - 1`    |
//! | 16     | indirect pointer: arms a gather over a packed index array |
//! | 24+d   | read pointer: arms a (d+1)-dimensional read     |
//! | 28+d   | write pointer: arms a (d+1)-dimensional write   |
//!
//! Writing a pointer register *arms* the stream; the staged
//! repeat/bounds/strides are captured at that moment. Streams only touch
//! the FP datapath while the SSR-enable CSR bit is set.

use sc_mem::PortId;

use crate::addrgen::AffinePattern;
use crate::dm::{DataMover, SsrError, StreamDir};
use crate::indirect::{IndexWidth, IndirectConfig};

/// Decoded form of an `scfgwi`/`scfgri` immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgAddr {
    /// Data mover index.
    pub dm: u8,
    /// Configuration register index.
    pub reg: u8,
}

impl CfgAddr {
    /// Splits a 12-bit config immediate into `(dm, reg)`.
    #[must_use]
    pub fn from_imm(imm: u16) -> Self {
        CfgAddr {
            dm: (imm & 0x1F) as u8,
            reg: ((imm >> 5) & 0x7F) as u8,
        }
    }

    /// Packs `(dm, reg)` into the 12-bit immediate.
    #[must_use]
    pub fn to_imm(self) -> u16 {
        (u16::from(self.reg) << 5) | u16::from(self.dm)
    }
}

/// Staged (not yet armed) per-mover configuration.
#[derive(Debug, Clone, Copy, Default)]
struct StagedCfg {
    repeat: u32,
    bounds_minus_one: [u32; 4],
    strides: [i32; 4],
    idx_data_base: u32,
    idx_cfg: u32,
    idx_count_minus_one: u32,
}

/// The stream-semantic-register unit.
///
/// # Examples
///
/// ```
/// use sc_ssr::{SsrUnit, CfgAddr};
///
/// let mut ssr = SsrUnit::new(3, 4);
/// // Program DM0: 4 doubles from address 0x100 (bounds reg stores n-1).
/// ssr.write_cfg(CfgAddr { dm: 0, reg: 2 }, 3)?;   // bound0 = 4
/// ssr.write_cfg(CfgAddr { dm: 0, reg: 6 }, 8)?;   // stride0 = 8 B
/// ssr.write_cfg(CfgAddr { dm: 0, reg: 24 }, 0x100)?; // arm 1-D read
/// assert!(ssr.mover(0).is_active());
/// # Ok::<(), sc_ssr::SsrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SsrUnit {
    movers: Vec<DataMover>,
    staged: Vec<StagedCfg>,
    enabled: bool,
}

impl SsrUnit {
    /// Creates a unit with `n` data movers (Snitch: 3) and the given
    /// per-stream FIFO capacity. Mover `i` uses TCDM port `i + 1`
    /// (port 0 belongs to the core's LSU).
    #[must_use]
    pub fn new(n: u8, fifo_capacity: usize) -> Self {
        Self::with_port_base(n, fifo_capacity, 0)
    }

    /// Creates a unit whose movers request on TCDM ports
    /// `port_base + 1 + i` — the per-core port namespace of a cluster
    /// (core `h` owns ports `h * (1 + n) ..`, its LSU on the first).
    ///
    /// # Panics
    ///
    /// Panics if the port numbers would overflow the 8-bit port space.
    #[must_use]
    pub fn with_port_base(n: u8, fifo_capacity: usize, port_base: u8) -> Self {
        assert!(
            port_base.checked_add(n).is_some(),
            "port namespace overflow: base {port_base} + {n} movers"
        );
        SsrUnit {
            movers: (0..n)
                .map(|i| DataMover::new(i, PortId(port_base + 1 + i), fifo_capacity))
                .collect(),
            staged: vec![StagedCfg::default(); n as usize],
            enabled: false,
        }
    }

    /// Number of data movers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.movers.len()
    }

    /// Whether the unit has no movers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.movers.is_empty()
    }

    /// Whether `ft0`–`ft2` currently alias the streams (CSR 0x7C0 bit 0).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the SSR-enable bit.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether FP register `f{index}` is stream-mapped *right now*.
    #[must_use]
    pub fn maps_register(&self, fp_index: u8) -> bool {
        self.enabled && (fp_index as usize) < self.movers.len()
    }

    /// Immutable access to a mover.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn mover(&self, index: u8) -> &DataMover {
        &self.movers[index as usize]
    }

    /// Mutable access to a mover.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn mover_mut(&mut self, index: u8) -> &mut DataMover {
        &mut self.movers[index as usize]
    }

    /// Iterates over all movers.
    pub fn movers(&self) -> impl Iterator<Item = &DataMover> {
        self.movers.iter()
    }

    /// Iterates mutably over all movers, in index order.
    pub fn movers_mut(&mut self) -> impl Iterator<Item = &mut DataMover> {
        self.movers.iter_mut()
    }

    /// Whether every armed stream has fully completed (write streams
    /// drained). Programs should check this before `ecall`.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.movers.iter().all(DataMover::is_done)
    }

    /// Handles `scfgwi value, imm`.
    ///
    /// # Errors
    ///
    /// Fails on unknown registers, out-of-range movers, or re-arming an
    /// active stream.
    pub fn write_cfg(&mut self, addr: CfgAddr, value: u32) -> Result<(), SsrError> {
        let dm = addr.dm as usize;
        if dm >= self.movers.len() {
            return Err(SsrError::UnknownCfg {
                dm: addr.dm,
                reg: addr.reg,
            });
        }
        match addr.reg {
            0 => Ok(()), // status writes are ignored (clear-on-write bits unused)
            1 => {
                self.staged[dm].repeat = value;
                Ok(())
            }
            r @ 2..=5 => {
                self.staged[dm].bounds_minus_one[(r - 2) as usize] = value;
                Ok(())
            }
            r @ 6..=9 => {
                self.staged[dm].strides[(r - 6) as usize] = value as i32;
                Ok(())
            }
            10 => {
                self.staged[dm].idx_data_base = value;
                Ok(())
            }
            11 => {
                self.staged[dm].idx_cfg = value;
                Ok(())
            }
            12 => {
                self.staged[dm].idx_count_minus_one = value;
                Ok(())
            }
            16 => {
                let staged = self.staged[dm];
                let cfg = IndirectConfig {
                    data_base: staged.idx_data_base,
                    idx_width: IndexWidth::from_cfg_bits(staged.idx_cfg),
                    shift: ((staged.idx_cfg >> 4) & 0xF) as u8,
                    count: staged.idx_count_minus_one + 1,
                };
                self.movers[dm].arm_indirect(value, cfg)
            }
            r @ 24..=27 => self.arm(addr.dm, value, (r - 24) + 1, StreamDir::Read),
            r @ 28..=31 => self.arm(addr.dm, value, (r - 28) + 1, StreamDir::Write),
            _ => Err(SsrError::UnknownCfg {
                dm: addr.dm,
                reg: addr.reg,
            }),
        }
    }

    /// Handles `scfgri rd, imm`; returns the read value.
    ///
    /// # Errors
    ///
    /// Fails on unknown registers or out-of-range movers.
    pub fn read_cfg(&self, addr: CfgAddr) -> Result<u32, SsrError> {
        let dm = addr.dm as usize;
        if dm >= self.movers.len() {
            return Err(SsrError::UnknownCfg {
                dm: addr.dm,
                reg: addr.reg,
            });
        }
        match addr.reg {
            0 => Ok(u32::from(self.movers[dm].is_done())),
            1 => Ok(self.staged[dm].repeat),
            r @ 2..=5 => Ok(self.staged[dm].bounds_minus_one[(r - 2) as usize]),
            r @ 6..=9 => Ok(self.staged[dm].strides[(r - 6) as usize] as u32),
            10 => Ok(self.staged[dm].idx_data_base),
            11 => Ok(self.staged[dm].idx_cfg),
            12 => Ok(self.staged[dm].idx_count_minus_one),
            _ => Err(SsrError::UnknownCfg {
                dm: addr.dm,
                reg: addr.reg,
            }),
        }
    }

    fn arm(&mut self, dm: u8, base: u32, dims: u8, dir: StreamDir) -> Result<(), SsrError> {
        let staged = self.staged[dm as usize];
        let mut bounds = [1u32; 4];
        for (bound, &minus_one) in bounds
            .iter_mut()
            .zip(&staged.bounds_minus_one)
            .take(dims as usize)
        {
            *bound = minus_one + 1;
        }
        let pattern = AffinePattern {
            base,
            bounds,
            strides: staged.strides,
            repeat: staged.repeat,
            dims,
        };
        self.movers[dm as usize].arm(pattern, dir)
    }

    /// Ends the cycle for every mover (landing slots become poppable).
    #[inline]
    pub fn advance(&mut self) {
        for m in &mut self.movers {
            m.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_mem::{Store, Tcdm, TcdmConfig};

    #[test]
    fn cfg_addr_roundtrip() {
        for dm in 0..3u8 {
            for reg in [0u8, 1, 2, 9, 24, 31] {
                let a = CfgAddr { dm, reg };
                assert_eq!(CfgAddr::from_imm(a.to_imm()), a);
            }
        }
    }

    #[test]
    fn full_configuration_flow_streams_data() {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
        for i in 0..8u32 {
            tcdm.write_f64(i * 8, f64::from(i) + 0.5).unwrap();
        }
        let mut ssr = SsrUnit::new(3, 4);
        ssr.set_enabled(true);
        // 2-D: 2 rows of 3 elements, row gap 32 bytes.
        ssr.write_cfg(CfgAddr { dm: 0, reg: 2 }, 2).unwrap(); // bound0 = 3
        ssr.write_cfg(CfgAddr { dm: 0, reg: 3 }, 1).unwrap(); // bound1 = 2
        ssr.write_cfg(CfgAddr { dm: 0, reg: 6 }, 8).unwrap(); // stride0
        ssr.write_cfg(CfgAddr { dm: 0, reg: 7 }, 32).unwrap(); // stride1
        ssr.write_cfg(CfgAddr { dm: 0, reg: 25 }, 0).unwrap(); // arm 2-D read @0
        assert!(ssr.maps_register(0));
        assert!(!ssr.maps_register(3));

        let mut got = Vec::new();
        for _ in 0..32 {
            if let Some(req) = ssr.mover(0).request() {
                let g = tcdm.arbitrate(&[req]);
                if g[0] {
                    ssr.mover_mut(0).apply_grant(&mut tcdm).unwrap();
                }
            }
            ssr.advance();
            if ssr.mover(0).can_pop() {
                got.push(f64::from_bits(ssr.mover_mut(0).pop().unwrap()));
            }
        }
        assert_eq!(got, vec![0.5, 1.5, 2.5, 4.5, 5.5, 6.5]);
        assert!(ssr.all_done());
    }

    #[test]
    fn unknown_cfg_register_rejected() {
        let mut ssr = SsrUnit::new(3, 4);
        assert!(matches!(
            ssr.write_cfg(CfgAddr { dm: 0, reg: 15 }, 1),
            Err(SsrError::UnknownCfg { .. })
        ));
        assert!(matches!(
            ssr.write_cfg(CfgAddr { dm: 7, reg: 1 }, 1),
            Err(SsrError::UnknownCfg { .. })
        ));
    }

    #[test]
    fn status_reads_done_bit() {
        let mut ssr = SsrUnit::new(1, 4);
        assert_eq!(ssr.read_cfg(CfgAddr { dm: 0, reg: 0 }).unwrap(), 1);
        ssr.write_cfg(CfgAddr { dm: 0, reg: 2 }, 0).unwrap();
        ssr.write_cfg(CfgAddr { dm: 0, reg: 6 }, 8).unwrap();
        ssr.write_cfg(CfgAddr { dm: 0, reg: 24 }, 0).unwrap();
        assert_eq!(ssr.read_cfg(CfgAddr { dm: 0, reg: 0 }).unwrap(), 0);
    }
}

#[cfg(test)]
mod indirect_tests {
    use super::*;
    use sc_mem::{Store, Tcdm, TcdmConfig};

    /// Drives one mover to completion against a TCDM, collecting pops.
    fn drain(ssr: &mut SsrUnit, tcdm: &mut Tcdm, dm: u8, n: usize) -> Vec<f64> {
        let mut got = Vec::new();
        for _ in 0..10_000 {
            if let Some(req) = ssr.mover(dm).request() {
                let g = tcdm.arbitrate(&[req]);
                if g[0] {
                    ssr.mover_mut(dm).apply_grant(tcdm).unwrap();
                }
            }
            ssr.advance();
            if ssr.mover(dm).can_pop() {
                got.push(f64::from_bits(ssr.mover_mut(dm).pop().unwrap()));
            }
            if got.len() == n {
                break;
            }
        }
        got
    }

    #[test]
    fn indirect_gather_via_cfg_registers() {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(8192).with_banks(8));
        // Data array at 0x400.
        for i in 0..32u32 {
            tcdm.write_f64(0x400 + i * 8, f64::from(i) * 10.0).unwrap();
        }
        // Packed u16 index array at 0x100: gather order 5, 0, 31, 7, 7, 2.
        let indices: [u16; 6] = [5, 0, 31, 7, 7, 2];
        for (i, idx) in indices.iter().enumerate() {
            tcdm.write_u16(0x100 + 2 * i as u32, *idx).unwrap();
        }
        let mut ssr = SsrUnit::new(3, 4);
        ssr.set_enabled(true);
        ssr.write_cfg(CfgAddr { dm: 0, reg: 10 }, 0x400).unwrap(); // data base
        ssr.write_cfg(CfgAddr { dm: 0, reg: 11 }, 0x30).unwrap(); // u16, shift 3
        ssr.write_cfg(CfgAddr { dm: 0, reg: 12 }, 5).unwrap(); // count-1
        ssr.write_cfg(CfgAddr { dm: 0, reg: 16 }, 0x100).unwrap(); // arm gather
        assert!(ssr.mover(0).is_indirect());
        let got = drain(&mut ssr, &mut tcdm, 0, 6);
        assert_eq!(got, vec![50.0, 0.0, 310.0, 70.0, 70.0, 20.0]);
        assert!(ssr.mover(0).is_done());
    }

    #[test]
    fn indirect_gather_u32_indices() {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(8192).with_banks(8));
        for i in 0..16u32 {
            tcdm.write_f64(0x800 + i * 8, f64::from(i) + 0.5).unwrap();
        }
        for (i, idx) in [3u32, 1, 15].iter().enumerate() {
            tcdm.write_u32(0x200 + 4 * i as u32, *idx).unwrap();
        }
        let mut ssr = SsrUnit::new(1, 4);
        ssr.write_cfg(CfgAddr { dm: 0, reg: 10 }, 0x800).unwrap();
        ssr.write_cfg(CfgAddr { dm: 0, reg: 11 }, 0x31).unwrap(); // u32, shift 3
        ssr.write_cfg(CfgAddr { dm: 0, reg: 12 }, 2).unwrap();
        ssr.write_cfg(CfgAddr { dm: 0, reg: 16 }, 0x200).unwrap();
        let got = drain(&mut ssr, &mut tcdm, 0, 3);
        assert_eq!(got, vec![3.5, 1.5, 15.5]);
    }

    #[test]
    fn indirect_rearm_while_active_is_error() {
        let mut ssr = SsrUnit::new(1, 4);
        ssr.write_cfg(CfgAddr { dm: 0, reg: 12 }, 3).unwrap();
        ssr.write_cfg(CfgAddr { dm: 0, reg: 16 }, 0x100).unwrap();
        assert!(matches!(
            ssr.write_cfg(CfgAddr { dm: 0, reg: 16 }, 0x100),
            Err(SsrError::StillActive { dm: 0 })
        ));
    }
}
