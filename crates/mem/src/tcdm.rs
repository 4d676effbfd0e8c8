//! The banked tightly-coupled data memory (TCDM).
//!
//! A Snitch cluster's L1 is a multi-banked scratchpad: word-interleaved
//! SRAM banks behind a fully-connected crossbar. Each bank serves at most
//! one request per cycle; masters that lose arbitration retry the next
//! cycle. This contention is a first-order performance effect for the
//! paper's experiments: every SSR stream occupies a TCDM port, so mapping
//! the stencil coefficients to a stream (the `Base` variant) adds a
//! requester, while keeping them in the register file (the `Chaining`
//! variants) removes one — and removes its energy per access.

use std::fmt;

use crate::stats::TcdmStats;
use crate::store::Store;

/// Identifies a requester (master port) at the TCDM crossbar.
///
/// Port numbering is fixed by the core: 0 = core LSU, 1.. = SSR data movers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// One memory request presented to the crossbar in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting master.
    pub port: PortId,
    /// Byte address.
    pub addr: u32,
    /// Read or write.
    pub kind: AccessKind,
}

/// TCDM geometry and timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcdmConfig {
    /// Total size in bytes.
    pub size: u32,
    /// Number of SRAM banks (power of two).
    pub banks: u32,
    /// Bank word width in bytes (interleaving granule, power of two;
    /// 8 = 64-bit banks).
    pub bank_width: u32,
}

impl TcdmConfig {
    /// Snitch-like default: 32 banks × 64 bit. The capacity is scaled up
    /// from the 128 KiB of a real cluster so whole experiment footprints
    /// fit *without* DMA double-buffering; banking behaviour (the
    /// timing-relevant part) is unchanged. Use [`TcdmConfig::snitch_128k`]
    /// together with the DMA/tiling path for the true-capacity model.
    #[must_use]
    pub fn new() -> Self {
        TcdmConfig {
            size: 4 << 20,
            banks: 32,
            bank_width: 8,
        }
    }

    /// The real Snitch cluster L1: a hard 128 KiB over 32 × 64-bit banks.
    /// Whole-problem footprints generally do **not** fit; kernels must be
    /// tiled through the DMA engine (`sc-kernels`' `build_system_tiled`).
    #[must_use]
    pub fn snitch_128k() -> Self {
        Self::new().with_size(128 << 10)
    }

    /// Sets the bank count (must be a power of two, and the configured
    /// size must remain a whole number of interleave lines).
    #[must_use]
    pub fn with_banks(mut self, banks: u32) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        self.banks = banks;
        self.validate();
        self
    }

    /// Sets the total size in bytes. The size must be a positive multiple
    /// of one full interleave line (`banks × bank_width` bytes), so every
    /// bank holds the same whole number of words.
    #[must_use]
    pub fn with_size(mut self, size: u32) -> Self {
        self.size = size;
        self.validate();
        self
    }

    /// Bytes in one interleave line (one word from every bank).
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.banks * self.bank_width
    }

    /// Checks the size/banking invariant.
    ///
    /// # Panics
    ///
    /// Panics if the size is zero or not a multiple of `banks × bank_width`
    /// — such a geometry would give some banks one more word than others,
    /// which the word-interleaved address mapping cannot express.
    fn validate(&self) {
        let line = self.line_bytes();
        assert!(
            self.size > 0 && self.size.is_multiple_of(line),
            "TCDM size {} is not a positive multiple of one interleave line \
             ({} banks × {} B = {} B); round the size to a multiple of {} B",
            self.size,
            self.banks,
            self.bank_width,
            line,
            line,
        );
    }
}

impl Default for TcdmConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The banked scratchpad: functional byte store + per-cycle bank arbiter.
///
/// # Examples
///
/// ```
/// use sc_mem::{AccessKind, PortId, Request, Store, Tcdm, TcdmConfig};
///
/// let mut tcdm = Tcdm::new(TcdmConfig::new());
/// tcdm.write_f64(0x100, 3.5)?;
/// assert_eq!(tcdm.read_f64(0x100)?, 3.5);
///
/// // Two requests to the same bank in one cycle: one wins, one retries.
/// let grants = tcdm.arbitrate(&[
///     Request { port: PortId(0), addr: 0x0, kind: AccessKind::Read },
///     Request { port: PortId(1), addr: 0x0, kind: AccessKind::Read },
/// ]);
/// assert_eq!(grants.iter().filter(|g| **g).count(), 1);
/// # Ok::<(), sc_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tcdm {
    cfg: TcdmConfig,
    data: Vec<u8>,
    stats: TcdmStats,
    /// Round-robin arbitration pointer, rotated every arbitration cycle so
    /// no master is starved under persistent conflicts.
    rr_next: u8,
    /// Ports per requester group (0 = ungrouped). When a cluster
    /// namespaces ports as `core × ports_per_core`, grouping makes
    /// arbitration fair *between cores* first and between a core's own
    /// ports second, so one core's many streams cannot starve another
    /// core's single LSU.
    port_group_size: u8,
    /// Scratch: per bank, the smallest `priority key << 32 | request
    /// index` among this cycle's contenders, i.e. its winner (reused
    /// across cycles so arbitration never allocates).
    bank_best: Vec<u64>,
    /// `log2 bank_width`: [`Tcdm::bank_of`] is a shift and a mask.
    bank_shift: u32,
    /// `banks - 1`.
    bank_mask: u32,
}

impl Tcdm {
    /// Creates a zero-initialised TCDM.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `bank_width` is not a power of two.
    #[must_use]
    pub fn new(cfg: TcdmConfig) -> Self {
        assert!(
            cfg.banks.is_power_of_two() && cfg.bank_width.is_power_of_two(),
            "TCDM bank count ({}) and bank width ({} B) must be powers of two",
            cfg.banks,
            cfg.bank_width,
        );
        Tcdm {
            data: vec![0; cfg.size as usize],
            stats: TcdmStats::new(cfg.banks),
            cfg,
            rr_next: 0,
            port_group_size: 0,
            bank_best: vec![u64::MAX; cfg.banks as usize],
            bank_shift: cfg.bank_width.trailing_zeros(),
            bank_mask: cfg.banks - 1,
        }
    }

    /// Enables inter-group fair arbitration: ports `g*size..(g+1)*size`
    /// form group `g` (a core), and tie-breaking rotates over groups
    /// before rotating over a group's own ports. With a single group this
    /// reduces exactly to the ungrouped round-robin. Pass 0 to disable.
    pub fn set_port_group_size(&mut self, size: u8) {
        self.port_group_size = size;
    }

    /// The configured port group size (0 = ungrouped).
    #[must_use]
    pub fn port_group_size(&self) -> u8 {
        self.port_group_size
    }

    /// The configuration this TCDM was built with.
    #[must_use]
    pub fn config(&self) -> TcdmConfig {
        self.cfg
    }

    /// Access statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &TcdmStats {
        &self.stats
    }

    /// The bank serving a byte address.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr >> self.bank_shift) & self.bank_mask
    }

    /// Arbitrates one cycle of requests.
    ///
    /// Returns a grant flag per request (index-aligned with the input).
    /// At most one request per bank is granted per cycle; ties are broken
    /// round-robin on the port id, with the starting priority rotating
    /// every call so persistent conflicts share bandwidth fairly.
    /// Granted requests are counted in the statistics; data movement is
    /// performed separately by the caller through the functional API.
    ///
    /// A convenience wrapper over [`Tcdm::arbitrate_into`], which reuses
    /// a caller-owned grant buffer instead of allocating one per cycle.
    pub fn arbitrate(&mut self, requests: &[Request]) -> Vec<bool> {
        let mut grants = Vec::with_capacity(requests.len());
        self.arbitrate_into(requests, &mut grants);
        grants
    }

    /// Arbitrates one cycle of requests into `grants`, which is cleared
    /// and refilled index-aligned with `requests` (see
    /// [`Tcdm::arbitrate`] for the policy). Allocation-free once the
    /// buffers have grown to the largest request batch.
    pub fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<bool>) {
        grants.clear();
        if requests.is_empty() {
            return;
        }
        // Conflict-free fast path: when no two requests share a bank,
        // every priority order grants all of them, and the statistics
        // are per-port and per-bank sums, so granting in input order is
        // exact. One `u64` holds the occupancy of up to 64 banks.
        if self.cfg.banks <= 64 {
            let mut occupied = 0u64;
            let conflict_free = requests.iter().all(|r| {
                let bit = 1u64 << self.bank_of(r.addr);
                let free = occupied & bit == 0;
                occupied |= bit;
                free
            });
            if conflict_free {
                grants.resize(requests.len(), true);
                for r in requests {
                    self.stats
                        .record_grant(r.port, self.bank_of(r.addr), r.kind);
                }
                self.rr_next = self.rr_next.wrapping_add(1);
                return;
            }
        }
        // Priority keys rotate every call. The rotation is taken modulo
        // the highest requesting port (or group) so two contenders share
        // bandwidth 50/50 rather than by the full 8-bit wrap. With port
        // grouping, the group (core) key rotates first: inter-core
        // fairness dominates intra-core port order.
        let g = u32::from(self.port_group_size.max(1));
        let grouped = self.port_group_size > 0;
        let g_shift = g.is_power_of_two().then(|| g.trailing_zeros());
        let key_parts = |port: u8| -> (u32, u32) {
            let p = u32::from(port);
            match (grouped, g_shift) {
                (false, _) => (0, p),
                (true, Some(shift)) => (p >> shift, p & (g - 1)),
                (true, None) => (p / g, p % g),
            }
        };
        let (mut ngroups, mut nports) = (1, 1);
        for r in requests {
            let (group, port) = key_parts(r.port.0);
            ngroups = ngroups.max(group + 1);
            nports = nports.max(port + 1);
        }
        // The two rotations must not stay phase-locked: with a shared
        // counter and common factors between `ngroups` and `nports`
        // (always, for power-of-two clusters) some (group, port)
        // priority combinations would never occur and a port could
        // starve. Dividing by `ngroups` gives the port rotation an
        // independent phase; with a single group this reduces exactly
        // to the ungrouped rotation.
        let rr_group = u32::from(self.rr_next) % ngroups;
        let rr_port = (u32::from(self.rr_next) / ngroups) % nports;
        // `(x + n - r) % n` for `x, r < n`, without the division.
        let rotate = |x: u32, r: u32, n: u32| if x >= r { x - r } else { x + n - r };
        // A bank's winner is its contender with the smallest flattened
        // key `group' * nports + port'` (lexicographic on the rotated
        // pair), the earliest request on ties: the one the reference's
        // stable sort grants first. Packing `key << 32 | index` makes
        // that a plain minimum.
        let packed = |i: usize, r: &Request| {
            let (group, port) = key_parts(r.port.0);
            let key = rotate(group, rr_group, ngroups) * nports + rotate(port, rr_port, nports);
            u64::from(key) << 32 | i as u64
        };
        self.bank_best.fill(u64::MAX);
        for (i, r) in requests.iter().enumerate() {
            let bank = self.bank_of(r.addr) as usize;
            self.bank_best[bank] = self.bank_best[bank].min(packed(i, r));
        }
        // The statistics are per-port and per-bank sums, so recording
        // them in input order is exact.
        for (i, r) in requests.iter().enumerate() {
            let bank = self.bank_of(r.addr);
            let won = self.bank_best[bank as usize] == packed(i, r);
            if won {
                self.stats.record_grant(r.port, bank, r.kind);
            } else {
                self.stats.record_conflict(r.port, bank);
            }
            grants.push(won);
        }
        self.rr_next = self.rr_next.wrapping_add(1);
    }

    /// Places the round-robin pointer at an arbitrary phase (tests).
    #[cfg(test)]
    pub(crate) fn set_rr_next(&mut self, rr_next: u8) {
        self.rr_next = rr_next;
    }

    /// The round-robin pointer's phase (tests).
    #[cfg(test)]
    pub(crate) fn rr_next(&self) -> u8 {
        self.rr_next
    }

    /// The original sort-based arbiter, kept as the differential
    /// reference [`Tcdm::arbitrate_into`] is pinned against.
    #[cfg(test)]
    pub(crate) fn arbitrate_reference(&mut self, requests: &[Request]) -> Vec<bool> {
        let mut grants = vec![false; requests.len()];
        let mut bank_taken = vec![false; self.cfg.banks as usize];
        let g = u16::from(self.port_group_size.max(1));
        let grouped = self.port_group_size > 0;
        let key_parts = |port: u8| -> (u16, u16) {
            let p = u16::from(port);
            if grouped {
                (p / g, p % g)
            } else {
                (0, p)
            }
        };
        let ngroups = requests
            .iter()
            .map(|r| key_parts(r.port.0).0 + 1)
            .max()
            .unwrap_or(1);
        let nports = requests
            .iter()
            .map(|r| key_parts(r.port.0).1 + 1)
            .max()
            .unwrap_or(1);
        let rr_group = u16::from(self.rr_next) % ngroups;
        let rr_port = (u16::from(self.rr_next) / ngroups) % nports;
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| {
            let (group, port) = key_parts(requests[i].port.0);
            (
                (group + ngroups - rr_group) % ngroups,
                (port + nports - rr_port) % nports,
            )
        });
        for i in order {
            let req = &requests[i];
            let bank = self.bank_of(req.addr) as usize;
            if bank_taken[bank] {
                self.stats.record_conflict(req.port, bank as u32);
            } else {
                bank_taken[bank] = true;
                grants[i] = true;
                self.stats.record_grant(req.port, bank as u32, req.kind);
            }
        }
        if !requests.is_empty() {
            self.rr_next = self.rr_next.wrapping_add(1);
        }
        grants
    }
}

impl Store for Tcdm {
    #[inline]
    fn bound(&self) -> u32 {
        self.cfg.size
    }

    #[inline]
    fn load(&self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.data[a..a + buf.len()]);
    }

    #[inline]
    fn store(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemError;

    fn small() -> Tcdm {
        Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4))
    }

    #[test]
    fn snitch_128k_is_a_valid_geometry() {
        let c = TcdmConfig::snitch_128k();
        assert_eq!(c.size, 128 << 10);
        assert_eq!(c.banks, 32);
        assert!(c.size.is_multiple_of(c.line_bytes()));
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of one interleave line")]
    fn size_not_multiple_of_line_is_rejected() {
        // 1000 B over 32 × 8 B banks would leave some banks a word short.
        let _ = TcdmConfig::new().with_size(1000);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of one interleave line")]
    fn zero_size_is_rejected() {
        let _ = TcdmConfig::new().with_size(0);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of one interleave line")]
    fn bank_growth_can_invalidate_a_small_size() {
        // 256 B is fine at 4 banks (64 B lines) but not at 64 banks (512 B).
        let _ = TcdmConfig::new()
            .with_banks(4)
            .with_size(256)
            .with_banks(64);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = small();
        m.write_u8(1, 0xAB).unwrap();
        m.write_u16(2, 0xBEEF).unwrap();
        m.write_u32(4, 0xDEAD_BEEF).unwrap();
        m.write_u64(8, 0x0123_4567_89AB_CDEF).unwrap();
        m.write_f64(16, -2.25).unwrap();
        assert_eq!(m.read_u8(1).unwrap(), 0xAB);
        assert_eq!(m.read_u16(2).unwrap(), 0xBEEF);
        assert_eq!(m.read_u32(4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(8).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_f64(16).unwrap(), -2.25);
    }

    #[test]
    fn misaligned_and_oob_rejected() {
        let mut m = small();
        assert_eq!(
            m.read_u32(2).unwrap_err(),
            MemError::Misaligned { addr: 2, width: 4 }
        );
        assert_eq!(
            m.write_u64(4096, 0).unwrap_err(),
            MemError::OutOfBounds {
                addr: 4096,
                width: 8,
                size: 4096
            }
        );
        // Last valid u64 slot works.
        m.write_u64(4088, 7).unwrap();
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let m = small();
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(7), 0);
        assert_eq!(m.bank_of(8), 1);
        assert_eq!(m.bank_of(24), 3);
        assert_eq!(m.bank_of(32), 0);
    }

    #[test]
    #[should_panic(expected = "must be powers of two")]
    fn non_power_of_two_bank_width_is_rejected() {
        // The fields are public, so a struct literal can bypass the
        // builders' checks; `Tcdm::new` still refuses the geometry.
        let _ = Tcdm::new(TcdmConfig {
            size: 6 * 12 * 16,
            banks: 8,
            bank_width: 12,
        });
    }

    #[test]
    fn conflicting_requests_serialise() {
        let mut m = small();
        let reqs = [
            Request {
                port: PortId(0),
                addr: 0,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(1),
                addr: 32,
                kind: AccessKind::Read,
            }, // same bank 0
            Request {
                port: PortId(2),
                addr: 8,
                kind: AccessKind::Read,
            }, // bank 1
        ];
        let grants = m.arbitrate(&reqs);
        assert_eq!(grants.iter().filter(|g| **g).count(), 2);
        assert!(grants[2], "bank-1 request must always be granted");
        assert_eq!(m.stats().conflicts(), 1);
    }

    #[test]
    fn disjoint_banks_all_granted() {
        let mut m = small();
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request {
                port: PortId(i),
                addr: u32::from(i) * 8,
                kind: AccessKind::Read,
            })
            .collect();
        let grants = m.arbitrate(&reqs);
        assert!(grants.iter().all(|g| *g));
        assert_eq!(m.stats().conflicts(), 0);
        assert_eq!(m.stats().total_accesses(), 4);
    }

    #[test]
    fn grouped_arbitration_is_fair_between_cores() {
        // Core 0 owns ports 0..4, core 1 owns ports 4..8; all requests hit
        // bank 0. Ungrouped round-robin would hand core 0 (with four
        // contending ports) most of the bandwidth; grouping must split the
        // grants evenly between the two cores.
        let mut m = small();
        m.set_port_group_size(4);
        let reqs = [
            Request {
                port: PortId(0),
                addr: 0,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(1),
                addr: 32,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(2),
                addr: 64,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(3),
                addr: 96,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(4),
                addr: 128,
                kind: AccessKind::Read,
            },
        ];
        let mut core_wins = [0u32; 2];
        for _ in 0..100 {
            let g = m.arbitrate(&reqs);
            for (i, granted) in g.iter().enumerate() {
                if *granted {
                    core_wins[if i < 4 { 0 } else { 1 }] += 1;
                }
            }
        }
        assert_eq!(core_wins[0] + core_wins[1], 100);
        assert_eq!(
            core_wins[1], 50,
            "inter-core split must be even, got {core_wins:?}"
        );
    }

    #[test]
    fn grouped_arbitration_starves_no_port() {
        // Regression: group and port rotation once shared one counter,
        // phase-locking the priorities so (e.g.) core 0's mover and
        // core 1's LSU never won a contended bank. Two cores × two
        // ports, all on bank 0: every port must win equally.
        let mut m = small();
        m.set_port_group_size(2);
        let reqs: Vec<Request> = (0..4)
            .map(|p| Request {
                port: PortId(p),
                addr: u32::from(p) * 32, // all bank 0
                kind: AccessKind::Read,
            })
            .collect();
        let mut wins = [0u32; 4];
        for _ in 0..100 {
            for (w, granted) in wins.iter_mut().zip(m.arbitrate(&reqs)) {
                *w += u32::from(granted);
            }
        }
        assert_eq!(wins, [25; 4], "every port must share the contended bank");
    }

    #[test]
    fn single_group_matches_ungrouped_arbitration() {
        // With every port inside one group, grouped arbitration must be
        // bit-identical to the legacy ungrouped order (the single-core
        // equivalence guarantee).
        let mut plain = small();
        let mut grouped = small();
        grouped.set_port_group_size(4);
        let reqs = [
            Request {
                port: PortId(0),
                addr: 0,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(1),
                addr: 32,
                kind: AccessKind::Write,
            },
            Request {
                port: PortId(2),
                addr: 8,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(3),
                addr: 64,
                kind: AccessKind::Read,
            },
        ];
        for _ in 0..25 {
            assert_eq!(plain.arbitrate(&reqs), grouped.arbitrate(&reqs));
        }
        assert_eq!(plain.stats(), grouped.stats());
    }

    #[test]
    fn round_robin_rotates_priority() {
        let mut m = small();
        let reqs = [
            Request {
                port: PortId(0),
                addr: 0,
                kind: AccessKind::Read,
            },
            Request {
                port: PortId(1),
                addr: 0,
                kind: AccessKind::Read,
            },
        ];
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let g = m.arbitrate(&reqs);
            if g[0] {
                wins[0] += 1;
            }
            if g[1] {
                wins[1] += 1;
            }
        }
        assert_eq!(wins[0] + wins[1], 10);
        assert!(wins[0] >= 4 && wins[1] >= 4, "fair-ish split, got {wins:?}");
    }
}
