//! Control and status register (CSR) addresses and a simple CSR file.
//!
//! Besides a subset of the standard machine-mode CSRs, the core uses three
//! custom CSRs in the vendor range, mirroring the Snitch conventions:
//!
//! * [`SSR_ENABLE`] (0x7C0) — bit 0 enables stream semantic registers,
//!   i.e. `ft0`–`ft2` alias the data movers.
//! * [`FPMODE`] (0x7C1) — reserved (format mode), present for layout
//!   fidelity, unused by the kernels here.
//! * [`CHAIN_MASK`] (0x7C3) — **the paper's contribution**: a 32-bit
//!   mask with one bit per architectural FP register; setting bit *i* gives
//!   register *fi* FIFO (chaining) semantics.

use std::collections::BTreeMap;
use std::fmt;

/// Machine cycle counter (read-only view in this model).
pub const MCYCLE: u16 = 0xB00;
/// Machine retired-instruction counter.
pub const MINSTRET: u16 = 0xB02;
/// Hart (hardware thread) ID — the standard machine-mode CSR. Reads the
/// core's position within its cluster; 0 on a single-core system.
pub const MHARTID: u16 = 0xF14;
/// Custom: stream semantic register enable (Snitch `ssr` CSR).
pub const SSR_ENABLE: u16 = 0x7C0;
/// Custom: FP mode register (unused placeholder, kept for layout fidelity).
pub const FPMODE: u16 = 0x7C1;
/// Custom: chaining enable mask, one bit per FP architectural register.
///
/// This is the CSR the paper places at address 0x7C3.
pub const CHAIN_MASK: u16 = 0x7C3;
/// Custom: performance-region marker. Writing a non-zero value opens a
/// measured region, zero closes it; both synchronise with the FP
/// subsystem so cycle counts are attributable (the model's analogue of
/// the `mcycle` bracketing used in RTL benchmarks).
pub const PERF_REGION: u16 = 0x7C4;
/// Custom: cluster barrier. Any write makes the hart wait (after its FP
/// subsystem drains and its streams complete) until every active hart in
/// the cluster has also written it; the read value returned on release is
/// the number of barrier episodes completed before this one. On a
/// single-core system the barrier releases immediately.
pub const CLUSTER_BARRIER: u16 = 0x7C5;
/// Custom: inter-cluster (system) barrier. Any write makes the hart wait
/// (after its FP subsystem drains and its streams complete) until every
/// active hart of every cluster in the system has also written it; the
/// read value returned on release is the number of system-barrier
/// episodes completed before this one. Outside a multi-cluster system
/// the barrier degenerates to the cluster barrier (a lone cluster is the
/// whole system) and on a single core it releases immediately.
pub const SYSTEM_BARRIER: u16 = 0x7C6;
/// Custom: this core's cluster ID within the system (read-only; 0
/// outside a multi-cluster system). The cluster-level analogue of
/// [`MHARTID`] — kernels partition grids across clusters with it the
/// same way they partition across harts.
pub const CLUSTER_ID: u16 = 0x7C7;
/// Custom: number of clusters in the system (read-only; 1 outside a
/// system).
pub const SYSTEM_NUM_CLUSTERS: u16 = 0x7C8;
/// Custom: number of cores in the cluster (read-only; 1 outside a
/// cluster).
pub const CLUSTER_NUM_CORES: u16 = 0x7C9;
/// DMA: source byte address on the background-memory (Dram) side.
pub const DMA_SRC: u16 = 0x7D0;
/// DMA: destination byte address on the TCDM side.
///
/// The src/dst naming follows the Dram→TCDM ("in") direction; for
/// TCDM→Dram transfers [`DMA_SRC`] still holds the Dram-side address and
/// [`DMA_DST`] the TCDM-side address — the direction bit of
/// [`DMA_START`] selects which side is read.
pub const DMA_DST: u16 = 0x7D1;
/// DMA: bytes per row (positive multiple of 8).
pub const DMA_LEN: u16 = 0x7D2;
/// DMA: byte stride between row starts on the Dram side (2-D transfers).
pub const DMA_SRC_STRIDE: u16 = 0x7D3;
/// DMA: byte stride between row starts on the TCDM side (2-D transfers).
pub const DMA_DST_STRIDE: u16 = 0x7D4;
/// DMA: row count; 0 and 1 both mean a plain 1-D transfer.
pub const DMA_REPS: u16 = 0x7D5;
/// DMA: doorbell. Any write snapshots the descriptor CSRs above into a
/// transfer and enqueues it on the cluster's DMA engine; operand bit 0
/// is the direction (1 = Dram → TCDM, 0 = TCDM → Dram). Transfers
/// execute in FIFO order. On a core without an attached engine (the
/// single-core `Simulator` path) the doorbell is inert.
pub const DMA_START: u16 = 0x7D6;
/// DMA: read-only count of transfers not yet completed (queued + in
/// flight), mirrored from the cluster's engine each cycle.
pub const DMA_STATUS: u16 = 0x7D7;
/// DMA: read-only monotonic count of completed transfers. Because
/// completion order is FIFO, polling `completed >= k` synchronises on a
/// specific earlier doorbell ring — the primitive double-buffered tile
/// loops use to wait for *their* input tile while later transfers
/// stream in the background.
pub const DMA_COMPLETED: u16 = 0x7D8;
/// DMA: blocking completion wait. Writing a target count parks the hart
/// (after its FP subsystem drains and its streams finish, like the
/// barrier CSRs) until the engine's wrapping completion counter reaches
/// the target — the wrap-safe condition is
/// `(completed - target) as i32 >= 0` — then the write retires with the
/// live completed count as its read value. Unlike polling
/// [`DMA_COMPLETED`] in a branch loop, a parked hart retires nothing
/// while it waits, which lets an event-driven scheduler fast-forward
/// the wait. A pure read (csrrs/csrrc with a zero operand) returns the
/// completed count without parking. On the single-core `Simulator` the
/// doorbell is inert and the wait releases immediately (like the
/// barrier CSRs); in a cluster without an attached engine it never
/// resolves — a software bug, caught by the watchdog or the cycle
/// budget, exactly like an unreachable barrier.
pub const DMA_WAIT: u16 = 0x7D9;
/// FP accrued exception flags (fcsr subset).
pub const FFLAGS: u16 = 0x001;
/// FP dynamic rounding mode (fcsr subset).
pub const FRM: u16 = 0x002;
/// FP control/status (frm+fflags).
pub const FCSR: u16 = 0x003;

/// Every CSR address the model implements: the only addresses an
/// architectural write may target. A simulated write anywhere else
/// fails, and `sc-lint` flags it (`csr-unknown`).
pub const IMPLEMENTED: &[u16] = &[
    FFLAGS,
    FRM,
    FCSR,
    SSR_ENABLE,
    FPMODE,
    CHAIN_MASK,
    PERF_REGION,
    CLUSTER_BARRIER,
    SYSTEM_BARRIER,
    CLUSTER_ID,
    SYSTEM_NUM_CLUSTERS,
    CLUSTER_NUM_CORES,
    DMA_SRC,
    DMA_DST,
    DMA_LEN,
    DMA_SRC_STRIDE,
    DMA_DST_STRIDE,
    DMA_REPS,
    DMA_START,
    DMA_STATUS,
    DMA_COMPLETED,
    DMA_WAIT,
    MCYCLE,
    MINSTRET,
    MHARTID,
];

/// Whether the model implements a CSR at `addr` ([`IMPLEMENTED`]).
#[must_use]
pub fn is_implemented(addr: u16) -> bool {
    IMPLEMENTED.contains(&addr)
}

/// How a CSR instruction updates the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// `csrrw`: write the operand.
    ReadWrite,
    /// `csrrs`: set the bits of the operand.
    ReadSet,
    /// `csrrc`: clear the bits of the operand.
    ReadClear,
}

impl CsrOp {
    /// Applies the update rule to `old` with `operand`, returning the new value.
    ///
    /// Per the RISC-V spec, set/clear with a zero operand performs no write;
    /// the caller is responsible for suppressing side effects in that case —
    /// the pure value computed here is unchanged anyway.
    #[must_use]
    pub fn apply(self, old: u32, operand: u32) -> u32 {
        match self {
            CsrOp::ReadWrite => operand,
            CsrOp::ReadSet => old | operand,
            CsrOp::ReadClear => old & !operand,
        }
    }
}

impl fmt::Display for CsrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CsrOp::ReadWrite => "csrrw",
            CsrOp::ReadSet => "csrrs",
            CsrOp::ReadClear => "csrrc",
        };
        f.write_str(s)
    }
}

/// A sparse CSR file holding 32-bit values.
///
/// Any address reads as zero until written. The file itself stores any
/// address; the core refuses writes outside [`IMPLEMENTED`] before they
/// reach it, and intercepts the CSRs with side effects ([`CHAIN_MASK`],
/// [`SSR_ENABLE`]).
///
/// # Examples
///
/// ```
/// use sc_isa::{CsrFile, CsrOp, csr};
/// let mut f = CsrFile::new();
/// let old = f.apply(csr::CHAIN_MASK, CsrOp::ReadSet, 0x8);
/// assert_eq!(old, 0);
/// assert_eq!(f.read(csr::CHAIN_MASK), 0x8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrFile {
    values: BTreeMap<u16, u32>,
}

impl CsrFile {
    /// Creates an empty CSR file (all CSRs read as zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a CSR; unknown addresses read as zero.
    #[must_use]
    pub fn read(&self, addr: u16) -> u32 {
        self.values.get(&addr).copied().unwrap_or(0)
    }

    /// Writes a CSR unconditionally.
    pub fn write(&mut self, addr: u16, value: u32) {
        if value == 0 {
            self.values.remove(&addr);
        } else {
            self.values.insert(addr, value);
        }
    }

    /// Applies a CSR read-modify-write op, returning the old value.
    pub fn apply(&mut self, addr: u16, op: CsrOp, operand: u32) -> u32 {
        let old = self.read(addr);
        self.write(addr, op.apply(old, operand));
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_csrs_read_zero() {
        let f = CsrFile::new();
        assert_eq!(f.read(0x123), 0);
    }

    #[test]
    fn implemented_csrs_are_distinct_and_exclude_retired_ones() {
        let mut sorted = IMPLEMENTED.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), IMPLEMENTED.len());
        // 0x7CA was the retired phase-marker CSR.
        assert!(!is_implemented(0x7CA));
        assert!(is_implemented(CHAIN_MASK));
    }

    #[test]
    fn ops_apply_spec_semantics() {
        assert_eq!(CsrOp::ReadWrite.apply(0xFF, 0x0F), 0x0F);
        assert_eq!(CsrOp::ReadSet.apply(0xF0, 0x0F), 0xFF);
        assert_eq!(CsrOp::ReadClear.apply(0xFF, 0x0F), 0xF0);
    }

    #[test]
    fn apply_returns_old_value() {
        let mut f = CsrFile::new();
        f.write(CHAIN_MASK, 0x8);
        let old = f.apply(CHAIN_MASK, CsrOp::ReadClear, 0x8);
        assert_eq!(old, 0x8);
        assert_eq!(f.read(CHAIN_MASK), 0);
    }

    #[test]
    fn paper_fig1c_sequence() {
        // li mask, 8 ; csrs 0x7C3, mask ; ... ; csrs 0x7C3, x0
        let mut f = CsrFile::new();
        f.apply(CHAIN_MASK, CsrOp::ReadSet, 8);
        assert_eq!(f.read(CHAIN_MASK), 8);
        // csrs with x0 operand is a no-op read.
        f.apply(CHAIN_MASK, CsrOp::ReadSet, 0);
        assert_eq!(f.read(CHAIN_MASK), 8);
    }
}
