//! Access statistics for the TCDM, consumed by the energy model.

use sc_trace::MetricSource;

use crate::tcdm::{AccessKind, PortId};

/// One counter per possible port id (ports are `u8`).
const PORTS: usize = 1 << u8::BITS;

/// Per-port and per-bank access counters.
///
/// Every *granted* request is one SRAM access (read or write); conflicts
/// count retries that cost a cycle but no SRAM energy. Per-port counters
/// are flat arrays indexed by port id, so recording is a plain increment
/// on the arbitration hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcdmStats {
    reads_by_port: [u64; PORTS],
    writes_by_port: [u64; PORTS],
    conflicts_by_port: [u64; PORTS],
    accesses_by_bank: Vec<u64>,
    conflicts_by_bank: Vec<u64>,
}

impl Default for TcdmStats {
    fn default() -> Self {
        Self::new(0)
    }
}

impl TcdmStats {
    /// Creates zeroed statistics for a memory with `banks` banks.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        TcdmStats {
            reads_by_port: [0; PORTS],
            writes_by_port: [0; PORTS],
            conflicts_by_port: [0; PORTS],
            accesses_by_bank: vec![0; banks as usize],
            conflicts_by_bank: vec![0; banks as usize],
        }
    }

    pub(crate) fn record_grant(&mut self, port: PortId, bank: u32, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.reads_by_port[usize::from(port.0)] += 1,
            AccessKind::Write => self.writes_by_port[usize::from(port.0)] += 1,
        }
        if let Some(b) = self.accesses_by_bank.get_mut(bank as usize) {
            *b += 1;
        }
    }

    pub(crate) fn record_conflict(&mut self, port: PortId, bank: u32) {
        self.conflicts_by_port[usize::from(port.0)] += 1;
        if let Some(b) = self.conflicts_by_bank.get_mut(bank as usize) {
            *b += 1;
        }
    }

    /// Total granted reads across ports.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads_by_port.iter().sum()
    }

    /// Total granted writes across ports.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes_by_port.iter().sum()
    }

    /// Total granted accesses (reads + writes).
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total lost arbitrations across ports.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts_by_port.iter().sum()
    }

    /// Granted reads for one port.
    #[must_use]
    pub fn reads_of(&self, port: PortId) -> u64 {
        self.reads_by_port[usize::from(port.0)]
    }

    /// Granted writes for one port.
    #[must_use]
    pub fn writes_of(&self, port: PortId) -> u64 {
        self.writes_by_port[usize::from(port.0)]
    }

    /// Lost arbitrations for one port.
    #[must_use]
    pub fn conflicts_of(&self, port: PortId) -> u64 {
        self.conflicts_by_port[usize::from(port.0)]
    }

    /// Granted accesses (reads + writes) for one port.
    #[must_use]
    pub fn accesses_of(&self, port: PortId) -> u64 {
        self.reads_of(port) + self.writes_of(port)
    }

    /// Accesses per bank, index-aligned with bank numbers.
    #[must_use]
    pub fn accesses_by_bank(&self) -> &[u64] {
        &self.accesses_by_bank
    }

    /// Lost arbitrations per bank, index-aligned with bank numbers.
    #[must_use]
    pub fn conflicts_by_bank(&self) -> &[u64] {
        &self.conflicts_by_bank
    }

    /// Totals over a contiguous port range — the per-core view when
    /// ports are namespaced `core × ports_per_core` (see
    /// [`crate::Tcdm::set_port_group_size`]). Returns
    /// `(accesses, conflicts)`.
    #[must_use]
    pub fn totals_of_port_range(&self, ports: core::ops::Range<u8>) -> (u64, u64) {
        let mut accesses = 0;
        let mut conflicts = 0;
        for p in ports {
            accesses += self.accesses_of(PortId(p));
            conflicts += self.conflicts_of(PortId(p));
        }
        (accesses, conflicts)
    }
}

impl MetricSource for TcdmStats {
    fn source_name(&self) -> &'static str {
        "tcdm"
    }

    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("reads", self.reads());
        visit("writes", self.writes());
        visit("conflicts", self.conflicts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TcdmStats::new(4);
        s.record_grant(PortId(0), 1, AccessKind::Read);
        s.record_grant(PortId(0), 1, AccessKind::Write);
        s.record_grant(PortId(2), 3, AccessKind::Read);
        s.record_conflict(PortId(1), 1);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.reads_of(PortId(0)), 1);
        assert_eq!(s.writes_of(PortId(0)), 1);
        assert_eq!(s.conflicts_of(PortId(1)), 1);
        assert_eq!(s.accesses_of(PortId(0)), 2);
        assert_eq!(s.accesses_by_bank(), &[0, 2, 0, 1]);
        assert_eq!(s.conflicts_by_bank(), &[0, 1, 0, 0]);
    }

    #[test]
    fn port_range_totals_group_by_core() {
        // Two cores of two ports each (group size 2).
        let mut s = TcdmStats::new(4);
        s.record_grant(PortId(0), 0, AccessKind::Read);
        s.record_grant(PortId(1), 1, AccessKind::Read);
        s.record_grant(PortId(2), 2, AccessKind::Write);
        s.record_conflict(PortId(3), 0);
        assert_eq!(s.totals_of_port_range(0..2), (2, 0));
        assert_eq!(s.totals_of_port_range(2..4), (1, 1));
    }
}
