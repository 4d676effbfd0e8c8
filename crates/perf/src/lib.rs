//! # sc-perf — top-down cycle attribution
//!
//! A hierarchical cycle-accounting model in the style of top-down
//! microarchitecture analysis: every simulated core-cycle is attributed
//! to **exactly one leaf** of a fixed tree, so the leaves partition the
//! cycle count and `sum(leaves) == cycles` holds as a hard invariant
//! ([`Attribution::verify`] turns any violation into an error instead
//! of a silently-wrong profile).
//!
//! ## The tree
//!
//! ```text
//! cycles
//! ├── retired        the FP issue slot did useful work, or the int
//! │                  pipeline retired with nothing offloaded
//! ├── issue-bound    the slot was empty for a front-end/dependency reason
//! │   ├── no-instruction   nothing offloaded and sequencer empty
//! │   ├── frontend         int-side bubble (branch, offload setup)
//! │   ├── raw-hazard       plain-register RAW dependency
//! │   ├── waw-hazard       plain-register WAW dependency
//! │   ├── chain-empty      chained FIFO had no value (consumer starved)
//! │   ├── chain-full       chained FIFO backpressure (producer held)
//! │   └── unit-busy        functional unit structurally busy
//! ├── memory-bound   the slot was empty waiting on a memory resource
//! │   ├── lsu-busy         load/store unit occupied
//! │   ├── ssr-starve       SSR read stream behind (TCDM conflicts)
//! │   ├── ssr-full         SSR write stream FIFO full
//! │   ├── load-store       int core parked on an outstanding access
//! │   └── dma-wait         hart parked on DMA completion (0x7D8)
//! └── sync-bound     the cycle went to synchronisation
//!     ├── drain            FP subsystem draining for a synchronising CSR
//!     ├── barrier          parked on the cluster barrier (0x7C5)
//!     ├── system-barrier   parked on the inter-cluster barrier (0x7C6)
//!     └── park             halted / finished while the fabric ran on
//! ```
//!
//! Per hart the `park` leaf is only used for `Halting` cycles; aggregate
//! views (cluster, system) also use it to pad finished harts/clusters up
//! to the container's wall-clock so the invariant holds at every level
//! of the hierarchy against `harts × container_cycles`.
//!
//! The classification is deliberately **independent** of the existing
//! per-cause stall counters: those may legitimately record
//! two causes in one cycle (an FP-side stall *and* an int-side sync
//! retry), while attribution picks exactly one leaf per cycle.
//!
//! Alongside the core tree, [`TransferAttribution`] and
//! [`RefillOccupancy`] carry the uncore split: DMA busy cycles divide
//! into compute-overlapped vs exposed, and L2 refill traffic divides
//! into demand vs prefetch occupancy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// Number of attribution leaves ([`Leaf::ALL`]'s length).
pub const LEAF_COUNT: usize = 17;

/// The four top-level groups of the attribution tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// Useful work: an FP op issued, or the int pipeline retired.
    Retired,
    /// The issue slot was empty for a front-end or dependency reason.
    IssueBound,
    /// The issue slot was empty waiting on a memory resource.
    MemoryBound,
    /// The cycle went to synchronisation (drains, barriers, parking).
    SyncBound,
}

impl Group {
    /// All groups, in tree order.
    pub const ALL: [Group; 4] = [
        Group::Retired,
        Group::IssueBound,
        Group::MemoryBound,
        Group::SyncBound,
    ];

    /// Human-readable group name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Group::Retired => "retired",
            Group::IssueBound => "issue-bound",
            Group::MemoryBound => "memory-bound",
            Group::SyncBound => "sync-bound",
        }
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One leaf of the attribution tree — where a cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Leaf {
    /// Useful work this cycle.
    Retired,
    /// Nothing offloaded and the sequencer was empty.
    NoInst,
    /// Int-side bubble (branch redirect, offload setup) with no FP work.
    Frontend,
    /// Plain-register RAW dependency held issue.
    RawHazard,
    /// Plain-register WAW dependency held issue.
    WawHazard,
    /// Chained FIFO had no value — the consumer starved.
    ChainEmpty,
    /// Chained FIFO backpressure — the producer held in its final stage.
    ChainFull,
    /// Functional unit structurally busy.
    UnitBusy,
    /// Load/store unit occupied.
    LsuBusy,
    /// SSR read stream behind memory (TCDM conflicts upstream).
    SsrStarve,
    /// SSR write stream FIFO full (memory behind).
    SsrFull,
    /// Int core parked on an outstanding load/store.
    LoadStore,
    /// Hart parked on DMA completion (CSR 0x7D8).
    DmaWait,
    /// FP subsystem draining before a synchronising CSR write.
    Drain,
    /// Parked on the cluster barrier (CSR 0x7C5).
    Barrier,
    /// Parked on the inter-cluster barrier (CSR 0x7C6).
    SystemBarrier,
    /// Halted / finished while the surrounding fabric kept running.
    Park,
}

impl Leaf {
    /// All leaves, in tree order — the canonical serialization order for
    /// reports, the gate's required-key list, and [`Attribution`]'s
    /// storage layout, so the three can never drift apart.
    pub const ALL: [Leaf; LEAF_COUNT] = [
        Leaf::Retired,
        Leaf::NoInst,
        Leaf::Frontend,
        Leaf::RawHazard,
        Leaf::WawHazard,
        Leaf::ChainEmpty,
        Leaf::ChainFull,
        Leaf::UnitBusy,
        Leaf::LsuBusy,
        Leaf::SsrStarve,
        Leaf::SsrFull,
        Leaf::LoadStore,
        Leaf::DmaWait,
        Leaf::Drain,
        Leaf::Barrier,
        Leaf::SystemBarrier,
        Leaf::Park,
    ];

    /// Storage index inside [`Attribution`]: the declaration order, which
    /// [`Leaf::ALL`] lists verbatim (pinned by a unit test).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The group this leaf rolls up into.
    #[must_use]
    pub fn group(self) -> Group {
        match self {
            Leaf::Retired => Group::Retired,
            Leaf::NoInst
            | Leaf::Frontend
            | Leaf::RawHazard
            | Leaf::WawHazard
            | Leaf::ChainEmpty
            | Leaf::ChainFull
            | Leaf::UnitBusy => Group::IssueBound,
            Leaf::LsuBusy | Leaf::SsrStarve | Leaf::SsrFull | Leaf::LoadStore | Leaf::DmaWait => {
                Group::MemoryBound
            }
            Leaf::Drain | Leaf::Barrier | Leaf::SystemBarrier | Leaf::Park => Group::SyncBound,
        }
    }

    /// Stable snake_case key for JSON reports (group-prefixed so the
    /// flat object still reads top-down).
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            Leaf::Retired => "retired",
            Leaf::NoInst => "issue_no_inst",
            Leaf::Frontend => "issue_frontend",
            Leaf::RawHazard => "issue_raw_hazard",
            Leaf::WawHazard => "issue_waw_hazard",
            Leaf::ChainEmpty => "issue_chain_empty",
            Leaf::ChainFull => "issue_chain_full",
            Leaf::UnitBusy => "issue_unit_busy",
            Leaf::LsuBusy => "mem_lsu_busy",
            Leaf::SsrStarve => "mem_ssr_starve",
            Leaf::SsrFull => "mem_ssr_full",
            Leaf::LoadStore => "mem_load_store",
            Leaf::DmaWait => "mem_dma_wait",
            Leaf::Drain => "sync_drain",
            Leaf::Barrier => "sync_barrier",
            Leaf::SystemBarrier => "sync_system_barrier",
            Leaf::Park => "sync_park",
        }
    }

    /// Human-readable label for rendered trees.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Leaf::Retired => "retired",
            Leaf::NoInst => "no-instruction",
            Leaf::Frontend => "frontend",
            Leaf::RawHazard => "raw-hazard",
            Leaf::WawHazard => "waw-hazard",
            Leaf::ChainEmpty => "chain-empty",
            Leaf::ChainFull => "chain-full",
            Leaf::UnitBusy => "unit-busy",
            Leaf::LsuBusy => "lsu-busy",
            Leaf::SsrStarve => "ssr-starve",
            Leaf::SsrFull => "ssr-full",
            Leaf::LoadStore => "load-store",
            Leaf::DmaWait => "dma-wait",
            Leaf::Drain => "drain",
            Leaf::Barrier => "barrier",
            Leaf::SystemBarrier => "system-barrier",
            Leaf::Park => "park",
        }
    }

    /// The leaf with a given metric name, if any (report parsing).
    #[must_use]
    pub fn from_metric_name(name: &str) -> Option<Leaf> {
        Self::ALL.iter().copied().find(|l| l.metric_name() == name)
    }
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The invariant `sum(leaves) == cycles` was violated — a modelling bug
/// (a cycle was attributed zero or two leaves), never a tolerable drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionError {
    /// The cycle count the leaves were expected to partition.
    pub expected: u64,
    /// What the leaves actually sum to.
    pub got: u64,
}

impl fmt::Display for AttributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attribution invariant violated: leaves sum to {} but {} cycles elapsed \
             (every cycle must land in exactly one leaf)",
            self.got, self.expected
        )
    }
}

impl std::error::Error for AttributionError {}

/// Per-leaf cycle counts. `Copy` and field-free in its API so it embeds
/// directly in `sc-core`'s `PerfCounters` (keeping that type `Copy`,
/// `Eq`, and byte-comparable — the scheduler-identity sweeps compare
/// counters wholesale, which pins dense ≡ event attribution for free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    cells: [u64; LEAF_COUNT],
}

impl Attribution {
    /// All-zero attribution.
    #[must_use]
    pub const fn new() -> Self {
        Attribution {
            cells: [0; LEAF_COUNT],
        }
    }

    /// Charges one cycle to `leaf`.
    pub fn record(&mut self, leaf: Leaf) {
        self.cells[leaf.index()] += 1;
    }

    /// Charges `n` cycles to `leaf` (bulk accounting for skipped
    /// event-mode windows, where the parked state is known closed-form).
    pub fn record_n(&mut self, leaf: Leaf, n: u64) {
        self.cells[leaf.index()] += n;
    }

    /// Cycles charged to `leaf`.
    #[must_use]
    pub fn get(&self, leaf: Leaf) -> u64 {
        self.cells[leaf.index()]
    }

    /// Sum over all leaves — must equal the elapsed cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Cycles rolled up into `group`.
    #[must_use]
    pub fn group_total(&self, group: Group) -> u64 {
        Leaf::ALL
            .iter()
            .filter(|l| l.group() == group)
            .map(|l| self.get(*l))
            .sum()
    }

    /// Element-wise sum (aggregating harts into a cluster view).
    pub fn accumulate(&mut self, other: &Attribution) {
        for (s, o) in self.cells.iter_mut().zip(other.cells.iter()) {
            *s += o;
        }
    }

    /// Element-wise difference `self - start` (region / stalled-window
    /// deltas).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any leaf of `start` exceeds `self`'s
    /// (snapshots must be taken from the same monotone counter).
    #[must_use]
    pub fn delta_since(&self, start: &Attribution) -> Attribution {
        let mut cells = [0u64; LEAF_COUNT];
        for (i, c) in cells.iter_mut().enumerate() {
            *c = self.cells[i] - start.cells[i];
        }
        Attribution { cells }
    }

    /// Enforces the partition invariant against an elapsed cycle count.
    ///
    /// # Errors
    ///
    /// [`AttributionError`] when the leaves do not sum to `cycles`.
    pub fn verify(&self, cycles: u64) -> Result<(), AttributionError> {
        let got = self.total();
        if got == cycles {
            Ok(())
        } else {
            Err(AttributionError {
                expected: cycles,
                got,
            })
        }
    }

    /// Share of the total charged to `leaf` (0 when the total is 0).
    #[must_use]
    pub fn share(&self, leaf: Leaf) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(leaf) as f64 / total as f64
        }
    }

    /// The leaf with the most cycles (ties break in tree order), or
    /// `None` for an all-zero attribution.
    #[must_use]
    pub fn dominant(&self) -> Option<Leaf> {
        Leaf::ALL
            .iter()
            .copied()
            .max_by_key(|l| (self.get(*l), std::cmp::Reverse(l.index())))
            .filter(|l| self.get(*l) > 0)
    }

    /// The canonical report keys, in [`Leaf::ALL`] order. Serializers
    /// and the perf gate's required-key list both derive from this, so
    /// they cannot drift from the model.
    #[must_use]
    pub fn metric_names() -> Vec<&'static str> {
        Leaf::ALL.iter().map(|l| l.metric_name()).collect()
    }

    /// Visits `(metric_name, cycles)` for every leaf, in tree order.
    pub fn visit(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        for leaf in Leaf::ALL {
            visit(leaf.metric_name(), self.get(leaf));
        }
    }

    /// Compact one-line summary of the top `top` non-zero leaves:
    /// `"retired 61.2% | raw-hazard 20.4% | barrier 9.1%"`.
    #[must_use]
    pub fn render_compact(&self, top: usize) -> String {
        let total = self.total();
        if total == 0 {
            return "no cycles attributed".to_owned();
        }
        let mut leaves: Vec<Leaf> = Leaf::ALL
            .iter()
            .copied()
            .filter(|l| self.get(*l) > 0)
            .collect();
        leaves.sort_by_key(|l| (std::cmp::Reverse(self.get(*l)), l.index()));
        leaves
            .iter()
            .take(top)
            .map(|l| format!("{} {:.1}%", l.label(), self.share(*l) * 100.0))
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// Indented top-down tree: one line per group, one per non-zero
    /// leaf, with cycles and share of the total.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let total = self.total();
        let pct = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64 * 100.0
            }
        };
        let mut out = format!("cycles {total}\n");
        for group in Group::ALL {
            let g = self.group_total(group);
            out.push_str(&format!(
                "  {:<16} {:>12}  {:>5.1}%\n",
                group.name(),
                g,
                pct(g)
            ));
            for leaf in Leaf::ALL.iter().filter(|l| l.group() == group) {
                let n = self.get(*leaf);
                if n > 0 && *leaf != Leaf::Retired {
                    out.push_str(&format!(
                        "    {:<14} {:>12}  {:>5.1}%\n",
                        leaf.label(),
                        n,
                        pct(n)
                    ));
                }
            }
        }
        out
    }
}

/// Per-leaf share shift between two attributions, sorted by magnitude
/// (largest mover first) — the heart of `perf_report diff`: it names
/// *where* the cycles went rather than just how many there are.
#[must_use]
pub fn share_shifts(before: &Attribution, after: &Attribution) -> Vec<(Leaf, f64)> {
    let mut shifts: Vec<(Leaf, f64)> = Leaf::ALL
        .iter()
        .map(|l| (*l, after.share(*l) - before.share(*l)))
        .collect();
    shifts.sort_by(|a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.index().cmp(&b.0.index()))
    });
    shifts
}

/// The uncore transfer split: of the cycles a DMA engine was busy, how
/// many overlapped with compute versus stood exposed on the critical
/// path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferAttribution {
    /// Cycles the engine had a transfer in flight.
    pub busy_cycles: u64,
    /// Busy cycles during which at least one core issued FP compute.
    pub overlap_cycles: u64,
}

impl TransferAttribution {
    /// Busy cycles *not* hidden behind compute — the exposed transfer
    /// time a faster memory system would directly recover.
    #[must_use]
    pub fn exposed_cycles(&self) -> u64 {
        self.busy_cycles.saturating_sub(self.overlap_cycles)
    }

    /// Fraction of busy cycles hidden behind compute (0 when never
    /// busy).
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.busy_cycles as f64
        }
    }
}

/// The L2 refill-path split: cycles the refill channels were occupied,
/// divided into demand-miss service vs prefetch-issued service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefillOccupancy {
    /// Channel-cycles spent servicing demand misses.
    pub demand_cycles: u64,
    /// Channel-cycles spent servicing prefetch-issued refills.
    pub prefetch_cycles: u64,
    /// Channel-cycles spent draining dirty write-backs.
    pub writeback_cycles: u64,
}

impl RefillOccupancy {
    /// Total occupied channel-cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.demand_cycles + self.prefetch_cycles + self.writeback_cycles
    }

    /// Fraction of refill occupancy that was prefetch-issued (0 when
    /// idle).
    #[must_use]
    pub fn prefetch_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.prefetch_cycles as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_partition_and_verify() {
        let mut a = Attribution::new();
        a.record(Leaf::Retired);
        a.record(Leaf::Retired);
        a.record_n(Leaf::Barrier, 3);
        assert_eq!(a.total(), 5);
        assert!(a.verify(5).is_ok());
        let err = a.verify(6).unwrap_err();
        assert_eq!(
            err,
            AttributionError {
                expected: 6,
                got: 5
            }
        );
        assert!(err.to_string().contains("exactly one leaf"));
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, leaf) in Leaf::ALL.into_iter().enumerate() {
            assert_eq!(leaf.index(), i, "{leaf:?}");
        }
    }

    #[test]
    fn groups_cover_every_leaf_exactly_once() {
        let mut a = Attribution::new();
        for (i, leaf) in Leaf::ALL.iter().enumerate() {
            a.record_n(*leaf, (i + 1) as u64);
        }
        let group_sum: u64 = Group::ALL.iter().map(|g| a.group_total(*g)).sum();
        assert_eq!(group_sum, a.total());
        // Distinct storage indexes.
        let mut seen = std::collections::HashSet::new();
        for l in Leaf::ALL {
            assert!(seen.insert(l.index()));
            assert_eq!(Leaf::from_metric_name(l.metric_name()), Some(l));
        }
    }

    #[test]
    fn accumulate_and_delta_are_inverse() {
        let mut a = Attribution::new();
        a.record_n(Leaf::RawHazard, 7);
        let mut b = a;
        b.record_n(Leaf::ChainFull, 2);
        b.record(Leaf::RawHazard);
        let d = b.delta_since(&a);
        assert_eq!(d.get(Leaf::ChainFull), 2);
        assert_eq!(d.get(Leaf::RawHazard), 1);
        let mut sum = a;
        sum.accumulate(&d);
        assert_eq!(sum, b);
    }

    #[test]
    fn dominant_and_compact_render() {
        let mut a = Attribution::new();
        a.record_n(Leaf::Retired, 60);
        a.record_n(Leaf::RawHazard, 30);
        a.record_n(Leaf::Barrier, 10);
        assert_eq!(a.dominant(), Some(Leaf::Retired));
        let s = a.render_compact(2);
        assert!(s.contains("retired 60.0%"), "{s}");
        assert!(s.contains("raw-hazard 30.0%"), "{s}");
        assert!(!s.contains("barrier"), "top-2 only: {s}");
        assert_eq!(Attribution::new().dominant(), None);
    }

    #[test]
    fn tree_render_shows_groups_and_leaves() {
        let mut a = Attribution::new();
        a.record_n(Leaf::Retired, 50);
        a.record_n(Leaf::ChainEmpty, 25);
        a.record_n(Leaf::DmaWait, 25);
        let t = a.render_tree();
        assert!(t.contains("cycles 100"), "{t}");
        assert!(t.contains("issue-bound"), "{t}");
        assert!(t.contains("chain-empty"), "{t}");
        assert!(t.contains("dma-wait"), "{t}");
        assert!(t.contains("25.0%"), "{t}");
    }

    #[test]
    fn share_shifts_name_the_biggest_mover() {
        let mut before = Attribution::new();
        before.record_n(Leaf::Retired, 80);
        before.record_n(Leaf::RawHazard, 20);
        let mut after = Attribution::new();
        after.record_n(Leaf::Retired, 50);
        after.record_n(Leaf::RawHazard, 20);
        after.record_n(Leaf::Barrier, 30);
        let shifts = share_shifts(&before, &after);
        let top: Vec<Leaf> = shifts.iter().take(2).map(|(l, _)| *l).collect();
        assert!(top.contains(&Leaf::Barrier), "{shifts:?}");
        assert!(top.contains(&Leaf::Retired), "{shifts:?}");
        let barrier = shifts.iter().find(|(l, _)| *l == Leaf::Barrier).unwrap();
        assert!((barrier.1 - 0.30).abs() < 1e-9);
        let retired = shifts.iter().find(|(l, _)| *l == Leaf::Retired).unwrap();
        assert!(retired.1 < 0.0);
        assert!(shifts[2].1.abs() < 1e-9, "raw-hazard share unmoved");
    }

    #[test]
    fn transfer_and_refill_splits() {
        let t = TransferAttribution {
            busy_cycles: 100,
            overlap_cycles: 75,
        };
        assert_eq!(t.exposed_cycles(), 25);
        assert!((t.overlap_fraction() - 0.75).abs() < 1e-12);
        let r = RefillOccupancy {
            demand_cycles: 60,
            prefetch_cycles: 30,
            writeback_cycles: 10,
        };
        assert_eq!(r.total(), 100);
        assert!((r.prefetch_fraction() - 0.30).abs() < 1e-12);
        assert_eq!(TransferAttribution::default().overlap_fraction(), 0.0);
        assert_eq!(RefillOccupancy::default().prefetch_fraction(), 0.0);
    }
}
