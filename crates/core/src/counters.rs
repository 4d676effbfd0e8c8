//! Performance counters and stall attribution.

use std::fmt;

use sc_perf::Attribution;
use sc_trace::MetricSource;

/// Why the FP issue slot was empty in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallCause {
    /// No instruction available (offload queue and sequencer empty).
    NoInstruction,
    /// RAW hazard on a plain (non-chained) register.
    RawHazard,
    /// WAW hazard on a plain destination register.
    WawHazard,
    /// Chained source register empty (valid bit clear) — waiting for a push.
    ChainEmpty,
    /// Functional-unit pipeline blocked because a completing op cannot
    /// push into a chained register (valid bit still set) — the paper's
    /// backpressure.
    ChainFull,
    /// SSR read stream had no data (memory behind).
    SsrStarve,
    /// SSR write stream FIFO full (memory behind).
    SsrFull,
    /// Functional unit busy (structural hazard).
    UnitBusy,
    /// Load/store unit busy.
    LsuBusy,
    /// Waiting for the FP subsystem to drain (synchronising CSR write).
    Sync,
}

impl StallCause {
    /// All causes, for iteration in reports.
    pub const ALL: [StallCause; 10] = [
        StallCause::NoInstruction,
        StallCause::RawHazard,
        StallCause::WawHazard,
        StallCause::ChainEmpty,
        StallCause::ChainFull,
        StallCause::SsrStarve,
        StallCause::SsrFull,
        StallCause::UnitBusy,
        StallCause::LsuBusy,
        StallCause::Sync,
    ];

    /// Counter slot: the declaration order, which [`StallCause::ALL`]
    /// lists verbatim (pinned by a unit test).
    fn index(self) -> usize {
        self as usize
    }

    /// Metric-series name for sampled exports (`stall_` + snake label).
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            StallCause::NoInstruction => "stall_no_inst",
            StallCause::RawHazard => "stall_raw",
            StallCause::WawHazard => "stall_waw",
            StallCause::ChainEmpty => "stall_chain_empty",
            StallCause::ChainFull => "stall_chain_full",
            StallCause::SsrStarve => "stall_ssr_starve",
            StallCause::SsrFull => "stall_ssr_full",
            StallCause::UnitBusy => "stall_unit_busy",
            StallCause::LsuBusy => "stall_lsu_busy",
            StallCause::Sync => "stall_sync",
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::NoInstruction => "no-inst",
            StallCause::RawHazard => "raw",
            StallCause::WawHazard => "waw",
            StallCause::ChainEmpty => "chain-empty",
            StallCause::ChainFull => "chain-full",
            StallCause::SsrStarve => "ssr-starve",
            StallCause::SsrFull => "ssr-full",
            StallCause::UnitBusy => "unit-busy",
            StallCause::LsuBusy => "lsu-busy",
            StallCause::Sync => "sync",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counter snapshot over a region of execution.
///
/// All "cycles" counters refer to the measured region (between the
/// `mcycle`-style region markers, or the whole run when no markers fire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Integer instructions retired.
    pub int_retired: u64,
    /// FP instructions issued to the FP subsystem (incl. loads/stores).
    pub fp_issued: u64,
    /// Cycles in which an FPU *compute* op entered an execution pipeline —
    /// the numerator of the paper's FPU-utilisation metric.
    pub fpu_issue_cycles: u64,
    /// Double-precision flops performed (FMA counts 2).
    pub flops: u64,
    /// FP issue-slot stalls by cause.
    pub stalls: [u64; 10],
    /// FP loads/stores issued.
    pub fp_mem_ops: u64,
    /// Explicit integer loads/stores issued.
    pub int_mem_ops: u64,
    /// Elements moved by SSR streams.
    pub ssr_elements: u64,
    /// TCDM accesses (all ports).
    pub tcdm_accesses: u64,
    /// TCDM bank conflicts (retried cycles).
    pub tcdm_conflicts: u64,
    /// Register-file reads/writes (energy accounting).
    pub fp_rf_reads: u64,
    /// FP register-file writes.
    pub fp_rf_writes: u64,
    /// Instructions fetched by the integer core (energy accounting; FREP
    /// replays don't refetch).
    pub fetches: u64,
    /// FP instructions replayed by the FREP sequencer (no fetch energy).
    pub frep_replays: u64,
    /// Top-down cycle attribution: every cycle lands in exactly one
    /// leaf, so `attr.total() == cycles` always holds (`sc-perf`'s hard
    /// invariant). Unlike [`PerfCounters::stalls`] — which may record an
    /// FP-side stall *and* an int-side sync retry in the same cycle —
    /// this is a partition, classified once per [`Core::begin_cycle`].
    ///
    /// [`Core::begin_cycle`]: crate::Core::begin_cycle
    pub attr: Attribution,
}

impl PerfCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an FP issue-slot stall.
    pub fn record_stall(&mut self, cause: StallCause) {
        self.stalls[cause.index()] += 1;
    }

    /// Stall cycles attributed to `cause`.
    #[must_use]
    pub fn stalls_of(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }

    /// The paper's FPU utilisation: compute-issue cycles / total cycles.
    #[must_use]
    pub fn fpu_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fpu_issue_cycles as f64 / self.cycles as f64
        }
    }

    /// Flops per cycle.
    #[must_use]
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Adds every event counter of `other` into `self` — including
    /// `cycles`, which callers aggregating lock-step cores usually want
    /// to overwrite with the wall-clock cycle count afterwards.
    pub fn accumulate(&mut self, other: &PerfCounters) {
        self.cycles += other.cycles;
        self.int_retired += other.int_retired;
        self.fp_issued += other.fp_issued;
        self.fpu_issue_cycles += other.fpu_issue_cycles;
        self.flops += other.flops;
        for (s, o) in self.stalls.iter_mut().zip(other.stalls.iter()) {
            *s += o;
        }
        self.fp_mem_ops += other.fp_mem_ops;
        self.int_mem_ops += other.int_mem_ops;
        self.ssr_elements += other.ssr_elements;
        self.tcdm_accesses += other.tcdm_accesses;
        self.tcdm_conflicts += other.tcdm_conflicts;
        self.fp_rf_reads += other.fp_rf_reads;
        self.fp_rf_writes += other.fp_rf_writes;
        self.fetches += other.fetches;
        self.frep_replays += other.frep_replays;
        self.attr.accumulate(&other.attr);
    }

    /// Difference `self - start`, used to compute region deltas.
    #[must_use]
    pub fn delta_since(&self, start: &PerfCounters) -> PerfCounters {
        let mut stalls = [0u64; 10];
        for (i, s) in stalls.iter_mut().enumerate() {
            *s = self.stalls[i] - start.stalls[i];
        }
        PerfCounters {
            cycles: self.cycles - start.cycles,
            int_retired: self.int_retired - start.int_retired,
            fp_issued: self.fp_issued - start.fp_issued,
            fpu_issue_cycles: self.fpu_issue_cycles - start.fpu_issue_cycles,
            flops: self.flops - start.flops,
            stalls,
            fp_mem_ops: self.fp_mem_ops - start.fp_mem_ops,
            int_mem_ops: self.int_mem_ops - start.int_mem_ops,
            ssr_elements: self.ssr_elements - start.ssr_elements,
            tcdm_accesses: self.tcdm_accesses - start.tcdm_accesses,
            tcdm_conflicts: self.tcdm_conflicts - start.tcdm_conflicts,
            fp_rf_reads: self.fp_rf_reads - start.fp_rf_reads,
            fp_rf_writes: self.fp_rf_writes - start.fp_rf_writes,
            fetches: self.fetches - start.fetches,
            frep_replays: self.frep_replays - start.frep_replays,
            attr: self.attr.delta_since(&start.attr),
        }
    }

    /// Renders a compact multi-line report.
    #[must_use]
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "cycles {:>10}  fpu-util {:>6.2}%  flops {:>10}  flops/cycle {:.3}\n",
            self.cycles,
            self.fpu_utilization() * 100.0,
            self.flops,
            self.flops_per_cycle()
        ));
        s.push_str(&format!(
            "int {:>8}  fp {:>8}  fp-mem {:>8}  ssr-elems {:>8}  tcdm {:>8} (+{} conflicts)\n",
            self.int_retired,
            self.fp_issued,
            self.fp_mem_ops,
            self.ssr_elements,
            self.tcdm_accesses,
            self.tcdm_conflicts
        ));
        s.push_str("stalls:");
        for c in StallCause::ALL {
            let n = self.stalls_of(c);
            if n > 0 {
                s.push_str(&format!(" {}={}", c.label(), n));
            }
        }
        s.push('\n');
        s
    }
}

impl MetricSource for PerfCounters {
    fn source_name(&self) -> &'static str {
        "core"
    }

    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("cycles", self.cycles);
        visit("int_retired", self.int_retired);
        visit("fp_issued", self.fp_issued);
        visit("fpu_issue_cycles", self.fpu_issue_cycles);
        visit("flops", self.flops);
        visit("fp_mem_ops", self.fp_mem_ops);
        visit("int_mem_ops", self.int_mem_ops);
        visit("ssr_elements", self.ssr_elements);
        visit("tcdm_accesses", self.tcdm_accesses);
        visit("tcdm_conflicts", self.tcdm_conflicts);
        visit("fp_rf_reads", self.fp_rf_reads);
        visit("fp_rf_writes", self.fp_rf_writes);
        visit("fetches", self.fetches);
        visit("frep_replays", self.frep_replays);
        for c in StallCause::ALL {
            visit(c.metric_name(), self.stalls_of(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let mut c = PerfCounters::new();
        c.cycles = 200;
        c.fpu_issue_cycles = 93;
        c.flops = 186;
        assert!((c.fpu_utilization() - 0.465).abs() < 1e-12);
        assert!((c.flops_per_cycle() - 0.93).abs() < 1e-12);
    }

    #[test]
    fn stall_bookkeeping_and_delta() {
        let mut a = PerfCounters::new();
        a.record_stall(StallCause::ChainEmpty);
        a.record_stall(StallCause::ChainEmpty);
        a.record_stall(StallCause::SsrStarve);
        a.cycles = 10;
        let b = PerfCounters { cycles: 25, ..a };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 15);
        assert_eq!(d.stalls_of(StallCause::ChainEmpty), 0);
        assert_eq!(a.stalls_of(StallCause::ChainEmpty), 2);
    }

    #[test]
    fn report_mentions_nonzero_stalls_only() {
        let mut c = PerfCounters::new();
        c.record_stall(StallCause::RawHazard);
        let r = c.report();
        assert!(r.contains("raw=1"));
        assert!(!r.contains("waw="));
    }

    #[test]
    fn all_causes_have_distinct_indexes() {
        let mut seen = std::collections::HashSet::new();
        for c in StallCause::ALL {
            assert!(seen.insert(c.index()));
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }
}
