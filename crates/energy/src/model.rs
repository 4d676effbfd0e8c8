//! Event-based energy model.
//!
//! The paper measures power with post-layout switching activities in
//! PrimeTime (GF 12LP+, 0.8 V, 25 °C, 1 GHz). We substitute an
//! activity × unit-energy model: the simulator counts architectural events
//! (instruction issues, FP operations, register-file accesses, TCDM
//! accesses, stream transfers), and this module charges each with a fixed
//! energy. Static power is charged per cycle.
//!
//! Unit energies are calibrated constants in the right relative order for
//! a 12 nm in-order core with a 64-bit FPU and SRAM-banked L1 — chosen so
//! the paper's workloads land near the paper's ~60 mW at 1 GHz. The
//! *differences* between code variants (the quantity the paper argues
//! about) come from event-count differences: eliminating streamed
//! coefficient loads removes `elements × tcdm_access` energy, exactly the
//! effect the paper attributes its 7 % energy-efficiency gain to.

use sc_core::PerfCounters;

/// Unit energies in picojoules, plus static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Core clock frequency in Hz (paper: 1 GHz).
    pub frequency_hz: f64,
    /// Energy per integer instruction (fetch+decode+ALU+RF).
    pub int_instruction_pj: f64,
    /// Energy per instruction fetch (I-cache/loop-buffer read + decode).
    pub fetch_pj: f64,
    /// Energy per FP issue (operand routing, control).
    pub fp_issue_pj: f64,
    /// Energy per double-precision flop (FMA charged per flop).
    pub flop_pj: f64,
    /// Energy per FP register-file read port access.
    pub fp_rf_read_pj: f64,
    /// Energy per FP register-file write.
    pub fp_rf_write_pj: f64,
    /// Energy per 64-bit TCDM SRAM access (read or write).
    pub tcdm_access_pj: f64,
    /// Energy per stream element handled by a data mover (address
    /// generation + FIFO; the SRAM access is counted separately).
    pub ssr_element_pj: f64,
    /// Engine overhead per 64-bit DMA beat (address generation, channel
    /// control; the TCDM and background-memory accesses are separate).
    pub dma_beat_pj: f64,
    /// Energy per 64-bit shared-L2 SRAM access — what a multi-cluster
    /// system's DMA beat pays on its far side instead of a full
    /// background-memory access (between `tcdm_access_pj` and
    /// `dram_access_pj`: bigger arrays and a longer interconnect hop
    /// than the L1, but still on-die SRAM).
    pub l2_access_pj: f64,
    /// Energy per 64-bit background-memory (L2/HBM hop) access — the
    /// expensive end of every single-cluster DMA beat, and of every
    /// L2 refill beat in a multi-cluster system.
    pub dram_access_pj: f64,
    /// Static (leakage + clock-tree) power in milliwatts.
    pub static_mw: f64,
}

impl EnergyModel {
    /// Calibrated defaults (see module docs).
    #[must_use]
    pub fn new() -> Self {
        EnergyModel {
            frequency_hz: 1.0e9,
            int_instruction_pj: 2.2,
            fetch_pj: 1.2,
            fp_issue_pj: 1.5,
            flop_pj: 10.5,
            fp_rf_read_pj: 0.7,
            fp_rf_write_pj: 1.1,
            tcdm_access_pj: 5.5,
            ssr_element_pj: 0.9,
            dma_beat_pj: 1.1,
            l2_access_pj: 9.0,
            dram_access_pj: 18.0,
            static_mw: 24.0,
        }
    }

    /// Energy of `beats` 64-bit DMA beats: each pays one TCDM access,
    /// one background-memory access and the engine overhead.
    #[must_use]
    pub fn dma_energy_pj(&self, beats: u64) -> f64 {
        beats as f64 * (self.tcdm_access_pj + self.dram_access_pj + self.dma_beat_pj)
    }

    /// Energy of a multi-cluster system's DMA traffic: every beat pays
    /// one TCDM access, one **L2** access and the engine overhead, and
    /// every 64-bit beat the L2's refill channels moved from the
    /// background memory — or wrote back to it when a finite L2 evicted
    /// a dirty line — pays one Dram access on top.
    ///
    /// `l2_refill_beats` is the *total* channel traffic, prefetch
    /// included: a prefetch-issued line fetch moves the same beats over
    /// the same channel as a demand refill, so it is charged identically
    /// (`SystemSummary::l2_refill_beats` already contains
    /// `l2_prefetch_beats` — pass the total, never add the prefetch
    /// split on top, or pollution would be double-charged).
    #[must_use]
    pub fn system_dma_energy_pj(
        &self,
        beats: u64,
        l2_refill_beats: u64,
        l2_writeback_beats: u64,
    ) -> f64 {
        beats as f64 * (self.tcdm_access_pj + self.l2_access_pj + self.dma_beat_pj)
            + (l2_refill_beats + l2_writeback_beats) as f64 * self.dram_access_pj
    }

    /// Total dynamic energy for a counter snapshot, in picojoules.
    #[must_use]
    pub fn dynamic_energy_pj(&self, c: &PerfCounters) -> f64 {
        let ints = c.int_retired as f64 * self.int_instruction_pj;
        let fetches = c.fetches as f64 * self.fetch_pj;
        let fp_issue = c.fp_issued as f64 * self.fp_issue_pj;
        let flops = c.flops as f64 * self.flop_pj;
        let rf =
            c.fp_rf_reads as f64 * self.fp_rf_read_pj + c.fp_rf_writes as f64 * self.fp_rf_write_pj;
        let tcdm = c.tcdm_accesses as f64 * self.tcdm_access_pj;
        let ssr = c.ssr_elements as f64 * self.ssr_element_pj;
        ints + fetches + fp_issue + flops + rf + tcdm + ssr
    }

    /// Static energy over the snapshot's cycles, in picojoules.
    #[must_use]
    pub fn static_energy_pj(&self, c: &PerfCounters) -> f64 {
        self.static_pj(c.cycles, 1)
    }

    /// Static energy of `cores` cores over `cycles`, in picojoules.
    fn static_pj(&self, cycles: u64, cores: usize) -> f64 {
        let seconds = cycles as f64 / self.frequency_hz;
        self.static_mw * cores as f64 * 1.0e-3 * seconds * 1.0e12
    }

    /// The report of a region that did `flops` in `cycles` for the given
    /// energies: runtime, power, throughput and efficiency derived, each
    /// zero where it has no denominator.
    fn derive(&self, cycles: u64, flops: u64, dynamic_pj: f64, static_pj: f64) -> EnergyReport {
        let total_pj = dynamic_pj + static_pj;
        let seconds = cycles as f64 / self.frequency_hz;
        let per_second = |x: f64| if seconds > 0.0 { x / seconds } else { 0.0 };
        EnergyReport {
            cycles,
            runtime_s: seconds,
            dynamic_pj,
            static_pj,
            total_pj,
            power_mw: per_second(total_pj * 1.0e-12) * 1.0e3,
            gflops: per_second(flops as f64) / 1.0e9,
            gflops_per_w: if total_pj > 0.0 {
                flops as f64 / (total_pj * 1.0e-12) / 1.0e9
            } else {
                0.0
            },
        }
    }

    /// Energy/power report for a whole cluster: per-core dynamic energy
    /// summed, static power charged for every core over the *cluster*
    /// runtime (`cluster_cycles`, i.e. until the last core halts — idle
    /// tails still leak).
    ///
    /// # Panics
    ///
    /// Panics if `per_core` is empty.
    #[must_use]
    pub fn cluster_report(
        &self,
        per_core: &[PerfCounters],
        cluster_cycles: u64,
    ) -> ClusterEnergyReport {
        self.cluster_report_with_dma(per_core, cluster_cycles, 0)
    }

    /// [`EnergyModel::cluster_report`] plus the traffic of a DMA engine
    /// that moved `dma_beats` 64-bit beats during the run — the cores'
    /// counters never see DMA accesses, so they are charged here.
    ///
    /// # Panics
    ///
    /// Panics if `per_core` is empty.
    #[must_use]
    pub fn cluster_report_with_dma(
        &self,
        per_core: &[PerfCounters],
        cluster_cycles: u64,
        dma_beats: u64,
    ) -> ClusterEnergyReport {
        self.report_with_dma_pj(per_core, cluster_cycles, self.dma_energy_pj(dma_beats))
    }

    /// Energy/power report for a whole multi-cluster **system**:
    /// `per_core` flattens every cluster's cores, `system_cycles` is the
    /// cycles-to-last-cluster-done, and the DMA traffic is charged at
    /// system rates ([`EnergyModel::system_dma_energy_pj`]: beats hit
    /// the shared L2; refill and write-back beats hit the Dram).
    ///
    /// # Panics
    ///
    /// Panics if `per_core` is empty.
    #[must_use]
    pub fn system_report(
        &self,
        per_core: &[PerfCounters],
        system_cycles: u64,
        dma_beats: u64,
        l2_refill_beats: u64,
        l2_writeback_beats: u64,
    ) -> ClusterEnergyReport {
        self.report_with_dma_pj(
            per_core,
            system_cycles,
            self.system_dma_energy_pj(dma_beats, l2_refill_beats, l2_writeback_beats),
        )
    }

    fn report_with_dma_pj(
        &self,
        per_core: &[PerfCounters],
        cluster_cycles: u64,
        dma_pj: f64,
    ) -> ClusterEnergyReport {
        assert!(!per_core.is_empty(), "a cluster has at least one core");
        let reports: Vec<EnergyReport> = per_core.iter().map(|c| self.report(c)).collect();
        let dynamic_pj: f64 = per_core
            .iter()
            .map(|c| self.dynamic_energy_pj(c))
            .sum::<f64>()
            + dma_pj;
        let static_pj = self.static_pj(cluster_cycles, per_core.len());
        let flops: u64 = per_core.iter().map(|c| c.flops).sum();
        let r = self.derive(cluster_cycles, flops, dynamic_pj, static_pj);
        ClusterEnergyReport {
            cycles: r.cycles,
            runtime_s: r.runtime_s,
            dynamic_pj,
            static_pj,
            dma_pj,
            total_pj: r.total_pj,
            power_mw: r.power_mw,
            gflops: r.gflops,
            gflops_per_w: r.gflops_per_w,
            per_core: reports,
        }
    }

    /// Full energy report for a counter snapshot.
    #[must_use]
    pub fn report(&self, c: &PerfCounters) -> EnergyReport {
        self.derive(
            c.cycles,
            c.flops,
            self.dynamic_energy_pj(c),
            self.static_energy_pj(c),
        )
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Derived energy/power/efficiency numbers for one measured region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Cycles in the region.
    pub cycles: u64,
    /// Runtime in seconds at the configured frequency.
    pub runtime_s: f64,
    /// Dynamic energy (pJ).
    pub dynamic_pj: f64,
    /// Static energy (pJ).
    pub static_pj: f64,
    /// Total energy (pJ).
    pub total_pj: f64,
    /// Average power (mW) — the paper's Fig. 3 right axis.
    pub power_mw: f64,
    /// Throughput (Gflop/s).
    pub gflops: f64,
    /// Energy efficiency (Gflop/s/W) — the paper's efficiency metric.
    pub gflops_per_w: f64,
}

impl EnergyReport {
    /// Energy efficiency ratio vs. a baseline (>1 = better than baseline).
    #[must_use]
    pub fn efficiency_gain_over(&self, baseline: &EnergyReport) -> f64 {
        self.gflops_per_w / baseline.gflops_per_w
    }

    /// Speedup vs. a baseline in cycles (>1 = faster).
    #[must_use]
    pub fn speedup_over(&self, baseline: &EnergyReport) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// Energy/power/efficiency numbers for a whole cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEnergyReport {
    /// Cluster cycles (to the last core halting).
    pub cycles: u64,
    /// Runtime in seconds at the configured frequency.
    pub runtime_s: f64,
    /// Dynamic energy summed over every core, DMA included (pJ).
    pub dynamic_pj: f64,
    /// Static energy of all cores over the cluster runtime (pJ).
    pub static_pj: f64,
    /// DMA traffic energy included in `dynamic_pj`: TCDM +
    /// background-memory accesses + engine overhead per beat (pJ).
    pub dma_pj: f64,
    /// Total energy (pJ).
    pub total_pj: f64,
    /// Average cluster power (mW).
    pub power_mw: f64,
    /// Cluster throughput (Gflop/s).
    pub gflops: f64,
    /// Cluster energy efficiency (Gflop/s/W).
    pub gflops_per_w: f64,
    /// Per-core reports (each over the core's own cycles).
    pub per_core: Vec<EnergyReport>,
}

impl ClusterEnergyReport {
    /// Speedup vs. a baseline cluster run in cycles (>1 = faster).
    #[must_use]
    pub fn speedup_over(&self, baseline: &ClusterEnergyReport) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Energy efficiency ratio vs. a baseline (>1 = better).
    #[must_use]
    pub fn efficiency_gain_over(&self, baseline: &ClusterEnergyReport) -> f64 {
        self.gflops_per_w / baseline.gflops_per_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> PerfCounters {
        PerfCounters {
            cycles: 1_000,
            int_retired: 100,
            fp_issued: 900,
            fpu_issue_cycles: 900,
            flops: 1_800,
            fetches: 200,
            fp_rf_reads: 1_800,
            fp_rf_writes: 900,
            tcdm_accesses: 1_900,
            ssr_elements: 1_850,
            ..PerfCounters::default()
        }
    }

    #[test]
    fn power_lands_in_papers_ballpark() {
        // A fully-utilised FMA loop with three active streams should land
        // in the tens of milliwatts at 1 GHz — the paper reports ~60 mW.
        let m = EnergyModel::new();
        let r = m.report(&sample_counters());
        assert!(
            (40.0..90.0).contains(&r.power_mw),
            "power {:.1} mW outside the calibration ballpark",
            r.power_mw
        );
    }

    #[test]
    fn energy_is_additive_in_events() {
        let m = EnergyModel::new();
        let base = m.dynamic_energy_pj(&sample_counters());
        let mut more = sample_counters();
        more.tcdm_accesses += 100;
        let with_extra = m.dynamic_energy_pj(&more);
        assert!((with_extra - base - 100.0 * m.tcdm_access_pj).abs() < 1e-9);
    }

    #[test]
    fn fewer_memory_accesses_improve_efficiency() {
        // The paper's mechanism: removing streamed coefficient reads
        // (equal cycles, fewer TCDM accesses) must improve Gflop/s/W.
        let m = EnergyModel::new();
        let base = m.report(&sample_counters());
        let mut better = sample_counters();
        better.tcdm_accesses -= 600;
        better.ssr_elements -= 600;
        let improved = m.report(&better);
        let gain = improved.efficiency_gain_over(&base);
        assert!(gain > 1.02, "efficiency gain {gain:.3}");
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let m = EnergyModel::new();
        let a = m.report(&sample_counters());
        let mut faster = sample_counters();
        faster.cycles = 800;
        let b = m.report(&faster);
        assert!((b.speedup_over(&a) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let m = EnergyModel::new();
        let r = m.report(&PerfCounters::default());
        assert_eq!(r.power_mw, 0.0);
        assert_eq!(r.gflops, 0.0);
    }

    #[test]
    fn cluster_energy_sums_cores_and_charges_idle_leakage() {
        let m = EnergyModel::new();
        let per_core = vec![sample_counters(); 4];
        // Perfect lock-step: cluster runtime equals each core's runtime.
        let r = m.cluster_report(&per_core, 1_000);
        let single = m.report(&sample_counters());
        assert!((r.dynamic_pj - 4.0 * single.dynamic_pj).abs() < 1e-6);
        assert!((r.static_pj - 4.0 * single.static_pj).abs() < 1e-6);
        assert_eq!(r.per_core.len(), 4);
        // Same per-core activity over a longer cluster runtime (stragglers):
        // identical dynamic energy, more leakage, worse efficiency.
        let slower = m.cluster_report(&per_core, 2_000);
        assert!((slower.dynamic_pj - r.dynamic_pj).abs() < 1e-9);
        assert!(slower.static_pj > r.static_pj);
        assert!(slower.gflops_per_w < r.gflops_per_w);
        assert!((r.speedup_over(&slower) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn system_dma_charges_l2_not_dram_per_beat() {
        // A warm system beat is cheaper than a single-cluster Dram beat
        // (on-die L2 vs the full background hop); cold misses claw the
        // difference back through refill beats, and a finite L2's dirty
        // evictions through write-back beats charged at the same Dram
        // rate.
        let m = EnergyModel::new();
        assert!(m.system_dma_energy_pj(100, 0, 0) < m.dma_energy_pj(100));
        let with_refills = m.system_dma_energy_pj(100, 100, 0);
        assert!(
            (with_refills - m.system_dma_energy_pj(100, 0, 0) - 100.0 * m.dram_access_pj).abs()
                < 1e-9
        );
        assert!(
            (m.system_dma_energy_pj(100, 100, 32) - with_refills - 32.0 * m.dram_access_pj).abs()
                < 1e-9,
            "write-back beats pay the Dram hop too"
        );
        // The report plumbs the system rate through.
        let per_core = vec![sample_counters(); 2];
        let sys = m.system_report(&per_core, 1_000, 500, 64, 16);
        let expect = m.system_dma_energy_pj(500, 64, 16);
        assert!((sys.dma_pj - expect).abs() < 1e-9);
    }

    #[test]
    fn prefetch_beats_are_charged_exactly_like_demand_refill_beats() {
        // The prefetcher moves lines over the same refill channels as
        // demand misses, so a run that fetched 100 lines costs the same
        // Dram energy whether the prefetcher or the misses pulled them:
        // the charge depends only on the *total* refill beats. (The
        // prefetch split is attribution inside that total, not an extra
        // term — and pure pollution still costs real energy, which is
        // why `prefetch_evicted_unused` matters.)
        let m = EnergyModel::new();
        let baseline = m.system_dma_energy_pj(500, 3200, 16);
        // 10 prefetched lines of 32 beats enter the refill total and are
        // billed at the Dram rate — wasted prefetches cost real energy.
        let with_prefetch_traffic = m.system_dma_energy_pj(500, 3200 + 320, 16);
        assert!(
            (with_prefetch_traffic - baseline - 320.0 * m.dram_access_pj).abs() < 1e-9,
            "each prefetched line's beats pay the full Dram rate"
        );
    }

    #[test]
    fn dma_traffic_is_charged_per_beat() {
        let m = EnergyModel::new();
        let per_core = vec![sample_counters(); 2];
        let plain = m.cluster_report(&per_core, 1_000);
        let with_dma = m.cluster_report_with_dma(&per_core, 1_000, 500);
        assert_eq!(plain.dma_pj, 0.0);
        let expect = 500.0 * (m.tcdm_access_pj + m.dram_access_pj + m.dma_beat_pj);
        assert!((with_dma.dma_pj - expect).abs() < 1e-9);
        assert!((with_dma.total_pj - plain.total_pj - expect).abs() < 1e-9);
        assert!(
            with_dma.gflops_per_w < plain.gflops_per_w,
            "moving data costs efficiency"
        );
    }

    #[test]
    fn cluster_of_one_matches_single_core_report() {
        let m = EnergyModel::new();
        let c = sample_counters();
        let single = m.report(&c);
        let cluster = m.cluster_report(&[c], c.cycles);
        assert!((cluster.total_pj - single.total_pj).abs() < 1e-9);
        assert!((cluster.power_mw - single.power_mw).abs() < 1e-9);
        assert!((cluster.gflops_per_w - single.gflops_per_w).abs() < 1e-9);
    }
}
