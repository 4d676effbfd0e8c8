//! The sweep registry: the one definition of the 166 config points the
//! CI perf gate pins.
//!
//! Five sweeps run the `box3d1r` stencil over grids, core and cluster
//! counts, memory regimes and L2 configurations:
//!
//! | sweep | points | varies |
//! |---|---|---|
//! | `cluster_scaling` | 16 | 1/2/4/8 cores × chaining, unbounded vs 128 KiB tiled + DMA |
//! | `system_scaling` | 36 | 1/2/4 clusters × 1/4/8 cores × chaining, unbounded vs tiled through the shared L2 |
//! | `l2_ablation` | 16 | over/under-fit capacity × ways {2,8} × refill channels {1,4} × chaining |
//! | `weak_scaling` | 18 | 1/2/4 clusters on 8 planes each × chaining, unbounded vs tiled with 1/4 refill channels |
//! | `prefetch_ablation` | 80 | 1/2 clusters × over/under-fit × channels {1,4} × chaining × prefetch {off, 4 degree/distance pairs} |
//!
//! Every consumer iterates this registry instead of rebuilding the grid:
//! the five sweep commands (which add only report formatting, validators
//! and acceptance checks), `sched_identity` (event ≡ dense on every
//! system-level point) and `lint_sweep` (every generated program
//! lint-clean). Each [`PointSpec`] carries the id its sweep's
//! `baselines/<sweep>.json` pins, and [`Sweep::points`] lists a sweep's
//! points in the order its report uses; this module's tests check both
//! against the checked-in baselines, so renaming or dropping a point
//! fails `cargo test`.

use sc_cluster::ClusterSummary;
use sc_core::{CoreConfig, SchedMode};
use sc_energy::{ClusterEnergyReport, EnergyModel};
use sc_isa::Program;
use sc_kernels::{
    Grid3, Stencil, StencilKernel, TiledSystemKernel, Variant, WorkingSet, L2_CAP_GRANULE_BYTES,
    L2_SWEEP_MSHRS, TCDM_CAP_BYTES,
};
use sc_mem::{DramConfig, L2Config};
use sc_system::SystemSummary;

/// Cycle budget of every registry run.
pub const MAX_CYCLES: u64 = 500_000_000;

/// One of the five baselined sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Multi-core scaling of one cluster.
    ClusterScaling,
    /// Strong scaling over clusters sharing an L2.
    SystemScaling,
    /// Finite-L2 capacity, associativity and refill-channel ablation.
    L2Ablation,
    /// Weak scaling: the grid grows with the cluster count.
    WeakScaling,
    /// Descriptor-driven L2 prefetch ablation.
    PrefetchAblation,
}

impl Sweep {
    /// Every sweep, in the order CI runs them.
    pub const ALL: [Sweep; 5] = [
        Sweep::ClusterScaling,
        Sweep::SystemScaling,
        Sweep::L2Ablation,
        Sweep::WeakScaling,
        Sweep::PrefetchAblation,
    ];

    /// The sweep's name: its `sc-bench` command, its report
    /// (`<name>.json`) and its baseline file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sweep::ClusterScaling => "cluster_scaling",
            Sweep::SystemScaling => "system_scaling",
            Sweep::L2Ablation => "l2_ablation",
            Sweep::WeakScaling => "weak_scaling",
            Sweep::PrefetchAblation => "prefetch_ablation",
        }
    }

    /// The sweep's points, in report order. The capacity sweeps plan
    /// their tiled kernel once to size the L2 off its working set
    /// (codegen only, no simulation).
    #[must_use]
    pub fn points(self) -> Vec<PointSpec> {
        match self {
            Sweep::ClusterScaling => cluster_scaling(),
            Sweep::SystemScaling => system_scaling(),
            Sweep::L2Ablation => l2_ablation(),
            Sweep::WeakScaling => weak_scaling(),
            Sweep::PrefetchAblation => prefetch_ablation(),
        }
    }
}

/// Every point of every sweep, sweep by sweep in [`Sweep::ALL`] order.
#[must_use]
pub fn all_points() -> Vec<PointSpec> {
    Sweep::ALL.into_iter().flat_map(Sweep::points).collect()
}

/// Which machine a point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// One cluster (`clusters` is 1).
    Cluster,
    /// `clusters` clusters under one system.
    System,
}

/// Where a capacity sweep put the L2 against the tiled working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fit {
    /// Twice the distinct footprint: the whole problem stays resident.
    Over,
    /// A quarter of the footprint: tile revisits become capacity misses.
    Under,
}

/// One config point, fully resolved.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// The sweep the point belongs to.
    pub sweep: Sweep,
    /// The id `baselines/<sweep>.json` pins the point under.
    pub id: String,
    /// The stencil's interior grid.
    pub grid: Grid3,
    /// `Chaining+` (true) or `Base` (false), in codegen and in the core.
    pub chaining: bool,
    /// Cluster or system.
    pub level: Level,
    /// Whether the TCDM is capped at 128 KiB with DMA tiling (true) or
    /// holds the whole problem (false).
    pub tiled: bool,
    /// Clusters (1 on cluster points).
    pub clusters: u32,
    /// Cores per cluster.
    pub cores: u32,
    /// The core configuration every hart runs with.
    pub core: CoreConfig,
    /// The shared L2 of a tiled point: on a tiled cluster point a
    /// pass-through to the default Dram, so the one cluster's engine
    /// pays the Dram's timing directly; the unused default on unbounded
    /// points.
    pub l2: L2Config,
    /// The capacity sweeps' over/under-fit label; `None` for the
    /// infinite default L2 and points without one.
    pub fit: Option<Fit>,
}

/// The summary a point's run produces.
#[derive(Debug)]
pub enum Summary {
    /// A cluster point's summary.
    Cluster(ClusterSummary),
    /// A system point's summary.
    System(SystemSummary),
}

/// What running a point yields: the point itself, so a sweep is
/// `parallel_sweep(specs, |s| s.run())` and every result still knows its
/// configuration.
#[derive(Debug)]
pub struct PointRun {
    /// The point that ran.
    pub spec: PointSpec,
    /// The generated kernel's name.
    pub kernel: String,
    /// Tiles the pipeline executed; `None` on unbounded points.
    pub tiles: Option<usize>,
    /// The run's summary.
    pub summary: Summary,
}

impl PointRun {
    /// The cluster summary.
    ///
    /// # Panics
    ///
    /// On a system point's run.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSummary {
        match &self.summary {
            Summary::Cluster(s) => s,
            Summary::System(_) => panic!("{}: expected a cluster point", self.spec.full_id()),
        }
    }

    /// The system summary.
    ///
    /// # Panics
    ///
    /// On a cluster point's run.
    #[must_use]
    pub fn system(&self) -> &SystemSummary {
        match &self.summary {
            Summary::System(s) => s,
            Summary::Cluster(_) => panic!("{}: expected a system point", self.spec.full_id()),
        }
    }

    /// The energy report of a system point: every hart of every cluster
    /// at system rates, the DMA, refill and write-back beats included.
    ///
    /// # Panics
    ///
    /// On a cluster point's run.
    #[must_use]
    pub fn system_energy(&self) -> ClusterEnergyReport {
        let s = self.system();
        let per_core: Vec<_> = s
            .per_cluster
            .iter()
            .flat_map(|c| c.per_core.iter().map(|r| r.counters))
            .collect();
        EnergyModel::new().system_report(
            &per_core,
            s.cycles,
            s.total_dma_beats(),
            s.l2_refill_beats,
            s.l2_writeback_beats,
        )
    }

    /// The shared L2's cache-accounting invariants on one system point;
    /// a point without shared memory has none. A violation is a model
    /// bug, not a perf regression:
    ///
    /// * every granted beat is classified by the cache core;
    /// * refills are bounded by demand plus prefetch allocations;
    /// * a bounded MSHR file never holds more than its configured size;
    /// * a disabled prefetcher leaves no trace, and an enabled one keeps
    ///   its accuracy classes within the prefetches it issued and its
    ///   beats equal to its refills' lines;
    /// * an under-fit write-back L2 evicts dirty lines.
    ///
    /// # Errors
    ///
    /// The first violated invariant, naming the point.
    ///
    /// # Panics
    ///
    /// On a cluster point's run.
    pub fn check_l2_accounting(&self) -> Result<(), String> {
        let s = self.system();
        let Some(l2) = &s.l2 else { return Ok(()) };
        let (c, cfg, id) = (&l2.cache, &self.spec.l2.cache, &self.spec.id);
        let fail = |what: String| Err(format!("{id}: {what}"));
        if c.read_hits + c.read_misses + c.write_beats != l2.accesses {
            return fail(format!(
                "every granted beat must be classified by the cache core \
                 ({} hits + {} misses + {} writes vs {} accesses)",
                c.read_hits, c.read_misses, c.write_beats, l2.accesses
            ));
        }
        if c.refills > c.mshr_allocations + c.prefetches_issued {
            return fail("refills outnumber demand + prefetch allocations".into());
        }
        // `mshrs == 0` is an unbounded MSHR file.
        if cfg.mshrs != 0 && c.mshr_peak > u64::from(cfg.mshrs) {
            return fail("MSHR file overflowed its configured size".into());
        }
        if !cfg.prefetch {
            if (c.prefetch_hints, c.prefetches_issued, c.prefetch_refills) != (0, 0, 0) {
                return fail("a disabled prefetcher must leave no trace".into());
            }
        } else if c.prefetch_hits + c.prefetch_evicted_unused > c.prefetches_issued {
            return fail("accuracy classes exceed issued prefetches".into());
        } else if c.prefetch_refills > c.refills {
            return fail("prefetch refills exceed total refills".into());
        } else if s.l2_prefetch_beats != c.prefetch_refills * u64::from(cfg.line_beats()) {
            return fail("prefetch beats must be the prefetch refills' lines".into());
        }
        if self.spec.fit == Some(Fit::Under) && (c.evictions == 0 || s.l2_writeback_beats == 0) {
            return fail(format!(
                "an under-fit write-back L2 must evict dirty lines \
                 (evictions {}, writeback beats {})",
                c.evictions, s.l2_writeback_beats
            ));
        }
        Ok(())
    }
}

impl PointSpec {
    /// `<sweep>/<id>`: unique across the whole registry.
    #[must_use]
    pub fn full_id(&self) -> String {
        format!("{}/{}", self.sweep.name(), self.id)
    }

    /// A point with the defaults every sweep starts from: a single-core
    /// system point without tiling.
    fn base(sweep: Sweep, id: String, grid: Grid3, chaining: bool) -> Self {
        PointSpec {
            sweep,
            id,
            grid,
            chaining,
            level: Level::System,
            tiled: false,
            clusters: 1,
            cores: 1,
            core: CoreConfig::new().with_chaining(chaining),
            l2: L2Config::new(),
            fit: None,
        }
    }

    /// The tiled system kernel of this point's grid, variant and shape.
    ///
    /// # Panics
    ///
    /// If the grid's slabs do not tile within the 128 KiB TCDM.
    #[must_use]
    pub fn tiled_system_kernel(&self) -> TiledSystemKernel {
        tiled_system_kernel(self.grid, self.chaining, self.clusters, self.cores)
    }

    /// The working set of this point's tiled system plan with the
    /// chaining variant: what the capacity sweeps size the L2 against.
    #[must_use]
    pub fn working_set(&self) -> WorkingSet {
        plan_working_set(self.grid, self.clusters, self.cores)
    }

    /// The programs codegen emits for this point, one set per cluster
    /// stage: each set runs as the harts of one cluster, so lint checks
    /// it as a unit. Tiled points contribute every tile stage and the
    /// epilogue.
    ///
    /// # Panics
    ///
    /// If a tiled point does not tile within the 128 KiB TCDM.
    #[must_use]
    pub fn programs(&self) -> Vec<Vec<Program>> {
        let gen = generator(self.grid, self.chaining);
        match (self.level, self.tiled) {
            (Level::Cluster, false) => vec![gen.build_cluster(self.cores).programs().to_vec()],
            (Level::System, false) => gen
                .build_system(self.clusters, self.cores)
                .programs()
                .to_vec(),
            (_, true) => self
                .tiled_system_kernel()
                .stages()
                .iter()
                .flat_map(|cluster| cluster.iter().cloned())
                .collect(),
        }
    }

    /// Runs the point to verified completion, one dense step per cycle.
    ///
    /// # Panics
    ///
    /// On any simulation, setup or verification error, naming the point.
    #[must_use]
    pub fn run(&self) -> PointRun {
        self.run_in(SchedMode::Dense)
    }

    /// Runs a system-level point to verified completion under the
    /// event-driven scheduler, which fast-forwards provably idle
    /// windows. `None` on cluster-level points: only a `System`
    /// fast-forwards, so a cluster point has no event run.
    ///
    /// # Panics
    ///
    /// On any simulation, setup or verification error, naming the point.
    #[must_use]
    pub fn run_event(&self) -> Option<PointRun> {
        (self.level == Level::System).then(|| self.run_in(SchedMode::Event))
    }

    /// The run behind [`PointSpec::run`] and [`PointSpec::run_event`];
    /// `mode` is the system's (a cluster point steps densely).
    fn run_in(&self, mode: SchedMode) -> PointRun {
        let gen = generator(self.grid, self.chaining);
        let (kernel, outcome) = match (self.level, self.tiled) {
            (Level::Cluster, false) => {
                let k = gen.build_cluster(self.cores);
                let run = k.run(self.core, MAX_CYCLES);
                let outcome = run.map(|r| (None, Summary::Cluster(r.summary)));
                (k.name().to_owned(), outcome)
            }
            (Level::System, false) => {
                let k = gen.build_system(self.clusters, self.cores);
                let run = k.run_scheduled(self.core, MAX_CYCLES, mode);
                let outcome = run.map(|r| (None, Summary::System(r.summary)));
                (k.name().to_owned(), outcome)
            }
            (level, true) => {
                // A tiled cluster point is the one cluster of a system
                // behind a pass-through L2; its sweep reads that
                // cluster's summary.
                let k = self.tiled_system_kernel();
                let run = k.run_scheduled(self.core, self.l2, DramConfig::new(), MAX_CYCLES, mode);
                let outcome = run.map(|r| {
                    let summary = match level {
                        Level::Cluster => Summary::Cluster(
                            r.summary
                                .per_cluster
                                .into_iter()
                                .next()
                                .expect("one cluster"),
                        ),
                        Level::System => Summary::System(r.summary),
                    };
                    (Some(r.num_tiles), summary)
                });
                (k.name().to_owned(), outcome)
            }
        };
        let (tiles, summary) = outcome.unwrap_or_else(|e| panic!("{}: {e}", self.full_id()));
        PointRun {
            spec: self.clone(),
            kernel,
            tiles,
            summary,
        }
    }
}

fn generator(grid: Grid3, chaining: bool) -> StencilKernel {
    let variant = if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    };
    StencilKernel::new(Stencil::box3d1r(), grid, variant).expect("valid combination")
}

fn tiled_system_kernel(
    grid: Grid3,
    chaining: bool,
    clusters: u32,
    cores: u32,
) -> TiledSystemKernel {
    generator(grid, chaining)
        .build_system_tiled(clusters, cores, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB")
}

fn plan_working_set(grid: Grid3, clusters: u32, cores: u32) -> WorkingSet {
    tiled_system_kernel(grid, true, clusters, cores)
        .working_set()
        .clone()
}

fn memory_label(tiled: bool) -> &'static str {
    if tiled {
        "tiled"
    } else {
        "unbounded"
    }
}

fn variant_label(chaining: bool) -> &'static str {
    if chaining {
        "chaining"
    } else {
        "base"
    }
}

/// Each core count's chaining and base points, unbounded then tiled.
const MEMORY_THEN_VARIANT: [(bool, bool); 4] =
    [(false, true), (false, false), (true, true), (true, false)];

/// The over- and under-fit capacities of a working set.
fn capacities(ws: &WorkingSet) -> [(Fit, u32); 2] {
    [
        (Fit::Over, ws.overfit_capacity(L2_CAP_GRANULE_BYTES)),
        (Fit::Under, ws.underfit_capacity(L2_CAP_GRANULE_BYTES)),
    ]
}

/// The write-back finite L2 both capacity sweeps configure.
fn finite_l2(capacity: u32, ways: u32, channels: u32) -> L2Config {
    L2Config::new()
        .with_capacity_bytes(capacity)
        .with_ways(ways)
        .with_refill_channels(channels)
        .with_mshrs(L2_SWEEP_MSHRS)
        .with_write_back(true)
        .with_refill_latency(64)
        .with_refill_cycles_per_beat(1)
        .with_bank_width(8)
}

/// `box3d1r` 16x16x24 on 1/2/4/8 cores of one cluster: nz = 24 gives
/// every hart of the widest point planes to own *and* forces several
/// z-slab tiles under the 128 KiB cap; nx = 16 satisfies both unroll
/// factors (8 and 4).
fn cluster_scaling() -> Vec<PointSpec> {
    let grid = Grid3::new(16, 16, 24);
    let mut points = Vec::new();
    for cores in [1, 2, 4, 8] {
        for (tiled, chaining) in MEMORY_THEN_VARIANT {
            let id = format!(
                "{}/c{cores}/{}",
                memory_label(tiled),
                variant_label(chaining)
            );
            let l2 = if tiled {
                L2Config::passthrough(DramConfig::new())
            } else {
                L2Config::new()
            };
            points.push(PointSpec {
                level: Level::Cluster,
                tiled,
                cores,
                l2,
                ..PointSpec::base(Sweep::ClusterScaling, id, grid, chaining)
            });
        }
    }
    points
}

/// The cluster_scaling grid over 1/2/4 clusters × 1/4/8 cores; tiled
/// points stage the problem once in the shared memory behind the
/// default (infinite, single-channel) L2.
fn system_scaling() -> Vec<PointSpec> {
    let grid = Grid3::new(16, 16, 24);
    let mut points = Vec::new();
    for clusters in [1, 2, 4] {
        for cores in [1, 4, 8] {
            for (tiled, chaining) in MEMORY_THEN_VARIANT {
                let id = format!(
                    "{}/m{clusters}/c{cores}/{}",
                    memory_label(tiled),
                    variant_label(chaining)
                );
                points.push(PointSpec {
                    tiled,
                    clusters,
                    cores,
                    ..PointSpec::base(Sweep::SystemScaling, id, grid, chaining)
                });
            }
        }
    }
    points
}

/// `box3d1r` 16x16x16 tiled on 2 clusters × 2 cores behind a finite
/// write-back L2 sized off the plan's working set.
fn l2_ablation() -> Vec<PointSpec> {
    let grid = Grid3::new(16, 16, 16);
    let (clusters, cores) = (2, 2);
    let mut points = Vec::new();
    for (fit, capacity) in capacities(&plan_working_set(grid, clusters, cores)) {
        for ways in [2, 8] {
            for channels in [1, 4] {
                for chaining in [true, false] {
                    let id = format!(
                        "cap{}K/w{ways}/ch{channels}/{}",
                        capacity >> 10,
                        variant_label(chaining)
                    );
                    points.push(PointSpec {
                        tiled: true,
                        clusters,
                        cores,
                        l2: finite_l2(capacity, ways, channels),
                        fit: Some(fit),
                        ..PointSpec::base(Sweep::L2Ablation, id, grid, chaining)
                    });
                }
            }
        }
    }
    points
}

/// `box3d1r` 16x16x(8·clusters) on 1/2/4 clusters × 4 cores: unbounded,
/// then tiled behind an infinite L2 with 1 and 4 refill channels.
fn weak_scaling() -> Vec<PointSpec> {
    let mut points = Vec::new();
    for clusters in [1, 2, 4] {
        let grid = Grid3::new(16, 16, 8 * clusters);
        for chaining in [true, false] {
            for channels in [None, Some(1), Some(4)] {
                let regime = channels.map_or("unbounded".to_owned(), |ch| format!("tiled_ch{ch}"));
                let id = format!("{regime}/m{clusters}/{}", variant_label(chaining));
                let base = PointSpec {
                    clusters,
                    cores: 4,
                    ..PointSpec::base(Sweep::WeakScaling, id, grid, chaining)
                };
                points.push(match channels {
                    None => base,
                    Some(ch) => PointSpec {
                        tiled: true,
                        l2: L2Config::new()
                            .with_refill_channels(ch)
                            .with_refill_latency(64)
                            .with_refill_cycles_per_beat(1),
                        ..base
                    },
                });
            }
        }
    }
    points
}

/// `box3d1r` 24x24x24 tiled on 1/2 clusters × 4 cores behind an 8-way
/// finite L2 with a narrow 3-cycle port, prefetch off and at four
/// (degree, distance) settings; the request queue scales with the
/// distance.
fn prefetch_ablation() -> Vec<PointSpec> {
    let grid = Grid3::new(24, 24, 24);
    let cores = 4;
    let mut points = Vec::new();
    for clusters in [1, 2] {
        for (fit, capacity) in capacities(&plan_working_set(grid, clusters, cores)) {
            let fit_label = match fit {
                Fit::Over => "over",
                Fit::Under => "under",
            };
            for channels in [1, 4] {
                for chaining in [true, false] {
                    for prefetch in [
                        None,
                        Some((2, 8)),
                        Some((2, 32)),
                        Some((4, 8)),
                        Some((4, 32)),
                    ] {
                        let base = finite_l2(capacity, 8, channels).with_cycles_per_beat(3);
                        let (l2, pf_label) = match prefetch {
                            None => (base, "off".to_owned()),
                            Some((degree, distance)) => (
                                base.with_prefetch(true)
                                    .with_prefetch_degree(degree)
                                    .with_prefetch_distance(distance)
                                    .with_prefetch_queue(2 * distance),
                                format!("d{degree}D{distance}"),
                            ),
                        };
                        let id = format!(
                            "m{clusters}/cap{}K/{fit_label}/ch{channels}/{}/{pf_label}",
                            capacity >> 10,
                            variant_label(chaining)
                        );
                        points.push(PointSpec {
                            tiled: true,
                            clusters,
                            cores,
                            l2,
                            fit: Some(fit),
                            ..PointSpec::base(Sweep::PrefetchAblation, id, grid, chaining)
                        });
                    }
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::json::Json;
    use sc_core::{Attribution, PerfCounters};
    use sc_mem::{CacheStats, L2Stats};

    /// The checked-in `baselines/<name>`.
    fn baseline(name: &str) -> Json {
        let path = format!("{}/../../baselines/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The `(point, metric, value)` pins of `baselines/<sweep>.json`, in
    /// the order the baseline lists them (each point's metrics are
    /// contiguous); sweep-level metrics carry no point.
    fn baseline_pins(sweep: Sweep) -> Vec<(Option<String>, String, f64)> {
        baseline(&format!("{}.json", sweep.name()))
            .get("metrics")
            .and_then(Json::items)
            .expect("baseline has a metrics array")
            .iter()
            .map(|entry| {
                let point = entry.get("point").and_then(Json::as_str).map(str::to_owned);
                let metric = entry.get("metric").and_then(Json::as_str);
                let value = entry.get("value").and_then(Json::as_f64);
                (
                    point,
                    metric.expect("pin names its metric").to_owned(),
                    value.expect("pin has a value"),
                )
            })
            .collect()
    }

    /// The point ids `baselines/<sweep>.json` pins, in baseline order.
    fn baseline_ids(sweep: Sweep) -> Vec<String> {
        let mut ids: Vec<String> = Vec::new();
        for (point, _, _) in baseline_pins(sweep) {
            if let Some(id) = point {
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            }
        }
        ids
    }

    #[test]
    fn every_sweep_lists_its_baseline_ids_in_report_order() {
        for sweep in Sweep::ALL {
            let ids: Vec<String> = sweep.points().into_iter().map(|p| p.id).collect();
            assert_eq!(ids, baseline_ids(sweep), "{}", sweep.name());
        }
    }

    #[test]
    fn registry_holds_166_unique_ids() {
        let points = all_points();
        let ids: BTreeSet<String> = points.iter().map(PointSpec::full_id).collect();
        assert_eq!(points.len(), 166);
        assert_eq!(ids.len(), 166, "duplicate point ids");
    }

    #[test]
    fn cluster_points_reproduce_their_pins() {
        // Every `cluster_scaling` point runs as the one cluster of a
        // system — the unbounded ones without shared memory, the tiled
        // ones behind a pass-through L2: their cycle counts, TCDM
        // conflicts and attribution leaves must equal the pins.
        let pins = baseline_pins(Sweep::ClusterScaling);
        let pin = |id: &str, metric: &str| {
            pins.iter()
                .find(|(p, m, _)| p.as_deref() == Some(id) && m == metric)
                .map(|&(_, _, v)| v)
                .unwrap_or_else(|| panic!("{id}: no `{metric}` pin"))
        };
        let attrs = crate::attr::collect_points(&baseline("attr/cluster_scaling.json"))
            .expect("attribution baseline parses");
        let points = Sweep::ClusterScaling.points();
        assert_eq!(points.len(), 16);
        assert_eq!(points.iter().filter(|p| p.tiled).count(), 8);
        for p in points {
            let run = p.run();
            let s = run.cluster();
            assert_eq!(
                s.cycles as f64,
                pin(&p.id, "cycles_to_last_core_done"),
                "{}",
                p.id
            );
            assert_eq!(
                s.aggregate.tcdm_conflicts as f64,
                pin(&p.id, "tcdm_conflicts"),
                "{}",
                p.id
            );
            let want = attrs
                .iter()
                .find(|a| a.id == p.id)
                .unwrap_or_else(|| panic!("{}: no attribution pin", p.id));
            assert_eq!(want.harts, s.per_core.len() as u64, "{}", p.id);
            assert_eq!(want.machine_cycles, s.cycles, "{}", p.id);
            assert_eq!(want.attr, s.attribution, "{}", p.id);
        }
    }

    /// A run of the first under-fit `sweep` point whose prefetcher is
    /// on (`prefetch`) or off, carrying `cache` as its cache-core
    /// counters: the accounting validator reads nothing else of the
    /// summary.
    fn l2_run(sweep: Sweep, prefetch: bool, cache: CacheStats) -> PointRun {
        let spec = sweep
            .points()
            .into_iter()
            .find(|p| p.fit == Some(Fit::Under) && p.l2.cache.prefetch == prefetch)
            .expect("an under-fit point");
        let l2 = L2Stats {
            accesses: cache.read_hits + cache.read_misses + cache.write_beats,
            cache,
            ..L2Stats::default()
        };
        let line = u64::from(spec.l2.cache.line_beats());
        let summary = SystemSummary {
            cycles: 1000,
            per_cluster: Vec::new(),
            aggregate: PerfCounters::default(),
            cluster_done_at: Vec::new(),
            system_barriers: 0,
            l2: Some(l2),
            l2_refill_beats: cache.refills * line,
            l2_writeback_beats: cache.dirty_evictions * line,
            l2_prefetch_beats: cache.prefetch_refills * line,
            attribution: Attribution::default(),
        };
        PointRun {
            spec,
            kernel: String::new(),
            tiles: Some(1),
            summary: Summary::System(summary),
        }
    }

    /// Consistent under-fit counters: classified beats, refills within
    /// their allocations, evictions with dirty write-backs.
    fn consistent_cache() -> CacheStats {
        CacheStats {
            read_hits: 90,
            read_misses: 10,
            write_beats: 20,
            mshr_allocations: 10,
            mshr_peak: 2,
            refills: 10,
            evictions: 4,
            dirty_evictions: 2,
            ..CacheStats::default()
        }
    }

    #[test]
    fn l2_validator_accepts_a_consistent_point() {
        let run = l2_run(Sweep::L2Ablation, false, consistent_cache());
        assert_eq!(run.check_l2_accounting(), Ok(()));
        let prefetching = CacheStats {
            prefetch_hints: 3,
            prefetches_issued: 3,
            prefetch_refills: 2,
            prefetch_hits: 1,
            refills: 12,
            ..consistent_cache()
        };
        let run = l2_run(Sweep::PrefetchAblation, true, prefetching);
        assert_eq!(run.check_l2_accounting(), Ok(()));
    }

    #[test]
    fn l2_validator_bounds_only_a_bounded_mshr_file() {
        // A peak past the sweep's MSHR count overflows a bounded file;
        // an unbounded one (`mshrs == 0`, the infinite L2's default)
        // has no size to exceed.
        let deep = CacheStats {
            mshr_peak: u64::from(L2_SWEEP_MSHRS) + 1,
            ..consistent_cache()
        };
        let mut run = l2_run(Sweep::L2Ablation, false, deep);
        let err = run.check_l2_accounting().unwrap_err();
        assert!(err.contains("MSHR file overflowed"), "{err}");
        run.spec.l2.cache.mshrs = 0;
        assert_eq!(run.check_l2_accounting(), Ok(()));
    }

    #[test]
    fn l2_validator_refuses_unclassified_beats() {
        let mut run = l2_run(Sweep::L2Ablation, false, consistent_cache());
        let Summary::System(s) = &mut run.summary else {
            unreachable!("a system point")
        };
        s.l2.as_mut().expect("an L2").accesses += 1;
        let err = run.check_l2_accounting().unwrap_err();
        assert!(err.contains("classified"), "{err}");
    }

    #[test]
    fn l2_validator_refuses_prefetches_with_the_prefetcher_off() {
        let cache = CacheStats {
            prefetches_issued: 1,
            ..consistent_cache()
        };
        for sweep in [Sweep::L2Ablation, Sweep::PrefetchAblation] {
            let err = l2_run(sweep, false, cache)
                .check_l2_accounting()
                .unwrap_err();
            assert!(err.contains("disabled prefetcher"), "{err}");
        }
    }

    #[test]
    fn l2_validator_refuses_an_under_fit_point_without_write_backs() {
        let cache = CacheStats {
            dirty_evictions: 0,
            ..consistent_cache()
        };
        let err = l2_run(Sweep::L2Ablation, false, cache)
            .check_l2_accounting()
            .unwrap_err();
        assert!(err.contains("evict dirty lines"), "{err}");
    }
}
