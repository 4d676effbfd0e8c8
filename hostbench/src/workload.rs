//! The three workloads: points drawn from the repository's sweep grids,
//! their codegen, and their untraced runs through the library's own run
//! paths.

use sc_cluster::{ClusterConfig, ClusterSummary, DmaSummary};
use sc_core::{CoreConfig, PerfCounters, RunSummary, SchedMode};
use sc_kernels::{
    ClusterKernel, Grid3, Kernel, KernelError, Stencil, StencilKernel, TiledSystemKernel, Variant,
    TCDM_CAP_BYTES,
};
use sc_mem::{DramConfig, L2Config, L2Stats};
use sc_system::{SystemConfig, SystemSummary};

/// Cycle budget of every run; no point comes near it.
pub const MAX_CYCLES: u64 = 500_000_000;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 single-core points plus the unbounded `cluster_scaling`
    /// rows: core issue/execute and the TCDM crossbar only.
    CoreTcdm,
    /// The under-fit `prefetch_ablation` rows: finite write-back L2,
    /// MSHR pressure, prefetch queue, busy DMA engines.
    L2Pressure,
    /// The tiled `system_scaling` and `weak_scaling` rows under the
    /// event-driven scheduler.
    SystemEvent,
}

impl Workload {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Workload; 3] = [
        Workload::CoreTcdm,
        Workload::L2Pressure,
        Workload::SystemEvent,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreTcdm => "core_tcdm",
            Workload::L2Pressure => "l2_pressure",
            Workload::SystemEvent => "system_event",
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes and generates code for every point, each under the id its
    /// pin file uses: the benchmark's set-up.
    ///
    /// # Errors
    ///
    /// The first codegen failure.
    pub fn build(self) -> Result<Vec<Point>, String> {
        let specs = match self {
            Workload::CoreTcdm => core_tcdm(),
            Workload::L2Pressure => l2_pressure()?,
            Workload::SystemEvent => system_event(),
        };
        specs.into_iter().map(Spec::build).collect()
    }
}

/// The library run path a point takes, which also selects its traced
/// driver.
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    /// One core over a private TCDM (`Kernel::run`).
    Core,
    /// One cluster of `harts` cores over a shared TCDM, no DMA
    /// (`ClusterKernel::run`).
    Cluster { harts: u32 },
    /// `clusters` clusters of `harts` cores, tiled through 128 KiB TCDMs
    /// over a shared L2 (`TiledSystemKernel::run_scheduled`).
    System {
        clusters: u32,
        harts: u32,
        l2: L2Config,
        mode: SchedMode,
    },
}

/// One point before codegen.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The point's id in its pin file.
    pub id: String,
    /// The pin file holding the point (`baselines/<pins>.json` or the
    /// benchmark's own `pins/<pins>.json`).
    pub pins: &'static str,
    stencil: Stencil,
    grid: Grid3,
    variant: Variant,
    /// Core configuration the run path receives.
    pub core: CoreConfig,
    /// The run path.
    pub machine: Machine,
}

impl Spec {
    /// Generates the point's code.
    ///
    /// # Errors
    ///
    /// A stencil/variant combination or tiling the generator refuses.
    pub fn build(self) -> Result<Point, String> {
        let gen = StencilKernel::new(self.stencil.clone(), self.grid, self.variant)
            .map_err(|e| format!("{}: {e}", self.id))?;
        let code = match self.machine {
            Machine::Core => Code::Core(gen.build()),
            Machine::Cluster { harts } => Code::Cluster(gen.build_cluster(harts)),
            Machine::System {
                clusters, harts, ..
            } => Code::System(
                gen.build_system_tiled(clusters, harts, TCDM_CAP_BYTES)
                    .map_err(|e| format!("{}: {e}", self.id))?,
            ),
        };
        Ok(Point { spec: self, code })
    }
}

/// A point's generated code, by run path.
#[derive(Debug)]
pub enum Code {
    /// A single-core kernel.
    Core(Kernel),
    /// A cluster kernel.
    Cluster(ClusterKernel),
    /// A tiled multi-cluster kernel.
    System(TiledSystemKernel),
}

/// One point ready to run.
#[derive(Debug)]
pub struct Point {
    /// What the point is.
    pub spec: Spec,
    /// Its generated code.
    pub code: Code,
}

impl Point {
    /// Runs the point through the library's own run path (data set-up,
    /// stepping, golden-model verification).
    ///
    /// # Errors
    ///
    /// Simulation errors and output-verification mismatches.
    pub fn run(&self) -> Result<Fingerprint, KernelError> {
        let core = self.spec.core;
        match (&self.code, self.spec.machine) {
            (Code::Core(k), _) => Ok(Fingerprint::from_core(&k.run(core, MAX_CYCLES)?.summary)),
            (Code::Cluster(k), _) => {
                Ok(Fingerprint::from_cluster(&k.run(core, MAX_CYCLES)?.summary))
            }
            (Code::System(k), Machine::System { l2, mode, .. }) => {
                let run = k.run_scheduled(core, l2, DramConfig::new(), MAX_CYCLES, mode)?;
                Ok(Fingerprint::from_system(&run.summary))
            }
            (Code::System(_), _) => unreachable!("system code is only built for system machines"),
        }
    }

    /// The system configuration the tiled run path builds for this
    /// point, for the traced drivers to build the same machine.
    pub fn system_config(&self) -> Option<(&TiledSystemKernel, SystemConfig, SchedMode)> {
        match (&self.code, self.spec.machine) {
            (Code::System(k), Machine::System { l2, mode, .. }) => {
                let core = CoreConfig {
                    tcdm: k.tcdm_config(),
                    ..self.spec.core
                };
                let harts = k.harts_per_cluster();
                let cfg = SystemConfig::new(k.num_clusters() as u32, harts)
                    .with_cluster(ClusterConfig::new(harts).with_core(core))
                    .with_l2(l2);
                Some((k, cfg, mode))
            }
            _ => None,
        }
    }

    /// The L2 configuration of a system point.
    pub fn l2_config(&self) -> Option<L2Config> {
        match self.spec.machine {
            Machine::System { l2, .. } => Some(l2),
            _ => None,
        }
    }
}

/// Everything a run simulated that the benchmark compares exactly:
/// cycles, every hart's counters, every DMA engine's summary and the
/// shared L2's stats. Two runs of one point must agree on all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Machine cycles until the last hart finished.
    pub cycles: u64,
    /// Whole-run counters of every hart, in cluster then hart order.
    pub harts: Vec<PerfCounters>,
    /// Every cluster's DMA summary, in cluster order.
    pub dma: Vec<DmaSummary>,
    /// The shared L2's stats, when the machine has one.
    pub l2: Option<L2Stats>,
}

impl Fingerprint {
    fn from_core(run: &RunSummary) -> Self {
        Fingerprint {
            cycles: run.cycles,
            harts: vec![run.counters],
            dma: Vec::new(),
            l2: None,
        }
    }

    fn from_cluster(summary: &ClusterSummary) -> Self {
        Self::from_clusters(summary.cycles, std::slice::from_ref(summary), None)
    }

    fn from_system(summary: &SystemSummary) -> Self {
        Self::from_clusters(summary.cycles, &summary.per_cluster, summary.l2.clone())
    }

    /// Assembles a fingerprint from per-cluster summaries.
    pub fn from_clusters(cycles: u64, clusters: &[ClusterSummary], l2: Option<L2Stats>) -> Self {
        Fingerprint {
            cycles,
            harts: clusters
                .iter()
                .flat_map(|c| c.per_core.iter().map(|r| r.counters))
                .collect(),
            dma: clusters.iter().filter_map(|c| c.dma).collect(),
            l2,
        }
    }

    /// Hart-cycles: every hart's own cycle count, summed.
    pub fn hart_cycles(&self) -> u64 {
        self.harts.iter().map(|c| c.cycles).sum()
    }

    /// The values the pin files hold, under the sweep reports' names.
    pub fn pinned(&self, l2_cfg: Option<&L2Config>) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("cycles_to_last_core_done", self.cycles),
            (
                "tcdm_conflicts",
                self.harts.iter().map(|c| c.tcdm_conflicts).sum(),
            ),
        ];
        if let (Some(l2), Some(cfg)) = (&self.l2, l2_cfg) {
            out.extend([
                ("l2_evictions", l2.cache.evictions),
                ("l2_writeback_beats", l2.writeback_beats(cfg)),
                ("l2_prefetches_issued", l2.cache.prefetches_issued),
                ("l2_prefetch_hits", l2.cache.prefetch_hits),
            ]);
        }
        out
    }
}

fn variant(chaining: bool) -> Variant {
    if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    }
}

fn chaining_label(chaining: bool) -> &'static str {
    if chaining {
        "chaining"
    } else {
        "base"
    }
}

/// Fig. 3 (both stencils × all five variants on one core, as
/// `Fig3Experiment` runs them) plus the unbounded `cluster_scaling` rows.
fn core_tcdm() -> Vec<Spec> {
    let mut specs = Vec::new();
    for (stencil, grid) in [
        (Stencil::box3d1r(), Grid3::new(24, 8, 8)),
        (Stencil::j3d27pt(), Grid3::new(16, 12, 6)),
    ] {
        for v in Variant::ALL {
            specs.push(Spec {
                id: format!("{}/{}", stencil.name(), v.label()),
                pins: "fig3",
                stencil: stencil.clone(),
                grid,
                variant: v,
                core: CoreConfig::new(),
                machine: Machine::Core,
            });
        }
    }
    for harts in [1, 2, 4, 8] {
        for chaining in [true, false] {
            specs.push(Spec {
                id: format!("unbounded/c{harts}/{}", chaining_label(chaining)),
                pins: "cluster_scaling",
                stencil: Stencil::box3d1r(),
                grid: Grid3::new(16, 16, 24),
                variant: variant(chaining),
                core: CoreConfig::new().with_chaining(chaining),
                machine: Machine::Cluster { harts },
            });
        }
    }
    specs
}

/// The under-fit `prefetch_ablation` rows: 1/2 clusters × 1/4 refill
/// channels × chaining × prefetch {off, d2D8, d4D32}. The sweep's two
/// mixed corners (d2D32, d4D8) are left out so a run fits six passes;
/// both degrees and both distances stay.
fn l2_pressure() -> Result<Vec<Spec>, String> {
    const HARTS: u32 = 4;
    const CAP_GRANULE: u32 = 256 * 8;
    let grid = Grid3::new(24, 24, 24);
    let mut specs = Vec::new();
    for clusters in [1, 2] {
        // Sized exactly as the sweep sizes it: the chaining variant's
        // working set, rounded to whole 8-way sets.
        let capacity = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
            .map_err(|e| e.to_string())?
            .build_system_tiled(clusters, HARTS, TCDM_CAP_BYTES)
            .map_err(|e| e.to_string())?
            .working_set()
            .underfit_capacity(CAP_GRANULE);
        for channels in [1, 4] {
            for chaining in [true, false] {
                for prefetch in [None, Some((2, 8)), Some((4, 32))] {
                    let base = L2Config::new()
                        .with_capacity_bytes(capacity)
                        .with_ways(8)
                        .with_refill_channels(channels)
                        .with_mshrs(8)
                        .with_write_back(true)
                        .with_refill_latency(64)
                        .with_refill_cycles_per_beat(1)
                        .with_bank_width(8)
                        .with_cycles_per_beat(3);
                    let (l2, label) = match prefetch {
                        None => (base, "off".to_owned()),
                        Some((degree, distance)) => (
                            base.with_prefetch(true)
                                .with_prefetch_degree(degree)
                                .with_prefetch_distance(distance)
                                .with_prefetch_queue(2 * distance),
                            format!("d{degree}D{distance}"),
                        ),
                    };
                    specs.push(Spec {
                        id: format!(
                            "m{clusters}/cap{}K/under/ch{channels}/{}/{label}",
                            capacity >> 10,
                            chaining_label(chaining)
                        ),
                        pins: "prefetch_ablation",
                        stencil: Stencil::box3d1r(),
                        grid,
                        variant: variant(chaining),
                        core: CoreConfig::new().with_chaining(chaining),
                        machine: Machine::System {
                            clusters,
                            harts: HARTS,
                            l2,
                            mode: SchedMode::Dense,
                        },
                    });
                }
            }
        }
    }
    Ok(specs)
}

/// The tiled `system_scaling` rows (1/2/4 clusters × 1/4/8 harts ×
/// chaining) and the tiled `weak_scaling` rows (1/2/4 clusters × 1/4
/// refill channels × chaining), event-driven.
fn system_event() -> Vec<Spec> {
    let mut specs = Vec::new();
    for clusters in [1, 2, 4] {
        for harts in [1, 4, 8] {
            for chaining in [true, false] {
                specs.push(Spec {
                    id: format!("tiled/m{clusters}/c{harts}/{}", chaining_label(chaining)),
                    pins: "system_scaling",
                    stencil: Stencil::box3d1r(),
                    grid: Grid3::new(16, 16, 24),
                    variant: variant(chaining),
                    core: CoreConfig::new().with_chaining(chaining),
                    machine: Machine::System {
                        clusters,
                        harts,
                        l2: L2Config::new(),
                        mode: SchedMode::Event,
                    },
                });
            }
        }
    }
    for clusters in [1, 2, 4] {
        for chaining in [true, false] {
            for channels in [1, 4] {
                specs.push(Spec {
                    id: format!(
                        "tiled_ch{channels}/m{clusters}/{}",
                        chaining_label(chaining)
                    ),
                    pins: "weak_scaling",
                    stencil: Stencil::box3d1r(),
                    grid: Grid3::new(16, 16, 8 * clusters),
                    variant: variant(chaining),
                    core: CoreConfig::new().with_chaining(chaining),
                    machine: Machine::System {
                        clusters,
                        harts: 4,
                        l2: L2Config::new()
                            .with_refill_channels(channels)
                            .with_refill_latency(64)
                            .with_refill_cycles_per_beat(1),
                        mode: SchedMode::Event,
                    },
                });
            }
        }
    }
    specs
}
