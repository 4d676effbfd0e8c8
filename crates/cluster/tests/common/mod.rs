//! The one driver of a cluster in these tests: a one-cluster `System`.

use sc_cluster::ClusterConfig;
use sc_core::CoreConfig;
use sc_isa::Program;
use sc_mem::{Dram, DramConfig, L2Config};
use sc_system::{SystemBuilder, SystemConfig};

/// `programs` as the harts of a system's only cluster, each core built
/// from `core`. With `dma`, the cluster gets a DMA engine moving
/// against a Dram of that timing through a pass-through L2 —
/// cycle-identical to the cluster stepped straight against the Dram.
/// Callers add a watchdog, a tracer, a scheduling mode or strict
/// verification before building.
pub fn one_cluster(
    core: CoreConfig,
    programs: Vec<Program>,
    dma: Option<DramConfig>,
) -> SystemBuilder {
    let harts = programs.len() as u32;
    let mut cfg =
        SystemConfig::new(1, harts).with_cluster(ClusterConfig::new(harts).with_core(core));
    if let Some(timing) = dma {
        cfg = cfg.with_l2(L2Config::passthrough(timing));
    }
    let builder = SystemBuilder::new(cfg, vec![vec![programs]]);
    match dma {
        Some(timing) => builder.dram(Dram::new(timing)),
        None => builder,
    }
}
