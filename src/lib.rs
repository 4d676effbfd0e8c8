//! # scalar-chaining
//!
//! A complete, cycle-level reproduction of *"Late Breaking Results: A
//! RISC-V ISA Extension for Chaining in Scalar Processors"* (DATE 2025):
//! a Snitch-like scalar in-order core with stream semantic registers,
//! an FREP sequencer, a banked TCDM — and the paper's **scalar chaining**
//! extension (CSR 0x7C3: FIFO semantics on selected FP registers, one
//! valid bit per register for backpressure).
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `sc-isa` | registers, instructions, encoder/decoder, assembler |
//! | [`cache`] | `sc-cache` | set-associative cache core: LRU, write-back, MSHRs, multi-channel refill |
//! | [`mem`] | `sc-mem` | banked TCDM + finite shared `L2` + `Dram` background memory |
//! | [`dma`] | `sc-dma` | per-cluster DMA engine (1D/2D strided Dram ↔ TCDM) |
//! | [`fpu`] | `sc-fpu` | pipelined FPU with hold-on-backpressure |
//! | [`ssr`] | `sc-ssr` | stream semantic registers (4-D affine movers) |
//! | [`core_model`] | `sc-core` | the steppable core + single-core simulator |
//! | [`cluster`] | `sc-cluster` | N-core lock-step cluster over a shared TCDM |
//! | [`system`] | `sc-system` | M-cluster lock-step system over a shared banked L2 |
//! | [`trace`] | `sc-trace` | zero-cost event/metrics bus: Perfetto timelines, sampling, watchdog |
//! | [`energy`] | `sc-energy` | energy/power/area models, core and cluster |
//! | [`kernels`] | `sc-kernels` | vecop + stencil workloads, five variants, cluster tiling |
//! | [`lint`] | `sc-lint` | static kernel verifier: chaining/DMA/barrier hazard rules |
//! | [`benchkit`] | `sc-bench` | figure-regeneration + cluster-scaling harness |
//!
//! ## Quickstart
//!
//! ```
//! use scalar_chaining::prelude::*;
//!
//! // Run the paper's chained vector kernel and check the headline effect.
//! let kernel = VecOpKernel::new(64, VecOpVariant::Chained).build();
//! let run = kernel.run(CoreConfig::new(), 100_000)?;
//! assert!(run.measured().fpu_utilization() > 0.9);
//! # Ok::<(), KernelError>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs and `crates/bench/src/cmd/`
//! for the per-figure experiment commands of the `sc-bench` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(inline)]
pub use sc_bench as benchkit;
pub use sc_cache as cache;
pub use sc_cluster as cluster;
pub use sc_core as core_model;
pub use sc_dma as dma;
pub use sc_energy as energy;
pub use sc_fpu as fpu;
pub use sc_isa as isa;
pub use sc_kernels as kernels;
pub use sc_lint as lint;
pub use sc_mem as mem;
pub use sc_perf as perf;
pub use sc_ssr as ssr;
pub use sc_system as system;
pub use sc_trace as trace;

/// The most commonly used types, importable with one line.
pub mod prelude {
    pub use sc_cluster::{Cluster, ClusterConfig, ClusterError, ClusterSummary, DmaSummary};
    pub use sc_core::{
        Core, CoreConfig, PerfCounters, RunSummary, SimError, Simulator, StallCause,
    };
    pub use sc_dma::{DmaEngine, DmaStats, Transfer};
    pub use sc_energy::{
        AreaEstimate, ClusterAreaEstimate, ClusterEnergyReport, EnergyModel, EnergyReport,
    };
    pub use sc_isa::{csr, FpReg, Instruction, IntReg, Program, ProgramBuilder};
    pub use sc_kernels::{
        ClusterKernel, ClusterKernelRun, Grid3, Kernel, KernelError, KernelRun, Stencil,
        StencilKernel, SystemKernel, SystemKernelRun, TileError, TiledSystemKernel, TiledSystemRun,
        Variant, VecOpKernel, VecOpVariant, WorkingSet, TCDM_CAP_BYTES,
    };
    pub use sc_lint::{lint_harts, lint_program, Diagnostic, LintConfig, LintReport, Rule};
    pub use sc_mem::{
        CacheConfig, CacheStats, Dram, DramConfig, L2Config, L2Outcome, L2Stats, PrefetchHint,
        Store, Tcdm, TcdmConfig, L2,
    };
    pub use sc_perf::{
        segment_phases, Attribution, AttributionError, Group, Leaf, PhaseMark, PhaseSegment,
        RefillOccupancy, TransferAttribution,
    };
    pub use sc_ssr::{AffinePattern, CfgAddr, SsrUnit};
    pub use sc_system::{System, SystemConfig, SystemError, SystemSummary};
    pub use sc_trace::{HangReport, MetricSource, TraceConfig, TraceSession, Tracer, Watchdog};
}
