//! The cluster kernel harness: one program per hart plus shared data
//! setup and whole-result verification, runnable on an `sc-cluster`
//! cluster (as the one cluster of an `sc-system` system).
//!
//! Partitioned kernels are built by [`crate::StencilKernel::build_cluster`]
//! (z-plane slabs) and [`crate::VecOpKernel::build_cluster`] (contiguous
//! element ranges); both emit a cluster-barrier rendezvous before each
//! hart halts, so "cycles to last core done" always covers every hart's
//! writeback traffic.

use sc_cluster::ClusterSummary;
use sc_core::{CoreConfig, PerfCounters, SchedMode};
use sc_isa::Program;

use crate::kernel::{CheckFn, KernelError, SetupFn};
use crate::system_kernel::run_unbounded;

/// A runnable cluster kernel: per-hart programs + shared data setup +
/// golden-model check over the shared TCDM.
pub struct ClusterKernel {
    name: String,
    programs: Vec<Program>,
    flops: u64,
    setup: SetupFn,
    check: CheckFn,
}

impl ClusterKernel {
    /// Assembles a cluster kernel from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        programs: Vec<Program>,
        flops: u64,
        setup: SetupFn,
        check: CheckFn,
    ) -> Self {
        assert!(
            !programs.is_empty(),
            "a cluster kernel needs at least one hart"
        );
        let name = name.into();
        crate::debug_lint_harts(&name, &programs);
        ClusterKernel {
            name,
            programs,
            flops,
            setup,
            check,
        }
    }

    /// The kernel's display name (e.g. `"box3d1r/Chaining+ x4"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of harts the kernel is partitioned over.
    #[must_use]
    pub fn num_harts(&self) -> usize {
        self.programs.len()
    }

    /// The per-hart programs.
    #[must_use]
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Double-precision flops the whole cluster performs.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Runs the kernel on a cluster of `num_harts()` cores configured
    /// with `cfg` — the one cluster of a system without shared memory,
    /// stepped densely — verifying the shared memory image afterwards.
    ///
    /// # Errors
    ///
    /// System simulation errors (cluster- and hart-tagged, including the
    /// budget exit), setup errors and verification mismatches are all
    /// reported as [`KernelError`].
    pub fn run(&self, cfg: CoreConfig, max_cycles: u64) -> Result<ClusterKernelRun, KernelError> {
        let mut summary = run_unbounded(
            std::slice::from_ref(&self.programs),
            &self.setup,
            std::slice::from_ref(&self.check),
            cfg,
            max_cycles,
            SchedMode::Dense,
        )?;
        Ok(ClusterKernelRun {
            summary: summary.per_cluster.swap_remove(0),
        })
    }
}

impl std::fmt::Debug for ClusterKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterKernel")
            .field("name", &self.name)
            .field("harts", &self.programs.len())
            .field("flops", &self.flops)
            .finish_non_exhaustive()
    }
}

/// The outcome of a verified cluster-kernel run.
#[derive(Debug, Clone)]
pub struct ClusterKernelRun {
    /// The cluster's aggregated summary.
    pub summary: ClusterSummary,
}

impl ClusterKernelRun {
    /// Sum of each hart's *measured-region* counters, with `cycles` set
    /// to the longest per-hart measured region — the cluster analogue of
    /// [`sc_core::RunSummary::measured`].
    ///
    /// Harts that did no measured work (surplus harts with an empty
    /// slab never open a region) are excluded, so an 8-hart run over a
    /// 4-plane grid is not skewed by idle harts' whole-run counters;
    /// only when *no* hart marked a region does this fall back to
    /// whole-run counters for every hart.
    #[must_use]
    pub fn measured(&self) -> PerfCounters {
        let any_region = self.summary.per_core.iter().any(|c| c.region.is_some());
        let mut total = PerfCounters::new();
        let mut max_cycles = 0;
        for core in &self.summary.per_core {
            if any_region && core.region.is_none() {
                continue;
            }
            let m = core.measured();
            total.accumulate(m);
            max_cycles = max_cycles.max(m.cycles);
        }
        total.cycles = max_cycles;
        total
    }
}
