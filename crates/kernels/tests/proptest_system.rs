//! Property tests over the multi-cluster system layer:
//!
//! * a 1-cluster unbounded `SystemKernel` (z-slabs partitioned over
//!   clusters, then harts) is **cycle- and result-identical** to the
//!   equivalent `ClusterKernel` (partitioned over harts only). Both run
//!   on a one-cluster `System`, the only driver of a cluster, so this
//!   pins the two partitioners against each other; the driver itself is
//!   pinned by `sc-system`'s pass-through test and by the registry's 16
//!   `cluster_scaling` pins in `sc-bench`,
//! * multi-cluster runs are **bit-identical** in results to
//!   single-cluster runs of the same problem (determinism under L2
//!   arbitration), and deterministic across repeated runs.

use proptest::prelude::*;
use sc_core::CoreConfig;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant};
use sc_mem::{DramConfig, L2Config};

const MAX_CYCLES: u64 = 50_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A 1-cluster unbounded system kernel must match the equivalent
    /// cluster kernel cycle-for-cycle and counter-for-counter.
    #[test]
    fn one_cluster_system_is_cycle_identical_to_cluster(
        xblk in 1u32..3,
        ny in 1u32..4,
        nz in 1u32..4,
        variant_idx in 0usize..Variant::ALL.len(),
        harts in 1u32..5,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(xblk * 8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());

        let cluster_run = gen
            .build_cluster(harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("cluster: {e}")))?;
        let system_run = gen
            .build_system(1, harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("system: {e}")))?;

        prop_assert_eq!(system_run.summary.cycles, cluster_run.summary.cycles);
        let sys_cluster = &system_run.summary.per_cluster[0];
        for (a, b) in cluster_run.summary.per_core.iter().zip(&sys_cluster.per_core) {
            prop_assert_eq!(&a.counters, &b.counters);
            prop_assert_eq!(&a.region, &b.region);
        }
        prop_assert_eq!(sys_cluster.barriers, cluster_run.summary.barriers);
    }

    /// Multi-cluster runs (unbounded and tiled, cold L2) verify
    /// bit-exactly against the same golden model the single-cluster
    /// paths verify against — arbitration order can never change
    /// results — and repeated runs are cycle-deterministic.
    #[test]
    fn multi_cluster_runs_are_bit_identical_and_deterministic(
        ny in 2u32..4,
        nz in 2u32..5,
        clusters in 2u32..4,
        harts in 1u32..3,
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let cfg = CoreConfig::new();

        // Unbounded: the per-cluster checks inside run() verify each
        // slab bit-exactly against the shared golden model.
        let a = gen
            .build_system(clusters, harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("system: {e}")))?;
        let b = gen
            .build_system(clusters, harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("system rerun: {e}")))?;
        prop_assert_eq!(a.summary.cycles, b.summary.cycles);
        prop_assert_eq!(a.summary.aggregate.flops, gen.flops());

        // Tiled through a cold shared L2: run() checks the Dram image
        // bit-exactly against the same golden model.
        if let Ok(tiled) = gen.build_system_tiled(clusters, harts, 8 << 10) {
            let t1 = tiled
                .run(cfg, L2Config::new(), DramConfig::new(), MAX_CYCLES)
                .map_err(|e| TestCaseError::fail(format!("tiled system: {e}")))?;
            let t2 = tiled
                .run(cfg, L2Config::new(), DramConfig::new(), MAX_CYCLES)
                .map_err(|e| TestCaseError::fail(format!("tiled rerun: {e}")))?;
            prop_assert_eq!(t1.summary.cycles, t2.summary.cycles);
            let l2 = t1.summary.l2.expect("shared memory attached");
            prop_assert!(l2.accesses > 0);
        }
    }
}
