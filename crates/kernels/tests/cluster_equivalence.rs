//! Cluster correctness pins:
//!
//! * a 1-core cluster must match the legacy single-core `Simulator`
//!   **cycle-for-cycle** (and counter-for-counter) on the paper kernels,
//! * partitioned N-core kernels must verify bit-exactly against the
//!   golden model and account for every flop,
//! * N-core runs must be deterministic across repeated runs.
//!
//! A cluster runs as the one cluster of a `System`, its only driver.

use sc_cluster::ClusterConfig;
use sc_core::{CoreConfig, Simulator};
use sc_kernels::{Grid3, Kernel, Stencil, StencilKernel, Variant, VecOpKernel, VecOpVariant};
use sc_mem::{Dram, DramConfig, L2Config};
use sc_system::{System, SystemBuilder, SystemConfig};

/// `kernel`'s program as the one hart of a system's only cluster, with
/// its data set up; with `dma`, behind a pass-through L2 whose Dram the
/// cluster's (idle) engine could move against.
fn one_core_system(kernel: &Kernel, cfg: CoreConfig, dma: bool) -> System {
    let scfg = SystemConfig::new(1, 1)
        .with_cluster(ClusterConfig::new(1).with_core(cfg))
        .with_l2(L2Config::passthrough(DramConfig::new()));
    let builder = SystemBuilder::new(scfg, vec![vec![vec![kernel.program().clone()]]]);
    let mut system = if dma {
        builder.dram(Dram::new(DramConfig::new())).build()
    } else {
        builder.build()
    };
    kernel
        .apply_setup(system.cluster_mut(0).tcdm_mut())
        .expect("setup fits");
    system
}

/// Runs `kernel`'s single program on the legacy simulator and on a
/// 1-core cluster, asserting identical cycle counts, counters and
/// verified memory images.
fn assert_single_core_equivalence(kernel: &Kernel, cfg: CoreConfig) {
    let max_cycles = 50_000_000;

    let mut sim = Simulator::new(cfg, kernel.program().clone());
    kernel.apply_setup(sim.tcdm_mut()).expect("setup fits");
    let legacy = sim
        .run(max_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    kernel.verify(sim.tcdm()).expect("legacy result verifies");

    let mut system = one_core_system(kernel, cfg, false);
    let clustered = system
        .run(max_cycles)
        .unwrap_or_else(|e| panic!("{} (cluster): {e}", kernel.name()))
        .per_cluster
        .remove(0);
    kernel
        .verify(system.cluster(0).tcdm())
        .expect("cluster result verifies");

    assert_eq!(
        legacy.cycles,
        clustered.cycles,
        "{}: 1-core cluster must match the legacy simulator cycle-for-cycle",
        kernel.name()
    );
    assert_eq!(
        legacy.counters,
        clustered.per_core[0].counters,
        "{}: whole-run counters must match",
        kernel.name()
    );
    assert_eq!(
        legacy.region,
        clustered.per_core[0].region,
        "{}: measured-region counters must match",
        kernel.name()
    );
}

#[test]
fn one_core_cluster_matches_simulator_on_vecop_kernels() {
    for variant in VecOpVariant::ALL {
        let kernel = VecOpKernel::new(64, variant).build();
        assert_single_core_equivalence(&kernel, CoreConfig::new());
    }
}

#[test]
fn one_core_cluster_matches_simulator_on_paper_stencils() {
    let grid = Grid3::new(8, 3, 3);
    for stencil in [Stencil::box3d1r(), Stencil::j3d27pt()] {
        for variant in Variant::ALL {
            let kernel = StencilKernel::new(stencil.clone(), grid, variant)
                .expect("valid combination")
                .build();
            assert_single_core_equivalence(&kernel, CoreConfig::new());
        }
    }
}

#[test]
fn one_core_cluster_matches_simulator_without_chaining_hardware() {
    let kernel = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), Variant::Base)
        .expect("valid")
        .build();
    assert_single_core_equivalence(&kernel, CoreConfig::new().with_chaining(false));
}

#[test]
fn one_core_cluster_with_idle_dma_matches_simulator() {
    // Attaching the DMA subsystem must be cycle-invisible while its
    // doorbell never rings: same paper kernels, same cycle counts and
    // counters as the legacy simulator.
    let cfg = CoreConfig::new();
    let max_cycles = 50_000_000;
    let kernels = [
        VecOpKernel::new(64, VecOpVariant::Chained).build(),
        StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, 3, 3),
            Variant::ChainingPlus,
        )
        .expect("valid")
        .build(),
    ];
    for kernel in &kernels {
        let mut sim = sc_core::Simulator::new(cfg, kernel.program().clone());
        kernel.apply_setup(sim.tcdm_mut()).expect("setup fits");
        let legacy = sim.run(max_cycles).expect("legacy run");

        let mut system = one_core_system(kernel, cfg, true);
        let with_dma = system
            .run(max_cycles)
            .expect("dma-idle run")
            .per_cluster
            .remove(0);
        kernel
            .verify(system.cluster(0).tcdm())
            .expect("result verifies");

        assert_eq!(
            legacy.cycles,
            with_dma.cycles,
            "{}: idle DMA must not change the cycle count",
            kernel.name()
        );
        assert_eq!(legacy.counters, with_dma.per_core[0].counters);
        let dma = with_dma.dma.expect("dma summary present");
        assert_eq!(dma.busy_cycles, 0);
        assert_eq!(dma.stats.beats, 0);
    }
}

#[test]
fn partitioned_stencil_verifies_on_every_hart_count() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 4, 6),
        Variant::ChainingPlus,
    )
    .expect("valid");
    let single = gen
        .build()
        .run(CoreConfig::new(), 50_000_000)
        .expect("single-core runs");
    for harts in [1u32, 2, 3, 4, 8] {
        let ck = gen.build_cluster(harts);
        let run = ck
            .run(CoreConfig::new(), 50_000_000)
            .unwrap_or_else(|e| panic!("{} harts: {e}", harts));
        // Bit-exact result (checked inside run) + complete flop accounting.
        assert_eq!(
            run.summary.aggregate.flops,
            ck.flops(),
            "{harts} harts: every flop must be accounted for"
        );
        // Real scaling: more harts may never be slower than one.
        if harts > 1 {
            assert!(
                run.summary.cycles < single.measured().cycles + single.summary.cycles,
                "{harts} harts took {} cluster cycles vs {} single-core",
                run.summary.cycles,
                single.summary.cycles
            );
        }
        assert_eq!(
            run.summary.barriers,
            u64::from(harts > 1),
            "one final rendezvous"
        );
    }
}

#[test]
fn partitioned_vecop_verifies_and_scales() {
    let gen = VecOpKernel::new(96, VecOpVariant::Chained);
    let single = gen
        .build()
        .run(CoreConfig::new(), 10_000_000)
        .expect("single-core runs");
    for harts in [2u32, 3, 4] {
        let run = gen
            .build_cluster(harts)
            .run(CoreConfig::new(), 10_000_000)
            .unwrap_or_else(|e| panic!("{harts} harts: {e}"));
        assert!(
            run.summary.cycles < single.summary.cycles,
            "{harts} harts: {} cycles vs {} on one core",
            run.summary.cycles,
            single.summary.cycles
        );
    }
}

#[test]
fn n_core_runs_are_deterministic() {
    let gen = StencilKernel::new(Stencil::j3d27pt(), Grid3::new(8, 4, 4), Variant::Chaining)
        .expect("valid");
    let run = |_: u32| {
        gen.build_cluster(4)
            .run(CoreConfig::new(), 50_000_000)
            .expect("cluster runs")
            .summary
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core_done_at, b.core_done_at);
    assert_eq!(a.core_conflicts, b.core_conflicts);
    assert_eq!(a.core_accesses, b.core_accesses);
    assert_eq!(a.conflicts_by_bank, b.conflicts_by_bank);
    assert_eq!(a.accesses_by_bank, b.accesses_by_bank);
    for (ca, cb) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(ca.counters, cb.counters);
        assert_eq!(ca.region, cb.region);
    }
}

#[test]
fn contention_appears_when_banks_shrink() {
    // The cluster must actually model inter-core bank contention: the
    // same 4-hart kernel loses cycles when the TCDM has fewer banks.
    use sc_mem::TcdmConfig;
    let gen =
        StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 4, 4), Variant::Base).expect("valid");
    let cycles_with_banks = |banks: u32| {
        let cfg = CoreConfig::new().with_tcdm(TcdmConfig::new().with_banks(banks));
        let run = gen.build_cluster(4).run(cfg, 100_000_000).expect("runs");
        (run.summary.cycles, run.summary.aggregate.tcdm_conflicts)
    };
    let (cycles_wide, conflicts_wide) = cycles_with_banks(32);
    let (cycles_narrow, conflicts_narrow) = cycles_with_banks(4);
    assert!(
        conflicts_narrow > conflicts_wide,
        "fewer banks must conflict more: {conflicts_narrow} vs {conflicts_wide}"
    );
    assert!(
        cycles_narrow > cycles_wide,
        "conflicts must cost cycles: {cycles_narrow} vs {cycles_wide}"
    );
}
