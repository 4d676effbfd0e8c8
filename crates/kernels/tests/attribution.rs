//! The top-down attribution's contract, pinned end-to-end:
//!
//! * **Differential invariant** — over random kernels × cache pressure
//!   × both scheduling modes, every hart's leaves sum to exactly its
//!   cycle count, every padded roll-up covers `harts × wall-clock`, and
//!   dense ≡ event attribution cell-for-cell.
//! * **Golden snapshot** — one pinned `l2_ablation` configuration's
//!   full leaf vector, so an attribution *reclassification* (cycles
//!   silently moving between leaves while the sums still balance) fails
//!   a test, not just a report diff.

use proptest::prelude::*;
use sc_cluster::ClusterSummary;
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{
    Grid3, Stencil, StencilKernel, Variant, L2_CAP_GRANULE_BYTES, L2_SWEEP_MSHRS, TCDM_CAP_BYTES,
};
use sc_mem::{DramConfig, L2Config};
use sc_perf::Leaf;
use sc_system::SystemSummary;

const MAX_CYCLES: u64 = 50_000_000;

/// Per-hart and padded-roll-up partition checks for a cluster.
fn check_cluster(id: &str, s: &ClusterSummary) -> Result<(), TestCaseError> {
    for (i, c) in s.per_core.iter().enumerate() {
        if let Err(e) = c.counters.attr.verify(c.counters.cycles) {
            return Err(TestCaseError::fail(format!("{id}: hart{i}: {e}")));
        }
    }
    s.attribution
        .verify(s.cycles * s.per_core.len() as u64)
        .map_err(|e| TestCaseError::fail(format!("{id}: cluster roll-up: {e}")))
}

/// Per-hart, per-cluster and system-level partition checks.
fn check_system(id: &str, s: &SystemSummary) -> Result<(), TestCaseError> {
    let mut harts = 0u64;
    for (m, c) in s.per_cluster.iter().enumerate() {
        check_cluster(&format!("{id} cluster{m}"), c)?;
        harts += c.per_core.len() as u64;
    }
    s.attribution
        .verify(s.cycles * harts)
        .map_err(|e| TestCaseError::fail(format!("{id}: system roll-up: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random kernels × random cache pressure × both scheduling modes:
    /// the partition invariant holds at every level, and the event
    /// scheduler attributes every cycle to the same leaf as dense
    /// stepping.
    #[test]
    fn partition_invariant_holds_under_pressure_and_both_modes(
        ny in 2u32..5,
        nz in 2u32..6,
        clusters in 1u32..3,
        harts in 1u32..4,
        variant_idx in 0usize..Variant::ALL.len(),
        cap_sets in 1u32..5,
        refill_latency in 1u32..128,
        channels in 1u32..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let Ok(tk) = gen.build_system_tiled(clusters, harts, 8 << 10) else {
            return Ok(());
        };
        // A deliberately small, slow L2: capacity pressure (evictions,
        // write-backs) and long exposed refills stress the park/dma-wait
        // and memory-bound leaves.
        let l2 = L2Config::new()
            .with_capacity_bytes(cap_sets * L2_CAP_GRANULE_BYTES)
            .with_ways(8)
            .with_refill_channels(channels)
            .with_mshrs(L2_SWEEP_MSHRS)
            .with_write_back(true)
            .with_refill_latency(refill_latency)
            .with_refill_cycles_per_beat(1)
            .with_bank_width(8);
        let dense = tk
            .run_scheduled(cfg, l2, DramConfig::new(), MAX_CYCLES, SchedMode::Dense)
            .map_err(|e| TestCaseError::fail(format!("dense: {e}")))?;
        let event = tk
            .run_scheduled(cfg, l2, DramConfig::new(), MAX_CYCLES, SchedMode::Event)
            .map_err(|e| TestCaseError::fail(format!("event: {e}")))?;

        check_system("dense", &dense.summary)?;
        check_system("event", &event.summary)?;
        prop_assert_eq!(
            &dense.summary.attribution,
            &event.summary.attribution,
            "event scheduling must not move a single cycle between leaves"
        );
        for (a, b) in dense.summary.per_cluster.iter().zip(&event.summary.per_cluster) {
            prop_assert_eq!(&a.attribution, &b.attribution);
        }
    }

    /// The same contract on the plain (unbounded, DMA-less) paths,
    /// where `NoInst`/`Frontend`/hazard leaves dominate instead of the
    /// memory ones.
    #[test]
    fn partition_invariant_holds_on_unbounded_kernels(
        ny in 1u32..4,
        nz in 1u32..4,
        harts in 1u32..5,
        variant_idx in 0usize..Variant::ALL.len(),
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let run = gen
            .build_cluster(harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        check_cluster("cluster", &run.summary)?;
    }
}

/// The pinned `l2_ablation/under/w8/ch1/chaining` point's exact leaf
/// vector (box3d1r 16×16×16, 2 clusters × 2 cores, under-fit write-back
/// L2, 64-cycle refills). A cycle moving between leaves — even
/// sum-preservingly — changes one of these counts and fails here with
/// the leaf's name; drift in the counts themselves is the perf gate's
/// job, reclassification is this test's.
#[test]
fn golden_attribution_of_pinned_l2_ablation_point() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(16, 16, 16),
        Variant::ChainingPlus,
    )
    .expect("valid combination");
    let tk = gen
        .build_system_tiled(2, 2, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB");
    let l2 = L2Config::new()
        .with_capacity_bytes(tk.working_set().underfit_capacity(L2_CAP_GRANULE_BYTES))
        .with_ways(8)
        .with_refill_channels(1)
        .with_mshrs(L2_SWEEP_MSHRS)
        .with_write_back(true)
        .with_refill_latency(64)
        .with_refill_cycles_per_beat(1)
        .with_bank_width(8);
    let run = tk
        .run(
            CoreConfig::new().with_chaining(true),
            l2,
            DramConfig::new(),
            MAX_CYCLES,
        )
        .expect("pinned point runs");
    let s = &run.summary;
    assert_eq!(s.cycles, 50613, "pinned wall-clock moved");
    // Re-pinned for the Park-by-default baseline roll: the spin loops'
    // retires and branch bubbles (`Retired`, `Frontend`) became parked
    // `DmaWait` cycles, and the wall clock shortened by the nine cycles
    // the last poll iterations used to overshoot their completions.
    let golden: &[(Leaf, u64)] = &[
        (Leaf::Retired, 113_057),
        (Leaf::NoInst, 0),
        (Leaf::Frontend, 0),
        (Leaf::RawHazard, 0),
        (Leaf::WawHazard, 0),
        (Leaf::ChainEmpty, 0),
        (Leaf::ChainFull, 0),
        (Leaf::UnitBusy, 0),
        (Leaf::LsuBusy, 2),
        (Leaf::SsrStarve, 0),
        (Leaf::SsrFull, 0),
        (Leaf::LoadStore, 0),
        (Leaf::DmaWait, 44_530),
        (Leaf::Drain, 16),
        (Leaf::Barrier, 44_641),
        (Leaf::SystemBarrier, 0),
        (Leaf::Park, 206),
    ];
    for &(leaf, want) in golden {
        assert_eq!(
            s.attribution.get(leaf),
            want,
            "leaf `{}` reclassified",
            leaf.metric_name()
        );
    }
    s.attribution
        .verify(s.cycles * 4)
        .expect("golden vector partitions 4 harts x wall-clock");
}
