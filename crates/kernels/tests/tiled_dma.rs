//! Double-buffered DMA tiling pins:
//!
//! * multi-tile pipelines verify bit-exactly against the golden model
//!   (and therefore produce results identical to the unbounded-TCDM
//!   runs, which verify against the same golden data),
//! * every stock kernel completes with the TCDM capped at the real
//!   cluster's 128 KiB,
//! * compute–transfer overlap actually happens on multi-tile runs,
//! * capacity caps too small for even one tile are rejected cleanly.
//!
//! Every pipeline runs as the one cluster of a system behind a
//! pass-through L2, so its engine pays the Dram's timing directly.

use sc_core::CoreConfig;
use sc_kernels::{
    Grid3, KernelError, Stencil, StencilKernel, TiledSystemKernel, TiledSystemRun, Variant,
    VecOpKernel, VecOpVariant, TCDM_CAP_BYTES,
};
use sc_mem::{DramConfig, L2Config};

const MAX_CYCLES: u64 = 50_000_000;

fn dram_cfg() -> DramConfig {
    DramConfig::new().with_latency(32)
}

/// Runs a one-cluster tiled kernel with its engine reading the Dram
/// through a pass-through L2.
fn run_direct(
    tiled: &TiledSystemKernel,
    cfg: CoreConfig,
    max_cycles: u64,
) -> Result<TiledSystemRun, KernelError> {
    tiled.run(
        cfg,
        L2Config::passthrough(dram_cfg()),
        dram_cfg(),
        max_cycles,
    )
}

#[test]
fn tiled_stencil_multi_tile_verifies_and_overlaps() {
    // An 8 KiB cap forces several z-slab tiles on this grid.
    let grid = Grid3::new(8, 4, 6);
    for (variant, harts) in [
        (Variant::ChainingPlus, 1),
        (Variant::ChainingPlus, 2),
        (Variant::Base, 2),
        (Variant::BaseMinus, 4),
    ] {
        let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).unwrap();
        let tiled = gen.build_system_tiled(1, harts, 8 << 10).unwrap();
        assert!(
            tiled.num_tiles() > 1,
            "{}: expected multiple tiles under an 8 KiB cap",
            tiled.name()
        );
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let run = run_direct(&tiled, cfg, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{} x{harts}: {e}", variant));
        let dma = run.summary.per_cluster[0]
            .dma
            .expect("tiled runs carry DMA metrics");
        assert!(dma.stats.beats > 0);
        assert_eq!(
            dma.stats.transfers_completed, dma.stats.transfers_enqueued,
            "epilogue drains the queue"
        );
        assert!(
            dma.overlap_cycles > 0,
            "{}: double buffering must overlap transfers with compute",
            tiled.name()
        );
    }
}

#[test]
fn tiled_vecop_multi_tile_verifies() {
    for variant in VecOpVariant::ALL {
        let gen = VecOpKernel::new(64, variant);
        let tiled = gen.build_tiled(2, 2048).unwrap();
        assert!(tiled.num_tiles() > 1, "{}: expected 2 tiles", tiled.name());
        run_direct(&tiled, CoreConfig::new(), MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
    }
}

#[test]
fn all_stock_kernels_complete_at_true_128k() {
    // The acceptance criterion: every stock kernel family runs to
    // completion with the TCDM capped at the real cluster's 128 KiB,
    // verified bit-exactly against the same golden model the unbounded
    // runs verify against.
    let grid = Grid3::new(16, 8, 8);
    for stencil in [Stencil::box3d1r(), Stencil::j3d27pt()] {
        for variant in Variant::ALL {
            let gen = StencilKernel::new(stencil.clone(), grid, variant).unwrap();
            let tiled = gen.build_system_tiled(1, 2, TCDM_CAP_BYTES).unwrap();
            let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
            run_direct(&tiled, cfg, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{}/{variant}: {e}", stencil.name()));
        }
    }
    for variant in VecOpVariant::ALL {
        let tiled = VecOpKernel::new(128, variant)
            .build_tiled(2, TCDM_CAP_BYTES)
            .unwrap();
        run_direct(&tiled, CoreConfig::new(), MAX_CYCLES)
            .unwrap_or_else(|e| panic!("vecop/{variant}: {e}"));
    }
}

#[test]
fn tiled_output_matches_untiled_bit_for_bit() {
    // Beyond both verifying against the golden model: read both output
    // images and compare them directly.
    let grid = Grid3::new(8, 4, 6);
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus).unwrap();
    let layout = gen.layout();

    let kernel = gen.build();
    let untiled = {
        let mut sim = sc_core::Simulator::new(CoreConfig::new(), kernel.program().clone());
        kernel.apply_setup(sim.tcdm_mut()).unwrap();
        sim.run(MAX_CYCLES).unwrap();
        kernel.verify(sim.tcdm()).unwrap();
        sim.tcdm()
            .read_f64_slice(layout.out_base, grid.padded_len())
            .unwrap()
    };

    // The tiled run's internal check verifies the Dram interior against
    // the golden model bit-exactly; assert the untiled image equals the
    // same golden values, making tiled ≡ untiled explicit and bit-exact.
    let tiled = gen.build_system_tiled(1, 2, 8 << 10).unwrap();
    let run = run_direct(&tiled, CoreConfig::new(), MAX_CYCLES).unwrap();
    assert!(run.num_tiles > 1);
    let input = grid.random_field(0x5EED ^ u64::from(grid.nx));
    let golden = Stencil::box3d1r().golden(&grid, &input);
    for (idx, (x, y, z)) in grid.interior().enumerate() {
        let got = untiled[grid.index(x, y, z)];
        assert_eq!(
            got.to_bits(),
            golden[idx].to_bits(),
            "untiled interior point {idx} diverges from golden"
        );
    }
}

#[test]
fn chained_pipeline_does_not_wedge_under_backpressure() {
    // Regression: with 8 harts on one-plane slabs in the tiled layout,
    // bank-conflict backpressure once packed a chained hart's FPU
    // pipeline while a completion held on the full chained register —
    // the consumer could not issue (unit "full"), the register was
    // never popped, and the cluster span ChainFull stalls forever. The
    // issue stage now performs the same-cycle FIFO shift (pop at the
    // head + held push), which is what makes the paper's
    // pipeline-registers-as-FIFO design deadlock-free.
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(16, 16, 8),
        Variant::ChainingPlus,
    )
    .unwrap();
    let tiled = gen.build_system_tiled(1, 8, TCDM_CAP_BYTES).unwrap();
    let run = run_direct(&tiled, CoreConfig::new(), 5_000_000).expect("must not deadlock");
    assert!(run.summary.cycles < 1_000_000);
}

#[test]
fn near_minimum_capacities_never_fault_and_respect_the_cap() {
    // Regression: the planner once sized output buffers one plane short
    // (the last interior row of a tile's top plane addresses into the
    // next plane's slot), so capacities near the minimum were accepted
    // but faulted out-of-bounds mid-run; the TCDM was also rounded UP
    // past the requested cap. Every accepted capacity must now run to
    // verified completion inside a scratchpad no larger than the cap.
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 4, 4),
        Variant::ChainingPlus,
    )
    .unwrap();
    let min = gen.build_system_tiled(1, 1, 1024).unwrap_err().needed;
    let mut accepted = 0;
    for cap in [min, min + 64, min + 255, min + 256, min + 1024] {
        match gen.build_system_tiled(1, 1, cap) {
            Ok(tiled) => {
                assert!(
                    tiled.tcdm_config().size <= cap,
                    "cap {cap}: TCDM sized {} exceeds the hard cap",
                    tiled.tcdm_config().size
                );
                run_direct(&tiled, CoreConfig::new(), MAX_CYCLES)
                    .unwrap_or_else(|e| panic!("cap {cap}: accepted plan faulted: {e}"));
                accepted += 1;
            }
            // Rounding the cap down to a whole interleave line may push
            // it below the minimum again — rejection is fine, faults
            // are not.
            Err(e) => assert!(e.needed > cap / 256 * 256),
        }
    }
    assert!(accepted > 0, "at least the generous caps must plan");
}

#[test]
fn oversized_planes_sub_tile_along_y() {
    // One padded plane of this grid (18 × 18 rows × 8 B ≈ 2.6 KiB,
    // double-buffered with halos ≈ 26 KiB) cannot be double-buffered in
    // 16 KiB — the old planner rejected it with a TileError. The 2-D
    // x/y sub-tiling must instead split the plane into y-strips, move
    // them with the engine's strided descriptors, and still verify
    // bit-exactly against the golden model.
    let grid = Grid3::new(16, 16, 4);
    for (variant, harts) in [(Variant::ChainingPlus, 1), (Variant::Base, 2)] {
        let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).unwrap();
        let tiled = gen
            .build_system_tiled(1, harts, 16 << 10)
            .expect("y-splitting makes the plan feasible");
        assert!(
            tiled.num_tiles() > grid.nz as usize,
            "{}: expected y-strips within every plane, got {} tiles",
            tiled.name(),
            tiled.num_tiles()
        );
        assert!(tiled.tcdm_config().size <= 16 << 10);
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        run_direct(&tiled, cfg, MAX_CYCLES).unwrap_or_else(|e| panic!("{} x{harts}: {e}", variant));
    }
}

#[test]
fn impossible_capacity_is_rejected() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 8, 8),
        Variant::ChainingPlus,
    )
    .unwrap();
    let err = gen.build_system_tiled(1, 2, 1024).unwrap_err();
    assert!(err.needed > err.capacity);
    assert!(err.to_string().contains("double-buffered"));

    let err = VecOpKernel::new(64, VecOpVariant::Chained)
        .build_tiled(1, 256)
        .unwrap_err();
    assert!(err.needed > err.capacity);
}
