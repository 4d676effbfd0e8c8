//! End-to-end: every stencil × variant combination runs on the simulator
//! and produces bit-exact results against the golden model.

use sc_core::CoreConfig;
use sc_kernels::{Grid3, KernelRun, Stencil, StencilKernel, Variant};

fn run(stencil: Stencil, grid: Grid3, variant: Variant) -> KernelRun {
    let gen = StencilKernel::new(stencil, grid, variant).expect("valid combination");
    let kernel = gen.build();
    kernel
        .run(CoreConfig::new(), 20_000_000)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

#[test]
fn box3d1r_all_variants_verify() {
    let grid = Grid3::new(8, 3, 2);
    for v in Variant::ALL {
        let run = run(Stencil::box3d1r(), grid, v);
        assert!(run.summary.cycles > 0, "{v} ran");
    }
}

#[test]
fn j3d27pt_all_variants_verify() {
    let grid = Grid3::new(8, 2, 2);
    for v in Variant::ALL {
        let _ = run(Stencil::j3d27pt(), grid, v);
    }
}

#[test]
fn box2d1r_all_variants_verify() {
    let grid = Grid3::new(8, 4, 1);
    for v in Variant::ALL {
        let _ = run(Stencil::box2d1r(), grid, v);
    }
}

#[test]
fn chaining_plus_reaches_papers_utilization() {
    // The paper's headline: >93 % FPU utilisation with chaining.
    let grid = Grid3::new(16, 6, 4);
    let run = run(Stencil::box3d1r(), grid, Variant::ChainingPlus);
    let util = run.measured().fpu_utilization();
    assert!(
        util > 0.93,
        "Chaining+ utilisation {util:.3}, paper reports >93 %"
    );
}

#[test]
fn utilization_ordering_matches_figure_three() {
    // Fig. 3 (left): Base-- ≤ Base- ≤ Base ≤ Chaining ≤ Chaining+ in FPU
    // utilisation (allowing small noise between adjacent baselines), and
    // Chaining+ beats Base in cycles — also on the reduced 8x4x2 tile.
    for grid in [Grid3::new(16, 6, 4), Grid3::new(8, 4, 2)] {
        let runs: Vec<(Variant, f64, u64)> = Variant::ALL
            .iter()
            .map(|&v| {
                let run = run(Stencil::box3d1r(), grid, v);
                let m = run.measured();
                (v, m.fpu_utilization(), m.cycles)
            })
            .collect();
        let get = |v: Variant| runs.iter().find(|(x, _, _)| *x == v).unwrap();
        let util = |v: Variant| get(v).1;
        let (bmm, bm, base) = (
            util(Variant::BaseMinusMinus),
            util(Variant::BaseMinus),
            util(Variant::Base),
        );
        let (ch, chp) = (util(Variant::Chaining), util(Variant::ChainingPlus));
        assert!(
            bmm < bm + 0.01,
            "{grid:?}: Base-- {bmm:.3} vs Base- {bm:.3}"
        );
        assert!(
            bm < base + 0.01,
            "{grid:?}: Base- {bm:.3} vs Base {base:.3}"
        );
        assert!(
            base < chp,
            "{grid:?}: Base {base:.3} must trail Chaining+ {chp:.3}"
        );
        assert!(
            ch <= chp + 0.01,
            "{grid:?}: Chaining {ch:.3} vs Chaining+ {chp:.3}"
        );
        assert!(chp > 0.9, "{grid:?}: Chaining+ {chp:.3}");
        let (base_cycles, chp_cycles) = (get(Variant::Base).2, get(Variant::ChainingPlus).2);
        assert!(
            chp_cycles < base_cycles,
            "{grid:?}: Chaining+ {chp_cycles} vs Base {base_cycles} cycles"
        );
    }
}

#[test]
fn chained_variants_save_memory_traffic() {
    // The paper's energy argument: Chaining removes the repeated
    // coefficient reads from L1 that Base pays for.
    let grid = Grid3::new(8, 4, 2);
    let base = run(Stencil::box3d1r(), grid, Variant::Base);
    let chained = run(Stencil::box3d1r(), grid, Variant::Chaining);
    let base_reads = base.measured().tcdm_accesses;
    let chained_reads = chained.measured().tcdm_accesses;
    assert!(
        (chained_reads as f64) < 0.65 * base_reads as f64,
        "chained TCDM traffic {chained_reads} should be far below base {base_reads}"
    );
}

#[test]
fn chaining_on_extensionless_core_fails() {
    let gen =
        StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), Variant::Chaining).unwrap();
    let err = gen
        .build()
        .run(CoreConfig::new().with_chaining(false), 1_000_000);
    assert!(
        err.is_err(),
        "chained kernel must fail without the extension"
    );
}

#[test]
fn baselines_run_without_chaining_hardware() {
    for v in [Variant::BaseMinusMinus, Variant::BaseMinus, Variant::Base] {
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), v).unwrap();
        gen.build()
            .run(CoreConfig::new().with_chaining(false), 10_000_000)
            .unwrap_or_else(|e| panic!("{v}: {e}"));
    }
}
