//! Ablation: sensitivity of the Fig. 3 result to TCDM bank count.
//!
//! The `Base` variant keeps two read streams alive (inputs + coefficients)
//! while the chained variants need only one; fewer banks raise conflict
//! pressure and widen the gap — relevant for area-constrained clusters.
//!
//! Run with `cargo run --release -p sc-bench -- ablation_banks`.

use std::process::ExitCode;

use sc_bench::{parallel_sweep, Json};
use sc_core::CoreConfig;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant};
use sc_mem::TcdmConfig;

struct Row {
    banks: u32,
    base_util: f64,
    chained_util: f64,
    base_conflicts: u64,
}

fn run_row(banks: u32, grid: Grid3) -> Row {
    let cfg = CoreConfig::new().with_tcdm(TcdmConfig::new().with_banks(banks));
    let measure = |variant| {
        let kernel = StencilKernel::new(Stencil::box3d1r(), grid, variant)
            .expect("valid")
            .build();
        let run = kernel
            .run(cfg, 100_000_000)
            .unwrap_or_else(|e| panic!("{banks} banks, {}: {e}", kernel.name()));
        *run.measured()
    };
    let (base, chained) = (measure(Variant::Base), measure(Variant::ChainingPlus));
    Row {
        banks,
        base_util: base.fpu_utilization(),
        chained_util: chained.fpu_utilization(),
        base_conflicts: base.tcdm_conflicts,
    }
}

pub fn run(_args: &[String]) -> ExitCode {
    let grid = Grid3::new(16, 6, 4);
    println!("=== FPU utilisation vs TCDM bank count (box3d1r) ===\n");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>16}",
        "banks", "Base", "Chaining+", "gap [pp]", "Base conflicts"
    );
    let (rows, wall) = parallel_sweep(vec![4u32, 8, 16, 32], |banks| run_row(banks, grid));
    for row in &rows {
        println!(
            "{:>6} {:>9.1}% {:>9.1}% {:>12.1} {:>16}",
            row.banks,
            row.base_util * 100.0,
            row.chained_util * 100.0,
            (row.chained_util - row.base_util) * 100.0,
            row.base_conflicts
        );
    }
    println!("\n{} config points in {wall:.2?} wall", rows.len());

    let report = Json::obj()
        .set("sweep", "ablation_banks")
        .set("stencil", "box3d1r")
        .set("wall_seconds", wall.as_secs_f64());
    super::emit_with_array(
        report,
        "points",
        rows.iter().map(|r| {
            Json::obj()
                .set("banks", r.banks)
                .set("base_utilization", r.base_util)
                .set("chaining_plus_utilization", r.chained_util)
                .set("base_conflicts", r.base_conflicts)
        }),
    );

    println!();
    println!("Chaining+ runs a single input stream; Base adds the coefficient");
    println!("stream whose repeated reads collide with it — the fewer the banks,");
    println!("the larger the utilisation gap.");
    ExitCode::SUCCESS
}
