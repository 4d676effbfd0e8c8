//! Ablation: sensitivity of the Fig. 3 result to TCDM bank count.
//!
//! The `Base` variant keeps two read streams alive (inputs + coefficients)
//! while the chained variants need only one; fewer banks raise conflict
//! pressure and widen the gap — relevant for area-constrained clusters.
//!
//! Config points run in parallel on host threads; results are also
//! serialized to `target/reports/ablation_banks.json`.
//!
//! Run with `cargo run --release -p sc-bench --bin ablation_banks`.

use sc_bench::{json, parallel_sweep, Json};
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
    let mut utils = Vec::new();
    let mut base_conflicts = 0;
    for variant in [Variant::Base, Variant::ChainingPlus] {
        let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).expect("valid");
        let kernel = gen.build();
        let run = kernel
            .run(cfg, 100_000_000)
            .unwrap_or_else(|e| panic!("{banks} banks, {}: {e}", kernel.name()));
        if variant == Variant::Base {
            base_conflicts = run.measured().tcdm_conflicts;
        }
        utils.push(run.measured().fpu_utilization());
    }
    Row {
        banks,
        base_util: utils[0],
        chained_util: utils[1],
        base_conflicts,
    }
}

fn main() {
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
        .set("wall_seconds", wall.as_secs_f64())
        .set(
            "points",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .set("banks", r.banks)
                            .set("base_utilization", r.base_util)
                            .set("chaining_plus_utilization", r.chained_util)
                            .set("base_conflicts", r.base_conflicts)
                    })
                    .collect(),
            ),
        );
    json::emit_report(&report);

    println!();
    println!("Chaining+ runs a single input stream; Base adds the coefficient");
    println!("stream whose repeated reads collide with it — the fewer the banks,");
    println!("the larger the utilisation gap.");
}
