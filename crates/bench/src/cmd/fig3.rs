//! Regenerates the paper's Fig. 3 — FPU utilisation (left) and power
//! consumption (right) for Base--, Base-, Base, Chaining and Chaining+ on
//! the box3d1r and j3d27pt stencils — plus the §III headline geomeans.
//!
//! Run with `cargo run --release -p sc-bench -- fig3`.
//! Pass `--csv` to print machine-readable output instead.

use std::process::ExitCode;

use sc_bench::{fig3_csv, headline, render_fig3, render_headline, Fig3Experiment};
use sc_energy::EnergyModel;

pub fn run(args: &[String]) -> ExitCode {
    let csv = args.iter().any(|a| a == "--csv");
    let experiment = Fig3Experiment::new();
    let model = EnergyModel::new();
    let results = experiment
        .run(&model)
        .unwrap_or_else(|e| panic!("fig3 sweep failed: {e}"));
    if csv {
        print!("{}", fig3_csv(&results));
        return ExitCode::SUCCESS;
    }
    println!("=== Fig. 3 — per-stencil interior tiles, 1 GHz, default energy model ===\n");
    print!("{}", render_fig3(&results));
    println!();
    print!("{}", render_headline(&headline(&results)));
    println!();
    println!("Notes: absolute levels are properties of this model, not the paper's");
    println!("RTL+PrimeTime flow; the reproduced quantities are the variant ordering,");
    println!("the >93 % chained utilisation, and the geomean speedup/efficiency gains.");
    ExitCode::SUCCESS
}
