//! Regenerates the paper's Fig. 1: issue-slot traces of the vector
//! operation `a = b * (c + d)` in its baseline, unrolled and chained
//! forms, plus the per-variant utilisation/register trade-off.
//!
//! Run with `cargo run --release -p sc-bench -- fig1_trace`.

use std::process::ExitCode;

use sc_core::CoreConfig;
use sc_kernels::{VecOpKernel, VecOpVariant};

pub fn run(_args: &[String]) -> ExitCode {
    let n = 32;
    println!("=== Fig. 1 — a[i] = b * (c[i] + d[i]), n = {n} ===\n");
    for variant in VecOpVariant::ALL {
        let kernel = VecOpKernel::new(n, variant).build();
        let cfg = CoreConfig::new().with_trace(true);
        let run = kernel
            .run(cfg, 1_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        let m = run.measured();
        println!(
            "--- {} — {} cycles, FPU utilisation {:.1} %, {} extra FP registers ---",
            kernel.name(),
            m.cycles,
            m.fpu_utilization() * 100.0,
            variant.extra_registers(),
        );
        // Show a steady-state window (skip the prologue).
        let from = run.summary.trace.cycles().first().map_or(0, |c| c.cycle);
        let window = run.summary.trace.window(from + 30, from + 55);
        println!("{}", window.render());
    }
    println!("Reading the traces:");
    println!("  baseline : every fmul waits out the 3-stage FPU latency (stall (raw))");
    println!("  unrolled4: full slots, but ft3..ft6 burn four architectural registers");
    println!("  chained  : full slots with ONE register — ft3 has FIFO semantics,");
    println!("             in-flight results live in the FPU pipeline registers");
    ExitCode::SUCCESS
}
