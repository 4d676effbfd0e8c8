//! Ablation for the register-pressure argument of §I: how many
//! architectural registers does software pipelining need to hide the FPU
//! latency, and what does chaining deliver with one?
//!
//! Run with `cargo run --release -p sc-bench -- ablation_registers`.

use std::process::ExitCode;

use sc_bench::{parallel_sweep, Json};
use sc_core::CoreConfig;
use sc_kernels::{VecOpKernel, VecOpVariant};

struct Row {
    label: String,
    regs: u32,
    util: f64,
}

pub fn run(_args: &[String]) -> ExitCode {
    let n = 840;
    println!("=== Register pressure vs FPU utilisation (vecop, 3-stage FPU) ===\n");
    println!("{:>22} {:>10} {:>12}", "schedule", "FP regs", "fpu util");

    // Config points: unrolled ×1..×8, then the chained schedule.
    let points: Vec<Option<u32>> = [1u32, 2, 3, 4, 6, 8]
        .iter()
        .map(|u| Some(*u))
        .chain([None])
        .collect();
    let (rows, wall) = parallel_sweep(points, |point| {
        let (variant, unroll, label, regs) = match point {
            Some(unroll) => (
                VecOpVariant::Unrolled,
                unroll,
                format!("unrolled ×{unroll}"),
                unroll,
            ),
            None => (VecOpVariant::Chained, 4, "chained (paper)".to_owned(), 1),
        };
        let run = VecOpKernel::with_unroll(n, variant, unroll)
            .build()
            .run(CoreConfig::new(), 10_000_000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let util = run.measured().fpu_utilization();
        Row { label, regs, util }
    });
    for row in &rows {
        println!(
            "{:>22} {:>10} {:>11.1}%",
            row.label,
            row.regs,
            row.util * 100.0
        );
    }
    println!("\n{} config points in {wall:.2?} wall", rows.len());

    let report = Json::obj()
        .set("sweep", "ablation_registers")
        .set("kernel", "vecop")
        .set("n", u64::from(n))
        .set("wall_seconds", wall.as_secs_f64());
    super::emit_with_array(
        report,
        "points",
        rows.iter().map(|r| {
            Json::obj()
                .set("schedule", r.label.as_str())
                .set("fp_registers", r.regs)
                .set("fpu_utilization", r.util)
        }),
    );

    println!();
    println!("Unrolling needs `depth + 1 = 4` live temporaries to hide the 3-stage");
    println!("FPU; chaining reaches the same utilisation with a single register,");
    println!("leaving the rest of the file for e.g. stencil coefficients (Fig. 3).");
    ExitCode::SUCCESS
}
