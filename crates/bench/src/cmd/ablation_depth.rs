//! Ablation for the paper's §II claim that "chaining benefits are
//! increased for functional units with deeper pipelines".
//!
//! For each FPU ADDMUL depth *d* we compare, on the vecop kernel:
//!
//! * the RAW-stalled baseline (decays as `2 / (2 + d)`),
//! * unrolling fixed at 4 registers — the register-pressure-limited case:
//!   it covers the latency only up to `d = 3`,
//! * unrolling matched to the depth (`d + 1` registers) — what software
//!   would need *without* chaining,
//! * chaining with a matched software pipeline — same schedule, but all
//!   partial results rotate through ONE architectural register.
//!
//! Run with `cargo run --release -p sc-bench -- ablation_depth`.

use std::process::ExitCode;

use sc_bench::{parallel_sweep, Json};
use sc_core::CoreConfig;
use sc_fpu::FpuTiming;
use sc_kernels::{VecOpKernel, VecOpVariant};

fn util(cfg: CoreConfig, n: u32, variant: VecOpVariant, unroll: u32) -> f64 {
    let kernel = VecOpKernel::with_unroll(n, variant, unroll).build();
    let run = kernel
        .run(cfg, 10_000_000)
        .unwrap_or_else(|e| panic!("{} unroll {unroll}: {e}", kernel.name()));
    run.measured().fpu_utilization()
}

struct Row {
    depth: u32,
    baseline: f64,
    fixed4: f64,
    matched: f64,
    chained: f64,
}

fn run_row(depth: u32, n: u32) -> Row {
    let cfg = CoreConfig::new().with_fpu(FpuTiming::new().with_addmul_latency(depth));
    Row {
        depth,
        baseline: util(cfg, n, VecOpVariant::Baseline, 1),
        fixed4: util(cfg, n, VecOpVariant::Unrolled, 4),
        matched: util(cfg, n, VecOpVariant::Unrolled, depth + 1),
        chained: util(cfg, n, VecOpVariant::Chained, depth + 1),
    }
}

pub fn run(_args: &[String]) -> ExitCode {
    println!("=== Chaining benefit vs FPU pipeline depth (vecop, n = 840) ===\n");
    println!(
        "{:>6} | {:>10} {:>12} {:>14} {:>12} | {:>14}",
        "depth", "baseline", "unroll=4", "unroll=d+1", "chained", "regs saved"
    );
    // n divisible by every unroll in use (lcm of 1..=8 factors: 840).
    let n = 840;
    let (rows, wall) = parallel_sweep(vec![1u32, 2, 3, 4, 5, 6, 7], |depth| run_row(depth, n));
    for row in &rows {
        println!(
            "{:>6} | {:>9.1}% {:>11.1}% {:>13.1}% {:>11.1}% | {:>14}",
            row.depth,
            row.baseline * 100.0,
            row.fixed4 * 100.0,
            row.matched * 100.0,
            row.chained * 100.0,
            row.depth, // matched unroll needs d+1 regs, chaining needs 1
        );
    }
    println!("\n{} config points in {wall:.2?} wall", rows.len());

    let report = Json::obj()
        .set("sweep", "ablation_depth")
        .set("kernel", "vecop")
        .set("n", u64::from(n))
        .set("wall_seconds", wall.as_secs_f64());
    super::emit_with_array(
        report,
        "points",
        rows.iter().map(|r| {
            Json::obj()
                .set("depth", r.depth)
                .set("baseline_utilization", r.baseline)
                .set("unroll4_utilization", r.fixed4)
                .set("matched_unroll_utilization", r.matched)
                .set("chained_utilization", r.chained)
                .set("registers_saved", r.depth)
        }),
    );

    println!();
    println!("`regs saved` = architectural registers the chained version frees at");
    println!("each depth (matched unroll needs d+1 temporaries, chaining needs 1).");
    println!("Deeper pipelines widen the register gap — the paper's §II claim.");
    ExitCode::SUCCESS
}
