//! Host simulation throughput: dense vs event-driven clock advancement.
//!
//! The event scheduler's whole point is *host* wall-clock, not model
//! cycles — by construction the two modes retire identical cycle counts
//! and statistics (pinned by `sched_identity` and the kernel proptests).
//! This bench measures what the skip machinery buys on an **idle-heavy**
//! workload: the weak-scaling tiled stencil point (box3d1r, 16×16×8
//! planes, 4 cores) with
//!
//! * **parked completion waits** (every tiled kernel's: a waiting hart
//!   retires nothing, so the wait is a skippable window rather than a
//!   busy poll loop), and
//! * a **slow background memory** (32768-cycle transfer latency through a
//!   pass-through L2) — the regime where the DMA engine spends most of
//!   the run counting down latency while every hart sleeps on a barrier
//!   or a parked wait.
//!
//! The dense simulator must step every one of those cycles (a parked
//! hart's cycle is closed-form in both modes, but the cluster, engine
//! and L2 still step); the event simulator fast-forwards them. The
//! bench asserts the two runs agree on cycles and flops, demands at
//! least a [`MIN_SPEEDUP`]× wall-clock win for the event run, and
//! records simulated-cycles-per-second for both modes in
//! `BENCH_host_speed.json`.
//!
//! After a warm-up run, the modes are timed [`TIMED_RUNS`] times each,
//! alternating, and every figure (the `*_wall_seconds` keys included) is
//! each mode's median run: single runs of 13–75 ms swung the ratio
//! 2.6–6.5× on identical code.
//!
//! Run with `cargo run --release -p sc-bench -- host_speed`.

use std::process::ExitCode;
use std::time::Instant;

use sc_bench::{json, Json};
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, Stencil, StencilKernel, TiledSystemKernel, Variant};
use sc_mem::{DramConfig, L2Config};

const CORES: u32 = 4;
const GRID: (u32, u32, u32) = (16, 16, 8);
/// The TCDM cap that forces a multi-tile pipeline on this grid.
const TCDM_CAP: u32 = 24 << 10;
/// Per-transfer latency the DMA engine pays (the idle windows).
const ENGINE_LATENCY: u32 = 32768;
const MAX_CYCLES: u64 = 500_000_000;

/// The asserted wall-clock floor: the event run must simulate the same
/// cycles at least this many times faster than the dense run. Dense
/// stepping also advances parked harts in closed form, so the event
/// run's edge is the global fast-forward alone: the median ratio read
/// 3.4–4.0× over ten runs on a 2-vCPU host.
const MIN_SPEEDUP: f64 = 3.0;

/// Timed runs of each mode; every figure is the median run's.
const TIMED_RUNS: usize = 5;

fn kernel() -> TiledSystemKernel {
    let (nx, ny, nz) = GRID;
    StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(nx, ny, nz),
        Variant::ChainingPlus,
    )
    .expect("valid combination")
    .build_system_tiled(1, CORES, TCDM_CAP)
    .expect("grid tiles within the cap")
}

struct Run {
    cycles: u64,
    flops: u64,
    wall_seconds: f64,
}

impl Run {
    fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds
    }
}

/// The run of median wall time.
fn median(mut runs: Vec<Run>) -> Run {
    runs.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    runs.swap_remove(runs.len() / 2)
}

fn timed(mode: SchedMode) -> Run {
    let tk = kernel();
    let l2 = L2Config::passthrough(DramConfig::new().with_latency(ENGINE_LATENCY));
    let start = Instant::now();
    let run = tk
        .run_scheduled(CoreConfig::new(), l2, DramConfig::new(), MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{}: {e}", tk.name()));
    let wall_seconds = start.elapsed().as_secs_f64();
    Run {
        cycles: run.summary.cycles,
        flops: run.summary.aggregate.flops,
        wall_seconds,
    }
}

pub fn run(_args: &[String]) -> ExitCode {
    let (nx, ny, nz) = GRID;
    println!("=== host speed — box3d1r {nx}x{ny}x{nz}, {CORES} cores, parked DMA waits ===");
    println!(
        "=== {ENGINE_LATENCY}-cycle transfer latency: the idle-heavy regime the event \
         scheduler targets ===\n"
    );

    // Warm-up run so no timed run pays first-touch costs.
    let _ = timed(SchedMode::Dense);
    let (dense, event): (Vec<Run>, Vec<Run>) = (0..TIMED_RUNS)
        .map(|_| (timed(SchedMode::Dense), timed(SchedMode::Event)))
        .unzip();
    let (dense, event) = (median(dense), median(event));

    assert_eq!(
        dense.cycles, event.cycles,
        "event mode must retire the identical cycle count"
    );
    assert_eq!(
        dense.flops, event.flops,
        "event mode must perform the identical work"
    );

    let speedup = dense.wall_seconds / event.wall_seconds;
    println!(
        "{:>8} {:>12} {:>12} {:>16}",
        "mode", "cycles", "wall", "sim cycles/s"
    );
    for (label, r) in [("dense", &dense), ("event", &event)] {
        println!(
            "{:>8} {:>12} {:>11.4}s {:>16.0}",
            label,
            r.cycles,
            r.wall_seconds,
            r.cycles_per_second()
        );
    }
    println!("\nevent-mode host speedup: {speedup:.1}x");
    assert!(
        speedup >= MIN_SPEEDUP,
        "event scheduler speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor"
    );

    let report = Json::obj()
        .set("bench", "host_speed")
        .set("stencil", "box3d1r")
        .set("cores", CORES)
        .set("engine_latency", ENGINE_LATENCY)
        .set("wait_style", "park")
        .set("cycles", dense.cycles)
        .set("dense_wall_seconds", dense.wall_seconds)
        .set("event_wall_seconds", event.wall_seconds)
        .set("dense_cycles_per_second", dense.cycles_per_second())
        .set("event_cycles_per_second", event.cycles_per_second())
        .set("event_speedup", speedup)
        .set("min_speedup_floor", MIN_SPEEDUP);
    json::emit_report(&report);
    ExitCode::SUCCESS
}
