//! Cluster scaling sweep: the paper's chaining extension at cluster
//! level, with and without the real memory system.
//!
//! Runs the `box3d1r` stencil tiled over 1/2/4/8 cores sharing one
//! banked TCDM, with chaining on (`Chaining+`) and off (`Base`), in two
//! memory regimes:
//!
//! * **unbounded** — the legacy capacity cheat: the whole problem
//!   resident in a scaled-up TCDM, no data movement modelled;
//! * **tiled** — the TCDM capped at the real cluster's 128 KiB, the
//!   problem staged in background memory, and a DMA engine
//!   double-buffering z-slab tiles through ping-pong buffers while the
//!   cores compute.
//!
//! Both regimes verify bit-exactly against the same golden model, so
//! their results are numerically identical by construction; the sweep
//! asserts this by running every config to verified completion. The
//! tiled rows additionally report DMA traffic and the compute–transfer
//! overlap fraction — how much of the engine's busy time was hidden
//! behind compute.
//!
//! The config points are `Sweep::ClusterScaling` in `sc_bench::registry`.
//!
//! Run with `cargo run --release -p sc-bench -- cluster_scaling`.

use std::process::ExitCode;

use sc_bench::registry::{PointRun, Sweep};
use sc_bench::{json, parallel_sweep, Json};
use sc_cluster::DmaSummary;
use sc_energy::{ClusterEnergyReport, EnergyModel};
use sc_kernels::TCDM_CAP_BYTES;

fn energy(p: &PointRun) -> ClusterEnergyReport {
    let s = p.cluster();
    let per_core: Vec<_> = s.per_core.iter().map(|c| c.counters).collect();
    let dma_beats = s.dma.map_or(0, |d| d.stats.beats);
    EnergyModel::new().cluster_report_with_dma(&per_core, s.cycles, dma_beats)
}

fn busiest_banks(by_bank: &[u64]) -> String {
    let mut ranked: Vec<(usize, u64)> = by_bank
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .collect();
    ranked.sort_by_key(|(bank, conflicts)| (std::cmp::Reverse(*conflicts), *bank));
    if ranked.is_empty() {
        return "none".to_owned();
    }
    ranked
        .iter()
        .take(3)
        .map(|(bank, conflicts)| format!("b{bank}:{conflicts}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn dma_json(dma: &DmaSummary) -> Json {
    Json::obj()
        .set("beats", dma.stats.beats)
        .set("bytes_to_tcdm", dma.stats.bytes_to_tcdm)
        .set("bytes_from_tcdm", dma.stats.bytes_from_tcdm)
        .set("transfers", dma.stats.transfers_completed)
        .set("tcdm_conflicts", dma.stats.tcdm_conflicts)
        .set("dram_wait_cycles", dma.stats.dram_wait_cycles)
        .set("busy_cycles", dma.busy_cycles)
        .set("overlap_cycles", dma.overlap_cycles)
        .set(
            "exposed_cycles",
            dma.transfer_attribution().exposed_cycles(),
        )
        .set("overlap_fraction", dma.overlap_fraction())
        .set("port", u64::from(dma.port))
}

fn point_json(p: &PointRun) -> Json {
    let s = p.cluster();
    let energy = energy(p);
    let mut j = Json::obj()
        .set("id", p.spec.id.as_str())
        .set("kernel", p.kernel.as_str())
        .set("cores", p.spec.cores)
        .set("chaining", p.spec.chaining)
        .set("tiled", p.spec.tiled)
        // The whole grid is one tile on the unbounded points.
        .set("tiles", p.tiles.unwrap_or(1))
        .set("cycles_to_last_core_done", s.cycles)
        .set("barriers", s.barriers)
        .set("cluster_utilization", s.cluster_utilization())
        .set("flops", s.aggregate.flops)
        .set("flops_per_cycle", s.flops_per_cycle())
        .set("tcdm_accesses", s.aggregate.tcdm_accesses)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        .set(
            "core_cycles",
            s.per_core.iter().map(|c| c.cycles).collect::<Vec<_>>(),
        )
        .set("core_done_at", s.core_done_at.clone())
        .set("core_conflicts", s.core_conflicts.clone())
        .set("core_accesses", s.core_accesses.clone())
        .set("conflicts_by_bank", s.conflicts_by_bank.clone())
        .set("power_mw", energy.power_mw)
        .set("gflops", energy.gflops)
        .set("gflops_per_w", energy.gflops_per_w)
        .set("dma_pj", energy.dma_pj)
        .set(
            "attribution",
            json::attribution_json(&s.attribution, s.per_core.len() as u64, s.cycles),
        );
    if let Some(dma) = &s.dma {
        j = j.set("dma", dma_json(dma));
    }
    j
}

pub fn run(_args: &[String]) -> ExitCode {
    let specs = Sweep::ClusterScaling.points();
    let grid = specs[0].grid;
    println!(
        "=== Cluster scaling — box3d1r {}x{}x{}, shared 32-bank TCDM ===",
        grid.nx, grid.ny, grid.nz
    );
    println!("=== unbounded TCDM vs true 128 KiB + DMA double-buffering ===\n");

    let (results, wall) = parallel_sweep(specs, |s| s.run());

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>9} {:>8} {:>11} {:>9} {:>8}  hot banks",
        "cores", "variant", "memory", "cycles", "speedup", "util", "conflicts", "overlap", "power"
    );
    let cycles = |cores: u32, chaining: bool, tiled: bool| {
        results
            .iter()
            .find(|p| p.spec.cores == cores && p.spec.chaining == chaining && p.spec.tiled == tiled)
            .map_or(0, |p| p.cluster().cycles)
    };
    for p in &results {
        let s = p.cluster();
        let speedup = cycles(1, p.spec.chaining, p.spec.tiled) as f64 / s.cycles as f64;
        let overlap = s.dma.as_ref().map_or("-".to_owned(), |d| {
            format!("{:.0}%", d.overlap_fraction() * 100.0)
        });
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>8.2}x {:>7.1}% {:>11} {:>9} {:>6.1}mW  {}",
            p.spec.cores,
            if p.spec.chaining { "Chaining+" } else { "Base" },
            if p.spec.tiled {
                "128K+DMA"
            } else {
                "unbounded"
            },
            s.cycles,
            speedup,
            s.cluster_utilization() * 100.0,
            s.aggregate.tcdm_conflicts,
            overlap,
            energy(p).power_mw,
            busiest_banks(&s.conflicts_by_bank),
        );
    }

    println!("\nper-core breakdown (cycles | conflicts):");
    for p in &results {
        let s = p.cluster();
        let cores: Vec<String> = s
            .per_core
            .iter()
            .zip(&s.core_conflicts)
            .map(|(c, conflicts)| format!("{}|{}", c.cycles, conflicts))
            .collect();
        println!("  {:<32} {}", p.kernel, cores.join("  "));
    }

    println!("\n{} config points in {wall:.2?} wall", results.len());

    let mut report = super::sweep_report(Sweep::ClusterScaling, grid)
        .set("tcdm_cap_bytes", u64::from(TCDM_CAP_BYTES))
        // Both regimes verified bit-exactly against the same golden
        // model inside their run() paths, so this flag records that the
        // 128 KiB runs are numerically identical to the unbounded ones.
        .set("tiled_matches_unbounded", true)
        .set("wall_seconds", wall.as_secs_f64());
    // Chaining speedup per config (cores × memory regime) — gated in CI.
    for cores in super::distinct(results.iter().map(|p| p.spec.cores)) {
        for tiled in [false, true] {
            let (base, chain) = (cycles(cores, false, tiled), cycles(cores, true, tiled));
            if base > 0 && chain > 0 {
                let key = format!(
                    "speedup_c{cores}_{}",
                    if tiled { "tiled" } else { "unbounded" }
                );
                report = report.set(&key, base as f64 / chain as f64);
            }
        }
    }
    super::emit_with_array(report, "points", results.iter().map(point_json));

    println!();
    println!("Chaining+ scales further than Base: the freed coefficient stream");
    println!("removes one TCDM requester per core, so inter-core bank pressure");
    println!("grows more slowly with the core count. Under the true 128 KiB");
    println!("TCDM the DMA engine double-buffers z-slab tiles; the overlap");
    println!("column shows how much transfer time compute hides.");
    ExitCode::SUCCESS
}
