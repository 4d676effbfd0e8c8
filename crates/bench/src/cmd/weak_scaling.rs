//! Weak-scaling sweep: the grid grows with the cluster count.
//!
//! Where `system_scaling` holds the problem fixed (strong scaling), this
//! sweep gives every cluster the same per-cluster z-slab — 1/2/4
//! clusters on 8/16/32 planes — so ideal scaling is *constant* cycles
//! and the reported *efficiency* `cycles(1 cluster) / cycles(m)` is 1.0
//! when nothing shared saturates. Three memory regimes:
//!
//! * **unbounded** — per-cluster TCDMs hold everything, no shared level:
//!   the compute-only reference, efficiency ≈ 1;
//! * **tiled, 1 refill channel** — the PR 3 memory wall: every cluster's
//!   compulsory misses serialise on one L2↔Dram channel, so efficiency
//!   falls as clusters are added;
//! * **tiled, 4 refill channels** — the finite L2's multi-channel
//!   refill: miss traffic parallelises across channels and the
//!   efficiency the single channel lost comes back.
//!
//! The config points are `Sweep::WeakScaling` in `sc_bench::registry`.
//! The validator asserts the shared L2's cache accounting on every
//! tiled point, that every efficiency lies in (0, 1.1] and that the
//! multi-channel tiled regime meets an efficiency **floor** at the
//! widest point. The perf gate pins the `efficiency_*` ratios.
//!
//! Run with `cargo run --release -p sc-bench -- weak_scaling`.

use std::process::ExitCode;

use sc_bench::registry::{PointRun, Sweep};
use sc_bench::{json, parallel_sweep, Json};
use sc_kernels::TCDM_CAP_BYTES;

/// The asserted weak-scaling efficiency floor for the tiled multi-channel
/// regime at the widest cluster count.
const EFFICIENCY_FLOOR: f64 = 0.5;

/// `unbounded`, or `tiled_ch<n>` for `n` refill channels.
fn regime(p: &PointRun) -> String {
    if p.spec.tiled {
        format!("tiled_ch{}", p.spec.l2.cache.channels)
    } else {
        "unbounded".into()
    }
}

/// Weak-scaling efficiency of `p` against the 1-cluster run of the same
/// regime/variant: 1.0 = perfect (constant cycles as the grid grows).
fn efficiency(points: &[PointRun], p: &PointRun) -> f64 {
    let base = points
        .iter()
        .find(|q| {
            q.spec.clusters == 1 && q.spec.chaining == p.spec.chaining && regime(q) == regime(p)
        })
        .expect("1-cluster reference point");
    base.system().cycles as f64 / p.system().cycles as f64
}

fn validate(points: &[PointRun]) {
    for p in points {
        p.check_l2_accounting().unwrap_or_else(|e| panic!("{e}"));
        let eff = efficiency(points, p);
        assert!(
            0.0 < eff && eff <= 1.1,
            "{}: weak-scaling efficiency {eff:.3} outside (0, 1.1]",
            p.spec.id
        );
    }
    // The acceptance floor: with parallel refill channels, the widest
    // tiled point keeps at least EFFICIENCY_FLOOR of the 1-cluster
    // throughput per cluster.
    let widest = points.iter().map(|p| p.spec.clusters).max();
    let best = points
        .iter()
        .filter(|p| Some(p.spec.clusters) == widest && p.spec.tiled && p.spec.l2.cache.channels > 1)
        .map(|p| efficiency(points, p))
        .fold(0.0f64, f64::max);
    assert!(
        best > EFFICIENCY_FLOOR,
        "multi-channel tiled weak scaling peaked at {best:.2} — below the {EFFICIENCY_FLOOR} floor"
    );
}

fn point_json(points: &[PointRun], p: &PointRun) -> Json {
    let s = p.system();
    let j = Json::obj()
        .set("id", p.spec.id.as_str())
        .set("clusters", p.spec.clusters)
        .set("cores", p.spec.cores)
        .set("chaining", p.spec.chaining)
        .set("regime", regime(p))
        .set("cycles_to_last_core_done", s.cycles)
        .set("efficiency", efficiency(points, p))
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        .set("flops", s.aggregate.flops)
        .set("system_utilization", s.system_utilization())
        .set("attribution", json::system_attribution_json(s));
    json::with_l2_json(j, s)
}

pub fn run(_args: &[String]) -> ExitCode {
    let specs = Sweep::WeakScaling.points();
    let planes_per_cluster = specs[0].grid.nz / specs[0].clusters;
    let cores = specs[0].cores;
    println!(
        "=== Weak scaling — box3d1r 16x16x{planes_per_cluster}z per cluster, {cores} cores each ===",
    );
    println!("=== 1/2/4 clusters, unbounded vs 128K tiled with 1 or 4 refill channels ===\n");

    let (results, wall) = parallel_sweep(specs, |s| s.run());
    validate(&results);

    println!(
        "{:>9} {:>10} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "clusters", "variant", "regime", "cycles", "efficiency", "refills", "mw"
    );
    for p in &results {
        let s = p.system();
        println!(
            "{:>9} {:>10} {:>11} {:>11} {:>10.1}% {:>9} {:>9.1}",
            p.spec.clusters,
            if p.spec.chaining { "Chaining+" } else { "Base" },
            regime(p),
            s.cycles,
            efficiency(&results, p) * 100.0,
            s.l2.as_ref().map_or(0, |l2| l2.refills()),
            p.system_energy().power_mw,
        );
    }
    println!("\n{} config points in {wall:.2?} wall", results.len());

    let mut report = Json::obj()
        .set("sweep", Sweep::WeakScaling.name())
        .set("stencil", "box3d1r")
        .set("planes_per_cluster", planes_per_cluster)
        .set("cores_per_cluster", cores)
        .set("tcdm_cap_bytes", u64::from(TCDM_CAP_BYTES))
        .set("wall_seconds", wall.as_secs_f64());
    // Per-config weak-scaling efficiencies at the multi-cluster points —
    // pinned by the perf gate (efficiency_* keys).
    for p in &results {
        if p.spec.clusters > 1 {
            let key = format!(
                "efficiency_m{}_{}_{}",
                p.spec.clusters,
                regime(p),
                if p.spec.chaining { "chaining" } else { "base" }
            );
            report = report.set(&key, efficiency(&results, p));
        }
    }
    let points = results.iter().map(|p| point_json(&results, p));
    super::emit_with_array(report, "points", points);

    println!();
    println!("Perfect weak scaling is flat cycles: each cluster brings its own");
    println!("cores, TCDM and DMA engine, so the only thing that can bend the");
    println!("curve is the shared L2 — and the single refill channel does,");
    println!("until parallel channels (or warm lines) restore the efficiency.");
    ExitCode::SUCCESS
}
