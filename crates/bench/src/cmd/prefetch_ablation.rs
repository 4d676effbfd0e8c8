//! Descriptor-driven L2 prefetch ablation: degree × distance × refill
//! channels × chaining, over- and under-fit capacities, 1 and 2
//! clusters, on the tiled stencil.
//!
//! The point of the sweep is the **latency-serialisation regime** the
//! ROADMAP's open item named: at one refill channel, every cold tile
//! line costs a full `refill_latency + line` round trip that the lone
//! channel sits out *between* demand misses — the engine cannot ask for
//! line `k+1` until its beats reach it. The DMA descriptors already
//! encode the whole future footprint, so the prefetcher fills those idle
//! channel windows: the under-fit single-cluster point must run ≥ 20 %
//! faster with prefetching than without (asserted below, pinned in the
//! baseline). The 2-cluster rows show the honest flip side: two engines
//! bursting concurrently saturate one channel's *bandwidth*, and no
//! prefetcher can add bandwidth — the win shrinks instead of doubling.
//!
//! The engine-side port is deliberately narrow (3 cycles/beat — the
//! interconnect hop of a big shared L2) so line consumption is slower
//! than a channel fetch and accurate prefetches are possible at all;
//! with a 1-cycle port the system is channel-bandwidth-bound everywhere
//! and the sweep would only measure covered (late) prefetches.
//!
//! The config points are `Sweep::PrefetchAblation` in
//! `sc_bench::registry`. The validator asserts the cache-accounting
//! invariants, that prefetch-off points carry zero prefetch activity,
//! the accuracy bounds (`prefetch_hits ≤ prefetches_issued`), and the
//! ≥ 20 % acceptance point.
//!
//! Run with `cargo run --release -p sc-bench -- prefetch_ablation`.

use std::process::ExitCode;

use sc_bench::registry::{Fit, PointRun, Sweep};
use sc_bench::{json, parallel_sweep, Json};
use sc_kernels::TCDM_CAP_BYTES;

/// The acceptance bar: prefetch-on vs prefetch-off at the
/// 1-cluster/under-fit/1-channel/chaining point.
const ACCEPT_SPEEDUP: f64 = 1.20;

fn overfit(p: &PointRun) -> bool {
    p.spec.fit == Some(Fit::Over)
}

/// `(degree, distance)` of the prefetcher; `None` = prefetch off.
fn prefetch(p: &PointRun) -> Option<(u32, u32)> {
    let c = &p.spec.l2.cache;
    c.prefetch
        .then_some((c.prefetch_degree, c.prefetch_distance))
}

fn point_json(p: &PointRun) -> Json {
    let s = p.system();
    let l2 = s.l2.as_ref().expect("shared memory attached");
    let (degree, distance) = prefetch(p).unwrap_or((0, 0));
    let j = Json::obj()
        .set("id", p.spec.id.as_str())
        .set("clusters", p.spec.clusters)
        .set("capacity_bytes", p.spec.l2.cache.capacity_bytes)
        .set("overfit", overfit(p))
        .set("channels", p.spec.l2.cache.channels)
        .set("chaining", p.spec.chaining)
        .set("prefetch", prefetch(p).is_some())
        .set("prefetch_degree", degree)
        .set("prefetch_distance", distance)
        .set("cycles_to_last_core_done", s.cycles)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        // Flat traffic/prefetch counts (pinned by the perf gate).
        .set("l2_evictions", l2.cache.evictions)
        .set("l2_writeback_beats", s.l2_writeback_beats)
        .set("l2_prefetches_issued", l2.cache.prefetches_issued)
        .set("l2_prefetch_hits", l2.cache.prefetch_hits);
    json::with_l2_json(j, s).set("attribution", json::system_attribution_json(s))
}

/// The prefetch-off twin of `on`: the same configuration with the
/// prefetcher switched off.
fn prefetch_off<'a>(points: &'a [PointRun], on: &PointRun) -> &'a PointRun {
    let a = &on.spec;
    points
        .iter()
        .find(|p| {
            let b = &p.spec;
            prefetch(p).is_none()
                && a.clusters == b.clusters
                && a.fit == b.fit
                && a.l2.cache.channels == b.l2.cache.channels
                && a.chaining == b.chaining
        })
        .expect("swept configuration present")
}

/// The shared cache-accounting invariants
/// ([`PointRun::check_l2_accounting`]: zero prefetch activity with the
/// prefetcher off, the accuracy bounds with it on) plus the acceptance
/// invariants — a violation is a model bug (or a lost tentpole), not a
/// mere perf regression.
fn validate(points: &[PointRun]) {
    for p in points {
        p.check_l2_accounting().unwrap_or_else(|e| panic!("{e}"));
    }
    // Prefetching may reshuffle timing but must never *cost* more than a
    // sliver (pollution is bounded by the distance knob), and at the
    // latency-serialised acceptance point it must pay for the PR.
    for on in points.iter().filter(|p| prefetch(p).is_some()) {
        let (on_cycles, off_cycles) =
            (on.system().cycles, prefetch_off(points, on).system().cycles);
        assert!(
            on_cycles as f64 <= off_cycles as f64 * 1.10,
            "{}: prefetching degraded the run by more than 10% ({on_cycles} vs {off_cycles})",
            on.spec.id,
        );
    }
    for chaining in [true, false] {
        let (on, off) = acceptance_pair(points, chaining);
        let speedup = off.system().cycles as f64 / on.system().cycles as f64;
        let l2 = on.system().l2.as_ref().unwrap();
        assert!(
            l2.cache.prefetch_hits > 0,
            "{}: the acceptance speedup must come from accurate prefetches",
            on.spec.id
        );
        if chaining {
            assert!(
                speedup >= ACCEPT_SPEEDUP,
                "{}: prefetching must cut ≥ {:.0}% of cycles at the 1-channel \
                 under-fit point (got {:.1}%)",
                on.spec.id,
                (ACCEPT_SPEEDUP - 1.0) * 100.0,
                (speedup - 1.0) * 100.0
            );
        }
    }
}

/// The acceptance coordinates: 1 cluster, under-fit, 1 channel, the
/// deepest swept prefetcher vs off.
fn acceptance_pair(points: &[PointRun], chaining: bool) -> (&PointRun, &PointRun) {
    let deepest = points.iter().filter_map(prefetch).max();
    let on = points
        .iter()
        .find(|p| {
            p.spec.clusters == 1
                && !overfit(p)
                && p.spec.l2.cache.channels == 1
                && p.spec.chaining == chaining
                && prefetch(p) == deepest
        })
        .expect("swept configuration present");
    (on, prefetch_off(points, on))
}

pub fn run(_args: &[String]) -> ExitCode {
    let specs = Sweep::PrefetchAblation.points();
    let (grid, cores) = (specs[0].grid, specs[0].cores);
    println!(
        "=== prefetch ablation — box3d1r {}x{}x{}, {cores} cores/cluster, {} KiB TCDM tiles ===",
        grid.nx,
        grid.ny,
        grid.nz,
        TCDM_CAP_BYTES >> 10
    );
    for (i, spec) in specs.iter().enumerate() {
        if specs[..i].iter().any(|s| s.clusters == spec.clusters) {
            continue;
        }
        let capacity = |fit: Fit| {
            specs
                .iter()
                .find(|s| s.clusters == spec.clusters && s.fit == Some(fit))
                .map_or(0, |s| s.l2.cache.capacity_bytes)
        };
        let ws = spec.working_set();
        println!(
            "=== m{}: footprint {} B ({} tiles), over-fit {} B, under-fit {} B ===",
            spec.clusters,
            ws.footprint_bytes(),
            ws.tiles,
            capacity(Fit::Over),
            capacity(Fit::Under),
        );
    }
    println!("=== {} config points ===\n", specs.len());

    let (results, wall) = parallel_sweep(specs, |s| s.run());

    println!(
        "{:>32} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "config", "cycles", "issued", "hits", "covered", "wasted", "wb-beats"
    );
    for p in &results {
        let s = p.system();
        let l2 = s.l2.as_ref().unwrap();
        println!(
            "{:>32} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            p.spec.id,
            s.cycles,
            l2.cache.prefetches_issued,
            l2.cache.prefetch_hits,
            l2.cache.demand_misses_covered_by_prefetch,
            l2.cache.prefetch_evicted_unused,
            s.l2_writeback_beats,
        );
    }
    println!("\n{} config points in {wall:.2?} wall", results.len());
    validate(&results);

    let mut report = super::sweep_report(Sweep::PrefetchAblation, grid)
        .set("cores", cores)
        .set("tcdm_cap_bytes", TCDM_CAP_BYTES)
        .set("wall_seconds", wall.as_secs_f64());
    for chaining in [true, false] {
        let (on, off) = acceptance_pair(&results, chaining);
        let key = format!(
            "speedup_prefetch_ch1_underfit_{}",
            if chaining { "chaining" } else { "base" }
        );
        report = report.set(&key, off.system().cycles as f64 / on.system().cycles as f64);
    }
    super::emit_with_array(report, "points", results.iter().map(point_json));

    println!();
    println!("At one refill channel the cold-tile misses serialise: the channel");
    println!("idles while the engine consumes each fetched line. Descriptor");
    println!("hints let the L2 fill those windows — a free ≥20% on the under-fit");
    println!("single-cluster point — while two clusters bursting over the same");
    println!("channel stay bandwidth-bound: prefetching cannot add bandwidth.");
    ExitCode::SUCCESS
}
