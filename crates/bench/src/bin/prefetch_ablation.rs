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
//! ≥ 20 % acceptance point. Machine-readable results land in
//! `target/reports/prefetch_ablation.json`, gated in CI against
//! `baselines/prefetch_ablation.json`.
//!
//! Run with `cargo run --release -p sc-bench --bin prefetch_ablation`.

use sc_bench::registry::{Fit, PointSpec, Sweep};
use sc_bench::{json, parallel_sweep, Json};
use sc_kernels::TCDM_CAP_BYTES;
use sc_system::SystemSummary;

/// The acceptance bar: prefetch-on vs prefetch-off at the
/// 1-cluster/under-fit/1-channel/chaining point.
const ACCEPT_SPEEDUP: f64 = 1.20;

struct Point {
    spec: PointSpec,
    summary: SystemSummary,
}

impl Point {
    /// Runs `spec` under dense stepping.
    fn run(spec: PointSpec) -> Self {
        let summary = spec.run().summary.into_system();
        Point { spec, summary }
    }

    fn overfit(&self) -> bool {
        self.spec.fit == Some(Fit::Over)
    }

    /// `(degree, distance)` of the prefetcher; `None` = prefetch off.
    fn prefetch(&self) -> Option<(u32, u32)> {
        let l2 = &self.spec.l2;
        l2.cache
            .prefetch
            .then_some((l2.cache.prefetch_degree, l2.cache.prefetch_distance))
    }

    /// Whether `other` is this point's configuration with the prefetcher
    /// switched off.
    fn is_prefetch_off_twin(&self, other: &Point) -> bool {
        let (a, b) = (&self.spec, &other.spec);
        other.prefetch().is_none()
            && a.clusters == b.clusters
            && a.fit == b.fit
            && a.l2.cache.channels == b.l2.cache.channels
            && a.chaining == b.chaining
    }
}

fn point_json(p: &Point) -> Json {
    let s = &p.summary;
    let l2 = s.l2.as_ref().expect("shared memory attached");
    Json::obj()
        .set("id", p.spec.id.as_str())
        .set("clusters", p.spec.clusters)
        .set("capacity_bytes", p.spec.l2.cache.capacity_bytes)
        .set("overfit", p.overfit())
        .set("channels", p.spec.l2.cache.channels)
        .set("chaining", p.spec.chaining)
        .set("prefetch", p.prefetch().is_some())
        .set(
            "prefetch_degree",
            p.prefetch().map_or(0, |(d, _)| u64::from(d)),
        )
        .set(
            "prefetch_distance",
            p.prefetch().map_or(0, |(_, d)| u64::from(d)),
        )
        .set("cycles_to_last_core_done", s.cycles)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        // Flat traffic/prefetch counts (pinned by the perf gate).
        .set("l2_evictions", l2.cache.evictions)
        .set("l2_writeback_beats", s.l2_writeback_beats)
        .set("l2_prefetches_issued", l2.cache.prefetches_issued)
        .set("l2_prefetch_hits", l2.cache.prefetch_hits)
        .set(
            "l2",
            json::l2_stats_json(
                l2,
                s.l2_refill_beats,
                s.l2_writeback_beats,
                s.l2_prefetch_beats,
            ),
        )
        .set(
            "l2_occupancy",
            json::refill_occupancy_json(&s.refill_occupancy()),
        )
        .set("attribution", json::system_attribution_json(s))
}

/// The prefetch-off twin of `on`.
fn prefetch_off<'a>(points: &'a [Point], on: &Point) -> &'a Point {
    points
        .iter()
        .find(|p| on.is_prefetch_off_twin(p))
        .expect("swept configuration present")
}

/// Accounting, accuracy-class and acceptance invariants — a violation is
/// a model bug (or a lost tentpole), not a mere perf regression.
fn validate(points: &[Point]) {
    for p in points {
        let l2 = p.summary.l2.as_ref().expect("shared memory attached");
        let c = &l2.cache;
        assert_eq!(
            c.read_hits + c.read_misses + c.write_beats,
            l2.accesses,
            "{}: every granted beat must be classified by the cache core",
            p.spec.id
        );
        assert!(
            c.refills <= c.mshr_allocations + c.prefetches_issued,
            "{}: refills outnumber demand + prefetch allocations",
            p.spec.id
        );
        assert!(
            c.mshr_peak <= u64::from(p.spec.l2.cache.mshrs),
            "{}: MSHR file overflowed its configured size",
            p.spec.id
        );
        match p.prefetch() {
            None => {
                assert_eq!(
                    (c.prefetch_hints, c.prefetches_issued, c.prefetch_refills),
                    (0, 0, 0),
                    "{}: a disabled prefetcher must leave no trace",
                    p.spec.id
                );
            }
            Some(_) => {
                assert!(
                    c.prefetch_hits + c.prefetch_evicted_unused <= c.prefetches_issued,
                    "{}: accuracy classes exceed issued prefetches",
                    p.spec.id
                );
                assert!(
                    c.prefetch_refills <= c.refills,
                    "{}: prefetch refills exceed total refills",
                    p.spec.id
                );
                assert_eq!(
                    p.summary.l2_prefetch_beats,
                    c.prefetch_refills * u64::from(p.spec.l2.cache.line_beats()),
                    "{}: prefetch beats must be the prefetch refills' lines",
                    p.spec.id
                );
            }
        }
        if !p.overfit() {
            assert!(
                c.evictions > 0 && p.summary.l2_writeback_beats > 0,
                "{}: an under-fit write-back L2 must evict dirty lines",
                p.spec.id
            );
        }
    }
    // Prefetching may reshuffle timing but must never *cost* more than a
    // sliver (pollution is bounded by the distance knob), and at the
    // latency-serialised acceptance point it must pay for the PR.
    for on in points.iter().filter(|p| p.prefetch().is_some()) {
        let off = prefetch_off(points, on);
        assert!(
            on.summary.cycles as f64 <= off.summary.cycles as f64 * 1.10,
            "{}: prefetching degraded the run by more than 10% ({} vs {})",
            on.spec.id,
            on.summary.cycles,
            off.summary.cycles
        );
    }
    for chaining in [true, false] {
        let (on, off) = acceptance_pair(points, chaining);
        let speedup = off.summary.cycles as f64 / on.summary.cycles as f64;
        let l2 = on.summary.l2.as_ref().unwrap();
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
fn acceptance_pair(points: &[Point], chaining: bool) -> (&Point, &Point) {
    let deepest = points.iter().filter_map(Point::prefetch).max();
    let on = points
        .iter()
        .find(|p| {
            p.spec.clusters == 1
                && !p.overfit()
                && p.spec.l2.cache.channels == 1
                && p.spec.chaining == chaining
                && p.prefetch() == deepest
        })
        .expect("swept configuration present");
    (on, prefetch_off(points, on))
}

fn main() {
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

    let (results, wall) = parallel_sweep(specs, Point::run);

    println!(
        "{:>32} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "config", "cycles", "issued", "hits", "covered", "wasted", "wb-beats"
    );
    for p in &results {
        let l2 = p.summary.l2.as_ref().unwrap();
        println!(
            "{:>32} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            p.spec.id,
            p.summary.cycles,
            l2.cache.prefetches_issued,
            l2.cache.prefetch_hits,
            l2.cache.demand_misses_covered_by_prefetch,
            l2.cache.prefetch_evicted_unused,
            p.summary.l2_writeback_beats,
        );
    }
    println!("\n{} config points in {wall:.2?} wall", results.len());
    validate(&results);

    let mut report = Json::obj()
        .set("sweep", "prefetch_ablation")
        .set("stencil", "box3d1r")
        .set(
            "grid",
            vec![u64::from(grid.nx), u64::from(grid.ny), u64::from(grid.nz)],
        )
        .set("cores", cores)
        .set("tcdm_cap_bytes", TCDM_CAP_BYTES)
        .set("wall_seconds", wall.as_secs_f64());
    for chaining in [true, false] {
        let (on, off) = acceptance_pair(&results, chaining);
        let key = format!(
            "speedup_prefetch_ch1_underfit_{}",
            if chaining { "chaining" } else { "base" }
        );
        report = report.set(&key, off.summary.cycles as f64 / on.summary.cycles as f64);
    }
    report = report.set(
        "points",
        Json::Arr(results.iter().map(point_json).collect()),
    );
    match json::write_report("prefetch_ablation.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }

    println!();
    println!("At one refill channel the cold-tile misses serialise: the channel");
    println!("idles while the engine consumes each fetched line. Descriptor");
    println!("hints let the L2 fill those windows — a free ≥20% on the under-fit");
    println!("single-cluster point — while two clusters bursting over the same");
    println!("channel stay bandwidth-bound: prefetching cannot add bandwidth.");
}
