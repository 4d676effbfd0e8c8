//! L2 cache ablation: capacity × associativity × refill channels ×
//! chaining, on the tiled multi-cluster stencil.
//!
//! The tiled planner's working-set report sizes the sweep: an
//! **over-fit** L2 (2× the plan's distinct Dram footprint) holds the
//! whole problem after the compulsory misses, while an **under-fit** one
//! (a quarter of the footprint) forces capacity evictions — and, with
//! write-back on, dirty-line write-back traffic that contends with
//! refills for the L2↔Dram channels. Sweeping the channel count then
//! shows how much of the capacity-miss penalty parallel refill can buy
//! back, with chaining on and off on the compute side.
//!
//! The config points are `Sweep::L2Ablation` in `sc_bench::registry`.
//! The validator asserts the cross-module accounting invariants (every
//! granted beat classified by the cache core) and the capacity story
//! (under-fit ⇒ non-zero evictions *and* write-back beats; over-fit at
//! full associativity ⇒ none). The perf gate also pins the flat
//! per-point `l2_evictions` / `l2_writeback_beats` traffic counts.
//!
//! Run with `cargo run --release -p sc-bench -- l2_ablation`.
//! Pass `--trace <path>` to additionally re-run the most contended
//! point — under-fit, single refill channel, chaining — with a trace
//! subscription and write its Perfetto timeline JSON to `<path>`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sc_bench::registry::{Fit, PointRun, Sweep, MAX_CYCLES};
use sc_bench::{json, parallel_sweep, Json};
use sc_core::SchedMode;
use sc_mem::DramConfig;
use sc_trace::{TraceConfig, TraceSession};

fn overfit(p: &PointRun) -> bool {
    p.spec.fit == Some(Fit::Over)
}

fn point_json(p: &PointRun) -> Json {
    let s = p.system();
    let l2 = s.l2.as_ref().expect("shared memory attached");
    let j = Json::obj()
        .set("id", p.spec.id.as_str())
        .set("capacity_bytes", p.spec.l2.cache.capacity_bytes)
        .set("ways", p.spec.l2.cache.ways)
        .set("channels", p.spec.l2.cache.channels)
        .set("chaining", p.spec.chaining)
        .set("overfit", overfit(p))
        .set("cycles_to_last_core_done", s.cycles)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        // Flat traffic counts (pinned by the perf gate's point metrics).
        .set("l2_evictions", l2.cache.evictions)
        .set("l2_writeback_beats", s.l2_writeback_beats);
    json::with_l2_json(j, s).set("attribution", json::system_attribution_json(s))
}

/// The shared cache-accounting invariants
/// ([`PointRun::check_l2_accounting`]) plus the capacity story: an
/// over-fit L2 at full associativity holds the working set, and
/// capacity pressure never makes a run faster. A violation is a model
/// bug, not a perf regression.
fn validate(points: &[PointRun]) {
    let full_ways = points.iter().map(|p| p.spec.l2.cache.ways).max();
    for p in points {
        p.check_l2_accounting().unwrap_or_else(|e| panic!("{e}"));
        let evictions = p.system().l2.as_ref().map_or(0, |l2| l2.cache.evictions);
        if overfit(p) && Some(p.spec.l2.cache.ways) == full_ways {
            assert_eq!(
                evictions, 0,
                "{}: an over-fit associative L2 must hold the working set",
                p.spec.id
            );
        }
    }
    // Capacity pressure costs cycles: under-fit never beats over-fit at
    // the same ways/channels/variant point.
    for under in points.iter().filter(|p| !overfit(p)) {
        let over = points
            .iter()
            .find(|p| {
                overfit(p)
                    && p.spec.l2.cache.ways == under.spec.l2.cache.ways
                    && p.spec.l2.cache.channels == under.spec.l2.cache.channels
                    && p.spec.chaining == under.spec.chaining
            })
            .expect("matched over-fit point");
        let (u, o) = (under.system().cycles, over.system().cycles);
        assert!(
            u >= o,
            "{}: capacity misses cannot make the run faster ({u} vs {o})",
            under.spec.id
        );
    }
}

/// The under-fit point at full associativity with `channels` refill
/// channels and the given variant.
fn underfit_point(points: &[PointRun], channels: u32, chaining: bool) -> Option<&PointRun> {
    let full_ways = points.iter().map(|p| p.spec.l2.cache.ways).max()?;
    points.iter().find(|p| {
        !overfit(p)
            && p.spec.l2.cache.ways == full_ways
            && p.spec.l2.cache.channels == channels
            && p.spec.chaining == chaining
    })
}

/// Parses the command's only option, `--trace <path>`.
fn trace_path(args: &[String]) -> Result<Option<PathBuf>, String> {
    match args {
        [] => Ok(None),
        [flag, path] if flag == "--trace" => Ok(Some(path.into())),
        [flag] if flag == "--trace" => Err("--trace needs a path argument".into()),
        other => Err(format!(
            "unknown arguments {other:?} (only --trace <path> is accepted)"
        )),
    }
}

/// Re-runs the most contended under-fit point with a trace subscription
/// and writes the Perfetto timeline to `path`. The traced run must be
/// results-identical to the sweep's own run of the same point.
fn write_trace(point: &PointRun, path: &Path) {
    let spec = &point.spec;
    let session = TraceSession::new(TraceConfig::new().with_sample_every(1024));
    let run = spec
        .tiled_system_kernel()
        .run_traced(
            spec.core,
            spec.l2,
            DramConfig::new(),
            MAX_CYCLES,
            session.tracer(),
            SchedMode::Dense,
        )
        .unwrap_or_else(|e| panic!("traced point: {e}"));
    assert_eq!(
        run.summary.cycles,
        point.system().cycles,
        "the traced re-run must be cycle-identical to the sweep's run"
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }
    std::fs::write(path, session.perfetto_json()).expect("write trace");
    println!(
        "perfetto trace ({} events): {}",
        session.events_buffered(),
        path.display()
    );
}

pub fn run(args: &[String]) -> ExitCode {
    let trace = match trace_path(args) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let specs = Sweep::L2Ablation.points();
    let first = &specs[0];
    let (grid, clusters, cores) = (first.grid, first.clusters, first.cores);
    let ws = first.working_set();
    let footprint = ws.footprint_bytes();
    let capacity = |fit: Fit| {
        specs
            .iter()
            .find(|s| s.fit == Some(fit))
            .map_or(0, |s| s.l2.cache.capacity_bytes)
    };
    let (over, under) = (capacity(Fit::Over), capacity(Fit::Under));
    let ways = super::distinct(specs.iter().map(|s| s.l2.cache.ways));
    let channels = super::distinct(specs.iter().map(|s| s.l2.cache.channels));
    println!(
        "=== L2 ablation — box3d1r {}x{}x{}, m{clusters}x{cores} tiled ===",
        grid.nx, grid.ny, grid.nz
    );
    println!(
        "=== working set: {} B footprint ({} lines of 256 B), {} B traffic ===",
        footprint,
        ws.l2_lines(256),
        ws.traffic_bytes()
    );
    println!(
        "=== capacities: over-fit {over} B, under-fit {under} B x ways {ways:?} x channels {channels:?} ===\n",
    );

    let (results, wall) = parallel_sweep(specs, |s| s.run());
    validate(&results);

    println!("        config  ways   ch    variant     cycles     hits    misses  evictions  wb-beats    merges");
    for p in &results {
        let s = p.system();
        let l2 = s.l2.as_ref().unwrap();
        println!(
            "{:>14} {:>5} {:>4} {:>10} {:>10} {:>8} {:>9} {:>10} {:>9} {:>9}",
            format!(
                "{}K {}",
                p.spec.l2.cache.capacity_bytes >> 10,
                if overfit(p) { "(over)" } else { "(under)" }
            ),
            p.spec.l2.cache.ways,
            p.spec.l2.cache.channels,
            if p.spec.chaining { "Chaining+" } else { "Base" },
            s.cycles,
            l2.cache.read_hits,
            l2.cache.read_misses,
            l2.cache.evictions,
            s.l2_writeback_beats,
            l2.cache.mshr_merges,
        );
    }
    println!("\n{} config points in {wall:.2?} wall", results.len());

    let mut report = super::sweep_report(Sweep::L2Ablation, grid)
        .set("clusters", clusters)
        .set("cores", cores)
        .set("working_set_footprint_bytes", footprint)
        .set("working_set_traffic_bytes", ws.traffic_bytes())
        .set("working_set_l2_lines", ws.l2_lines(256))
        .set("capacity_overfit_bytes", over)
        .set("capacity_underfit_bytes", under)
        .set("wall_seconds", wall.as_secs_f64());
    // How much of the capacity-miss penalty parallel refill buys back on
    // the under-fit points (gated as speedup_* ratios).
    let (fewest, most) = (channels[0], channels[channels.len() - 1]);
    for chaining in [true, false] {
        let cyc =
            |channels: u32| underfit_point(&results, channels, chaining).map(|p| p.system().cycles);
        if let (Some(one), Some(many)) = (cyc(fewest), cyc(most)) {
            let key = format!(
                "speedup_ch{most}_underfit_{}",
                if chaining { "chaining" } else { "base" }
            );
            report = report.set(&key, one as f64 / many as f64);
        }
    }
    super::emit_with_array(report, "points", results.iter().map(point_json));

    // The most contended point: under-fit, fewest refill channels,
    // chaining.
    if let Some(path) = trace {
        let point = underfit_point(&results, fewest, true).expect("swept point present");
        write_trace(point, &path);
    }

    println!();
    println!("An L2 smaller than the tiled working set turns the halo revisits");
    println!("into capacity misses and dirty write-backs; extra refill channels");
    println!("recover part of that penalty, which is exactly the regime where");
    println!("chaining's freed memory ports matter most.");
    ExitCode::SUCCESS
}
