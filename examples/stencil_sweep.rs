//! The paper's headline experiment in miniature: run the register-limited
//! `box3d1r` stencil in all five code variants and compare runtime, FPU
//! utilisation, memory traffic and energy efficiency — then push the best
//! variant through the full memory hierarchy (tiled clusters behind a
//! *finite* shared L2) and read the cache statistics back.
//!
//! Run with `cargo run --release --example stencil_sweep`.
//! Add `--trace <path>` to record the tiled part of the run as a
//! Chrome/Perfetto timeline (open the file at <https://ui.perfetto.dev>):
//! per-hart issue/stall states, DMA bursts, L2 refill and write-back
//! channel occupancy.
//! For the full Fig. 3 (both stencils, paper-style summary) use
//! `cargo run --release -p sc-bench -- fig3`.

use scalar_chaining::core_model::SchedMode;
use scalar_chaining::mem::{DramConfig, L2Config};
use scalar_chaining::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace" => Some(std::path::PathBuf::from(path)),
        _ => return Err("usage: stencil_sweep [--trace <path>]".into()),
    };
    let grid = Grid3::new(16, 8, 4);
    let model = EnergyModel::new();
    println!(
        "box3d1r on a {}×{}×{} interior tile ({} outputs, 27-point stencil)\n",
        grid.nx,
        grid.ny,
        grid.nz,
        grid.interior_len()
    );
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "variant", "cycles", "fpu-util", "tcdm reads", "power[mW]", "Gflop/s/W"
    );
    let mut base_cycles = 0u64;
    for variant in Variant::ALL {
        let generator = StencilKernel::new(Stencil::box3d1r(), grid, variant)?;
        let kernel = generator.build();
        let run = kernel.run(CoreConfig::new(), 100_000_000)?;
        let m = run.measured();
        let energy = model.report(m);
        if variant == Variant::Base {
            base_cycles = m.cycles;
        }
        println!(
            "{:<12} {:>8} {:>9.1}% {:>12} {:>12.1} {:>12.1}",
            variant.label(),
            m.cycles,
            m.fpu_utilization() * 100.0,
            m.tcdm_accesses,
            energy.power_mw,
            energy.gflops_per_w
        );
    }
    println!();
    println!("What to look for (the paper's §III story):");
    println!(" * Base streams the 27 coefficients from L1 every block — the");
    println!("   highest TCDM column — while the chained variants keep them in");
    println!("   the registers freed by the chained accumulator.");
    println!(" * Chaining+ additionally retires results through the stream the");
    println!("   coefficients no longer need, dropping the explicit stores.");
    if base_cycles > 0 {
        let chp = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)?
            .build()
            .run(CoreConfig::new(), 100_000_000)?;
        println!(
            " * Net effect here: {:.1} % speedup of Chaining+ over Base.",
            (base_cycles as f64 / chp.measured().cycles as f64 - 1.0) * 100.0
        );
    }

    // Part two: the same stencil through the full memory hierarchy — two
    // tiled clusters double-buffering their slabs behind a *finite*
    // shared L2 whose capacity deliberately under-fits the working set,
    // so capacity evictions and dirty write-backs appear.
    let big = Grid3::new(16, 16, 16);
    let gen = StencilKernel::new(Stencil::box3d1r(), big, Variant::ChainingPlus)?;
    let tiled = gen.build_system_tiled(2, 2, TCDM_CAP_BYTES)?;
    let ws = tiled.working_set();
    println!();
    println!(
        "Tiled m2x2 run of a {}×{}×{} grid — working set: {} B distinct",
        big.nx,
        big.ny,
        big.nz,
        ws.footprint_bytes()
    );
    println!(
        "footprint ({} lines of 256 B), {} B moved (halo revisits included).",
        ws.l2_lines(256),
        ws.traffic_bytes()
    );
    // A quarter of the footprint, rounded to whole sets of 4 × 256 B.
    let capacity = (ws.footprint_bytes() as u32 / 4) / 1024 * 1024;
    let l2 = L2Config::new()
        .with_capacity_bytes(capacity)
        .with_ways(4)
        .with_mshrs(8)
        .with_refill_channels(2)
        .with_write_back(true);
    let session = TraceSession::new(TraceConfig::new());
    let tracer = if trace_path.is_some() {
        session.tracer()
    } else {
        Tracer::off()
    };
    let run = tiled.run_traced(
        CoreConfig::new(),
        l2,
        DramConfig::new(),
        100_000_000,
        tracer,
        SchedMode::Dense,
    )?;
    let s = run.summary;
    let l2_stats = s.l2.as_ref().expect("shared L2 attached");
    let c = &l2_stats.cache;
    println!(
        "Under a {capacity} B / 4-way / 2-channel write-back L2: {} cycles,",
        s.cycles
    );
    println!(
        " * cache: {} hits, {} serviced misses, {} refilled lines,",
        c.read_hits, c.read_misses, c.refills
    );
    println!(
        " * capacity: {} evictions ({} dirty) -> {} write-back beats to Dram,",
        c.evictions, c.dirty_evictions, s.l2_writeback_beats
    );
    println!(
        " * MSHRs: {} allocations, {} same-line merges, peak occupancy {}.",
        c.mshr_allocations, c.mshr_merges, c.mshr_peak
    );
    println!("Sweep these knobs with `cargo run --release -p sc-bench -- l2_ablation`.");
    if let Some(path) = trace_path {
        std::fs::write(&path, session.perfetto_json())?;
        println!(
            "Perfetto timeline ({} events) written to {} — open it at ui.perfetto.dev.",
            session.events_buffered(),
            path.display()
        );
    }
    Ok(())
}
