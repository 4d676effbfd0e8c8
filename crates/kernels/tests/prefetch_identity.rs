//! Cycle-identity pin for the prefetch refactor: with prefetching
//! disabled (the default), the L2 must be **cycle-for-cycle identical**
//! to the pre-prefetch (PR 4) finite L2 across the `l2_ablation` config
//! grid — over-/under-fit capacity × ways × refill channels × chaining.
//!
//! The golden cycle counts below pin a scaled-down ablation point
//! (8×8×8 box3d1r, 2 clusters × 2 cores, the same capacity-sizing rule
//! as `l2_ablation`). They were first captured before the prefetcher
//! existed, with tile programs that polled for DMA completion. Tile programs now
//! always park, so the goldens were re-captured with parked waits on
//! the last tree that built both wait styles, where the polling goldens
//! still held. Any drift means the prefetch plumbing leaked timing into
//! the disabled path — exactly the regression this pin exists to catch.

use sc_core::CoreConfig;
use sc_kernels::{
    Grid3, Stencil, StencilKernel, Variant, L2_CAP_GRANULE_BYTES, L2_SWEEP_MSHRS, TCDM_CAP_BYTES,
};
use sc_mem::{DramConfig, L2Config};

const CLUSTERS: u32 = 2;
const CORES: u32 = 2;

fn l2_config(capacity: u32, ways: u32, channels: u32) -> L2Config {
    L2Config::new()
        .with_capacity_bytes(capacity)
        .with_ways(ways)
        .with_refill_channels(channels)
        .with_mshrs(L2_SWEEP_MSHRS)
        .with_write_back(true)
        .with_refill_latency(64)
        .with_refill_cycles_per_beat(1)
        .with_bank_width(8)
}

fn run_shaped(
    grid: Grid3,
    clusters: u32,
    cores: u32,
    tcdm_cap: u32,
    l2: L2Config,
    chaining: bool,
) -> sc_system::SystemSummary {
    let variant = if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    };
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).expect("valid combination");
    let tk = gen
        .build_system_tiled(clusters, cores, tcdm_cap)
        .expect("slabs tile within the TCDM cap");
    let run = tk
        .run(
            CoreConfig::new().with_chaining(chaining),
            l2,
            DramConfig::new(),
            100_000_000,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", tk.name()));
    run.summary
}

fn run_cycles(grid: Grid3, capacity: u32, ways: u32, channels: u32, chaining: bool) -> u64 {
    run_shaped(
        grid,
        CLUSTERS,
        CORES,
        TCDM_CAP_BYTES,
        l2_config(capacity, ways, channels),
        chaining,
    )
    .cycles
}

/// (ways, channels, chaining, overfit) → golden cycles with parked
/// waits (see the module docs). Regenerate ONLY for an intentional
/// timing remodel, never to absorb accidental drift from a
/// prefetch-path refactor.
const GOLDEN: [(u32, u32, bool, bool, u64); 16] = [
    (2, 1, false, true, 7969),
    (2, 1, true, true, 7498),
    (2, 4, false, true, 7197),
    (2, 4, true, true, 6726),
    (8, 1, false, true, 7969),
    (8, 1, true, true, 7498),
    (8, 4, false, true, 7197),
    (8, 4, true, true, 6726),
    (2, 1, false, false, 8410),
    (2, 1, true, false, 7939),
    (2, 4, false, false, 7197),
    (2, 4, true, false, 6726),
    (8, 1, false, false, 8410),
    (8, 1, true, false, 7939),
    (8, 4, false, false, 7197),
    (8, 4, true, false, 6726),
];

#[test]
fn prefetch_disabled_default_is_cycle_identical_to_pr4_l2() {
    let grid = Grid3::new(8, 8, 8);
    let ws = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("valid combination")
        .build_system_tiled(CLUSTERS, CORES, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB")
        .working_set()
        .clone();
    let over = ws.overfit_capacity(L2_CAP_GRANULE_BYTES);
    let under = ws.underfit_capacity(L2_CAP_GRANULE_BYTES);
    let mut mismatches = Vec::new();
    for &(ways, channels, chaining, overfit, want) in &GOLDEN {
        let capacity = if overfit { over } else { under };
        let got = run_cycles(grid, capacity, ways, channels, chaining);
        if got != want {
            mismatches.push(format!(
                "cap{}K(w{ways}/ch{channels}/{}/{}): got {got}, golden {want}",
                capacity >> 10,
                if chaining { "chaining" } else { "base" },
                if overfit { "over" } else { "under" },
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "prefetch-disabled L2 drifted from the PR 4 timing:\n{}",
        mismatches.join("\n")
    );
}

/// The end-to-end guarantee *with* the engine on: a prefetching run
/// passes the kernel's bit-exact verification against the golden model
/// (the `run` call checks the Dram image), hides refill serialisation at
/// the single-refill-channel memory wall, and its beats are accounted.
///
/// The shape is the latency-serialised regime the `prefetch_ablation`
/// sweep stresses: one cluster streaming through a narrow engine-side
/// L2 port (3 cycles/beat), so the lone refill channel *idles between
/// demand misses* — the window prefetching exists to fill. (With several
/// clusters bursting concurrently over one channel the system is
/// bandwidth-bound and no prefetcher can add bandwidth.)
#[test]
fn prefetch_on_stays_bit_exact_and_hides_the_memory_wall() {
    let grid = Grid3::new(16, 16, 16);
    let (clusters, cores, tcdm_cap) = (1, 4, 32 << 10);
    let ws = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("valid combination")
        .build_system_tiled(clusters, cores, tcdm_cap)
        .expect("slabs tile within 32 KiB")
        .working_set()
        .clone();
    let under = ws.underfit_capacity(L2_CAP_GRANULE_BYTES);
    let base = l2_config(under, 8, 1)
        .with_refill_latency(48)
        .with_cycles_per_beat(3);
    // Both runs verify bit-exactly inside `run` — prefetching changed
    // cycles, never the result.
    let off = run_shaped(grid, clusters, cores, tcdm_cap, base, true);
    let on = run_shaped(
        grid,
        clusters,
        cores,
        tcdm_cap,
        base.with_prefetch(true)
            .with_prefetch_degree(2)
            .with_prefetch_distance(8)
            .with_prefetch_queue(16),
        true,
    );
    assert!(
        on.cycles < off.cycles,
        "prefetching must hide refill serialisation at one channel \
         ({} vs {} cycles)",
        on.cycles,
        off.cycles
    );
    let l2 = on.l2.as_ref().expect("shared memory attached");
    assert!(l2.cache.prefetches_issued > 0);
    assert!(
        l2.cache.prefetch_hits + l2.cache.demand_misses_covered_by_prefetch > 0,
        "the speedup must come from accounted prefetch activity"
    );
    assert!(l2.cache.prefetch_hits <= l2.cache.prefetches_issued);
    assert_eq!(
        on.l2_prefetch_beats,
        l2.cache.prefetch_refills * u64::from(base.cache.line_beats()),
        "prefetch beats are attributed refill traffic"
    );
    assert!(on.l2_prefetch_beats <= on.l2_refill_beats);
    let off_l2 = off.l2.as_ref().expect("shared memory attached");
    assert_eq!(
        (
            off_l2.cache.prefetches_issued,
            off_l2.cache.prefetch_hints,
            off.l2_prefetch_beats
        ),
        (0, 0, 0),
        "the disabled engine must leave no trace"
    );
}
