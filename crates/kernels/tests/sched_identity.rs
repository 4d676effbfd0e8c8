//! The event-driven scheduler's correctness pin: a `System` run under
//! `SchedMode::Event` is an **observable no-op** relative to
//! `SchedMode::Dense`. Over random kernels (shapes × cluster and hart
//! counts × capacity pressure × DMA latency), the whole
//! `SystemSummary` — system cycles, every cluster's summary, every
//! core's run summary, `DmaStats`, overlap metrics, barrier counts, TCDM
//! conflicts, shared-L2 statistics and the top-down attribution — must
//! be equal between the two modes. The event path may only skip clock
//! ranges where stepping would provably change nothing; any divergence
//! here means it skipped a cycle that mattered. (Only a system
//! fast-forwards; a system is the only driver of a cluster.)

use proptest::prelude::*;
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, IntReg, ProgramBuilder};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant};
use sc_mem::{Dram, DramConfig, L2Config, Store};
use sc_system::{SystemBuilder, SystemConfig, SystemError};
use sc_trace::{TraceConfig, TraceSession};

const MAX_CYCLES: u64 = 50_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-cluster tiled runs through a refilling, capacity-pressured
    /// shared L2 — engine stalls on cold misses, inter-cluster bank
    /// contention, dirty write-backs — are identical across modes,
    /// L2 statistics included.
    #[test]
    fn tiled_system_event_equals_dense(
        ny in 2u32..4,
        nz in 2u32..5,
        clusters in 1u32..4,
        harts in 1u32..3,
        underfit in any::<bool>(),
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let Ok(tiled) = gen.build_system_tiled(clusters, harts, 8 << 10) else {
            return Ok(());
        };
        // Under-fitting the footprint turns tile revisits into capacity
        // misses and dirty evictions — maximum cache pressure on the
        // skip logic; over-fitting exercises the warm-hit path.
        let granule = 256 * 4;
        let capacity = if underfit {
            tiled.working_set().underfit_capacity(granule)
        } else {
            tiled.working_set().overfit_capacity(granule)
        };
        let l2_cfg = L2Config::new()
            .with_capacity_bytes(capacity.max(granule))
            .with_ways(4)
            .with_write_back(true);
        let cfg = CoreConfig::new();
        let dense = tiled
            .run_scheduled(cfg, l2_cfg, DramConfig::new(), MAX_CYCLES, SchedMode::Dense)
            .map_err(|e| TestCaseError::fail(format!("dense: {e}")))?;
        let event = tiled
            .run_scheduled(cfg, l2_cfg, DramConfig::new(), MAX_CYCLES, SchedMode::Event)
            .map_err(|e| TestCaseError::fail(format!("event: {e}")))?;
        prop_assert_eq!(&dense.summary, &event.summary, "system summaries diverge");
    }

    /// Parked completion waits whose entry and release land on sampling
    /// cadence boundaries: the DMA latency is a power of two and the
    /// cadence divides it (down to cadence 1, where *every* park
    /// boundary is a cadence point), so locally and globally skipped
    /// windows begin and end exactly where a sample row is owed. The
    /// summaries and the sampled-counter CSV must both be
    /// bit-identical across modes.
    #[test]
    fn cadence_aligned_parked_windows_event_equals_dense(
        ny in 2u32..4,
        clusters in 1u32..3,
        harts in 1u32..3,
        latency_pow in 4u32..9,
        cadence_shift in 0u32..5,
    ) {
        let latency = 1u32 << latency_pow;
        let cadence = u64::from(latency >> cadence_shift.min(latency_pow)).max(1);
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, 4),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let Ok(tiled) = gen.build_system_tiled(clusters, harts, 8 << 10) else {
            return Ok(());
        };
        let cfg = CoreConfig::new();
        let l2_cfg = L2Config::new().with_refill_latency(latency).with_refill_cycles_per_beat(1);
        let dram_cfg = DramConfig::new().with_latency(latency);
        let mut exports = Vec::new();
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let session = TraceSession::new(TraceConfig::new().with_sample_every(cadence));
            let run = tiled
                .run_traced(cfg, l2_cfg, dram_cfg, MAX_CYCLES, session.tracer(), mode)
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))?;
            exports.push((run.summary, session.samples_csv()));
        }
        prop_assert_eq!(&exports[0].0, &exports[1].0, "system summaries diverge");
        prop_assert_eq!(&exports[0].1, &exports[1].1, "sample rows diverge");
    }

    /// Unbounded system kernels: uneven z-partitions leave harts parked
    /// on cluster and system barriers for long stretches (the idle
    /// bubbles the event path fast-forwards) — counts and cycles must
    /// still match exactly.
    #[test]
    fn unbounded_system_event_equals_dense(
        xblk in 1u32..3,
        ny in 1u32..4,
        nz in 1u32..5,
        variant_idx in 0usize..Variant::ALL.len(),
        clusters in 1u32..4,
        harts in 1u32..5,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(xblk * 8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let kernel = gen.build_system(clusters, harts);
        let dense = kernel
            .run_scheduled(cfg, MAX_CYCLES, SchedMode::Dense)
            .map_err(|e| TestCaseError::fail(format!("dense: {e}")))?;
        let event = kernel
            .run_scheduled(cfg, MAX_CYCLES, SchedMode::Event)
            .map_err(|e| TestCaseError::fail(format!("event: {e}")))?;
        prop_assert_eq!(&dense.summary, &event.summary, "system summaries diverge");
    }
}

proptest! {
    // No explicit case count: each case is a tiny program, so CI reruns
    // this at `PROPTEST_CASES=4096` in release.

    /// Watchdog-armed parked waits whose skip windows end within a
    /// couple of cycles of the firing point — including exactly one
    /// cycle before it. On a 1-cluster system behind a pass-through L2,
    /// a hart enqueues one store-out transfer and parks; the watchdog
    /// limit is the transfer's engine latency plus a small signed
    /// offset, so depending on the draw the run either completes just
    /// under the limit or hangs just past it. Both modes must agree on
    /// the outcome — and, on a hang, on the firing cycle and the
    /// stuck-for span.
    #[test]
    fn watchdog_brink_parked_windows_event_equals_dense(
        latency in 16u32..300,
        delta in -2i64..3,
        never_completes in any::<bool>(),
        harts in 1u32..3,
    ) {
        let program = |lead: bool| {
            let mut b = ProgramBuilder::new();
            if !lead {
                b.ecall();
                return b.build().expect("trivial program assembles");
            }
            let t = |i: u8| IntReg::new(i);
            for (addr, value) in [
                (csr::DMA_SRC, 0x0),
                (csr::DMA_DST, 0x400),
                (csr::DMA_LEN, 64),
                (csr::DMA_SRC_STRIDE, 0),
                (csr::DMA_DST_STRIDE, 0),
                (csr::DMA_REPS, 1),
            ] {
                b.li(t(5), value);
                b.csrrw(IntReg::ZERO, addr, t(5));
            }
            b.csrrwi(IntReg::ZERO, csr::DMA_START, 0); // TCDM -> DRAM
            // Parking for a second completion that never arrives turns
            // the brink case into a guaranteed hang.
            b.li(t(6), if never_completes { 2 } else { 1 });
            b.csrrw(t(7), csr::DMA_WAIT, t(6));
            b.ecall();
            b.build().expect("DMA park program assembles")
        };
        let limit = u64::try_from(i64::from(latency) + delta).expect("positive limit");
        let timing = DramConfig::new().with_latency(latency);
        let run = |mode: SchedMode| {
            let programs = (0..harts).map(|h| program(h == 0)).collect();
            let cfg = SystemConfig::new(1, harts).with_l2(L2Config::passthrough(timing));
            let mut system = SystemBuilder::new(cfg, vec![vec![programs]])
                .dram(Dram::new(timing))
                .watchdog(limit)
                .sched_mode(mode)
                .build();
            for i in 0..8 {
                system
                    .cluster_mut(0)
                    .tcdm_mut()
                    .write_f64(0x400 + i * 8, f64::from(i))
                    .expect("seed the staged tile");
            }
            let outcome = system.run(1_000_000).map(|_| ());
            (system.summary(), outcome)
        };
        let (dense_summary, dense_outcome) = run(SchedMode::Dense);
        let (event_summary, event_outcome) = run(SchedMode::Event);
        match (dense_outcome, event_outcome) {
            (Ok(()), Ok(())) => {}
            (Err(SystemError::Hang(d)), Err(SystemError::Hang(e))) => {
                prop_assert_eq!(d.cycle, e.cycle, "watchdog firing cycle diverges");
                prop_assert_eq!(d.stuck_for, e.stuck_for, "stuck-for span diverges");
            }
            (d, e) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverge: dense {d:?}, event {e:?}"
                )));
            }
        }
        prop_assert_eq!(&dense_summary, &event_summary, "system summaries diverge");
    }
}
