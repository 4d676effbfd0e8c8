//! The tracer-as-observer guarantee, differentially: a subscribed
//! [`sc_trace::TraceSession`] must never change a run — cycle counts,
//! per-core counters, DMA traffic, L2 stats and the verified store image
//! must be identical with tracing on and off. The traced run's store
//! image is checked bit-exactly against the same golden model inside
//! `run_traced`, so a pass here means tracing changed *nothing* the
//! architecture can observe.
//!
//! The second pin is the reverse direction: the *scheduler* must never
//! change a trace. A traced event-driven run no longer pins
//! `Wake::EveryCycle` — skipped windows synthesize their carry-forward
//! sample rows instead — so the exported Perfetto timeline and sampled
//! CSV must be byte-identical between dense and event stepping.

use proptest::prelude::*;
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant};
use sc_mem::{DramConfig, L2Config};
use sc_trace::{TraceConfig, TraceSession};

const MAX_CYCLES: u64 = 50_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tiled multi-cluster runs — the path that threads the tracer
    /// through cores, DMA engines, TCDMs and the shared L2 — are
    /// invariant under trace subscription, across grid shapes, hart and
    /// cluster counts, L2 pressure and sampling cadence.
    #[test]
    fn subscribed_tracer_never_changes_results(
        ny in 2u32..5,
        nz in 2u32..5,
        harts in 1u32..4,
        clusters in 1u32..3,
        underfit in any::<bool>(),
        sample_idx in 0usize..3,
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let cap = 8u32 << 10;
        let Ok(tk) = gen.build_system_tiled(clusters, harts, cap) else {
            return Ok(()); // too small a TCDM cap for this shape
        };
        let ws = tk.working_set().clone();
        let l2 = L2Config::new()
            .with_capacity_bytes(if underfit {
                ws.underfit_capacity(256 * 4)
            } else {
                ws.overfit_capacity(256 * 4)
            })
            .with_ways(4)
            .with_mshrs(8)
            .with_refill_channels(2)
            .with_write_back(true);
        let cfg = CoreConfig::new();
        let dram = DramConfig::new().with_latency(32);

        let off = tk
            .run(cfg, l2, dram, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("untraced: {e}")))?;
        let session = TraceSession::new(
            TraceConfig::new().with_sample_every([64u64, 256, 1024][sample_idx]),
        );
        let on = tk
            .run_traced(cfg, l2, dram, MAX_CYCLES, session.tracer(), SchedMode::Dense)
            .map_err(|e| TestCaseError::fail(format!("traced: {e}")))?;

        prop_assert_eq!(on.summary.cycles, off.summary.cycles);
        prop_assert_eq!(on.summary.l2_refill_beats, off.summary.l2_refill_beats);
        prop_assert_eq!(on.summary.l2_writeback_beats, off.summary.l2_writeback_beats);
        for (a, b) in off
            .summary
            .per_cluster
            .iter()
            .zip(&on.summary.per_cluster)
        {
            for (ca, cb) in a.per_core.iter().zip(&b.per_core) {
                prop_assert_eq!(&ca.counters, &cb.counters);
                prop_assert_eq!(&ca.region, &cb.region);
            }
            prop_assert_eq!(&a.dma, &b.dma);
        }
        match (&off.summary.l2, &on.summary.l2) {
            (Some(a), Some(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
        }
        // And the subscription actually observed the run.
        prop_assert!(session.events_buffered() > 0);
    }

    /// A traced event-driven run exports the exact trace a traced dense
    /// run does: same timeline JSON, same sampled-counter CSV byte for
    /// byte. This is what licenses the event scheduler to fast-forward
    /// tracer-subscribed runs (synthesizing carry-forward samples across
    /// skipped windows) instead of pinning `Wake::EveryCycle`.
    #[test]
    fn event_scheduling_never_changes_the_exported_trace(
        ny in 2u32..5,
        nz in 2u32..5,
        harts in 1u32..4,
        clusters in 1u32..3,
        sample_idx in 0usize..5,
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        // Parked completion waits maximise the skippable idle windows
        // the event scheduler must reconstruct samples across.
        let Ok(tk) = gen.build_system_tiled(clusters, harts, 8u32 << 10) else {
            return Ok(());
        };
        let cfg = CoreConfig::new();
        let l2 = L2Config::new().with_refill_latency(64).with_refill_cycles_per_beat(1);
        let dram = DramConfig::new().with_latency(32);
        let sample_every = [1u64, 7, 64, 256, 1024][sample_idx];

        let mut exports = Vec::new();
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let session = TraceSession::new(TraceConfig::new().with_sample_every(sample_every));
            let run = tk
                .run_traced(cfg, l2, dram, MAX_CYCLES, session.tracer(), mode)
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))?;
            exports.push((run.summary.cycles, session.perfetto_json(), session.samples_csv()));
        }
        let (dense_cycles, dense_json, dense_csv) = &exports[0];
        let (event_cycles, event_json, event_csv) = &exports[1];
        prop_assert_eq!(dense_cycles, event_cycles);
        prop_assert_eq!(dense_json, event_json, "timelines diverge");
        prop_assert_eq!(dense_csv, event_csv, "sampled counter rows diverge");
        // The cadence actually produced rows to compare.
        prop_assert!(dense_csv.lines().count() > 1, "no samples were taken");
    }
}

/// The cadence-aligned skip-window pin: at sampling cadences small
/// enough that every park boundary lands on (or next to) a cadence
/// multiple — down to cadence 1, where *every* cycle is one — a skip
/// window beginning exactly on a cadence point owns that cycle's sample
/// row and must emit it exactly once. The historical hazard is a window
/// re-entered at a cadence point (a watchdog-capped partial skip, a
/// stage boundary) re-emitting a row an earlier window or a dense cycle
/// already produced; both skip loops now track the next *owed* point
/// explicitly, and this pin holds the exported CSV byte-identical
/// across the whole adversarial cadence range.
#[test]
fn cadence_aligned_skip_windows_never_duplicate_sample_rows() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 4, 4),
        Variant::ChainingPlus,
    )
    .expect("valid combination");
    for harts in [1u32, 2, 4] {
        for clusters in [1u32, 2] {
            let Ok(tk) = gen.build_system_tiled(clusters, harts, 8u32 << 10) else {
                continue;
            };
            let cfg = CoreConfig::new();
            let l2 = L2Config::new()
                .with_refill_latency(64)
                .with_refill_cycles_per_beat(1);
            let dram = DramConfig::new().with_latency(32);
            for cadence in 1u64..=9 {
                let mut exports = Vec::new();
                for mode in [SchedMode::Dense, SchedMode::Event] {
                    let session = TraceSession::new(TraceConfig::new().with_sample_every(cadence));
                    let run = tk
                        .run_traced(cfg, l2, dram, MAX_CYCLES, session.tracer(), mode)
                        .unwrap_or_else(|e| {
                            panic!("h={harts} c={clusters} cad={cadence} {mode:?}: {e}")
                        });
                    exports.push((run.summary.cycles, session.samples_csv()));
                }
                assert_eq!(
                    exports[0].0, exports[1].0,
                    "cycles diverge at h={harts} c={clusters} cad={cadence}"
                );
                assert_eq!(
                    exports[0].1, exports[1].1,
                    "sample rows diverge at h={harts} c={clusters} cad={cadence}"
                );
            }
        }
    }
}
