//! Property pins for the DMA engine:
//!
//! * any valid 1D/2D transfer round-trips Dram → TCDM → Dram
//!   byte-identically under random strides, alignments and timing,
//! * the cycle count respects the configured latency + bandwidth floor,
//! * beats/bytes accounting matches the descriptor geometry.

use proptest::prelude::*;
use sc_dma::{DmaEngine, Transfer, BEAT_BYTES};
use sc_mem::{Dram, DramConfig, PortId, Store, Tcdm, TcdmConfig};

const TCDM_BYTES: u32 = 16 << 10;

/// A random valid 2D geometry whose TCDM footprint fits the scratchpad
/// and whose rows never overlap (strides ≥ row length) so the
/// round-trip comparison is well defined.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    row_words: u32,
    reps: u32,
    dram_gap_words: u32,
    tcdm_gap_words: u32,
    dram_base_word: u32,
    tcdm_base_word: u32,
    latency: u32,
    cycles_per_beat: u32,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    (
        (1u32..24, 1u32..6, 0u32..5, 0u32..5),
        (0u32..64, 0u32..32, 0u32..20, 1u32..4),
    )
        .prop_map(
            |(
                (row_words, reps, dram_gap_words, tcdm_gap_words),
                (dram_base_word, tcdm_base_word, latency, cycles_per_beat),
            )| Geometry {
                row_words,
                reps,
                dram_gap_words,
                tcdm_gap_words,
                dram_base_word,
                tcdm_base_word,
                latency,
                cycles_per_beat,
            },
        )
}

impl Geometry {
    fn row_bytes(&self) -> u32 {
        self.row_words * BEAT_BYTES
    }

    fn dram_stride(&self) -> u32 {
        (self.row_words + self.dram_gap_words) * BEAT_BYTES
    }

    fn tcdm_stride(&self) -> u32 {
        (self.row_words + self.tcdm_gap_words) * BEAT_BYTES
    }

    fn total_beats(&self) -> u64 {
        u64::from(self.row_words) * u64::from(self.reps)
    }
}

proptest! {
    #[test]
    fn random_2d_transfers_roundtrip_byte_identically(g in geometry()) {
        let tcdm_base = g.tcdm_base_word * BEAT_BYTES;
        // Keep the TCDM footprint inside the scratchpad.
        prop_assume!(tcdm_base + (g.reps - 1) * g.tcdm_stride() + g.row_bytes() <= TCDM_BYTES);

        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(TCDM_BYTES).with_banks(8));
        let mut dram = Dram::new(
            DramConfig::new()
                .with_latency(g.latency)
                .with_cycles_per_beat(g.cycles_per_beat),
        );
        let src_base = g.dram_base_word * BEAT_BYTES;
        // A disjoint Dram region for the write-back leg.
        let dst_base = src_base + g.reps * g.dram_stride() + 0x10_0000;

        // Deterministic payload derived from the row/word position.
        let payload = |r: u32, w: u32| -> u64 {
            0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(u64::from(r) + 1)
                .wrapping_add(u64::from(w) * 0x0101_0101)
        };
        for r in 0..g.reps {
            for w in 0..g.row_words {
                dram.write_u64(src_base + r * g.dram_stride() + w * BEAT_BYTES, payload(r, w))
                    .unwrap();
            }
        }

        let mut dma = DmaEngine::new(PortId(4));
        dma.enqueue(Transfer {
            dram_addr: src_base,
            tcdm_addr: tcdm_base,
            row_bytes: g.row_bytes(),
            dram_stride: g.dram_stride(),
            tcdm_stride: g.tcdm_stride(),
            reps: g.reps,
            to_tcdm: true,
        })
        .unwrap();
        dma.enqueue(Transfer {
            dram_addr: dst_base,
            tcdm_addr: tcdm_base,
            row_bytes: g.row_bytes(),
            dram_stride: g.dram_stride(),
            tcdm_stride: g.tcdm_stride(),
            reps: g.reps,
            to_tcdm: false,
        })
        .unwrap();
        let cycles = dma.run_to_idle(&mut tcdm, &mut dram, 10_000_000).unwrap();

        // Byte-identical round trip.
        for r in 0..g.reps {
            for w in 0..g.row_words {
                prop_assert_eq!(
                    dram.read_u64(dst_base + r * g.dram_stride() + w * BEAT_BYTES).unwrap(),
                    payload(r, w),
                    "row {} word {} corrupted in Dram->TCDM->Dram round trip", r, w
                );
            }
        }

        // Timing floor: two transfers, each paying full latency, each
        // beat holding the channel for `cycles_per_beat` cycles (minus
        // the trailing gap the engine never waits out).
        let beats = g.total_beats();
        let floor = 2 * (u64::from(g.latency) + beats * u64::from(g.cycles_per_beat)
            - u64::from(g.cycles_per_beat - 1));
        prop_assert!(cycles >= floor, "cycles {} below timing floor {}", cycles, floor);

        // Accounting matches the geometry exactly (no competing masters,
        // so no conflicts).
        prop_assert_eq!(dma.stats().beats, 2 * beats);
        prop_assert_eq!(dma.stats().bytes_to_tcdm, beats * u64::from(BEAT_BYTES));
        prop_assert_eq!(dma.stats().bytes_from_tcdm, beats * u64::from(BEAT_BYTES));
        prop_assert_eq!(dma.stats().tcdm_conflicts, 0);
        prop_assert_eq!(dma.completed(), 2);
    }
}
