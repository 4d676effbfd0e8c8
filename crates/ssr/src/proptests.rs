//! Property tests for the SSR substrate.

use proptest::prelude::*;
use sc_mem::{Store, Tcdm, TcdmConfig};

use crate::{AddrGen, AffinePattern, CfgAddr, DataMover, StreamDir};

fn pattern() -> impl Strategy<Value = AffinePattern> {
    (
        0u32..64,
        proptest::collection::vec((1u32..5, -64i32..64), 1..5),
        0u32..3,
    )
        .prop_map(|(base_word, loops, repeat)| {
            AffinePattern::from_loops(2048 + base_word * 8, &loops).with_repeat(repeat)
        })
}

/// A short word-aligned walk inside an 8 KiB TCDM, so every access of
/// a stream over it succeeds.
fn aligned_pattern() -> impl Strategy<Value = AffinePattern> {
    (
        0u32..64,
        proptest::collection::vec((1u32..5, -8i32..8), 1..3),
        0u32..3,
    )
        .prop_map(|(base_word, loops, repeat)| {
            let loops: Vec<(u32, i32)> = loops.into_iter().map(|(n, s)| (n, s * 8)).collect();
            AffinePattern::from_loops(2048 + base_word * 8, &loops).with_repeat(repeat)
        })
}

proptest! {
    #[test]
    fn addrgen_yields_exactly_total_elements(pat in pattern()) {
        let n = AddrGen::new(pat).count() as u64;
        prop_assert_eq!(n, pat.total_elements());
    }

    #[test]
    fn addrgen_matches_reference_nest(pat in pattern()) {
        let got: Vec<u32> = AddrGen::new(pat).collect();
        let mut want = Vec::new();
        let b = pat.bounds;
        for i3 in 0..b[3] {
            for i2 in 0..b[2] {
                for i1 in 0..b[1] {
                    for i0 in 0..b[0] {
                        let addr = i64::from(pat.base)
                            + i64::from(i0) * i64::from(pat.strides[0])
                            + i64::from(i1) * i64::from(pat.strides[1])
                            + i64::from(i2) * i64::from(pat.strides[2])
                            + i64::from(i3) * i64::from(pat.strides[3]);
                        for _ in 0..=pat.repeat {
                            want.push(addr as u32);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn read_stream_delivers_memory_contents_in_order(
        n in 1u32..40,
        capacity in 1usize..6,
    ) {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(8192).with_banks(8));
        for i in 0..n {
            tcdm.write_f64(i * 8, f64::from(i) * 1.5).unwrap();
        }
        let mut dm = DataMover::new(0, sc_mem::PortId(1), capacity);
        dm.arm(AffinePattern::linear_f64(0, n), StreamDir::Read).unwrap();
        let mut got = Vec::new();
        let mut guard = 0;
        while !dm.is_done() {
            guard += 1;
            prop_assert!(guard < 10_000, "stream did not converge");
            if dm.can_pop() {
                got.push(f64::from_bits(dm.pop().unwrap()));
            }
            if let Some(req) = dm.request() {
                let g = tcdm.arbitrate(&[req]);
                if g[0] {
                    dm.apply_grant(&mut tcdm).unwrap();
                }
            }
            dm.advance();
        }
        let want: Vec<f64> = (0..n).map(|i| f64::from(i) * 1.5).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn planned_grant_matches_recomputed_grant(
        write in any::<bool>(),
        capacity in 1usize..6,
        first in aligned_pattern(),
        second in aligned_pattern(),
        cycles in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..400),
    ) {
        // Two movers in lock-step over two memories: one places its
        // requests with `plan_request` (the grant applies the kept
        // plan), the other with `request` (the grant decides again).
        // Random denials drop plans, and a finished stream is re-armed
        // with a second pattern in the other direction, so planned
        // grants follow denials, re-arms and both directions.
        let mem = || {
            let mut t = Tcdm::new(TcdmConfig::new().with_size(8192).with_banks(8));
            for w in 0..1024u32 {
                t.write_u64(w * 8, u64::from(w) * 3 + 1).unwrap();
            }
            t
        };
        let (mut planned_mem, mut recomputed_mem) = (mem(), mem());
        let mut planned = DataMover::new(0, sc_mem::PortId(1), capacity);
        let mut recomputed = planned.clone();
        let dir = |write: bool| if write { StreamDir::Write } else { StreamDir::Read };
        let mut streams = [(second, !write)].into_iter();
        planned.arm(first, dir(write)).unwrap();
        recomputed.arm(first, dir(write)).unwrap();
        let mut to_push = if write { first.total_elements() } else { 0 };
        for (cycle, (grant, consume)) in cycles.into_iter().enumerate() {
            if planned.is_done() {
                let Some((pattern, write)) = streams.next() else { break };
                planned.arm(pattern, dir(write)).unwrap();
                recomputed.arm(pattern, dir(write)).unwrap();
                to_push = if write { pattern.total_elements() } else { 0 };
            }
            if consume && planned.can_pop() {
                prop_assert_eq!(planned.pop().unwrap(), recomputed.pop().unwrap());
            }
            if consume && to_push > 0 && planned.can_push() {
                planned.push(cycle as u64).unwrap();
                recomputed.push(cycle as u64).unwrap();
                to_push -= 1;
            }
            let request = planned.plan_request();
            prop_assert_eq!(request, recomputed.request());
            prop_assert_eq!(planned.has_planned_request(), request.is_some());
            if request.is_some() {
                if grant {
                    planned.apply_grant(&mut planned_mem).unwrap();
                    recomputed.apply_grant(&mut recomputed_mem).unwrap();
                } else {
                    planned.note_denied();
                    recomputed.note_denied();
                }
            }
            prop_assert!(!planned.has_planned_request());
            planned.advance();
            recomputed.advance();
            prop_assert_eq!(planned.fifo_len(), recomputed.fifo_len());
            prop_assert_eq!(planned.stats(), recomputed.stats());
            prop_assert_eq!(planned.is_done(), recomputed.is_done());
            prop_assert_eq!(planned.can_pop(), recomputed.can_pop());
        }
        for w in 0..1024u32 {
            prop_assert_eq!(planned_mem.read_u64(w * 8), recomputed_mem.read_u64(w * 8));
        }
    }

    #[test]
    fn cfg_addr_roundtrips(dm in 0u8..32, reg in 0u8..128) {
        let a = CfgAddr { dm, reg };
        prop_assert_eq!(CfgAddr::from_imm(a.to_imm()), a);
    }
}
