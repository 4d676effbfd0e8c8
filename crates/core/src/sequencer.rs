//! The FP sequencer: offload queue + FREP hardware loop.
//!
//! The integer core pushes FP instructions (with integer operands already
//! resolved) into a small queue and *keeps running* — Snitch's pseudo
//! dual-issue. The sequencer drains the queue towards the FP issue stage.
//! A `frep` marker makes it capture the next `n_instr` instructions and
//! replay them without the integer core refetching or re-issuing anything:
//! the FP loop runs from the sequence buffer while the integer core
//! executes the surrounding address arithmetic and branches.

use sc_fpu::BoundedFifo;
use sc_isa::Instruction;

use crate::uop::FpUop;

/// An FP instruction offloaded from the integer core.
///
/// The integer side resolves everything it owns at offload time: memory
/// addresses for FP loads/stores and the integer source operand of
/// int→float conversions/moves. It also decodes the instruction into the
/// issue record the FP issue stage reads on every attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadedFp {
    /// The instruction.
    pub inst: Instruction,
    /// `inst` decoded ([`FpUop::decode`]).
    pub uop: FpUop,
    /// Resolved byte address (FP loads/stores).
    pub addr: Option<u32>,
    /// Resolved integer source operand (`fcvt.d.w`, `fmv.w.x`, ...).
    pub int_operand: Option<u32>,
}

/// Items travelling through the offload queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeqItem {
    /// A regular FP instruction.
    Fp(OffloadedFp),
    /// A FREP marker with the repetition count already read from the
    /// integer register file (`reg value + 1` iterations).
    Frep {
        /// Outer (repeat whole block) vs inner (repeat each instruction).
        is_outer: bool,
        /// Number of body instructions that follow.
        n_instr: u16,
        /// Total iteration count (≥ 1).
        n_rep: u32,
        /// Maximum register stagger offset.
        stagger_max: u8,
        /// Which operands to stagger (bit 0 = rd, 1 = rs1, 2 = rs2, 3 = rs3).
        stagger_mask: u8,
    },
}

/// Errors raised by the sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// FREP body larger than the sequence buffer.
    BodyTooLarge {
        /// Requested body size.
        n_instr: u16,
        /// Hardware buffer capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::BodyTooLarge { n_instr, capacity } => {
                write!(
                    f,
                    "frep body of {n_instr} exceeds sequence buffer of {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for SeqError {}

#[derive(Debug, Clone)]
enum SeqState {
    /// Passing instructions straight through.
    Passthrough,
    /// Outer FREP: capturing the body while issuing its first iteration.
    Capture {
        remaining: u16,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
    /// Outer FREP: replaying the captured body from the buffer.
    Replay {
        pos: usize,
        iter: u32,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
    /// Inner FREP: repeating each incoming instruction `n_rep` times.
    Inner {
        remaining: u16,
        rep_done: u32,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
}

/// The sequencer itself.
#[derive(Debug, Clone)]
pub struct Sequencer {
    inbox: BoundedFifo<SeqItem>,
    buffer: Vec<OffloadedFp>,
    buffer_capacity: usize,
    state: SeqState,
    replayed: u64,
    /// The renamed record of a staggered issue ([`Sequencer::peek`]).
    staged: Option<OffloadedFp>,
}

impl Sequencer {
    /// Creates a sequencer with the given queue depth and buffer size.
    #[must_use]
    pub fn new(queue_depth: usize, buffer_capacity: usize) -> Self {
        Sequencer {
            inbox: BoundedFifo::new(queue_depth),
            buffer: Vec::with_capacity(buffer_capacity),
            buffer_capacity,
            state: SeqState::Passthrough,
            replayed: 0,
            staged: None,
        }
    }

    /// Whether the offload queue can take another item this cycle.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        !self.inbox.is_full()
    }

    /// Offloads an item from the integer core.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — gate with [`Sequencer::can_accept`]
    /// (the integer core stalls instead).
    pub fn offload(&mut self, item: SeqItem) {
        self.inbox.push(item);
    }

    /// Whether nothing is buffered, queued or mid-replay.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.inbox.is_empty() && matches!(self.state, SeqState::Passthrough)
    }

    /// Instructions issued from the sequence buffer rather than the
    /// integer core (they cost no fetch energy).
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// High-water mark of the offload queue (sizing diagnostics).
    #[must_use]
    pub fn queue_high_water(&self) -> usize {
        self.inbox.high_water()
    }

    /// The instruction the FP issue stage should consider this cycle.
    ///
    /// Does not consume it; call [`Sequencer::consume`] after a successful
    /// issue. Returns `None` when no instruction is available (the marker
    /// handling inside never yields an issuable instruction by itself).
    ///
    /// The record is returned by reference, never copied: the inbox head,
    /// the sequence-buffer entry being replayed, or — only when staggering
    /// renames the instruction — the one staged slot holding the renamed
    /// record. The issue stage attempts the head every cycle until it
    /// issues, so this keeps the record off the per-cycle return path.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::BodyTooLarge`] when a FREP marker requests more
    /// body instructions than the buffer holds.
    pub fn peek(&mut self) -> Result<Option<&OffloadedFp>, SeqError> {
        // Resolve a marker at the queue head first (zero-cycle in Snitch:
        // the marker is consumed by the sequencer, not issued). Markers
        // only arrive between loops, so one check suffices.
        if let (
            SeqState::Passthrough,
            Some(&SeqItem::Frep {
                is_outer,
                n_instr,
                n_rep,
                stagger_max,
                stagger_mask,
            }),
        ) = (&self.state, self.inbox.front())
        {
            if n_instr as usize > self.buffer_capacity {
                return Err(SeqError::BodyTooLarge {
                    n_instr,
                    capacity: self.buffer_capacity,
                });
            }
            self.inbox.pop();
            self.buffer.clear();
            self.state = if is_outer {
                SeqState::Capture {
                    remaining: n_instr,
                    n_rep,
                    stagger_max,
                    stagger_mask,
                }
            } else {
                SeqState::Inner {
                    remaining: n_instr,
                    rep_done: 0,
                    n_rep,
                    stagger_max,
                    stagger_mask,
                }
            };
        }
        let (fp, iter, stagger_max, stagger_mask) = match self.state {
            // The first iteration of an outer loop issues as captured
            // (stagger offset 0).
            SeqState::Passthrough | SeqState::Capture { .. } => return Ok(fp_head(&self.inbox)),
            SeqState::Replay {
                pos,
                iter,
                stagger_max,
                stagger_mask,
                ..
            } => (&self.buffer[pos], iter, stagger_max, stagger_mask),
            SeqState::Inner {
                rep_done,
                stagger_max,
                stagger_mask,
                ..
            } => match fp_head(&self.inbox) {
                Some(fp) => (fp, rep_done, stagger_max, stagger_mask),
                None => return Ok(None),
            },
        };
        match renamed(fp, stagger_offset(iter, stagger_max), stagger_mask) {
            Some(renamed) => Ok(Some(self.staged.insert(renamed))),
            None => Ok(Some(fp)),
        }
    }

    /// Consumes the instruction returned by the last [`Sequencer::peek`].
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to consume.
    pub fn consume(&mut self) {
        match self.state {
            SeqState::Passthrough => {
                let item = self.inbox.pop().expect("consume without peek");
                debug_assert!(matches!(item, SeqItem::Fp(_)));
            }
            SeqState::Capture {
                remaining,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                let item = self.inbox.pop().expect("consume without peek");
                let SeqItem::Fp(fp) = item else {
                    unreachable!("marker in capture")
                };
                self.buffer.push(fp);
                let remaining = remaining - 1;
                if remaining > 0 {
                    self.state = SeqState::Capture {
                        remaining,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else if n_rep > 1 {
                    self.state = SeqState::Replay {
                        pos: 0,
                        iter: 1,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    self.buffer.clear();
                    self.state = SeqState::Passthrough;
                }
            }
            SeqState::Replay {
                pos,
                iter,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                self.replayed += 1;
                let pos = pos + 1;
                if pos < self.buffer.len() {
                    self.state = SeqState::Replay {
                        pos,
                        iter,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else if iter + 1 < n_rep {
                    self.state = SeqState::Replay {
                        pos: 0,
                        iter: iter + 1,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    self.buffer.clear();
                    self.state = SeqState::Passthrough;
                }
            }
            SeqState::Inner {
                remaining,
                rep_done,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                let rep_done = rep_done + 1;
                if rep_done > 0 && rep_done < n_rep {
                    self.replayed += u64::from(rep_done > 1);
                    self.state = SeqState::Inner {
                        remaining,
                        rep_done,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    if rep_done > 1 {
                        self.replayed += 1;
                    }
                    self.inbox.pop().expect("consume without peek");
                    let remaining = remaining - 1;
                    if remaining > 0 {
                        self.state = SeqState::Inner {
                            remaining,
                            rep_done: 0,
                            n_rep,
                            stagger_max,
                            stagger_mask,
                        };
                    } else {
                        self.state = SeqState::Passthrough;
                    }
                }
            }
        }
    }
}

fn stagger_offset(iter: u32, stagger_max: u8) -> u8 {
    if stagger_max == 0 {
        0
    } else {
        (iter % (u32::from(stagger_max) + 1)) as u8
    }
}

/// The FP instruction at the head of the inbox. A marker there is
/// resolved by [`Sequencer::peek`] before any loop state reads the head,
/// and loops do not nest.
fn fp_head(inbox: &BoundedFifo<SeqItem>) -> Option<&OffloadedFp> {
    match inbox.front() {
        Some(SeqItem::Fp(fp)) => Some(fp),
        Some(SeqItem::Frep { .. }) => unreachable!("nested frep rejected by the assembler"),
        None => None,
    }
}

/// Applies Snitch register staggering: selected operand register indices
/// are offset by `offset` (mod 32). Returns `None` when nothing is
/// renamed (offset or mask zero, or an instruction without staggerable
/// operands). A renamed instruction is decoded afresh: renaming can make
/// two operands name the same register, or split a repeated one.
fn renamed(fp: &OffloadedFp, offset: u8, mask: u8) -> Option<OffloadedFp> {
    use sc_isa::FpReg;
    if offset == 0 || mask == 0 {
        return None;
    }
    let bump = |r: FpReg| FpReg::new((r.index() + offset) % 32);
    let inst = match fp.inst {
        Instruction::FpBin {
            op,
            fmt,
            frd,
            frs1,
            frs2,
        } => Instruction::FpBin {
            op,
            fmt,
            frd: if mask & 1 != 0 { bump(frd) } else { frd },
            frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
            frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
        },
        Instruction::FpFma {
            op,
            fmt,
            frd,
            frs1,
            frs2,
            frs3,
        } => Instruction::FpFma {
            op,
            fmt,
            frd: if mask & 1 != 0 { bump(frd) } else { frd },
            frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
            frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
            frs3: if mask & 8 != 0 { bump(frs3) } else { frs3 },
        },
        _ => return None,
    };
    Some(OffloadedFp {
        inst,
        uop: FpUop::decode(&inst).expect("a renamed FP instruction is an FP instruction"),
        ..*fp
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_isa::{FpBinOp, FpFormat, FpReg};

    fn offloaded(inst: Instruction) -> OffloadedFp {
        OffloadedFp {
            inst,
            uop: FpUop::decode(&inst).expect("FP instruction"),
            addr: None,
            int_operand: None,
        }
    }

    fn fp(i: u8) -> OffloadedFp {
        offloaded(Instruction::FpBin {
            op: FpBinOp::Add,
            fmt: FpFormat::Double,
            frd: FpReg::new(i),
            frs1: FpReg::FT0,
            frs2: FpReg::FT1,
        })
    }

    fn drain(seq: &mut Sequencer) -> Vec<OffloadedFp> {
        let mut out = Vec::new();
        while let Some(&i) = seq.peek().unwrap() {
            out.push(i);
            seq.consume();
        }
        out
    }

    #[test]
    fn passthrough_preserves_order() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        assert_eq!(got, vec![fp(3), fp(4)]);
        assert!(s.is_drained());
        assert_eq!(s.replayed(), 0);
    }

    #[test]
    fn outer_frep_replays_block() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 2,
            n_rep: 3,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], fp(3));
        assert_eq!(got[1], fp(4));
        assert_eq!(got[2], fp(3));
        assert_eq!(got[5], fp(4));
        assert!(s.is_drained());
        assert_eq!(s.replayed(), 4, "iterations 2 and 3 come from the buffer");
    }

    #[test]
    fn inner_frep_repeats_each_instruction() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: false,
            n_instr: 2,
            n_rep: 3,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        let want = vec![fp(3), fp(3), fp(3), fp(4), fp(4), fp(4)];
        assert_eq!(got, want);
        assert!(s.is_drained());
    }

    #[test]
    fn frep_single_iteration_degenerates_to_passthrough() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 1,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        assert_eq!(drain(&mut s), vec![fp(3)]);
        assert!(s.is_drained());
    }

    #[test]
    fn body_too_large_is_reported() {
        let mut s = Sequencer::new(8, 4);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 5,
            n_rep: 2,
            stagger_max: 0,
            stagger_mask: 0,
        });
        assert_eq!(
            s.peek().unwrap_err(),
            SeqError::BodyTooLarge {
                n_instr: 5,
                capacity: 4
            }
        );
    }

    #[test]
    fn stagger_rotates_destination() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 4,
            stagger_max: 1,
            stagger_mask: 0b0001, // stagger rd only
        });
        s.offload(SeqItem::Fp(fp(8)));
        let got = drain(&mut s);
        let dests: Vec<u8> = got
            .iter()
            .map(|o| match o.inst {
                Instruction::FpBin { frd, .. } => frd.index(),
                _ => unreachable!(),
            })
            .collect();
        // Iterations 0,1,2,3 → offsets 0,1,0,1.
        assert_eq!(dests, vec![8, 9, 8, 9]);
    }

    #[test]
    fn staggered_replays_carry_the_record_of_the_renamed_instruction() {
        // Staggering rs1 only merges `f3, f4` into `f4, f4` at offset 1
        // and splits the repeated `f0` of the fmadd: the distinct sources
        // change, so the record must be the renamed instruction's.
        let f = FpReg::new;
        let body = [
            Instruction::FpBin {
                op: FpBinOp::Add,
                fmt: FpFormat::Double,
                frd: f(8),
                frs1: f(3),
                frs2: f(4),
            },
            Instruction::FpFma {
                op: sc_isa::FmaOp::Madd,
                fmt: FpFormat::Double,
                frd: f(9),
                frs1: f(0),
                frs2: f(0),
                frs3: f(0),
            },
        ];
        for is_outer in [true, false] {
            let mut s = Sequencer::new(8, 16);
            s.offload(SeqItem::Frep {
                is_outer,
                n_instr: 2,
                n_rep: 5,
                stagger_max: 2,
                stagger_mask: 0b0010,
            });
            for inst in body {
                s.offload(SeqItem::Fp(offloaded(inst)));
            }
            let got = drain(&mut s);
            assert_eq!(got.len(), 10);
            let mut renamed = 0;
            for item in &got {
                assert_eq!(Some(item.uop), FpUop::decode(&item.inst), "{}", item.inst);
                renamed += usize::from(!body.contains(&item.inst));
            }
            assert!(renamed > 0, "the replay staggers some instructions");
            assert!(got.iter().any(|item| item.uop.sources() == [f(4)]));
        }
    }

    #[test]
    fn partial_capture_waits_for_body() {
        // Marker arrives before its body: peek must return the first body
        // instruction as soon as it lands, not stall forever.
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 2,
            stagger_max: 0,
            stagger_mask: 0,
        });
        assert_eq!(s.peek().unwrap(), None);
        assert!(!s.is_drained());
        s.offload(SeqItem::Fp(fp(5)));
        assert_eq!(s.peek().unwrap(), Some(&fp(5)));
        s.consume();
        assert_eq!(s.peek().unwrap(), Some(&fp(5)));
        s.consume();
        assert!(s.is_drained());
    }

    // ------------------------------------------------------------------
    // Differential reference: the by-value `peek`
    // ------------------------------------------------------------------

    impl Sequencer {
        /// `peek` as it was when it returned the record by value and
        /// staggered it with [`apply_stagger`] on every call. Kept as the
        /// reference the by-reference `peek` is pinned against.
        fn peek_reference(&mut self) -> Result<Option<OffloadedFp>, SeqError> {
            loop {
                match self.state {
                    SeqState::Passthrough => match self.inbox.front() {
                        Some(&SeqItem::Frep {
                            is_outer,
                            n_instr,
                            n_rep,
                            stagger_max,
                            stagger_mask,
                        }) => {
                            if n_instr as usize > self.buffer_capacity {
                                return Err(SeqError::BodyTooLarge {
                                    n_instr,
                                    capacity: self.buffer_capacity,
                                });
                            }
                            self.inbox.pop();
                            self.buffer.clear();
                            self.state = if is_outer {
                                SeqState::Capture {
                                    remaining: n_instr,
                                    n_rep,
                                    stagger_max,
                                    stagger_mask,
                                }
                            } else {
                                SeqState::Inner {
                                    remaining: n_instr,
                                    rep_done: 0,
                                    n_rep,
                                    stagger_max,
                                    stagger_mask,
                                }
                            };
                        }
                        Some(&SeqItem::Fp(fp)) => return Ok(Some(fp)),
                        None => return Ok(None),
                    },
                    SeqState::Capture { .. } => match self.inbox.front() {
                        Some(&SeqItem::Fp(fp)) => return Ok(Some(fp)),
                        Some(&SeqItem::Frep { .. }) => unreachable!("nested frep"),
                        None => return Ok(None),
                    },
                    SeqState::Replay {
                        pos,
                        iter,
                        stagger_max,
                        stagger_mask,
                        ..
                    } => {
                        let fp = self.buffer[pos];
                        let offset = stagger_offset(iter, stagger_max);
                        return Ok(Some(apply_stagger(fp, offset, stagger_mask)));
                    }
                    SeqState::Inner {
                        rep_done,
                        stagger_max,
                        stagger_mask,
                        ..
                    } => match self.inbox.front() {
                        Some(&SeqItem::Fp(fp)) => {
                            let offset = stagger_offset(rep_done, stagger_max);
                            return Ok(Some(apply_stagger(fp, offset, stagger_mask)));
                        }
                        Some(&SeqItem::Frep { .. }) => unreachable!("nested frep"),
                        None => return Ok(None),
                    },
                }
            }
        }
    }

    /// Register staggering by value, as the reference applies it.
    fn apply_stagger(fp: OffloadedFp, offset: u8, mask: u8) -> OffloadedFp {
        if offset == 0 || mask == 0 {
            return fp;
        }
        let bump = |r: FpReg| FpReg::new((r.index() + offset) % 32);
        let inst = match fp.inst {
            Instruction::FpBin {
                op,
                fmt,
                frd,
                frs1,
                frs2,
            } => Instruction::FpBin {
                op,
                fmt,
                frd: if mask & 1 != 0 { bump(frd) } else { frd },
                frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
                frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
            },
            Instruction::FpFma {
                op,
                fmt,
                frd,
                frs1,
                frs2,
                frs3,
            } => Instruction::FpFma {
                op,
                fmt,
                frd: if mask & 1 != 0 { bump(frd) } else { frd },
                frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
                frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
                frs3: if mask & 8 != 0 { bump(frs3) } else { frs3 },
            },
            _ => return fp,
        };
        OffloadedFp {
            inst,
            uop: FpUop::decode(&inst).expect("FP instruction"),
            ..fp
        }
    }

    /// Sequence-buffer capacity of the differential test.
    const BUFFER: usize = 8;

    /// One unit of an offload stream: a lone FP instruction or a FREP
    /// loop (marker plus body).
    #[derive(Debug, Clone)]
    enum Block {
        Single(Instruction),
        Loop {
            is_outer: bool,
            n_rep: u32,
            stagger_max: u8,
            stagger_mask: u8,
            body: Vec<Instruction>,
        },
    }

    /// Registers drawn mostly from a small pool, so staggering often
    /// merges or splits repeated operands.
    fn fp_reg() -> impl Strategy<Value = FpReg> {
        prop_oneof![
            (0u8..4).prop_map(FpReg::new),
            (0u8..32).prop_map(FpReg::new)
        ]
    }

    fn body_inst() -> impl Strategy<Value = Instruction> {
        let base = sc_isa::IntReg::new(10);
        prop_oneof![
            (fp_reg(), fp_reg(), fp_reg()).prop_map(|(frd, frs1, frs2)| Instruction::FpBin {
                op: FpBinOp::Mul,
                fmt: FpFormat::Double,
                frd,
                frs1,
                frs2,
            }),
            (fp_reg(), fp_reg(), fp_reg(), fp_reg()).prop_map(|(frd, frs1, frs2, frs3)| {
                Instruction::FpFma {
                    op: sc_isa::FmaOp::Madd,
                    fmt: FpFormat::Double,
                    frd,
                    frs1,
                    frs2,
                    frs3,
                }
            }),
            (fp_reg(), 0i32..64).prop_map(move |(frd, offset)| Instruction::FpLoad {
                fmt: FpFormat::Double,
                frd,
                rs1: base,
                offset: offset * 8,
            }),
            (fp_reg(), 0i32..64).prop_map(move |(frs2, offset)| Instruction::FpStore {
                fmt: FpFormat::Double,
                frs2,
                rs1: base,
                offset: offset * 8,
            }),
        ]
    }

    fn block() -> impl Strategy<Value = Block> {
        prop_oneof![
            body_inst().prop_map(Block::Single),
            (
                any::<bool>(),
                1u32..6,
                0u8..4,
                0u8..16,
                proptest::collection::vec(body_inst(), 1..9),
            )
                .prop_map(|(is_outer, n_rep, stagger_max, stagger_mask, body)| {
                    Block::Loop {
                        is_outer,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                        body,
                    }
                }),
        ]
    }

    fn item(inst: Instruction) -> SeqItem {
        let addr = matches!(
            inst,
            Instruction::FpLoad { .. } | Instruction::FpStore { .. }
        )
        .then_some(0x100);
        SeqItem::Fp(OffloadedFp {
            addr,
            ..offloaded(inst)
        })
    }

    /// The offload stream of `blocks`, ending in a loop whose body does
    /// not fit the buffer when `oversized` is set.
    fn offload_stream(blocks: &[Block], oversized: Option<(bool, u16)>) -> Vec<SeqItem> {
        let mut items = Vec::new();
        for block in blocks {
            match block {
                Block::Single(inst) => items.push(item(*inst)),
                Block::Loop {
                    is_outer,
                    n_rep,
                    stagger_max,
                    stagger_mask,
                    body,
                } => {
                    items.push(SeqItem::Frep {
                        is_outer: *is_outer,
                        n_instr: body.len() as u16,
                        n_rep: *n_rep,
                        stagger_max: *stagger_max,
                        stagger_mask: *stagger_mask,
                    });
                    items.extend(body.iter().map(|&inst| item(inst)));
                }
            }
        }
        if let Some((is_outer, n_instr)) = oversized {
            items.push(SeqItem::Frep {
                is_outer,
                n_instr,
                n_rep: 2,
                stagger_max: 1,
                stagger_mask: 1,
            });
        }
        items
    }

    proptest! {
        #[test]
        fn peek_matches_the_by_value_reference(
            blocks in proptest::collection::vec(block(), 1..12),
            oversized in prop_oneof![
                Just(None),
                (any::<bool>(), 9u16..13).prop_map(Some),
            ],
            depth in 1usize..9,
            schedule in proptest::collection::vec(0u8..3, 0..200),
        ) {
            // Both sequencers see the same offloads and the same
            // peek/consume calls: `schedule` interleaves them at random
            // (0 offloads the next item, 1 peeks, 2 peeks and issues),
            // then offloads and issues alternate until the stream drains
            // or the oversized marker reaches the head.
            let items = offload_stream(&blocks, oversized);
            let mut fast = Sequencer::new(depth, BUFFER);
            let mut reference = Sequencer::new(depth, BUFFER);
            let (mut next, mut issued, mut error) = (0, 0, None);
            for step in 0..10_000 {
                let action = schedule.get(step).copied().unwrap_or(2 * (step % 2) as u8);
                if action == 0 {
                    prop_assert_eq!(fast.can_accept(), reference.can_accept());
                    if next < items.len() && fast.can_accept() {
                        fast.offload(items[next]);
                        reference.offload(items[next]);
                        next += 1;
                    }
                } else {
                    let got = fast.peek().map(Option::<&OffloadedFp>::copied);
                    prop_assert_eq!(&got, &reference.peek_reference());
                    match got {
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                        Ok(Some(_)) if action == 2 => {
                            fast.consume();
                            reference.consume();
                            issued += 1;
                        }
                        Ok(_) => {}
                    }
                }
                prop_assert_eq!(fast.replayed(), reference.replayed());
                prop_assert_eq!(fast.is_drained(), reference.is_drained());
                if next == items.len() && fast.is_drained() {
                    break;
                }
            }
            match oversized {
                Some((_, n_instr)) => prop_assert_eq!(
                    error,
                    Some(SeqError::BodyTooLarge { n_instr, capacity: BUFFER })
                ),
                None => {
                    prop_assert_eq!(error, None);
                    prop_assert!(next == items.len() && fast.is_drained());
                    let want: usize = blocks
                        .iter()
                        .map(|b| match b {
                            Block::Single(_) => 1,
                            Block::Loop { n_rep, body, .. } => body.len() * *n_rep as usize,
                        })
                        .sum();
                    prop_assert_eq!(issued, want);
                }
            }
        }
    }
}
