//! A generic in-order execution pipeline with hold-on-backpressure.
//!
//! [`Pipeline`] models a rigid pipeline of `depth` execute stages followed
//! by one **writeback stage**. Ops enter stage 0 at issue and advance one
//! stage per [`Pipeline::advance`] call (one call per simulated cycle).
//! An op that reaches the writeback stage stays there until the consumer
//! retires it with [`Pipeline::take_ready`]; while it waits, the whole
//! pipeline holds — this is the backpressure mechanism the chaining
//! extension uses (the paper's per-register valid bit: a completing write
//! to an occupied chained register holds in the final stage).
//!
//! The stage registers of this pipeline are exactly the storage the paper
//! repurposes as the tail of the logical FIFO of a chained register, and
//! they are stored the way such a FIFO is: as a ring. An unblocked cycle
//! moves every op one stage by rotating the ring's head, not by copying
//! each stage.
//!
//! The payload type `T` is chosen by the core (destination register,
//! computed result, trace id, ...); this crate only models timing.

use std::collections::VecDeque;

/// A rigid pipeline: `depth` execute stages plus one writeback slot.
///
/// # Examples
///
/// ```
/// use sc_fpu::Pipeline;
///
/// let mut p: Pipeline<u32> = Pipeline::new(3);
/// assert!(p.can_issue());
/// p.issue(7); // issue cycle: enters stage 0 at the end of this cycle
/// for _ in 0..4 {
///     assert_eq!(p.ready(), None);
///     p.advance(); // 3 execute stages + the hop into writeback
/// }
/// assert_eq!(p.ready(), Some(&7));
/// assert_eq!(p.take_ready(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    /// A ring of `depth + 1` slots, read from `head`: the op issued this
    /// cycle (it latches into stage 0 at `advance()`), then execute
    /// stages 0 to `depth - 1`. The last stage is thus the slot just
    /// before `head`, and moving every op one stage is one step of
    /// `head`.
    slots: Box<[Option<T>]>,
    /// The ring index of the issue slot.
    head: usize,
    /// Whether the issue slot holds this cycle's op.
    pending: bool,
    /// How many ops the issue slot and the execute stages hold (lets an
    /// idle pipeline's `advance` return without looking at its slots).
    in_flight: u32,
    /// The writeback slot; ops wait here for retirement.
    writeback: Option<T>,
    /// Number of cycles the writeback op has been blocked (diagnostics).
    blocked_cycles: u64,
    /// Total ops issued (utilisation accounting).
    issued: u64,
}

impl<T> Pipeline<T> {
    /// Creates a pipeline with `depth` execute stages (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: u32) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        Pipeline {
            slots: (0..=depth).map(|_| None).collect(),
            head: 0,
            pending: false,
            in_flight: 0,
            writeback: None,
            blocked_cycles: 0,
            issued: 0,
        }
    }

    /// Number of execute stages.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.slots.len() as u32 - 1
    }

    /// The ring index `place` slots after the issue slot (`place` up to
    /// `depth`): place 1 + `i` is execute stage `i`.
    fn slot(&self, place: usize) -> usize {
        let i = self.head + place;
        if i >= self.slots.len() {
            i - self.slots.len()
        } else {
            i
        }
    }

    /// The op currently in the writeback slot, if any.
    #[must_use]
    pub fn ready(&self) -> Option<&T> {
        self.writeback.as_ref()
    }

    /// Retires the writeback-slot op, freeing the pipeline to advance.
    pub fn take_ready(&mut self) -> Option<T> {
        self.writeback.take()
    }

    /// Whether a new op can be accepted this cycle.
    ///
    /// True when stage 0 is empty or will be vacated by this cycle's
    /// `advance()` — either the writeback slot is free (the whole
    /// pipeline shifts) or a bubble somewhere ahead lets the train
    /// behind it compress forward one stage.
    #[must_use]
    pub fn can_issue(&self) -> bool {
        // With the issue slot free, `in_flight` counts the stages' ops:
        // below `depth`, a bubble somewhere lets stage 0 vacate.
        !self.pending
            && ((self.in_flight as usize) < self.slots.len() - 1 || self.writeback.is_none())
    }

    /// Accepts an op; it occupies stage 0 from the next `advance()` on.
    ///
    /// # Panics
    ///
    /// Panics if [`Pipeline::can_issue`] is false.
    // `always`: at the FP issue stage's call site, behind its stall
    // checks, LLVM keeps a plain `#[inline]` call out of line and passes
    // the op through a stack slot read back as one wide load, which
    // stalls store-to-load forwarding on nearly every simulated cycle.
    #[inline(always)]
    pub fn issue(&mut self, op: T) {
        assert!(self.can_issue(), "issue into a full pipeline");
        self.slots[self.head] = Some(op);
        self.pending = true;
        self.in_flight += 1;
        self.issued += 1;
    }

    /// Ends the cycle: every op with a free slot ahead moves one stage
    /// (at most one — latency is per stage, bubbles never shortcut it),
    /// and any pending issue latches into stage 0.
    ///
    /// A blocked writeback op holds only the stages *behind occupied
    /// slots*: ops still compress forward into bubbles. This matters for
    /// the chaining extension — the stage registers are the tail of a
    /// chained register's logical FIFO, and a rigid all-or-nothing hold
    /// would shrink that FIFO's usable capacity to the writeback slot
    /// alone, deadlocking a push-only producer that runs ahead of its
    /// consumer by a pipeline's worth of elements (a real wedge flushed
    /// out by DMA-timing jitter in the tiled multi-cluster runs, pinned
    /// by `sc-kernels`' backpressure tests).
    ///
    /// Only a blocked writeback with ops behind it walks the stages. An
    /// idle pipeline returns at once; with the writeback slot free, the
    /// last stage's op (or bubble) moves into it and the emptied slot
    /// becomes the next issue slot by one step of the head.
    pub fn advance(&mut self) {
        if self.in_flight == 0 {
            self.blocked_cycles += u64::from(self.writeback.is_some());
            return;
        }
        self.pending = false;
        if self.writeback.is_none() {
            let last = if self.head == 0 {
                self.slots.len() - 1
            } else {
                self.head - 1
            };
            self.writeback = self.slots[last].take();
            self.in_flight -= u32::from(self.writeback.is_some());
            self.head = last;
        } else {
            self.compress();
        }
    }

    /// The held-writeback cycle: walking from the last stage back to the
    /// issue slot, every empty place pulls its predecessor, so the whole
    /// train behind a bubble advances one stage in one cycle.
    // `never`: kept apart, the walk leaves `advance` small enough to
    // inline at its per-cycle call site; with the walk inside it,
    // `advance` stays an out-of-line call.
    #[inline(never)]
    fn compress(&mut self) {
        self.blocked_cycles += 1;
        for place in (1..self.slots.len()).rev() {
            let (to, from) = (self.slot(place), self.slot(place - 1));
            if self.slots[to].is_none() {
                self.slots[to] = self.slots[from].take();
            }
        }
        debug_assert!(
            self.slots[self.head].is_none(),
            "stage 0 must be free after shift"
        );
    }

    /// Ops currently in flight (execute stages + writeback + pending).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.in_flight as usize + usize::from(self.writeback.is_some())
    }

    /// Whether no ops are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Total ops ever issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total cycles the writeback slot spent blocked.
    #[must_use]
    pub fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles
    }

    /// Iterates over the in-flight payloads from oldest (writeback) to
    /// youngest (pending), exposing the "pipeline registers" that form the
    /// tail of a chained register's logical FIFO.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        // The ring read backwards from the last stage: first the slots
        // before the head (the last stage is the one just before it),
        // then those from the head on (the issue slot last).
        let (behind, from_head) = self.slots.split_at(self.head);
        self.writeback
            .iter()
            .chain(behind.iter().rev().flatten())
            .chain(from_head.iter().rev().flatten())
    }
}

/// An iterative, unpipelined unit (divide/sqrt): accepts one op at a time
/// and busies itself for the op's latency.
#[derive(Debug, Clone)]
pub struct IterativeUnit<T> {
    current: Option<(T, u32)>,
    done: Option<T>,
    issued: u64,
}

impl<T> IterativeUnit<T> {
    /// Creates an idle unit.
    #[must_use]
    pub fn new() -> Self {
        IterativeUnit {
            current: None,
            done: None,
            issued: 0,
        }
    }

    /// Whether the unit can accept a new op (idle and result drained).
    #[must_use]
    pub fn can_issue(&self) -> bool {
        self.current.is_none() && self.done.is_none()
    }

    /// Starts an op that takes `latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the unit is busy.
    pub fn issue(&mut self, op: T, latency: u32) {
        assert!(self.can_issue(), "issue into a busy iterative unit");
        self.current = Some((op, latency.max(1)));
        self.issued += 1;
    }

    /// The finished op awaiting retirement, if any.
    #[must_use]
    pub fn ready(&self) -> Option<&T> {
        self.done.as_ref()
    }

    /// Retires the finished op.
    pub fn take_ready(&mut self) -> Option<T> {
        self.done.take()
    }

    /// Ends the cycle: counts down; on reaching zero the op moves to the
    /// ready slot (where it may wait indefinitely, holding the unit).
    pub fn advance(&mut self) {
        if let Some((_, cycles)) = self.current.as_mut() {
            *cycles -= 1;
            if *cycles == 0 {
                if let Some((op, _)) = self.current.take() {
                    debug_assert!(self.done.is_none());
                    self.done = Some(op);
                }
            }
        }
    }

    /// Whether any op is executing or waiting for retirement.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.current.is_some() || self.done.is_some()
    }

    /// Total ops ever issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl<T> Default for IterativeUnit<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A bounded FIFO used for offload queues and stream buffers.
///
/// A thin wrapper over [`VecDeque`] that makes the capacity explicit and
/// panics on misuse, so queue-overflow bugs surface immediately in tests.
#[derive(Debug, Clone)]
pub struct BoundedFifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    high_water: usize,
}

impl<T> BoundedFifo<T> {
    /// Creates a FIFO with the given capacity (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "FIFO capacity must be at least 1");
        BoundedFifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
        }
    }

    /// Maximum number of elements.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Pushes an element.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — callers must check [`BoundedFifo::is_full`]
    /// (that check is the hardware backpressure signal).
    pub fn push(&mut self, item: T) {
        assert!(!self.is_full(), "push into a full FIFO");
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
    }

    /// Pops the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest element.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Highest occupancy ever observed (capacity-sizing diagnostics).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// The shifting pipeline the ring replaced, kept as the differential
/// reference: every `advance` walks all stages and copies each op one
/// slot forward.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ShiftPipeline<T> {
    stages: Vec<Option<T>>,
    in_stages: u32,
    writeback: Option<T>,
    pending: Option<T>,
    blocked_cycles: u64,
}

#[cfg(test)]
impl<T> ShiftPipeline<T> {
    pub(crate) fn new(depth: u32) -> Self {
        ShiftPipeline {
            stages: (0..depth).map(|_| None).collect(),
            in_stages: 0,
            writeback: None,
            pending: None,
            blocked_cycles: 0,
        }
    }

    pub(crate) fn ready(&self) -> Option<&T> {
        self.writeback.as_ref()
    }

    pub(crate) fn take_ready(&mut self) -> Option<T> {
        self.writeback.take()
    }

    pub(crate) fn can_issue(&self) -> bool {
        if self.pending.is_some() {
            return false;
        }
        if self.stages[0].is_none() {
            return true;
        }
        self.writeback.is_none() || (self.in_stages as usize) < self.stages.len()
    }

    pub(crate) fn issue(&mut self, op: T) {
        assert!(self.can_issue(), "issue into a full pipeline");
        self.pending = Some(op);
    }

    pub(crate) fn advance(&mut self) {
        if self.in_stages == 0 && self.pending.is_none() {
            if self.writeback.is_some() {
                self.blocked_cycles += 1;
            }
            return;
        }
        let depth = self.stages.len();
        if self.writeback.is_none() {
            self.writeback = self.stages[depth - 1].take();
            self.in_stages -= u32::from(self.writeback.is_some());
        } else {
            self.blocked_cycles += 1;
        }
        for i in (1..depth).rev() {
            if self.stages[i].is_none() {
                self.stages[i] = self.stages[i - 1].take();
            }
        }
        if let Some(op) = self.pending.take() {
            self.stages[0] = Some(op);
            self.in_stages += 1;
        }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.in_stages as usize
            + usize::from(self.writeback.is_some())
            + usize::from(self.pending.is_some())
    }

    pub(crate) fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.writeback
            .iter()
            .chain(self.stages.iter().rev().flatten())
            .chain(self.pending.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ring_pipeline_matches_the_shifting_reference(
            depth in 1u32..9,
            retire_below in 0u8..6,
            steps in proptest::collection::vec(0u8..16, 0..300),
        ) {
            // Each step retires (below `retire_below`), issues (below 8)
            // or ends the cycle; a low `retire_below` keeps writebacks
            // held for long runs, so the compress walk and a full
            // blocked pipeline are both exercised at every depth.
            let mut ring: Pipeline<u32> = Pipeline::new(depth);
            let mut shift: ShiftPipeline<u32> = ShiftPipeline::new(depth);
            let mut next = 0u32;
            for step in steps {
                if step < retire_below {
                    prop_assert_eq!(ring.take_ready(), shift.take_ready());
                } else if step < 8 {
                    if ring.can_issue() {
                        ring.issue(next);
                        shift.issue(next);
                        next += 1;
                    }
                } else {
                    ring.advance();
                    shift.advance();
                }
                prop_assert_eq!(ring.ready(), shift.ready());
                prop_assert_eq!(ring.can_issue(), shift.can_issue());
                prop_assert_eq!(ring.occupancy(), shift.occupancy());
                prop_assert_eq!(ring.blocked_cycles(), shift.blocked_cycles());
                prop_assert_eq!(
                    ring.iter().collect::<Vec<_>>(),
                    shift.iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn op_takes_depth_cycles_to_writeback() {
        let mut p: Pipeline<&str> = Pipeline::new(3);
        p.issue("a");
        assert_eq!(p.ready(), None);
        p.advance(); // a in stage 0
        assert_eq!(p.ready(), None);
        p.advance(); // stage 1
        p.advance(); // stage 2
        assert_eq!(p.ready(), None);
        p.advance(); // writeback
        assert_eq!(p.ready(), Some(&"a"));
    }

    #[test]
    fn back_to_back_issue_fills_stages() {
        let mut p: Pipeline<u32> = Pipeline::new(3);
        for i in 0..3 {
            assert!(p.can_issue());
            p.issue(i);
            p.advance();
        }
        assert_eq!(p.occupancy(), 3);
        p.advance();
        // First op now in writeback, three in flight total.
        assert_eq!(p.ready(), Some(&0));
    }

    #[test]
    fn blocked_writeback_holds_pipeline() {
        let mut p: Pipeline<u32> = Pipeline::new(2);
        p.issue(0);
        p.advance();
        p.issue(1);
        p.advance();
        p.advance(); // 0 → writeback, 1 → last stage
        assert_eq!(p.ready(), Some(&0));
        // Don't retire; pipeline must hold.
        p.advance();
        assert_eq!(p.ready(), Some(&0), "writeback op must persist");
        assert_eq!(p.blocked_cycles(), 1);
        // Stage-0 full (op 1 couldn't move)? op1 moved to last stage before
        // the block; now it's held there, so stage 0 is free:
        assert!(p.can_issue());
        p.issue(2);
        p.advance();
        assert_eq!(p.ready(), Some(&0));
        // Now pipe is full up to writeback: stage0=2 can't advance...
        p.advance();
        assert!(!p.can_issue(), "stage 0 occupied and pipe blocked");
        // Retire 0: everything flows again.
        assert_eq!(p.take_ready(), Some(0));
        assert!(p.can_issue(), "retiring unblocks the shift");
        p.advance();
        assert_eq!(p.ready(), Some(&1));
    }

    #[test]
    fn drained_pipeline_behind_a_blocked_writeback_keeps_counting() {
        // Only the writeback slot is occupied: `advance` takes its idle
        // early exit but must still count the blocked cycle.
        let mut p: Pipeline<u32> = Pipeline::new(3);
        p.issue(9);
        for _ in 0..4 {
            p.advance();
        }
        assert_eq!(p.ready(), Some(&9));
        assert_eq!(p.occupancy(), 1);
        for _ in 0..5 {
            p.advance();
        }
        assert_eq!(p.blocked_cycles(), 5);
        assert!(p.can_issue());
        assert_eq!(p.take_ready(), Some(9));
        assert!(p.is_empty());
        p.advance();
        assert_eq!(p.blocked_cycles(), 5);
    }

    #[test]
    fn blocked_writeback_still_compresses_bubbles() {
        // Regression: a blocked writeback once froze the *whole*
        // pipeline, so ops could not slide into empty stages ahead of
        // them and a chained push-only producer deadlocked against its
        // own not-yet-issued consumer. Ops must keep advancing into
        // bubbles (one stage per cycle) while the writeback op holds.
        let mut p: Pipeline<u32> = Pipeline::new(3);
        p.issue(0);
        for _ in 0..4 {
            p.advance();
        }
        assert_eq!(p.ready(), Some(&0), "op 0 reached writeback");
        // Writeback blocked (not retired); issue op 1 — it must travel
        // through the empty stages up to the last one.
        p.issue(1);
        p.advance(); // 1 → stage 0
        assert!(p.can_issue(), "bubbles ahead: stage 0 will vacate");
        p.advance(); // 1 → stage 1
        p.advance(); // 1 → stage 2 (last execute stage)
        assert_eq!(p.ready(), Some(&0), "writeback op still held");
        assert_eq!(p.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        // One more op fits behind it; the pipe then has one bubble left.
        p.issue(2);
        p.advance();
        p.advance();
        assert!(p.can_issue(), "one bubble remains");
        p.issue(3);
        p.advance();
        assert!(!p.can_issue(), "now truly full behind the block");
        // Retiring drains in order, one per cycle.
        assert_eq!(p.take_ready(), Some(0));
        p.advance();
        assert_eq!(p.take_ready(), Some(1));
    }

    #[test]
    fn bubbles_never_shortcut_latency() {
        // An op entering an empty pipeline still takes depth+1 advances
        // to reach writeback, bubbles or not.
        let mut p: Pipeline<u32> = Pipeline::new(3);
        p.issue(9);
        for _ in 0..3 {
            p.advance();
            assert_eq!(p.ready(), None, "must not skip execute stages");
        }
        p.advance();
        assert_eq!(p.ready(), Some(&9));
    }

    #[test]
    fn iter_orders_oldest_first() {
        let mut p: Pipeline<u32> = Pipeline::new(3);
        for i in 0..4 {
            p.issue(i);
            p.advance();
        }
        let order: Vec<u32> = p.iter().copied().collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn iterative_unit_counts_down() {
        let mut u: IterativeUnit<&str> = IterativeUnit::new();
        u.issue("div", 3);
        assert!(!u.can_issue());
        u.advance();
        u.advance();
        assert_eq!(u.ready(), None);
        u.advance();
        assert_eq!(u.ready(), Some(&"div"));
        assert!(!u.can_issue(), "result must be drained first");
        assert_eq!(u.take_ready(), Some("div"));
        assert!(u.can_issue());
    }

    #[test]
    fn bounded_fifo_tracks_high_water() {
        let mut f: BoundedFifo<u32> = BoundedFifo::new(2);
        f.push(1);
        f.push(2);
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(1));
        f.push(3);
        assert_eq!(f.high_water(), 2);
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "full FIFO")]
    fn bounded_fifo_push_full_panics() {
        let mut f: BoundedFifo<u32> = BoundedFifo::new(1);
        f.push(1);
        f.push(2);
    }

    #[test]
    #[should_panic(expected = "full pipeline")]
    fn double_issue_panics() {
        let mut p: Pipeline<u32> = Pipeline::new(1);
        p.issue(1);
        p.issue(2);
    }
}
