//! Stream data movers: the engines behind `ft0`–`ft2`.
//!
//! A [`DataMover`] couples an [`AddrGen`] to a TCDM port through a small
//! FIFO. In read mode it prefetches ahead of the consuming FP instructions;
//! in write mode it drains values produced by FP writebacks. Either way it
//! competes for its TCDM bank every cycle — the contention that makes the
//! coefficient-streaming `Base` variant slower and hungrier than the
//! register-resident `Chaining` variants.

use std::collections::VecDeque;

use sc_mem::{AccessKind, MemError, PortId, Request, Store, Tcdm};
use sc_trace::MetricSource;

use crate::addrgen::{AddrGen, AffinePattern};
use crate::indirect::IndirectConfig;

/// Direction of an armed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamDir {
    /// Memory → register reads (`ft*` as source).
    Read,
    /// Register → memory writes (`ft*` as destination).
    Write,
}

/// Errors arming or operating a data mover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsrError {
    /// A stream was armed while the previous one was still active.
    StillActive {
        /// Data mover index.
        dm: u8,
    },
    /// Functional memory access failed.
    Mem(MemError),
    /// Register access inconsistent with the armed direction.
    WrongDirection {
        /// Data mover index.
        dm: u8,
        /// Direction the stream was armed with.
        armed: StreamDir,
    },
    /// `scfgwi`/`scfgri` addressed a mover or register that does not exist.
    UnknownCfg {
        /// Data mover index from the immediate.
        dm: u8,
        /// Config register index from the immediate.
        reg: u8,
    },
}

impl std::fmt::Display for SsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsrError::StillActive { dm } => write!(f, "data mover {dm} re-armed while active"),
            SsrError::Mem(e) => write!(f, "stream memory access failed: {e}"),
            SsrError::WrongDirection { dm, armed } => {
                write!(
                    f,
                    "data mover {dm} accessed against its direction ({armed:?})"
                )
            }
            SsrError::UnknownCfg { dm, reg } => {
                write!(f, "unknown stream config register {reg} on data mover {dm}")
            }
        }
    }
}

impl std::error::Error for SsrError {}

impl From<MemError> for SsrError {
    fn from(e: MemError) -> Self {
        SsrError::Mem(e)
    }
}

/// Per-stream statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmStats {
    /// Elements delivered to / accepted from the FP datapath.
    pub elements: u64,
    /// Cycles a consumer wanted data but the FIFO was empty (read mode).
    pub starve_cycles: u64,
    /// Cycles a producer wanted to push but the FIFO was full (write mode).
    pub full_cycles: u64,
    /// Memory requests that lost TCDM arbitration.
    pub denied_requests: u64,
}

impl MetricSource for DmStats {
    fn source_name(&self) -> &'static str {
        "ssr"
    }

    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("elements", self.elements);
        visit("starve_cycles", self.starve_cycles);
        visit("full_cycles", self.full_cycles);
        visit("denied_requests", self.denied_requests);
    }
}

/// A stream FIFO: a ring of slots allocated once, at the configured
/// capacity, so pushing and popping never allocate or move an entry.
#[derive(Debug, Clone)]
struct Fifo {
    slots: Box<[u64]>,
    /// Ring index of the oldest entry.
    head: usize,
    len: usize,
}

impl Fifo {
    fn new(capacity: usize) -> Self {
        Fifo {
            slots: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `head + offset` wrapped into the ring (`offset` ≤ capacity).
    fn wrap(&self, offset: usize) -> usize {
        let i = self.head + offset;
        if i >= self.slots.len() {
            i - self.slots.len()
        } else {
            i
        }
    }

    fn push_back(&mut self, value: u64) {
        debug_assert!(self.len < self.slots.len(), "push into a full ring");
        let tail = self.wrap(self.len);
        self.slots[tail] = value;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let value = self.slots[self.head];
        self.head = self.wrap(1);
        self.len -= 1;
        Some(value)
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// One stream data mover.
#[derive(Debug, Clone)]
pub struct DataMover {
    index: u8,
    port: PortId,
    fifo: Fifo,
    /// Whether the back FIFO entry is still in the SRAM landing slot: a
    /// read granted this cycle, poppable from the next. A read grant
    /// lands at most one value per cycle, at the back, and
    /// [`DataMover::advance`] lands it, so no other entry can be landing.
    landing: bool,
    /// The memory action [`DataMover::plan_request`] chose this cycle,
    /// kept for [`DataMover::apply_grant`]; a denial or the cycle's end
    /// drops it.
    planned: Option<Action>,
    gen: Option<AddrGen>,
    dir: StreamDir,
    /// Indirect-gather state (SARIS extension); `None` = affine mode.
    indirect: Option<IndirectState>,
    /// Repetition buffer for read streams: the last loaded value and how
    /// many more times the generator will re-deliver the same address is
    /// handled inside [`AddrGen`]; the FIFO stores each delivery.
    stats: DmStats,
}

/// Runtime state of an indirect gather: the affine `gen` walks the packed
/// index array; decoded indices wait here for their data fetch.
#[derive(Debug, Clone)]
struct IndirectState {
    cfg: IndirectConfig,
    pending_idx: VecDeque<u32>,
    /// Indices decoded from fetched words so far.
    unpacked: u32,
}

/// What the mover will do with its next granted memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    FetchData(u32),
    FetchIndexWord(u32),
    WriteData(u32),
}

impl DataMover {
    /// Creates an idle data mover with the given crossbar port.
    #[must_use]
    pub fn new(index: u8, port: PortId, fifo_capacity: usize) -> Self {
        assert!(
            fifo_capacity >= 1,
            "stream FIFO capacity must be at least 1"
        );
        DataMover {
            index,
            port,
            fifo: Fifo::new(fifo_capacity),
            landing: false,
            planned: None,
            gen: None,
            dir: StreamDir::Read,
            indirect: None,
            stats: DmStats::default(),
        }
    }

    /// This mover's index (0–2 for `ft0`–`ft2`).
    #[must_use]
    pub fn index(&self) -> u8 {
        self.index
    }

    /// This mover's TCDM port.
    #[must_use]
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DmStats {
        self.stats
    }

    /// Entries currently buffered in the stream FIFO (hang diagnostics).
    #[must_use]
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// The FIFO's configured capacity.
    #[must_use]
    pub fn fifo_capacity(&self) -> usize {
        self.fifo.capacity()
    }

    /// Whether a stream is armed and not yet finished.
    #[must_use]
    pub fn is_active(&self) -> bool {
        match self.dir {
            StreamDir::Read => {
                self.gen.is_some()
                    && !(self.gen.as_ref().is_some_and(|g| g.is_exhausted())
                        && self.fifo.is_empty())
            }
            StreamDir::Write => {
                self.gen.is_some()
                    && (!self.fifo.is_empty()
                        || !self.gen.as_ref().is_some_and(AddrGen::is_exhausted))
            }
        }
    }

    /// Whether the armed stream has delivered/accepted everything and, for
    /// writes, drained to memory.
    #[must_use]
    pub fn is_done(&self) -> bool {
        let indirect_pending = self
            .indirect
            .as_ref()
            .is_some_and(|st| !st.pending_idx.is_empty());
        match &self.gen {
            None => true,
            Some(g) => g.is_exhausted() && self.fifo.is_empty() && !indirect_pending,
        }
    }

    /// Arms the mover with a pattern and direction.
    ///
    /// # Errors
    ///
    /// Returns [`SsrError::StillActive`] if the previous stream has not
    /// completed (a software bug surfaces instead of silently corrupting
    /// the walk).
    pub fn arm(&mut self, pattern: AffinePattern, dir: StreamDir) -> Result<(), SsrError> {
        if !self.is_done() {
            return Err(SsrError::StillActive { dm: self.index });
        }
        self.gen = Some(AddrGen::new(pattern));
        self.dir = dir;
        self.indirect = None;
        self.clear_fifo();
        Ok(())
    }

    /// Arms an indirect gather (SARIS extension): walk a packed index
    /// array at `idx_base` and deliver `data[base + (index << shift)]` for
    /// each of `cfg.count` indices. Read direction only.
    ///
    /// # Errors
    ///
    /// Returns [`SsrError::StillActive`] if the previous stream has not
    /// completed.
    pub fn arm_indirect(&mut self, idx_base: u32, cfg: IndirectConfig) -> Result<(), SsrError> {
        if !self.is_done() {
            return Err(SsrError::StillActive { dm: self.index });
        }
        let words = cfg.count.div_ceil(cfg.idx_width.per_word());
        self.gen = Some(AddrGen::new(AffinePattern::from_loops(
            idx_base,
            &[(words, 8)],
        )));
        self.dir = StreamDir::Read;
        self.indirect = Some(IndirectState {
            cfg,
            pending_idx: VecDeque::new(),
            unpacked: 0,
        });
        self.clear_fifo();
        Ok(())
    }

    /// Whether the armed stream gathers through an index array.
    #[must_use]
    pub fn is_indirect(&self) -> bool {
        self.indirect.is_some()
    }

    fn clear_fifo(&mut self) {
        self.fifo.clear();
        self.landing = false;
        self.planned = None;
    }

    /// Decides this cycle's memory action. `request`, `plan_request` and
    /// an unplanned `apply_grant` all call this, so the grant always
    /// matches the request. Inlinable like them, so their inlined copies
    /// in other crates do not call back into this one.
    #[inline]
    fn next_action(&self) -> Option<Action> {
        let gen = self.gen.as_ref()?;
        if let Some(st) = &self.indirect {
            // Data fetches take priority over refilling the index queue.
            if self.fifo.len() < self.fifo.capacity() {
                if let Some(&idx) = st.pending_idx.front() {
                    return Some(Action::FetchData(st.cfg.address_of(idx)));
                }
                if st.pending_idx.len() < st.cfg.idx_width.per_word() as usize {
                    return gen.peek().map(Action::FetchIndexWord);
                }
            }
            return None;
        }
        match self.dir {
            StreamDir::Read if self.fifo.len() < self.fifo.capacity() => {
                gen.peek().map(Action::FetchData)
            }
            StreamDir::Read => None,
            // Write-stream values are pushed ready; only reads land.
            StreamDir::Write if !self.fifo.is_empty() => gen.peek().map(Action::WriteData),
            StreamDir::Write => None,
        }
    }

    /// The memory request this mover wants to place this cycle, if any.
    #[inline]
    #[must_use]
    pub fn request(&self) -> Option<Request> {
        self.next_action().map(|action| self.request_for(action))
    }

    /// [`DataMover::request`] that also keeps the chosen action, so this
    /// cycle's [`DataMover::apply_grant`] applies it without deciding
    /// again. The plan lasts until the grant, a
    /// [`DataMover::note_denied`] or the cycle's [`DataMover::advance`].
    #[inline]
    pub fn plan_request(&mut self) -> Option<Request> {
        self.planned = self.next_action();
        self.planned.map(|action| self.request_for(action))
    }

    /// Whether a [`DataMover::plan_request`] placed a request this cycle
    /// that is still waiting for its grant or denial.
    #[must_use]
    pub fn has_planned_request(&self) -> bool {
        self.planned.is_some()
    }

    #[inline]
    fn request_for(&self, action: Action) -> Request {
        match action {
            Action::FetchData(addr) | Action::FetchIndexWord(addr) => Request {
                port: self.port,
                addr,
                kind: AccessKind::Read,
            },
            Action::WriteData(addr) => Request {
                port: self.port,
                addr,
                kind: AccessKind::Write,
            },
        }
    }

    /// Applies a granted request: moves one element between FIFO and TCDM.
    /// A request placed with [`DataMover::plan_request`] applies the
    /// planned action; one placed with [`DataMover::request`] decides it
    /// again.
    ///
    /// Call it at most once per cycle, i.e. at most once between two
    /// [`DataMover::advance`] calls: `advance` marks only the newest FIFO
    /// entry as landed, so a second read landing in the same cycle would
    /// never become poppable.
    ///
    /// # Errors
    ///
    /// Propagates functional memory errors (misaligned/out-of-bounds
    /// stream configuration).
    ///
    /// # Panics
    ///
    /// Panics if called without a corresponding [`DataMover::request`]
    /// or [`DataMover::plan_request`].
    #[inline]
    pub fn apply_grant(&mut self, tcdm: &mut Tcdm) -> Result<(), SsrError> {
        let action = match self.planned.take() {
            Some(action) => {
                debug_assert_eq!(
                    Some(action),
                    self.next_action(),
                    "the mover changed between its plan and its grant"
                );
                action
            }
            None => self.next_action().expect("grant without a pending request"),
        };
        match action {
            Action::FetchData(addr) => {
                let value = tcdm.read_u64(addr)?;
                debug_assert!(
                    !self.landing,
                    "two read landings without an advance between them"
                );
                // Arrives at the end of this cycle; poppable next cycle.
                self.fifo.push_back(value);
                self.landing = true;
                if let Some(st) = &mut self.indirect {
                    st.pending_idx
                        .pop_front()
                        .expect("indirect data fetch without index");
                } else {
                    self.gen
                        .as_mut()
                        .expect("armed")
                        .next()
                        .expect("pending address");
                }
            }
            Action::FetchIndexWord(addr) => {
                let word = tcdm.read_u64(addr)?;
                let gen = self.gen.as_mut().expect("armed");
                gen.next().expect("pending index-word address");
                let st = self.indirect.as_mut().expect("indirect mode");
                for idx in st.cfg.idx_width.unpack(word) {
                    if st.unpacked < st.cfg.count {
                        st.pending_idx.push_back(idx);
                        st.unpacked += 1;
                    }
                }
            }
            Action::WriteData(addr) => {
                let gen = self.gen.as_mut().expect("armed");
                gen.next().expect("pending address");
                let value = self.fifo.pop_front().expect("write grant with empty FIFO");
                tcdm.write_u64(addr, value)?;
            }
        }
        Ok(())
    }

    /// Records a lost arbitration for this cycle; the planned action, if
    /// any, is dropped (the retry next cycle plans anew).
    pub fn note_denied(&mut self) {
        self.stats.denied_requests += 1;
        self.planned = None;
    }

    /// Ends the cycle: the landing-slot value, if any, becomes poppable,
    /// and an unused plan lapses.
    pub fn advance(&mut self) {
        self.landing = false;
        self.planned = None;
    }

    // ---- FP datapath interface ------------------------------------------

    /// Whether a read-stream pop can proceed this cycle.
    #[must_use]
    pub fn can_pop(&self) -> bool {
        self.dir == StreamDir::Read && self.fifo.len() > usize::from(self.landing)
    }

    /// Pops the next stream element (read mode).
    ///
    /// # Errors
    ///
    /// Returns [`SsrError::WrongDirection`] when armed for writing.
    ///
    /// # Panics
    ///
    /// Panics if no element is ready — gate with [`DataMover::can_pop`].
    #[inline]
    pub fn pop(&mut self) -> Result<u64, SsrError> {
        if self.dir != StreamDir::Read {
            return Err(SsrError::WrongDirection {
                dm: self.index,
                armed: self.dir,
            });
        }
        let value = self.fifo.pop_front().expect("pop from empty stream FIFO");
        assert!(
            !(self.landing && self.fifo.is_empty()),
            "pop of a value still in the SRAM landing slot"
        );
        self.stats.elements += 1;
        Ok(value)
    }

    /// Records that a consumer stalled on an empty FIFO this cycle.
    pub fn note_starved(&mut self) {
        self.stats.starve_cycles += 1;
    }

    /// Whether a write-stream push can proceed this cycle.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.dir == StreamDir::Write && self.fifo.len() < self.fifo.capacity()
    }

    /// Pushes a produced value into the write stream.
    ///
    /// # Errors
    ///
    /// Returns [`SsrError::WrongDirection`] when armed for reading.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — gate with [`DataMover::can_push`].
    #[inline]
    pub fn push(&mut self, value: u64) -> Result<(), SsrError> {
        if self.dir != StreamDir::Write {
            return Err(SsrError::WrongDirection {
                dm: self.index,
                armed: self.dir,
            });
        }
        assert!(
            self.fifo.len() < self.fifo.capacity(),
            "push into full stream FIFO"
        );
        self.fifo.push_back(value);
        self.stats.elements += 1;
        Ok(())
    }

    /// Records that a producer stalled on a full FIFO this cycle.
    pub fn note_full(&mut self) {
        self.stats.full_cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_mem::TcdmConfig;

    fn tcdm() -> Tcdm {
        let mut t = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
        for i in 0..16 {
            t.write_f64(i * 8, f64::from(i)).unwrap();
        }
        t
    }

    fn run_mem_cycle(dm: &mut DataMover, tcdm: &mut Tcdm) -> bool {
        if let Some(req) = dm.request() {
            let grants = tcdm.arbitrate(&[req]);
            if grants[0] {
                dm.apply_grant(tcdm).unwrap();
                dm.advance();
                return true;
            }
            dm.note_denied();
        }
        dm.advance();
        false
    }

    #[test]
    fn read_stream_prefetches_and_pops_in_order() {
        let mut mem = tcdm();
        let mut dm = DataMover::new(0, PortId(1), 4);
        dm.arm(AffinePattern::linear_f64(0, 4), StreamDir::Read)
            .unwrap();
        // Cycle 1: request granted, lands; poppable the next cycle.
        assert!(run_mem_cycle(&mut dm, &mut mem));
        assert!(dm.can_pop());
        let mut got = Vec::new();
        for _ in 0..8 {
            if dm.can_pop() {
                got.push(f64::from_bits(dm.pop().unwrap()));
            }
            run_mem_cycle(&mut dm, &mut mem);
            if dm.is_done() {
                break;
            }
        }
        while dm.can_pop() {
            got.push(f64::from_bits(dm.pop().unwrap()));
        }
        assert_eq!(got, vec![0.0, 1.0, 2.0, 3.0]);
        assert!(dm.is_done());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two read landings without an advance")]
    fn second_read_landing_in_one_cycle_is_caught() {
        let mut mem = tcdm();
        let mut dm = DataMover::new(0, PortId(1), 4);
        dm.arm(AffinePattern::linear_f64(0, 4), StreamDir::Read)
            .unwrap();
        dm.apply_grant(&mut mem).unwrap();
        dm.apply_grant(&mut mem).unwrap();
    }

    #[test]
    fn write_stream_drains_to_memory() {
        let mut mem = tcdm();
        let mut dm = DataMover::new(2, PortId(3), 4);
        dm.arm(AffinePattern::linear_f64(256, 3), StreamDir::Write)
            .unwrap();
        for v in [10.0f64, 11.0, 12.0] {
            assert!(dm.can_push());
            dm.push(v.to_bits()).unwrap();
            run_mem_cycle(&mut dm, &mut mem);
        }
        // Drain any remainder.
        for _ in 0..4 {
            run_mem_cycle(&mut dm, &mut mem);
        }
        assert!(dm.is_done());
        assert_eq!(mem.read_f64_slice(256, 3).unwrap(), vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn rearm_while_active_is_error() {
        let mut dm = DataMover::new(0, PortId(1), 4);
        dm.arm(AffinePattern::linear_f64(0, 4), StreamDir::Read)
            .unwrap();
        let err = dm
            .arm(AffinePattern::linear_f64(0, 4), StreamDir::Read)
            .unwrap_err();
        assert_eq!(err, SsrError::StillActive { dm: 0 });
    }

    #[test]
    fn pop_against_write_direction_is_error() {
        let mut dm = DataMover::new(1, PortId(2), 4);
        dm.arm(AffinePattern::linear_f64(0, 1), StreamDir::Write)
            .unwrap();
        dm.push(1.0f64.to_bits()).unwrap();
        assert!(matches!(
            dm.pop().unwrap_err(),
            SsrError::WrongDirection { dm: 1, .. }
        ));
    }

    #[test]
    fn fifo_capacity_bounds_prefetch() {
        let mut mem = tcdm();
        let mut dm = DataMover::new(0, PortId(1), 2);
        dm.arm(AffinePattern::linear_f64(0, 8), StreamDir::Read)
            .unwrap();
        for _ in 0..6 {
            run_mem_cycle(&mut dm, &mut mem);
        }
        // FIFO capacity 2: prefetch must stop at 2 un-popped entries.
        assert!(dm.can_pop());
        assert!(dm.request().is_none(), "prefetch beyond FIFO capacity");
    }

    #[test]
    fn streams_fill_and_drain_at_fifo_capacities_1_4_17() {
        // The FIFO ring must hold exactly its configured capacity, odd
        // and beyond a power of two included, in both directions.
        for capacity in [1, 4, 17] {
            let mut mem = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
            for i in 0..40 {
                mem.write_f64(i * 8, f64::from(i)).unwrap();
            }
            let mut dm = DataMover::new(0, PortId(1), capacity);
            dm.arm(AffinePattern::linear_f64(0, 40), StreamDir::Read)
                .unwrap();
            // Unconsumed, the prefetch stops at exactly `capacity`.
            for _ in 0..capacity + 3 {
                run_mem_cycle(&mut dm, &mut mem);
            }
            assert_eq!(dm.fifo_len(), capacity);
            assert!(
                dm.request().is_none(),
                "prefetch beyond capacity {capacity}"
            );
            let mut got = Vec::new();
            for _ in 0..200 {
                if dm.can_pop() {
                    got.push(f64::from_bits(dm.pop().unwrap()));
                }
                run_mem_cycle(&mut dm, &mut mem);
            }
            assert!(dm.is_done());
            assert_eq!(got, (0..40).map(f64::from).collect::<Vec<_>>());

            let mut dm = DataMover::new(2, PortId(3), capacity);
            dm.arm(AffinePattern::linear_f64(1024, 40), StreamDir::Write)
                .unwrap();
            // Undrained, the FIFO accepts exactly `capacity` values.
            for v in 0..capacity {
                assert!(dm.can_push());
                dm.push((v as f64).to_bits()).unwrap();
            }
            assert!(!dm.can_push(), "push beyond capacity {capacity}");
            let mut next = capacity;
            for _ in 0..200 {
                if next < 40 && dm.can_push() {
                    dm.push((next as f64).to_bits()).unwrap();
                    next += 1;
                }
                run_mem_cycle(&mut dm, &mut mem);
            }
            assert!(dm.is_done());
            assert_eq!(
                mem.read_f64_slice(1024, 40).unwrap(),
                (0..40).map(f64::from).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn out_of_bounds_stream_is_reported() {
        let mut mem = tcdm();
        let mut dm = DataMover::new(0, PortId(1), 2);
        dm.arm(AffinePattern::linear_f64(4090, 4), StreamDir::Read)
            .unwrap();
        let req = dm.request().unwrap();
        let g = mem.arbitrate(&[req]);
        assert!(g[0]);
        assert!(matches!(dm.apply_grant(&mut mem), Err(SsrError::Mem(_))));
    }
}
