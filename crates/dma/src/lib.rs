//! # sc-dma — the per-cluster DMA engine
//!
//! A cycle-stepped model of a Snitch-style cluster DMA mover: it drains a
//! FIFO of 1D/2D strided transfer descriptors, moving 64-bit beats
//! between the unbounded background memory ([`sc_mem::Dram`]) and the
//! banked TCDM. The TCDM side of every beat goes through the *same*
//! crossbar arbitration as the cores' ports ([`sc_mem::Tcdm::arbitrate`]),
//! so DMA traffic contends for banks — and shows up in the per-bank
//! conflict statistics — exactly like compute traffic does.
//!
//! ## Timing
//!
//! Each transfer pays [`sc_mem::DramConfig::latency`] cycles of startup,
//! then moves one 64-bit beat per TCDM grant, throttled to at most one
//! beat every [`sc_mem::DramConfig::cycles_per_beat`] cycles. A beat that
//! loses TCDM arbitration retries the next cycle (a bank conflict,
//! charged to the engine's port). Transfers complete strictly in FIFO
//! order; the monotonic completion counter is what programs poll through
//! the `DMA_COMPLETED` CSR to synchronise double-buffered tiles.
//!
//! ## Step protocol
//!
//! The owner (usually `sc-cluster`) drives one engine cycle as:
//! [`DmaEngine::begin_cycle`] → [`DmaEngine::request`] → (arbitrate) →
//! [`DmaEngine::apply_grant`] → [`DmaEngine::end_cycle`]. A lone engine
//! can be stepped to completion with [`DmaEngine::run_to_idle`].
//!
//! ```
//! use sc_dma::{DmaEngine, Transfer};
//! use sc_mem::{Dram, DramConfig, PortId, Store, Tcdm, TcdmConfig};
//!
//! let mut dram = Dram::new(DramConfig::new().with_latency(4));
//! let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
//! dram.write_f64(0x1000, 6.25)?;
//!
//! let mut dma = DmaEngine::new(PortId(9));
//! dma.enqueue(Transfer::contiguous(0x1000, 0x100, 8, true))?;
//! dma.run_to_idle(&mut tcdm, &mut dram, 1_000)?;
//! assert_eq!(tcdm.read_f64(0x100)?, 6.25);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt;

use sc_mem::{AccessKind, Dram, DramConfig, MemError, PortId, PrefetchHint, Request, Store, Tcdm};
use sc_trace::{MetricSource, Tracer, Track};

/// Beat width in bytes: the engine moves 64-bit words, matching the TCDM
/// bank width.
pub const BEAT_BYTES: u32 = 8;

/// Undrained stride hints the engine keeps at most (oldest dropped):
/// in-tree owners drain every cycle, so the bound only protects
/// stand-alone engine users who never attach a prefetching L2.
pub const HINT_BUFFER: usize = 64;

/// A 1D/2D strided transfer descriptor.
///
/// The transfer moves `reps` rows of `row_bytes` bytes each; consecutive
/// rows start `dram_stride` / `tcdm_stride` bytes apart on their
/// respective sides. `reps == 1` with equal strides is a plain 1D copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Byte address on the background-memory side.
    pub dram_addr: u32,
    /// Byte address on the TCDM side.
    pub tcdm_addr: u32,
    /// Bytes per row (positive multiple of [`BEAT_BYTES`]).
    pub row_bytes: u32,
    /// Byte distance between consecutive row starts on the Dram side.
    pub dram_stride: u32,
    /// Byte distance between consecutive row starts on the TCDM side.
    pub tcdm_stride: u32,
    /// Row count (≥ 1).
    pub reps: u32,
    /// Direction: `true` = Dram → TCDM ("in"), `false` = TCDM → Dram.
    pub to_tcdm: bool,
}

impl Transfer {
    /// A 1D contiguous transfer of `bytes` bytes.
    #[must_use]
    pub fn contiguous(dram_addr: u32, tcdm_addr: u32, bytes: u32, to_tcdm: bool) -> Self {
        Transfer {
            dram_addr,
            tcdm_addr,
            row_bytes: bytes,
            dram_stride: bytes,
            tcdm_stride: bytes,
            reps: 1,
            to_tcdm,
        }
    }

    fn validate(&self) -> Result<(), DmaError> {
        if self.row_bytes == 0 || self.reps == 0 {
            return Err(DmaError::EmptyTransfer);
        }
        for (field, value) in [
            ("dram_addr", self.dram_addr),
            ("tcdm_addr", self.tcdm_addr),
            ("row_bytes", self.row_bytes),
        ] {
            if !value.is_multiple_of(BEAT_BYTES) {
                return Err(DmaError::Misaligned { field, value });
            }
        }
        if self.reps > 1 {
            for (field, value) in [
                ("dram_stride", self.dram_stride),
                ("tcdm_stride", self.tcdm_stride),
            ] {
                if !value.is_multiple_of(BEAT_BYTES) {
                    return Err(DmaError::Misaligned { field, value });
                }
            }
        }
        Ok(())
    }
}

/// Errors raised by the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// A descriptor with zero rows or zero bytes per row.
    EmptyTransfer,
    /// A descriptor field not aligned to the 8-byte beat size.
    Misaligned {
        /// Which descriptor field.
        field: &'static str,
        /// Its offending value.
        value: u32,
    },
    /// A functional memory fault while moving a beat (e.g. the TCDM side
    /// of a transfer runs off the end of the scratchpad).
    Mem(MemError),
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::EmptyTransfer => write!(f, "DMA transfer with zero rows or zero-byte rows"),
            DmaError::Misaligned { field, value } => {
                write!(
                    f,
                    "DMA descriptor field {field}={value:#x} is not a multiple of {BEAT_BYTES}"
                )
            }
            DmaError::Mem(e) => write!(f, "DMA beat faulted: {e}"),
        }
    }
}

impl std::error::Error for DmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DmaError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for DmaError {
    fn from(e: MemError) -> Self {
        DmaError::Mem(e)
    }
}

/// Cumulative DMA activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Descriptors accepted into the queue.
    pub transfers_enqueued: u64,
    /// Descriptors fully completed.
    pub transfers_completed: u64,
    /// 64-bit beats moved.
    pub beats: u64,
    /// Bytes moved Dram → TCDM.
    pub bytes_to_tcdm: u64,
    /// Bytes moved TCDM → Dram.
    pub bytes_from_tcdm: u64,
    /// Beats that lost TCDM arbitration (retried next cycle).
    pub tcdm_conflicts: u64,
    /// Busy cycles spent waiting on the background memory (startup
    /// latency + bandwidth throttling), not on the TCDM.
    pub dram_wait_cycles: u64,
    /// Beats that were ready but stalled on the background-memory side
    /// of the hierarchy — an L2 bank lost to another cluster's engine,
    /// or an L2 line still refilling from Dram. Zero when the engine
    /// moves against a private `Dram` (the single-cluster path).
    pub l2_wait_cycles: u64,
    /// The subset of [`DmaStats::l2_wait_cycles`] spent waiting for a
    /// *missing line* (an L2 refill in flight, or a full MSHR file)
    /// rather than losing bank arbitration — the engine-side view of
    /// miss-under-miss behaviour: while one engine sits out these
    /// cycles, other engines' misses to different lines keep their own
    /// MSHRs and refill channels busy.
    pub l2_miss_wait_cycles: u64,
    /// Stride hints derived from accepted Dram→TCDM descriptors at
    /// `DMA_START` — the engine knows its whole future read footprint
    /// the moment the doorbell rings, and publishes it so a prefetching
    /// shared L2 can start pulling the lines before the first beat
    /// arrives ([`DmaEngine::drain_prefetch_hints`]).
    pub prefetch_hints: u64,
}

impl MetricSource for DmaStats {
    fn source_name(&self) -> &'static str {
        "dma"
    }

    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("transfers_enqueued", self.transfers_enqueued);
        visit("transfers_completed", self.transfers_completed);
        visit("beats", self.beats);
        visit("bytes_to_tcdm", self.bytes_to_tcdm);
        visit("bytes_from_tcdm", self.bytes_from_tcdm);
        visit("tcdm_conflicts", self.tcdm_conflicts);
        visit("dram_wait_cycles", self.dram_wait_cycles);
        visit("l2_wait_cycles", self.l2_wait_cycles);
        visit("l2_miss_wait_cycles", self.l2_miss_wait_cycles);
        visit("prefetch_hints", self.prefetch_hints);
    }
}

/// Progress through the active transfer.
#[derive(Debug, Clone, Copy)]
struct Active {
    t: Transfer,
    row: u32,
    offset: u32,
    /// Cycles still owed to the background memory before the next beat
    /// may move (startup latency, then inter-beat bandwidth gaps).
    wait: u32,
}

impl Active {
    fn dram_cursor(&self) -> u32 {
        self.t
            .dram_addr
            .wrapping_add(self.row.wrapping_mul(self.t.dram_stride))
            .wrapping_add(self.offset)
    }

    fn tcdm_cursor(&self) -> u32 {
        self.t
            .tcdm_addr
            .wrapping_add(self.row.wrapping_mul(self.t.tcdm_stride))
            .wrapping_add(self.offset)
    }
}

/// The cycle-stepped DMA engine (one per cluster).
#[derive(Debug)]
pub struct DmaEngine {
    port: PortId,
    queue: VecDeque<Transfer>,
    active: Option<Active>,
    stats: DmaStats,
    completed: u32,
    /// Whether a beat moved this cycle (so the end-of-cycle wait
    /// decrement does not count the beat's own cycle as a stall).
    moved_this_cycle: bool,
    /// Stride hints published at `DMA_START` and not yet collected by
    /// the owner (the cluster drains this every cycle; hints describe
    /// Dram→TCDM read footprints only — writes allocate in the L2
    /// without a fetch, so prefetching them would be pure waste).
    hints: Vec<PrefetchHint>,
    tracer: Tracer,
    track: Track,
}

impl DmaEngine {
    /// Creates an idle engine whose TCDM requests use `port`.
    #[must_use]
    pub fn new(port: PortId) -> Self {
        DmaEngine {
            port,
            queue: VecDeque::new(),
            active: None,
            stats: DmaStats::default(),
            completed: 0,
            moved_this_cycle: false,
            hints: Vec::new(),
            tracer: Tracer::off(),
            track: Track::new(0, 0),
        }
    }

    /// The engine's TCDM crossbar port.
    #[must_use]
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Subscribes the engine to a trace sink. Burst lifetimes become
    /// spans on `track`, doorbells become instants, and the queue depth
    /// becomes a counter series.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        if tracer.is_on() {
            tracer.name_thread(track, "dma");
        }
        self.tracer = tracer;
        self.track = track;
    }

    /// Accepts a transfer descriptor into the FIFO.
    ///
    /// A Dram→TCDM descriptor also publishes its read footprint as a
    /// stride hint ([`DmaEngine::drain_prefetch_hints`]). The hint buffer
    /// is bounded ([`HINT_BUFFER`], oldest dropped): an owner that never
    /// drains it — a stand-alone engine with no prefetching memory level
    /// behind it — just loses stale hints, never memory.
    ///
    /// # Errors
    ///
    /// Rejects empty or beat-misaligned descriptors; the queue is
    /// unbounded (descriptor storage is not the modelled resource).
    pub fn enqueue(&mut self, t: Transfer) -> Result<(), DmaError> {
        t.validate()?;
        // DMA_START is the one moment the whole future access pattern is
        // known: publish the Dram-side read footprint as a stride hint a
        // prefetching L2 can act on descriptors ahead of the beats.
        if t.to_tcdm {
            if self.hints.len() >= HINT_BUFFER {
                self.hints.remove(0);
            }
            self.hints.push(PrefetchHint {
                addr: t.dram_addr,
                row_bytes: t.row_bytes,
                stride: t.dram_stride,
                reps: t.reps,
                // The owner rewrites the requester to its arbitration
                // port (the engine itself does not know its cluster id).
                requester: 0,
            });
            self.stats.prefetch_hints += 1;
        }
        self.queue.push_back(t);
        self.stats.transfers_enqueued += 1;
        self.tracer.instant(self.track, "doorbell");
        self.tracer
            .counter(self.track, "dma-queue", self.queue.len() as u64);
        Ok(())
    }

    /// Drains the stride hints published since the last call — the
    /// owner forwards them (requester rewritten to the cluster's id) to
    /// the shared L2's prefetcher, or simply drops them when no
    /// prefetching memory level exists (the single-cluster path). The
    /// buffer keeps its capacity, so publishing never reallocates.
    pub fn drain_prefetch_hints(&mut self) -> std::vec::Drain<'_, PrefetchHint> {
        self.hints.drain(..)
    }

    /// Transfers not yet completed (queued + in flight) — the value the
    /// `DMA_STATUS` CSR reads.
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.queue.len() as u32 + u32::from(self.active.is_some())
    }

    /// Monotonic count of completed transfers — the value the
    /// `DMA_COMPLETED` CSR reads. Programs poll it to synchronise
    /// double-buffered tiles (transfers complete strictly in FIFO order).
    ///
    /// The counter is a **wrapping** u32: on long runs it rolls over, so
    /// consumers must compare with wrapping distance
    /// (`target.wrapping_sub(completed) as i32 <= 0`), never with a raw
    /// ordered compare — see `sc-kernels`' completion-poll codegen.
    #[must_use]
    pub fn completed(&self) -> u32 {
        self.completed
    }

    /// Starts the completion counter at an arbitrary value, as if the
    /// engine had already completed `value` transfers in an earlier
    /// phase of a long run. Completion polling must keep working across
    /// the u32 wrap; tests use this to pin the near-wrap behaviour
    /// without simulating four billion transfers.
    pub fn preset_completed(&mut self, value: u32) {
        self.completed = value;
    }

    /// Whether the engine has nothing queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.active.is_none() && self.queue.is_empty()
    }

    /// Whether the engine is working this cycle (valid after
    /// [`DmaEngine::begin_cycle`]).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.active.is_some()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> &DmaStats {
        &self.stats
    }

    /// Cycle start: pick up the next queued transfer if idle, paying the
    /// background memory's startup latency.
    pub fn begin_cycle(&mut self, timing: DramConfig) {
        if self.active.is_none() {
            if let Some(t) = self.queue.pop_front() {
                self.tracer.begin(
                    self.track,
                    if t.to_tcdm {
                        "burst-to-tcdm"
                    } else {
                        "burst-from-tcdm"
                    },
                );
                self.tracer
                    .counter(self.track, "dma-queue", self.queue.len() as u64);
                self.active = Some(Active {
                    t,
                    row: 0,
                    offset: 0,
                    wait: timing.latency,
                });
            }
        }
    }

    /// The TCDM request for this cycle's beat, if one is ready (in-flight
    /// transfer, background memory not stalling).
    #[must_use]
    pub fn request(&self) -> Option<Request> {
        let a = self.active.as_ref()?;
        if a.wait > 0 {
            return None;
        }
        Some(Request {
            port: self.port,
            addr: a.tcdm_cursor(),
            kind: if a.t.to_tcdm {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        })
    }

    /// The background-memory side of this cycle's beat, if one is ready:
    /// the byte address the beat reads (Dram→TCDM) or writes (TCDM→Dram)
    /// on the far side of the hierarchy. A system owner arbitrates these
    /// across clusters at the shared L2 *before* the TCDM pass; an
    /// engine whose beat loses there must be told via
    /// [`DmaEngine::note_l2_denied`] instead of receiving a grant.
    #[must_use]
    pub fn dram_request(&self) -> Option<(u32, AccessKind)> {
        let a = self.active.as_ref()?;
        if a.wait > 0 {
            return None;
        }
        Some((
            a.dram_cursor(),
            if a.t.to_tcdm {
                AccessKind::Read
            } else {
                AccessKind::Write
            },
        ))
    }

    /// Records that this cycle's ready beat was stalled on the
    /// background-memory side; the beat retries next cycle, exactly like
    /// a TCDM denial. `miss` distinguishes waiting out a missing line
    /// (refill in flight / MSHR file full) from losing shared-L2 bank
    /// arbitration.
    pub fn note_l2_denied(&mut self, miss: bool) {
        self.stats.l2_wait_cycles += 1;
        if miss {
            self.stats.l2_miss_wait_cycles += 1;
        }
    }

    /// Applies this cycle's arbitration outcome for the request returned
    /// by [`DmaEngine::request`]. A granted beat moves 8 bytes through
    /// the functional interfaces; a denied beat retries next cycle.
    ///
    /// # Errors
    ///
    /// Functional memory faults (misaligned/out-of-bounds TCDM cursor).
    ///
    /// # Panics
    ///
    /// Panics if called without an issuable request this cycle.
    pub fn apply_grant(
        &mut self,
        granted: bool,
        tcdm: &mut Tcdm,
        dram: &mut Dram,
        timing: DramConfig,
    ) -> Result<(), DmaError> {
        let a = self
            .active
            .as_mut()
            .filter(|a| a.wait == 0)
            .expect("apply_grant without an issuable DMA request");
        if !granted {
            self.stats.tcdm_conflicts += 1;
            return Ok(());
        }
        if a.t.to_tcdm {
            let v = dram.read_u64(a.dram_cursor())?;
            tcdm.write_u64(a.tcdm_cursor(), v)?;
            self.stats.bytes_to_tcdm += u64::from(BEAT_BYTES);
        } else {
            let v = tcdm.read_u64(a.tcdm_cursor())?;
            dram.write_u64(a.dram_cursor(), v)?;
            self.stats.bytes_from_tcdm += u64::from(BEAT_BYTES);
        }
        self.stats.beats += 1;
        self.moved_this_cycle = true;
        a.offset += BEAT_BYTES;
        if a.offset == a.t.row_bytes {
            a.offset = 0;
            a.row += 1;
        }
        if a.row == a.t.reps {
            self.active = None;
            self.completed = self.completed.wrapping_add(1);
            self.stats.transfers_completed += 1;
            self.tracer.end(self.track);
        } else {
            // Bandwidth throttle: a beat occupies the channel for
            // `cycles_per_beat` cycles including its own, so the next
            // beat may move `cycles_per_beat` cycles later.
            a.wait = timing.cycles_per_beat;
        }
        Ok(())
    }

    /// Cycles the in-flight transfer still owes the background memory
    /// before its next beat can move: `Some(wait)` when a transfer is
    /// active (0 = a beat is issuable right now), `None` when no
    /// transfer is in flight. Valid between cycles (after
    /// [`DmaEngine::end_cycle`]); an event-driven owner uses a positive
    /// value as the engine's next wake distance, because every cycle of
    /// the countdown is a closed-form no-op ([`DmaEngine::skip`]).
    #[must_use]
    pub fn stalled_for(&self) -> Option<u32> {
        self.active.as_ref().map(|a| a.wait)
    }

    /// Bulk-applies `cycles` countdown cycles to the in-flight transfer:
    /// exactly what that many dense `begin_cycle`/`end_cycle` pairs
    /// would have done while `wait > 0` — the wait shrinks and every
    /// cycle books as a background-memory stall.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no in-flight transfer or the window
    /// reaches past the countdown ([`DmaEngine::stalled_for`]).
    pub fn skip(&mut self, cycles: u64) {
        let a = self
            .active
            .as_mut()
            .expect("skip on an engine with no transfer in flight");
        assert!(
            u64::from(a.wait) >= cycles,
            "skip window {cycles} overshoots the engine's {}-cycle countdown",
            a.wait
        );
        a.wait -= cycles as u32;
        self.stats.dram_wait_cycles += cycles;
    }

    /// Cycle end: background-memory wait cycles elapse.
    pub fn end_cycle(&mut self) {
        if let Some(a) = self.active.as_mut() {
            if a.wait > 0 {
                a.wait -= 1;
                if !self.moved_this_cycle {
                    self.stats.dram_wait_cycles += 1;
                }
            }
        }
        self.moved_this_cycle = false;
    }

    /// Steps the engine alone (no competing masters) until it is idle.
    /// Returns the cycles taken. Used by tests and stand-alone tools; a
    /// cluster steps the engine inside its own crossbar pass instead.
    ///
    /// # Errors
    ///
    /// Beat faults (misaligned or out-of-bounds cursors).
    ///
    /// # Panics
    ///
    /// Panics if the budget runs out before the queue drains: with no
    /// competing masters every transfer finishes in bounded cycles, so
    /// an overrun indicates a modelling bug, not a run-time condition.
    pub fn run_to_idle(
        &mut self,
        tcdm: &mut Tcdm,
        dram: &mut Dram,
        max_cycles: u64,
    ) -> Result<u64, DmaError> {
        let timing = dram.config();
        let mut cycles = 0;
        while !self.is_idle() {
            assert!(
                cycles < max_cycles,
                "DMA engine did not drain within {max_cycles} cycles"
            );
            self.begin_cycle(timing);
            if let Some(req) = self.request() {
                let grants = tcdm.arbitrate(&[req]);
                self.apply_grant(grants[0], tcdm, dram, timing)?;
            }
            self.end_cycle();
            cycles += 1;
        }
        Ok(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_mem::TcdmConfig;

    fn rig() -> (Tcdm, Dram) {
        (
            Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4)),
            Dram::new(DramConfig::new().with_latency(10)),
        )
    }

    #[test]
    fn contiguous_transfer_lands_and_pays_latency() {
        let (mut tcdm, mut dram) = rig();
        for i in 0..8u32 {
            dram.write_u64(0x1000 + 8 * i, u64::from(i) * 3 + 1)
                .unwrap();
        }
        let mut dma = DmaEngine::new(PortId(4));
        dma.enqueue(Transfer::contiguous(0x1000, 0x200, 64, true))
            .unwrap();
        let cycles = dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap();
        for i in 0..8u32 {
            assert_eq!(tcdm.read_u64(0x200 + 8 * i).unwrap(), u64::from(i) * 3 + 1);
        }
        // 10 latency cycles + 8 beats.
        assert_eq!(cycles, 18);
        assert_eq!(dma.completed(), 1);
        assert_eq!(dma.stats().beats, 8);
        assert_eq!(dma.stats().dram_wait_cycles, 10);
    }

    #[test]
    fn strided_2d_gathers_rows() {
        let (mut tcdm, mut dram) = rig();
        // 3 rows of 16 bytes, 64 bytes apart in Dram, packed in TCDM.
        for r in 0..3u32 {
            for w in 0..2u32 {
                dram.write_u64(0x800 + r * 64 + w * 8, u64::from(r * 10 + w))
                    .unwrap();
            }
        }
        let mut dma = DmaEngine::new(PortId(4));
        dma.enqueue(Transfer {
            dram_addr: 0x800,
            tcdm_addr: 0x100,
            row_bytes: 16,
            dram_stride: 64,
            tcdm_stride: 16,
            reps: 3,
            to_tcdm: true,
        })
        .unwrap();
        dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap();
        for r in 0..3u32 {
            for w in 0..2u32 {
                assert_eq!(
                    tcdm.read_u64(0x100 + r * 16 + w * 8).unwrap(),
                    u64::from(r * 10 + w)
                );
            }
        }
    }

    #[test]
    fn bandwidth_throttle_slows_beats() {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(4096).with_banks(4));
        let mut dram = Dram::new(DramConfig::new().with_latency(0).with_cycles_per_beat(3));
        let mut dma = DmaEngine::new(PortId(4));
        dma.enqueue(Transfer::contiguous(0, 0, 64, true)).unwrap();
        let cycles = dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap();
        // 8 beats, 3 cycles each, minus the trailing gap after the last.
        assert_eq!(cycles, 8 * 3 - 2);
    }

    #[test]
    fn fifo_order_and_completion_counter() {
        let (mut tcdm, mut dram) = rig();
        dram.write_u64(0x0, 7).unwrap();
        let mut dma = DmaEngine::new(PortId(4));
        dma.enqueue(Transfer::contiguous(0x0, 0x100, 8, true))
            .unwrap();
        dma.enqueue(Transfer::contiguous(0x300, 0x100, 8, false))
            .unwrap();
        assert_eq!(dma.outstanding(), 2);
        dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap();
        assert_eq!(dma.outstanding(), 0);
        assert_eq!(dma.completed(), 2);
        // Second transfer read what the first wrote.
        assert_eq!(dram.read_u64(0x300).unwrap(), 7);
    }

    #[test]
    fn bad_descriptors_are_rejected() {
        let mut dma = DmaEngine::new(PortId(0));
        assert_eq!(
            dma.enqueue(Transfer::contiguous(0, 0, 0, true)),
            Err(DmaError::EmptyTransfer)
        );
        assert_eq!(
            dma.enqueue(Transfer::contiguous(4, 0, 8, true)),
            Err(DmaError::Misaligned {
                field: "dram_addr",
                value: 4
            })
        );
        assert_eq!(
            dma.enqueue(Transfer::contiguous(0, 0, 12, true)),
            Err(DmaError::Misaligned {
                field: "row_bytes",
                value: 12
            })
        );
        assert!(dma.is_idle());
    }

    #[test]
    fn completion_counter_wraps_and_distance_compare_survives() {
        // Long system-scaling runs roll the u32 completion counter over;
        // the counter itself must wrap silently and the wrapping-distance
        // idiom the poll loops use must stay correct across the seam —
        // where a raw ordered compare (the old `blt` codegen) breaks.
        let (mut tcdm, mut dram) = rig();
        let mut dma = DmaEngine::new(PortId(4));
        dma.preset_completed(u32::MAX - 1);
        for _ in 0..3 {
            dma.enqueue(Transfer::contiguous(0x0, 0x100, 8, true))
                .unwrap();
        }
        let target = (u32::MAX - 1).wrapping_add(3); // == 1, past the wrap
        assert!(
            (target.wrapping_sub(dma.completed()) as i32) > 0,
            "before the run the target lies ahead"
        );
        // The raw signed compare is already wrong here: completed
        // 0xFFFF_FFFE reads as -2, target 1 — "done" before any beat.
        assert!((dma.completed() as i32) < target as i32);
        dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap();
        assert_eq!(dma.completed(), 1, "counter wrapped through zero");
        assert!(
            (target.wrapping_sub(dma.completed()) as i32) <= 0,
            "after the run the wrapping distance reports completion"
        );
        assert_eq!(dma.stats().transfers_completed, 3);
    }

    #[test]
    fn dma_start_publishes_stride_hints_for_reads_only() {
        let mut dma = DmaEngine::new(PortId(0));
        dma.enqueue(Transfer {
            dram_addr: 0x800,
            tcdm_addr: 0x100,
            row_bytes: 16,
            dram_stride: 64,
            tcdm_stride: 16,
            reps: 3,
            to_tcdm: true,
        })
        .unwrap();
        // A TCDM→Dram write-back publishes nothing: its lines allocate
        // in the L2 without a fetch.
        dma.enqueue(Transfer::contiguous(0x0, 0x0, 32, false))
            .unwrap();
        let hints = dma.drain_prefetch_hints().collect::<Vec<_>>();
        assert_eq!(hints.len(), 1, "one hint per read descriptor");
        assert_eq!(
            (
                hints[0].addr,
                hints[0].row_bytes,
                hints[0].stride,
                hints[0].reps
            ),
            (0x800, 16, 64, 3),
            "the hint mirrors the descriptor's Dram-side footprint"
        );
        assert_eq!(dma.stats().prefetch_hints, 1);
        assert_eq!(dma.drain_prefetch_hints().count(), 0, "hints drain once");
        // Rejected descriptors publish nothing.
        assert!(dma.enqueue(Transfer::contiguous(4, 0, 8, true)).is_err());
        assert_eq!(dma.drain_prefetch_hints().count(), 0);
        // An owner that never drains loses old hints, never memory.
        for i in 0..(HINT_BUFFER as u32 + 16) {
            dma.enqueue(Transfer::contiguous(i * 8, 0, 8, true))
                .unwrap();
        }
        let hints = dma.drain_prefetch_hints().collect::<Vec<_>>();
        assert_eq!(hints.len(), HINT_BUFFER, "hint buffer stays bounded");
        assert_eq!(hints[0].addr, 16 * 8, "oldest hints dropped first");
    }

    #[test]
    fn tcdm_overrun_is_a_beat_fault() {
        let (mut tcdm, mut dram) = rig();
        let mut dma = DmaEngine::new(PortId(4));
        // TCDM is 4096 bytes; this transfer runs off its end.
        dma.enqueue(Transfer::contiguous(0, 4096 - 8, 24, true))
            .unwrap();
        let err = dma.run_to_idle(&mut tcdm, &mut dram, 1_000).unwrap_err();
        assert!(matches!(err, DmaError::Mem(MemError::OutOfBounds { .. })));
    }
}
