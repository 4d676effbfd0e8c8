//! # sc-cache — a cycle-stepped set-associative cache timing model
//!
//! The capacity/eviction/refill core behind the shared L2 of a
//! multi-cluster system. Like the rest of the memory hierarchy, the
//! cache is a **timing filter, not a data store**: one functional image
//! lives in the background memory, and this model decides *when* a beat
//! may touch it — and what traffic the decision costs on the far side.
//!
//! ## What is modelled
//!
//! * **Finite, set-associative capacity** — `capacity_bytes` split into
//!   `capacity / (line_bytes × ways)` sets with true per-set LRU
//!   replacement. `capacity_bytes == 0` selects the *infinite* residency
//!   mode: lines accumulate forever and nothing is ever evicted — the
//!   exact cold-miss-only behaviour earlier revisions of the L2 had.
//! * **Write-allocate without fetch** — a granted write installs its
//!   line immediately (DMA write-back streams write whole lines, so
//!   there is nothing to fetch) and, with `write_back` on, marks it
//!   dirty. Evicting a dirty line enqueues a **write-back job** whose
//!   beats occupy a channel like a refill's do; evicting a clean line is
//!   silent.
//! * **An MSHR file** — every in-flight line refill occupies one MSHR;
//!   same-line misses from other requesters merge into the existing
//!   entry instead of refetching ([`CacheStats::mshr_merges`]). When all
//!   `mshrs` are occupied, further misses to *new* lines stall without
//!   allocating ([`CacheStats::mshr_full_stalls`]) and retry once a
//!   refill retires. `mshrs == 0` means an unbounded file.
//! * **K parallel channels** — refill and write-back jobs drain from one
//!   FIFO over `channels` independent channels to the background memory;
//!   each job occupies its channel for `refill_latency + line_beats ×
//!   refill_cycles_per_beat` cycles. With one channel, lines serialise
//!   exactly as the single-refill-channel L2 always did.
//! * **A descriptor-driven prefetch engine** (off by default) — the
//!   owner hands the cache [`PrefetchHint`]s describing upcoming strided
//!   read footprints (a DMA engine knows its whole access pattern the
//!   moment a descriptor is enqueued). Each hint opens a *stream* whose
//!   lines are pulled ahead of demand through a **bounded request
//!   queue** ([`CacheConfig::prefetch_queue`]): per cycle a stream walks
//!   at most [`CacheConfig::prefetch_degree`] lines and never runs more
//!   than [`CacheConfig::prefetch_distance`] lines ahead of the demand
//!   beats consuming it. Prefetches allocate MSHRs and occupy channels
//!   **at lower priority than demand misses** — an idle channel takes
//!   queued demand refills and write-backs first — so prefetching can
//!   change *when* lines arrive but never which beats are serviced:
//!   cycles move, results cannot ([`CacheStats`] carries the
//!   accurate/late/useless breakdown: `prefetch_hits`,
//!   `demand_misses_covered_by_prefetch`, `prefetch_evicted_unused`).
//!
//! ## Step protocol
//!
//! The owner drives one cycle as [`Cache::begin_cycle`] (idle channels
//! pick up queued jobs) → any number of [`Cache::probe_read`] /
//! [`Cache::commit_read`] / [`Cache::commit_write`] calls for the
//! cycle's beats → [`Cache::end_cycle`] (busy channels advance; a
//! finished refill installs its line). A read beat may only be committed
//! after its probe returned [`Probe::Ready`] in the same cycle; writes
//! never stall and need no probe.
//!
//! ```
//! use sc_cache::{Cache, CacheConfig, Probe};
//!
//! let mut cache = Cache::new(CacheConfig::new().with_line_bytes(64));
//! // A cold read stalls while the line refills…
//! cache.begin_cycle();
//! assert_eq!(cache.probe_read(0x100, 0), Probe::MissPending);
//! cache.end_cycle();
//! while !cache.is_present(0x100) {
//!     cache.begin_cycle();
//!     cache.end_cycle();
//! }
//! // …then the whole line serves hits.
//! cache.begin_cycle();
//! assert_eq!(cache.probe_read(0x108, 0), Probe::Ready);
//! cache.commit_read(0x108, 0);
//! cache.end_cycle();
//! assert_eq!(cache.stats().refills, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use sc_trace::{MetricSource, Tracer, Track};

/// Hashes the `u32` line numbers the residency, MSHR and prefetch-dedup
/// tables key on with one multiply by an odd constant (Fibonacci
/// hashing): distinct low bits stay distinct, and the product's high
/// bits mix every input bit. The tables are only ever probed, never
/// iterated, so the hasher changes lookup cost and nothing else. Keys
/// are simulated line addresses: colliding ones cost host time only.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(GOLDEN);
    }
}

/// 2^64 divided by the golden ratio, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A table keyed by line number.
type LineMap<V> = HashMap<u32, V, BuildHasherDefault<LineHasher>>;

/// An upcoming strided read footprint, handed to the cache by whoever
/// knows the future access pattern (the DMA engine's descriptor, at
/// `DMA_START` time): `reps` rows of `row_bytes` bytes each, consecutive
/// row starts `stride` bytes apart, read by `requester`'s demand beats
/// in traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchHint {
    /// Byte address of the first row on the background-memory side.
    pub addr: u32,
    /// Bytes per row (> 0).
    pub row_bytes: u32,
    /// Byte distance between consecutive row starts.
    pub stride: u32,
    /// Row count (≥ 1).
    pub reps: u32,
    /// The requester (arbitration port) whose demand beats will consume
    /// the stream — its probes advance the stream's demand cursor.
    pub requester: u32,
}

impl PrefetchHint {
    /// A 1D contiguous read footprint of `bytes` bytes.
    #[must_use]
    pub fn contiguous(addr: u32, bytes: u32, requester: u32) -> Self {
        PrefetchHint {
            addr,
            row_bytes: bytes,
            stride: bytes,
            reps: 1,
            requester,
        }
    }
}

/// Geometry, policies and refill timing of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity in bytes; **0 = infinite** (pure residency
    /// tracking, no eviction). When finite, must be a multiple of
    /// `line_bytes × ways`.
    pub capacity_bytes: u32,
    /// Associativity (lines per set, ≥ 1). Ignored in infinite mode.
    pub ways: u32,
    /// Line size in bytes (power of two, ≥ 8).
    pub line_bytes: u32,
    /// MSHR file size: in-flight line refills that may be outstanding at
    /// once; **0 = unbounded**.
    pub mshrs: u32,
    /// Parallel refill/write-back channels to the background memory (≥ 1).
    pub channels: u32,
    /// Cycles before the first beat of a refill (or write-back) moves.
    pub refill_latency: u32,
    /// Cycles per 64-bit beat on a channel (≥ 1).
    pub refill_cycles_per_beat: u32,
    /// Whether dirty lines are tracked and written back on eviction.
    pub write_back: bool,
    /// Whether the prefetch engine is active. **Off by default**: a
    /// prefetch-disabled cache is cycle-for-cycle identical to one built
    /// before the engine existed.
    pub prefetch: bool,
    /// Lines a stream may walk per cycle when issuing prefetches (≥ 1
    /// when prefetching).
    pub prefetch_degree: u32,
    /// Max lines a stream may run ahead of the demand beats consuming
    /// it (≥ 1 when prefetching).
    pub prefetch_distance: u32,
    /// Capacity of the bounded prefetch-request queue between the
    /// streams and the channels (≥ 1 when prefetching); a full queue
    /// back-pressures the streams, it never stalls demand.
    pub prefetch_queue: u32,
}

impl CacheConfig {
    /// Defaults matching the residency-only L2 of earlier revisions:
    /// infinite capacity, one channel, unbounded MSHRs, no write-back —
    /// 256 B lines refilled over a Dram-like channel.
    #[must_use]
    pub fn new() -> Self {
        CacheConfig {
            capacity_bytes: 0,
            ways: 8,
            line_bytes: 256,
            mshrs: 0,
            channels: 1,
            refill_latency: 64,
            refill_cycles_per_beat: 1,
            write_back: false,
            prefetch: false,
            prefetch_degree: 2,
            prefetch_distance: 16,
            prefetch_queue: 32,
        }
    }

    /// Sets the capacity (0 = infinite). The multiple-of-`line_bytes ×
    /// ways` constraint is checked when the cache is instantiated, once
    /// the whole geometry is known.
    #[must_use]
    pub fn with_capacity_bytes(mut self, capacity_bytes: u32) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Sets the associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    #[must_use]
    pub fn with_ways(mut self, ways: u32) -> Self {
        assert!(ways >= 1, "a set holds at least one line");
        self.ways = ways;
        self
    }

    /// Sets the line size.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two ≥ 8.
    #[must_use]
    pub fn with_line_bytes(mut self, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        self.line_bytes = line_bytes;
        self
    }

    /// Sets the MSHR file size (0 = unbounded).
    #[must_use]
    pub fn with_mshrs(mut self, mshrs: u32) -> Self {
        self.mshrs = mshrs;
        self
    }

    /// Sets the channel count.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(channels >= 1, "the cache has at least one channel");
        self.channels = channels;
        self
    }

    /// Sets the per-job startup latency on a channel.
    #[must_use]
    pub fn with_refill_latency(mut self, refill_latency: u32) -> Self {
        self.refill_latency = refill_latency;
        self
    }

    /// Sets the per-beat channel occupancy (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `refill_cycles_per_beat` is zero.
    #[must_use]
    pub fn with_refill_cycles_per_beat(mut self, refill_cycles_per_beat: u32) -> Self {
        assert!(
            refill_cycles_per_beat >= 1,
            "channel bandwidth is at most one beat/cycle"
        );
        self.refill_cycles_per_beat = refill_cycles_per_beat;
        self
    }

    /// Enables/disables dirty tracking and write-back eviction traffic.
    #[must_use]
    pub fn with_write_back(mut self, write_back: bool) -> Self {
        self.write_back = write_back;
        self
    }

    /// Enables/disables the prefetch engine.
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Sets the per-stream issue rate in lines per cycle (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `prefetch_degree` is zero.
    #[must_use]
    pub fn with_prefetch_degree(mut self, prefetch_degree: u32) -> Self {
        assert!(prefetch_degree >= 1, "a stream walks at least one line");
        self.prefetch_degree = prefetch_degree;
        self
    }

    /// Sets how far ahead of demand a stream may run, in lines (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `prefetch_distance` is zero.
    #[must_use]
    pub fn with_prefetch_distance(mut self, prefetch_distance: u32) -> Self {
        assert!(
            prefetch_distance >= 1,
            "a stream runs at least one line ahead"
        );
        self.prefetch_distance = prefetch_distance;
        self
    }

    /// Sets the bounded prefetch-request queue capacity (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `prefetch_queue` is zero.
    #[must_use]
    pub fn with_prefetch_queue(mut self, prefetch_queue: u32) -> Self {
        assert!(
            prefetch_queue >= 1,
            "the prefetch-request queue holds at least one entry"
        );
        self.prefetch_queue = prefetch_queue;
        self
    }

    /// Whether capacity is unbounded (residency mode).
    #[must_use]
    pub fn is_infinite(&self) -> bool {
        self.capacity_bytes == 0
    }

    /// Number of sets (0 in infinite mode).
    #[must_use]
    pub fn sets(&self) -> u32 {
        if self.is_infinite() {
            0
        } else {
            self.capacity_bytes / (self.line_bytes * self.ways)
        }
    }

    /// 64-bit beats per line.
    #[must_use]
    pub fn line_beats(&self) -> u32 {
        self.line_bytes / 8
    }

    /// Cycles one refill or write-back job occupies its channel.
    #[must_use]
    pub fn channel_cycles(&self) -> u32 {
        self.refill_latency + self.line_beats() * self.refill_cycles_per_beat
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        assert!(self.ways >= 1, "a set holds at least one line");
        assert!(self.channels >= 1, "the cache has at least one channel");
        assert!(
            self.refill_cycles_per_beat >= 1,
            "channel bandwidth is at most one beat/cycle"
        );
        if self.prefetch {
            assert!(
                self.prefetch_degree >= 1,
                "a stream walks at least one line"
            );
            assert!(
                self.prefetch_distance >= 1,
                "a stream runs at least one line ahead"
            );
            assert!(
                self.prefetch_queue >= 1,
                "the prefetch-request queue holds at least one entry"
            );
        }
        if !self.is_infinite() {
            assert!(
                self.capacity_bytes
                    .is_multiple_of(self.line_bytes * self.ways)
                    && self.sets() >= 1,
                "capacity must be a positive multiple of line_bytes x ways \
                 (got {} B for {} B lines x {} ways)",
                self.capacity_bytes,
                self.line_bytes,
                self.ways
            );
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What a read beat found at the cache this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line is present: the beat may proceed (commit it if it wins
    /// whatever downstream arbitration the owner runs).
    Ready,
    /// The line is missing; a refill is in flight or was just enqueued.
    /// The beat retries next cycle.
    MissPending,
    /// The line is missing and every MSHR is occupied: the miss could
    /// not even be accepted. The beat retries next cycle.
    MshrFull,
}

/// How soon a cache next needs a dense cycle (see [`Cache::next_wake`]).
/// Deliberately local to this crate — `sc-cache` sits below the
/// scheduler in the dependency order, so owners convert to their own
/// wake vocabulary (`In(n)` is *relative*: inert for the next `n`
/// cycles, dense on cycle `now + n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheWake {
    /// Something progresses every cycle (prefetcher walking, a queued
    /// demand job about to claim a free channel, a channel one cycle
    /// from completion).
    EveryCycle,
    /// Provably inert for the next `n` cycles (`n >= 1`): only busy
    /// channel countdowns tick, and none reaches zero before then.
    In(u64),
    /// Fully drained — stepping is a no-op for any span with no demand
    /// traffic.
    Quiescent,
}

/// Cumulative cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Committed read beats whose line was present and never missed on
    /// the way (`read_hits + read_misses` equals the committed read
    /// beats, always).
    pub read_hits: u64,
    /// Committed read beats that had stalled on a miss before being
    /// serviced.
    pub read_misses: u64,
    /// Committed write beats (writes allocate without fetch and never
    /// stall).
    pub write_beats: u64,
    /// Cycles read beats spent stalled on a missing line (one per beat
    /// per cycle).
    pub stall_cycles: u64,
    /// MSHRs allocated (distinct line-miss episodes that started a
    /// refill).
    pub mshr_allocations: u64,
    /// Same-line misses merged into an already-pending refill instead of
    /// fetching again (one per additional distinct requester).
    pub mshr_merges: u64,
    /// Cycles a miss to a *new* line found the MSHR file full.
    pub mshr_full_stalls: u64,
    /// Highest number of simultaneously outstanding line refills.
    pub mshr_peak: u64,
    /// Lines fetched from the background memory (counted at completion).
    pub refills: u64,
    /// Lines evicted to make room (clean + dirty).
    pub evictions: u64,
    /// Evicted lines that were dirty — each enqueues one write-back job
    /// (this is the write-back *traffic* count; jobs still queued when a
    /// run ends are included).
    pub dirty_evictions: u64,
    /// Write-back jobs that finished draining over a channel.
    pub writebacks_completed: u64,
    /// Prefetch hints accepted into the stream table.
    pub prefetch_hints: u64,
    /// Prefetch line fetches issued to the background memory (an MSHR
    /// allocated and a channel job started, at lower priority than
    /// demand misses).
    pub prefetches_issued: u64,
    /// Prefetch-issued line fetches that completed — the subset of
    /// [`CacheStats::refills`] whose beats moved because of the
    /// prefetcher (energy charges them exactly like demand refill
    /// beats).
    pub prefetch_refills: u64,
    /// **Accurate** prefetches: prefetched lines that served a demand
    /// *read* before being evicted (counted once per line, so
    /// `prefetch_hits ≤ prefetches_issued` always). A write overwriting
    /// a never-read prefetched line is *not* a hit — it allocates
    /// without a fetch, so the prefetched data went unused — but it is
    /// not eviction waste either; such fetches stay unclassified.
    pub prefetch_hits: u64,
    /// **Late** prefetches: demand misses to a line whose prefetch was
    /// still in flight — the miss merged into the prefetch's MSHR
    /// instead of paying a fresh full-latency fetch (counted once per
    /// line episode).
    pub demand_misses_covered_by_prefetch: u64,
    /// **Useless** prefetches: prefetched lines evicted without a single
    /// demand access — pure pollution and wasted channel beats.
    pub prefetch_evicted_unused: u64,
}

impl CacheStats {
    /// 64-bit beats moved over the channels for refills.
    #[must_use]
    pub fn refill_beats(&self, cfg: &CacheConfig) -> u64 {
        self.refills * u64::from(cfg.line_beats())
    }

    /// 64-bit beats of write-back traffic dirty evictions generated.
    #[must_use]
    pub fn writeback_beats(&self, cfg: &CacheConfig) -> u64 {
        self.dirty_evictions * u64::from(cfg.line_beats())
    }

    /// 64-bit beats the channels moved for prefetch-issued refills (a
    /// subset of [`CacheStats::refill_beats`]).
    #[must_use]
    pub fn prefetch_beats(&self, cfg: &CacheConfig) -> u64 {
        self.prefetch_refills * u64::from(cfg.line_beats())
    }
}

impl MetricSource for CacheStats {
    fn source_name(&self) -> &'static str {
        "cache"
    }

    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("read_hits", self.read_hits);
        visit("read_misses", self.read_misses);
        visit("write_beats", self.write_beats);
        visit("stall_cycles", self.stall_cycles);
        visit("mshr_allocations", self.mshr_allocations);
        visit("mshr_merges", self.mshr_merges);
        visit("mshr_full_stalls", self.mshr_full_stalls);
        visit("mshr_peak", self.mshr_peak);
        visit("refills", self.refills);
        visit("evictions", self.evictions);
        visit("dirty_evictions", self.dirty_evictions);
        visit("writebacks_completed", self.writebacks_completed);
        visit("prefetch_hints", self.prefetch_hints);
        visit("prefetches_issued", self.prefetches_issued);
        visit("prefetch_refills", self.prefetch_refills);
        visit("prefetch_hits", self.prefetch_hits);
        visit(
            "demand_misses_covered_by_prefetch",
            self.demand_misses_covered_by_prefetch,
        );
        visit("prefetch_evicted_unused", self.prefetch_evicted_unused);
    }
}

/// A queued channel job: fetch a line, or drain a dirty evictee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    Refill(u32),
    WriteBack(u32),
}

/// Who initiated an in-flight line refill (its MSHR's origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A demand miss allocated the MSHR.
    Demand,
    /// The prefetcher allocated the MSHR; no demand beat wants the line
    /// yet.
    Prefetch,
    /// The prefetcher allocated the MSHR and a demand miss later merged
    /// into it — a *late* prefetch
    /// ([`CacheStats::demand_misses_covered_by_prefetch`]).
    Covered,
}

/// One resident line of a finite set (LRU order lives in the set's Vec:
/// index 0 is least recently used, the back is most recently used).
#[derive(Debug, Clone, Copy)]
struct Way {
    line: u32,
    dirty: bool,
    /// Installed by a prefetch and not yet demand-touched: the flag that
    /// classifies the prefetch as accurate (first demand touch) or
    /// useless (evicted still set).
    prefetched: bool,
}

/// A position in a stream's line sequence.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    row: u32,
    line: u32,
}

/// An active prefetch stream: one accepted [`PrefetchHint`], expanded
/// lazily into its line sequence with independent issue and demand
/// cursors (the issue cursor never falls behind the demand cursor).
#[derive(Debug)]
struct Stream {
    requester: u32,
    addr: u32,
    row_bytes: u32,
    stride: u32,
    reps: u32,
    line_bytes: u32,
    /// Next sequence position the prefetcher will walk; `None` when the
    /// whole footprint has been issued.
    issue: Option<Cursor>,
    /// Next sequence position a demand beat will enter; `None` once
    /// demand consumed the footprint.
    demand: Option<Cursor>,
    /// Lines the issue cursor is ahead of the demand cursor — bounded by
    /// [`CacheConfig::prefetch_distance`].
    ahead: u32,
    /// How many sequence positions [`Stream::note_demand`] searches for
    /// a probed line before concluding the line is not this stream's
    /// (`prefetch_distance + prefetch_degree` — demand inside the issued
    /// window is always within `ahead ≤ distance` positions).
    window: u32,
    /// The line the last demand probe carried — a beat probes its line
    /// once per stalled cycle and ~`line_bytes / 8` times once warm, so
    /// memoising the last line keeps the hot path O(1).
    last_demand: Option<u32>,
}

impl Stream {
    fn new(hint: PrefetchHint, line_bytes: u32, window: u32) -> Self {
        let mut s = Stream {
            requester: hint.requester,
            addr: hint.addr,
            row_bytes: hint.row_bytes,
            stride: hint.stride,
            reps: hint.reps,
            line_bytes,
            issue: None,
            demand: None,
            ahead: 0,
            window,
            last_demand: None,
        };
        let start = Cursor {
            row: 0,
            line: s.row_first(0),
        };
        s.issue = Some(start);
        s.demand = Some(start);
        s
    }

    fn row_first(&self, row: u32) -> u32 {
        self.addr.wrapping_add(row.wrapping_mul(self.stride)) / self.line_bytes
    }

    fn row_last(&self, row: u32) -> u32 {
        self.addr
            .wrapping_add(row.wrapping_mul(self.stride))
            .wrapping_add(self.row_bytes - 1)
            / self.line_bytes
    }

    fn advance(&self, c: Cursor) -> Option<Cursor> {
        if c.line < self.row_last(c.row) {
            Some(Cursor {
                row: c.row,
                line: c.line + 1,
            })
        } else if c.row + 1 < self.reps {
            let row = c.row + 1;
            Some(Cursor {
                row,
                line: self.row_first(row),
            })
        } else {
            None
        }
    }

    /// A demand beat from this stream's requester probed `line`. If the
    /// line is one of this stream's upcoming positions (searched
    /// in-order within `window` positions of the demand cursor), the
    /// cursor advances past it — skipped positions count as consumed,
    /// and when demand thereby overtakes the issue cursor (lines the
    /// prefetcher never got to), the issue cursor is dragged forward
    /// too: no point fetching lines demand already paid for. A line
    /// that is *not* in the window leaves the stream untouched — the
    /// same requester's beats into a **different** stream's footprint
    /// must not cancel this one (a cluster's engine interleaves
    /// descriptors for several disjoint regions).
    fn note_demand(&mut self, line: u32) {
        if self.last_demand == Some(line) {
            return;
        }
        self.last_demand = Some(line);
        let mut probe = self.demand;
        for _ in 0..=self.window {
            let Some(c) = probe else { return };
            if c.line == line {
                // Found: consume every position up to and including the
                // first occurrence (the walk repeats the search's order,
                // so stopping at the line is stopping at `c`).
                while let Some(d) = self.demand {
                    self.demand = self.advance(d);
                    if self.ahead > 0 {
                        self.ahead -= 1;
                    } else {
                        self.issue = self.demand;
                    }
                    if d.line == line {
                        return;
                    }
                }
                return;
            }
            probe = self.advance(c);
        }
    }

    /// Whether both cursors ran off the end — the stream retires.
    fn exhausted(&self) -> bool {
        self.issue.is_none() && self.demand.is_none()
    }
}

/// Active streams the prefetcher tracks at once; the oldest stream is
/// evicted when a hint arrives with the table full.
const MAX_STREAMS: usize = 16;

/// The cycle-stepped cache: sets/residency, MSHRs, channels and the
/// prefetch engine.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    stats: CacheStats,
    /// Infinite mode: every line ever fetched or written, with its
    /// prefetched-and-untouched flag.
    resident: LineMap<bool>,
    /// Finite mode: per-set LRU-ordered ways.
    sets: Vec<Vec<Way>>,
    /// Lines with an allocated MSHR (refill queued or in flight), with
    /// the origin that decides the accuracy accounting.
    pending_refills: LineMap<Origin>,
    /// Requesters owed a miss classification per line: populated when a
    /// read stalls, consumed when that requester's beat finally commits
    /// (so `read_misses` counts serviced missed beats, not stall
    /// cycles). A flat `(line, requester)` list: it holds at most a few
    /// stalled beats, and reusing its buffer keeps misses allocation-free.
    owed: Vec<(u32, u32)>,
    /// Demand refill/write-back jobs not yet on a channel, FIFO. Idle
    /// channels always drain this queue before touching the prefetch
    /// queue.
    queue: VecDeque<Job>,
    /// The channels: `Some((job, cycles remaining))` when busy.
    channels: Vec<Option<(Job, u32)>>,
    /// Active prefetch streams, oldest first.
    streams: VecDeque<Stream>,
    /// The bounded prefetch-request queue (lines awaiting an MSHR and a
    /// channel), plus its membership set for cheap dedup.
    prefetch_queue: VecDeque<u32>,
    prefetch_queued: HashSet<u32, BuildHasherDefault<LineHasher>>,
    /// Observability bus handle (off by default — a `None` check per
    /// emit site) and the base timeline track: counters and prefetch
    /// instants on the track itself, channel `i` on `tid + 1 + i`.
    tracer: Tracer,
    track: Track,
}

impl Cache {
    /// Creates an empty (fully cold) cache.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see the field docs).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = if cfg.is_infinite() {
            Vec::new()
        } else {
            vec![Vec::with_capacity(cfg.ways as usize); cfg.sets() as usize]
        };
        Cache {
            stats: CacheStats::default(),
            resident: LineMap::default(),
            sets,
            pending_refills: LineMap::default(),
            owed: Vec::new(),
            queue: VecDeque::new(),
            channels: vec![None; cfg.channels as usize],
            streams: VecDeque::new(),
            prefetch_queue: VecDeque::new(),
            prefetch_queued: HashSet::default(),
            tracer: Tracer::off(),
            track: Track::new(0, 0),
            cfg,
        }
    }

    /// Subscribes this cache to an observability bus. Channel activity
    /// renders on `track.tid + 1 + channel`; MSHR/prefetch counters and
    /// prefetch-lifecycle instants on `track` itself.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.track = track;
        if tracer.is_on() {
            tracer.name_thread(track, "cache");
            for i in 0..self.channels.len() {
                tracer.name_thread(self.channel_track(i), &format!("channel{i}"));
            }
        }
        self.tracer = tracer;
    }

    fn channel_track(&self, channel: usize) -> Track {
        Track::new(self.track.pid, self.track.tid + 1 + channel as u32)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Activity counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_of(&self, addr: u32) -> u32 {
        addr / self.cfg.line_bytes
    }

    fn set_of(&self, line: u32) -> usize {
        (line % self.cfg.sets()) as usize
    }

    fn is_line_present(&self, line: u32) -> bool {
        if self.cfg.is_infinite() {
            self.resident.contains_key(&line)
        } else {
            self.sets[self.set_of(line)].iter().any(|w| w.line == line)
        }
    }

    /// Whether the line holding `addr` is present (servable this cycle).
    #[must_use]
    pub fn is_present(&self, addr: u32) -> bool {
        self.is_line_present(self.line_of(addr))
    }

    /// Currently outstanding line refills (MSHR occupancy).
    #[must_use]
    pub fn mshr_occupancy(&self) -> u32 {
        self.pending_refills.len() as u32
    }

    /// Whether any channel is busy or any demand job is still queued
    /// (pending prefetch *requests* don't count: they are dropped, not
    /// owed, if the owner stops cycling).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || self.channels.iter().any(Option::is_some)
    }

    /// Whether stepping the cache is a provable no-op: no demand job
    /// queued, no channel draining, no open prefetch stream and no
    /// queued prefetch request. Stricter than `!`[`Cache::is_busy`] —
    /// an event-driven owner needs the prefetcher fully drained too
    /// before fast-forwarding an idle window, because `begin_cycle`
    /// walks streams and issues queued prefetches even with no demand
    /// traffic.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        !self.is_busy() && self.streams.is_empty() && self.prefetch_queue.is_empty()
    }

    /// Prefetch requests waiting for an MSHR and a channel (test/debug
    /// inspection).
    #[must_use]
    pub fn prefetch_backlog(&self) -> usize {
        self.prefetch_queue.len()
    }

    /// How soon this cache next needs a dense cycle, from channel
    /// countdowns and MSHR/queue state. The contract mirrors the
    /// event scheduler's wake surface without depending on it:
    ///
    /// - open prefetch streams or queued prefetch requests walk every
    ///   `begin_cycle` → [`CacheWake::EveryCycle`];
    /// - a queued demand job with a channel free to take it starts next
    ///   `begin_cycle` → [`CacheWake::EveryCycle`];
    /// - otherwise only busy channels tick: the earliest completion
    ///   (install/free-MSHR/stats) must run densely, so the cache is
    ///   inert for exactly `min(wait) - 1` cycles → [`CacheWake::In`]
    ///   (collapsing to `EveryCycle` when the minimum is already 1);
    /// - fully drained → [`CacheWake::Quiescent`].
    #[must_use]
    pub fn next_wake(&self) -> CacheWake {
        if !self.streams.is_empty() || !self.prefetch_queue.is_empty() {
            return CacheWake::EveryCycle;
        }
        if !self.queue.is_empty() && self.channels.iter().any(Option::is_none) {
            return CacheWake::EveryCycle;
        }
        let min_wait = self.channels.iter().flatten().map(|(_, wait)| *wait).min();
        match min_wait {
            None => CacheWake::Quiescent,
            Some(wait) if wait <= 1 => CacheWake::EveryCycle,
            Some(wait) => CacheWake::In(u64::from(wait) - 1),
        }
    }

    /// Bulk-advances an inert window: every busy channel's countdown
    /// drops by `cycles` with no completion, install or stat side
    /// effects — exactly what `cycles` dense steps with no demand beats
    /// would have done. Valid only within the window [`Cache::next_wake`]
    /// granted (`CacheWake::In(n)` with `cycles <= n`, or any span while
    /// quiescent).
    pub fn skip(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert!(
            match self.next_wake() {
                CacheWake::Quiescent => true,
                CacheWake::In(n) => cycles <= n,
                CacheWake::EveryCycle => false,
            },
            "cache skipped past its wake point"
        );
        for ch in self.channels.iter_mut().flatten() {
            let (_, wait) = ch;
            *wait -= u32::try_from(cycles).expect("skip window exceeds u32 channel countdown");
        }
    }

    /// Accepts an upcoming read footprint as a prefetch stream. A no-op
    /// unless [`CacheConfig::prefetch`] is on; with the stream table
    /// full, the oldest stream is evicted to make room. Hints with an
    /// empty footprint are ignored.
    pub fn prefetch_hint(&mut self, hint: PrefetchHint) {
        if !self.cfg.prefetch || hint.row_bytes == 0 || hint.reps == 0 {
            return;
        }
        if self.streams.len() >= MAX_STREAMS {
            self.streams.pop_front();
        }
        self.streams.push_back(Stream::new(
            hint,
            self.cfg.line_bytes,
            self.cfg.prefetch_distance + self.cfg.prefetch_degree,
        ));
        self.stats.prefetch_hints += 1;
        self.tracer.instant(self.track, "prefetch-stream-open");
    }

    /// Cycle start: streams feed the bounded prefetch-request queue,
    /// then idle channels pick up work — queued **demand** jobs
    /// (refills and write-backs) strictly first, prefetch requests only
    /// with channels and MSHRs to spare.
    pub fn begin_cycle(&mut self) {
        self.issue_prefetches();
        for i in 0..self.channels.len() {
            if self.channels[i].is_none() {
                if let Some(job) = self.queue.pop_front() {
                    let label = match job {
                        Job::Refill(_) => "refill",
                        Job::WriteBack(_) => "write-back",
                    };
                    self.tracer.begin(self.channel_track(i), label);
                    self.channels[i] = Some((job, self.cfg.channel_cycles()));
                } else if let Some(line) = self.pop_prefetch_request() {
                    self.pending_refills.insert(line, Origin::Prefetch);
                    self.stats.prefetches_issued += 1;
                    self.stats.mshr_peak =
                        self.stats.mshr_peak.max(self.pending_refills.len() as u64);
                    self.tracer.instant(self.track, "prefetch-issue");
                    self.tracer.begin(self.channel_track(i), "prefetch");
                    self.channels[i] = Some((Job::Refill(line), self.cfg.channel_cycles()));
                }
            }
        }
        if self.tracer.is_on() {
            self.tracer.counter(
                self.track,
                "mshr-occupancy",
                u64::from(self.mshr_occupancy()),
            );
            self.tracer.counter(
                self.track,
                "prefetch-backlog",
                self.prefetch_queue.len() as u64,
            );
        }
    }

    /// Walks every stream up to `prefetch_degree` lines, pushing lines
    /// that are neither present, nor pending, nor already queued into
    /// the bounded request queue. Exhausted streams retire.
    fn issue_prefetches(&mut self) {
        if self.streams.is_empty() {
            return;
        }
        let mut streams = std::mem::take(&mut self.streams);
        for s in &mut streams {
            let mut walked = 0;
            while walked < self.cfg.prefetch_degree
                && s.ahead < self.cfg.prefetch_distance
                && (self.prefetch_queue.len() as u32) < self.cfg.prefetch_queue
            {
                let Some(c) = s.issue else { break };
                s.issue = s.advance(c);
                s.ahead += 1;
                walked += 1;
                if !self.is_line_present(c.line)
                    && !self.pending_refills.contains_key(&c.line)
                    && self.prefetch_queued.insert(c.line)
                {
                    self.prefetch_queue.push_back(c.line);
                }
            }
        }
        streams.retain(|s| !s.exhausted());
        self.streams = streams;
    }

    /// Pops the next *useful* prefetch request: stale entries (line
    /// became present or pending since it was queued) are discarded, and
    /// nothing is popped when the MSHR file is already full. A prefetch
    /// *may* take the last free MSHR ahead of a demand miss arriving
    /// later the same cycle (the miss then bounces `MshrFull` and
    /// retries — pinned by the tiny-MSHR prefetch-pressure tests);
    /// demand priority is enforced at the channels, which always drain
    /// the demand job FIFO first.
    fn pop_prefetch_request(&mut self) -> Option<u32> {
        if self.cfg.mshrs != 0 && self.pending_refills.len() as u32 >= self.cfg.mshrs {
            return None;
        }
        while let Some(line) = self.prefetch_queue.pop_front() {
            self.prefetch_queued.remove(&line);
            if !self.is_line_present(line) && !self.pending_refills.contains_key(&line) {
                return Some(line);
            }
        }
        None
    }

    /// Looks up a read beat: [`Probe::Ready`] when its line is present,
    /// otherwise the beat stalls this cycle and the miss is recorded —
    /// allocating an MSHR and enqueueing a refill for a new line,
    /// merging into the pending refill for an already-missing one, or
    /// bouncing off a full MSHR file.
    pub fn probe_read(&mut self, addr: u32, requester: u32) -> Probe {
        let line = self.line_of(addr);
        // The demand beat drives its requester's streams forward — the
        // prefetcher's run-ahead window is measured against this.
        for s in &mut self.streams {
            if s.requester == requester {
                s.note_demand(line);
            }
        }
        if self.is_line_present(line) {
            return Probe::Ready;
        }
        self.stats.stall_cycles += 1;
        let outcome = if let Some(origin) = self.pending_refills.get_mut(&line) {
            if *origin == Origin::Prefetch {
                // A late prefetch: demand wanted the line while its
                // prefetch was still in flight. The miss merges into
                // the existing MSHR and waits out the remainder.
                *origin = Origin::Covered;
                self.stats.demand_misses_covered_by_prefetch += 1;
                self.tracer.instant(self.track, "prefetch-covered");
            }
            Probe::MissPending
        } else if self.cfg.mshrs != 0 && self.pending_refills.len() as u32 >= self.cfg.mshrs {
            self.stats.mshr_full_stalls += 1;
            Probe::MshrFull
        } else {
            self.pending_refills.insert(line, Origin::Demand);
            self.queue.push_back(Job::Refill(line));
            self.stats.mshr_allocations += 1;
            self.stats.mshr_peak = self.stats.mshr_peak.max(self.pending_refills.len() as u64);
            Probe::MissPending
        };
        if !self.owed.contains(&(line, requester)) {
            if self.owed.iter().any(|&(l, _)| l == line) {
                self.stats.mshr_merges += 1;
            }
            self.owed.push((line, requester));
        }
        outcome
    }

    /// Commits a granted read beat, classifying it as a hit or a
    /// serviced miss (the beat had stalled earlier) and refreshing LRU.
    /// Returns whether it had missed.
    ///
    /// # Panics
    ///
    /// Debug-panics if the beat's line is not present — commit only
    /// after a same-cycle [`Probe::Ready`].
    pub fn commit_read(&mut self, addr: u32, requester: u32) -> bool {
        let line = self.line_of(addr);
        debug_assert!(
            self.is_line_present(line),
            "committed a read beat whose line is absent"
        );
        let missed = match self.owed.iter().position(|&e| e == (line, requester)) {
            Some(pos) => {
                self.owed.swap_remove(pos);
                true
            }
            None => false,
        };
        if missed {
            self.stats.read_misses += 1;
        } else {
            self.stats.read_hits += 1;
        }
        self.demand_touch(line);
        missed
    }

    /// Commits a granted write beat: the line is installed without a
    /// fetch (and marked dirty under `write_back`), evicting a victim if
    /// its set is full. Writes never stall.
    pub fn commit_write(&mut self, addr: u32) {
        let line = self.line_of(addr);
        self.stats.write_beats += 1;
        self.install(line, self.cfg.write_back, false);
    }

    /// Cycle end: busy channels advance one cycle; a finished refill
    /// installs its line (servable from next cycle) and frees its MSHR —
    /// flagged *prefetched* when the prefetcher initiated it and no
    /// demand miss merged in meanwhile — a finished write-back just
    /// releases the channel.
    pub fn end_cycle(&mut self) {
        for i in 0..self.channels.len() {
            let Some((job, wait)) = self.channels[i].as_mut() else {
                continue;
            };
            *wait -= 1;
            if *wait > 0 {
                continue;
            }
            let job = *job;
            self.channels[i] = None;
            self.tracer.end(self.channel_track(i));
            match job {
                Job::Refill(line) => {
                    let origin = self.pending_refills.remove(&line).unwrap_or(Origin::Demand);
                    self.stats.refills += 1;
                    if origin != Origin::Demand {
                        self.stats.prefetch_refills += 1;
                    }
                    self.install(line, false, origin == Origin::Prefetch);
                }
                Job::WriteBack(_) => {
                    self.stats.writebacks_completed += 1;
                }
            }
        }
    }

    /// A demand beat used `line`: refresh LRU, and if the line was
    /// installed by a still-unused prefetch, bank the accurate-prefetch
    /// credit and clear the flag.
    fn demand_touch(&mut self, line: u32) {
        if self.cfg.is_infinite() {
            if let Some(flag) = self.resident.get_mut(&line) {
                if std::mem::replace(flag, false) {
                    self.stats.prefetch_hits += 1;
                    self.tracer.instant(self.track, "prefetch-hit");
                }
            }
            return;
        }
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            let mut w = set.remove(pos);
            if std::mem::replace(&mut w.prefetched, false) {
                self.stats.prefetch_hits += 1;
                self.tracer.instant(self.track, "prefetch-hit");
            }
            set.push(w);
        }
    }

    /// Installs (or refreshes) a line, evicting the set's LRU victim if
    /// needed. A dirty victim enqueues a write-back job; a victim still
    /// flagged prefetched counts as a useless prefetch. `prefetched`
    /// marks a fresh prefetch install. A refresh of an already-present
    /// prefetched line clears the flag **without** banking an accuracy
    /// credit: on this write-allocate-without-fetch cache, a write
    /// overwriting a never-read prefetched line did not consume the
    /// fetched data (a cold write would have cost the same), so the
    /// fetch stays unclassified — only a demand *read*
    /// ([`Cache::demand_touch`] via [`Cache::commit_read`]) is an
    /// accurate prefetch.
    fn install(&mut self, line: u32, dirty: bool, prefetched: bool) {
        if self.cfg.is_infinite() {
            match self.resident.entry(line) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if !prefetched {
                        *e.get_mut() = false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(prefetched);
                }
            }
            return;
        }
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            let mut w = set.remove(pos);
            w.dirty |= dirty;
            if !prefetched {
                w.prefetched = false;
            }
            set.push(w);
            return;
        }
        if set.len() as u32 == self.cfg.ways {
            let victim = set.remove(0);
            self.stats.evictions += 1;
            if victim.prefetched {
                self.stats.prefetch_evicted_unused += 1;
                self.tracer.instant(self.track, "prefetch-evicted-unused");
            }
            if victim.dirty {
                self.stats.dirty_evictions += 1;
                self.queue.push_back(Job::WriteBack(victim.line));
            }
        }
        set.push(Way {
            line,
            dirty,
            prefetched,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps idle cycles (no beats) until nothing is queued or in
    /// flight; returns the cycles taken.
    fn drain(cache: &mut Cache) -> u32 {
        let mut cycles = 0;
        while cache.is_busy() {
            cache.begin_cycle();
            cache.end_cycle();
            cycles += 1;
            assert!(cycles < 100_000, "channels never drained");
        }
        cycles
    }

    /// Reads `addr` to completion: probes each cycle until Ready, then
    /// commits. Returns the stall cycles spent.
    fn read_through(cache: &mut Cache, addr: u32, requester: u32) -> u32 {
        let mut stalls = 0;
        loop {
            cache.begin_cycle();
            let p = cache.probe_read(addr, requester);
            if p == Probe::Ready {
                cache.commit_read(addr, requester);
                cache.end_cycle();
                return stalls;
            }
            cache.end_cycle();
            stalls += 1;
            assert!(stalls < 100_000, "read never completed");
        }
    }

    fn finite(capacity: u32, ways: u32) -> CacheConfig {
        CacheConfig::new()
            .with_line_bytes(64)
            .with_capacity_bytes(capacity)
            .with_ways(ways)
            .with_write_back(true)
            .with_refill_latency(4)
    }

    #[test]
    fn next_wake_tracks_channel_countdowns_and_skip_matches_dense() {
        let cfg = finite(1024, 2); // refill latency 4
        let per_job = cfg.channel_cycles();
        assert!(per_job > 2, "test needs a multi-cycle channel window");

        // Drive two caches identically up to the start of a refill.
        let mut dense = Cache::new(cfg);
        let mut skipped = Cache::new(cfg);
        for c in [&mut dense, &mut skipped] {
            c.begin_cycle();
            assert_eq!(c.probe_read(0x100, 0), Probe::MissPending);
            c.end_cycle();
            c.begin_cycle(); // channel picks the refill up here
        }
        // Both report the same inert window: dense on the completion
        // cycle, quiet until then.
        assert_eq!(dense.next_wake(), CacheWake::In(u64::from(per_job) - 1));

        // Dense: tick the window out cycle by cycle.
        for _ in 0..per_job - 1 {
            dense.end_cycle();
            dense.begin_cycle();
        }
        // Skipped: bulk-advance the same window in one call.
        skipped.skip(u64::from(per_job) - 1);
        for c in [&mut dense, &mut skipped] {
            assert_eq!(c.next_wake(), CacheWake::EveryCycle);
            c.end_cycle(); // completion installs the line
            assert!(c.is_present(0x100));
            assert_eq!(c.next_wake(), CacheWake::Quiescent);
        }
        assert_eq!(
            format!("{:?}", dense.stats()),
            format!("{:?}", skipped.stats())
        );
    }

    #[test]
    fn open_prefetch_streams_pin_every_cycle() {
        let cfg = finite(4096, 4).with_prefetch(true);
        let mut cache = Cache::new(cfg);
        assert_eq!(cache.next_wake(), CacheWake::Quiescent);
        cache.prefetch_hint(PrefetchHint::contiguous(0, 1024, 0));
        assert_eq!(
            cache.next_wake(),
            CacheWake::EveryCycle,
            "an open stream walks every begin_cycle"
        );
    }

    #[test]
    fn queued_demand_job_with_a_free_channel_pins_every_cycle() {
        let mut cache = Cache::new(finite(1024, 2));
        cache.begin_cycle();
        assert_eq!(cache.probe_read(0x100, 0), Probe::MissPending);
        cache.end_cycle();
        // The refill is queued but no channel has started it yet.
        assert_eq!(cache.next_wake(), CacheWake::EveryCycle);
    }

    #[test]
    fn cold_read_stalls_one_refill_then_line_hits() {
        let cfg = CacheConfig::new()
            .with_line_bytes(64)
            .with_refill_latency(8);
        let per_job = cfg.channel_cycles();
        let mut cache = Cache::new(cfg);
        // First denial enqueues; the channel starts next begin_cycle.
        assert_eq!(read_through(&mut cache, 0x100, 0), per_job + 1);
        assert_eq!(cache.stats().refills, 1);
        assert_eq!(cache.stats().read_misses, 1);
        // A neighbouring beat on the same line is warm.
        assert_eq!(read_through(&mut cache, 0x108, 0), 0);
        assert_eq!(cache.stats().read_hits, 1);
    }

    #[test]
    fn writes_install_without_fetch_and_serve_reads() {
        let mut cache = Cache::new(finite(1024, 2));
        cache.begin_cycle();
        cache.commit_write(0x200);
        cache.end_cycle();
        assert!(cache.is_present(0x200));
        assert_eq!(read_through(&mut cache, 0x208, 0), 0, "written line hits");
        assert_eq!(cache.stats().refills, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        // 2 sets x 2 ways of 64 B lines; lines 0, 2, 4 map to set 0.
        let mut cache = Cache::new(finite(256, 2));
        assert_eq!(cache.config().sets(), 2);
        read_through(&mut cache, 0, 0);
        read_through(&mut cache, 2 * 64, 0);
        // Touch line 0 so line 2 is LRU, then bring in line 4.
        read_through(&mut cache, 0, 0);
        read_through(&mut cache, 4 * 64, 0);
        assert!(cache.is_present(0), "recently used line survives");
        assert!(!cache.is_present(2 * 64), "LRU way evicted");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().dirty_evictions, 0, "clean eviction is silent");
    }

    #[test]
    fn dirty_eviction_generates_writeback_traffic_on_the_channel() {
        // One set of 1 way: every new line evicts the previous one.
        let cfg = finite(64, 1);
        let mut cache = Cache::new(cfg);
        cache.begin_cycle();
        cache.commit_write(0);
        cache.end_cycle();
        // Fetch a different line into the same (only) set: the dirty
        // victim must be written back.
        read_through(&mut cache, 64, 0);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().dirty_evictions, 1);
        assert_eq!(
            cache.stats().writeback_beats(cache.config()),
            u64::from(cfg.line_beats())
        );
        // The write-back job drains over the channel.
        drain(&mut cache);
        assert_eq!(cache.stats().writebacks_completed, 1);
    }

    #[test]
    fn writeback_disabled_never_queues_traffic() {
        let cfg = finite(64, 1).with_write_back(false);
        let mut cache = Cache::new(cfg);
        cache.begin_cycle();
        cache.commit_write(0);
        cache.end_cycle();
        read_through(&mut cache, 64, 0);
        read_through(&mut cache, 128, 0);
        assert!(cache.stats().evictions >= 2);
        assert_eq!(cache.stats().dirty_evictions, 0);
        assert_eq!(cache.stats().writeback_beats(cache.config()), 0);
    }

    #[test]
    fn same_line_misses_merge_into_one_mshr() {
        let mut cache = Cache::new(CacheConfig::new().with_line_bytes(64));
        let mut stalls = (0, 0);
        loop {
            cache.begin_cycle();
            let p0 = cache.probe_read(0x40, 0);
            let p1 = cache.probe_read(0x48, 1);
            if p0 == Probe::Ready && p1 == Probe::Ready {
                cache.commit_read(0x40, 0);
                cache.commit_read(0x48, 1);
                cache.end_cycle();
                break;
            }
            stalls = (
                stalls.0 + u32::from(p0 != Probe::Ready),
                stalls.1 + u32::from(p1 != Probe::Ready),
            );
            cache.end_cycle();
        }
        assert_eq!(cache.stats().mshr_allocations, 1, "one refill for the line");
        assert_eq!(cache.stats().mshr_merges, 1, "the second requester merged");
        assert_eq!(cache.stats().refills, 1);
        assert_eq!(
            cache.stats().read_misses,
            2,
            "both beats were serviced misses"
        );
        assert_eq!(stalls.0, stalls.1, "both waited out the same refill");
    }

    #[test]
    fn full_mshr_file_rejects_new_lines_until_a_refill_retires() {
        let cfg = CacheConfig::new().with_line_bytes(64).with_mshrs(1);
        let mut cache = Cache::new(cfg);
        cache.begin_cycle();
        assert_eq!(cache.probe_read(0, 0), Probe::MissPending);
        assert_eq!(
            cache.probe_read(8 * 64, 1),
            Probe::MshrFull,
            "second distinct line bounces off the single MSHR"
        );
        // Same-line merging is not blocked by a full file.
        assert_eq!(cache.probe_read(8, 1), Probe::MissPending);
        cache.end_cycle();
        assert!(cache.stats().mshr_full_stalls >= 1);
        assert_eq!(cache.stats().mshr_peak, 1);
        // Once the first refill retires, the second line allocates.
        drain(&mut cache);
        cache.begin_cycle();
        assert_eq!(cache.probe_read(8 * 64, 1), Probe::MissPending);
        cache.end_cycle();
        assert_eq!(cache.stats().mshr_allocations, 2);
    }

    #[test]
    fn parallel_channels_overlap_refills() {
        let serial_cfg = CacheConfig::new()
            .with_line_bytes(64)
            .with_refill_latency(16);
        let run = |channels: u32| {
            let mut cache = Cache::new(serial_cfg.with_channels(channels));
            let (mut done0, mut done1) = (false, false);
            let mut cycles = 0;
            while !(done0 && done1) {
                cache.begin_cycle();
                if !done0 && cache.probe_read(0, 0) == Probe::Ready {
                    cache.commit_read(0, 0);
                    done0 = true;
                }
                if !done1 && cache.probe_read(0x1000, 1) == Probe::Ready {
                    cache.commit_read(0x1000, 1);
                    done1 = true;
                }
                cache.end_cycle();
                cycles += 1;
                assert!(cycles < 100_000);
            }
            cycles
        };
        let per_job = serial_cfg.channel_cycles();
        let one = run(1);
        let two = run(2);
        assert!(one > 2 * per_job, "one channel serialises the two lines");
        assert!(two < one, "a second channel overlaps them ({two} vs {one})");
    }

    #[test]
    fn hits_plus_misses_account_every_committed_read() {
        let mut cache = Cache::new(finite(512, 2));
        let mut committed = 0u64;
        for round in 0..4u32 {
            for i in 0..16u32 {
                read_through(&mut cache, (i * 64 + round) / 8 * 8, 0);
                committed += 1;
            }
        }
        let s = cache.stats();
        assert_eq!(s.read_hits + s.read_misses, committed);
        assert!(s.evictions > 0, "16 lines thrash a 512 B cache");
    }

    #[test]
    fn infinite_mode_never_evicts() {
        let mut cache = Cache::new(CacheConfig::new().with_line_bytes(64));
        for i in 0..64u32 {
            read_through(&mut cache, i * 64, 0);
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().refills, 64);
        for i in 0..64u32 {
            assert!(cache.is_present(i * 64), "line {i} stays resident forever");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of line_bytes x ways")]
    fn misaligned_capacity_is_rejected() {
        let _ = Cache::new(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_ways(3)
                .with_capacity_bytes(1000),
        );
    }

    // ---- prefetch engine -------------------------------------------------

    fn prefetching(cfg: CacheConfig) -> CacheConfig {
        cfg.with_prefetch(true)
            .with_prefetch_degree(4)
            .with_prefetch_distance(16)
            .with_prefetch_queue(16)
    }

    /// Steps idle cycles until the prefetcher has nothing queued or in
    /// flight (streams may still be alive, throttled by distance).
    fn drain_prefetches(cache: &mut Cache) {
        let mut cycles = 0;
        loop {
            cache.begin_cycle();
            cache.end_cycle();
            cycles += 1;
            if !cache.is_busy() && cache.prefetch_backlog() == 0 {
                break;
            }
            assert!(cycles < 100_000, "prefetches never drained");
        }
    }

    #[test]
    fn hint_prefetches_contiguous_lines_ahead_of_demand() {
        let mut cache = Cache::new(prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(4),
        ));
        cache.prefetch_hint(PrefetchHint::contiguous(0x0, 4 * 64, 0));
        drain_prefetches(&mut cache);
        // All four lines (≤ distance) were fetched without any demand.
        for i in 0..4u32 {
            assert!(cache.is_present(i * 64), "line {i} prefetched");
        }
        assert_eq!(cache.stats().prefetch_hints, 1);
        assert_eq!(cache.stats().prefetches_issued, 4);
        assert_eq!(cache.stats().prefetch_refills, 4);
        assert_eq!(cache.stats().refills, 4);
        assert_eq!(cache.stats().mshr_allocations, 0, "no demand misses");
        // Demand reads now hit and bank the accuracy credit once per line.
        assert_eq!(read_through(&mut cache, 0x0, 0), 0);
        assert_eq!(read_through(&mut cache, 0x8, 0), 0);
        assert_eq!(cache.stats().prefetch_hits, 1, "credited once per line");
        assert_eq!(cache.stats().read_hits, 2);
        assert_eq!(cache.stats().read_misses, 0);
    }

    #[test]
    fn prefetch_follows_the_strided_descriptor() {
        // 2 rows of one line, 4 lines apart: both rows are fetched, the
        // gap lines between them are not.
        let hint = PrefetchHint {
            addr: 0x0,
            row_bytes: 64,
            stride: 4 * 64,
            reps: 2,
            requester: 0,
        };
        let mut cache = Cache::new(prefetching(CacheConfig::new().with_line_bytes(64)));
        cache.prefetch_hint(hint);
        drain_prefetches(&mut cache);
        assert!(cache.is_present(0x0) && cache.is_present(4 * 64));
        assert!((1..4).all(|line| !cache.is_present(line * 64)));
        assert_eq!(cache.stats().prefetches_issued, 2);
    }

    #[test]
    fn demand_misses_always_outrank_prefetches_on_the_channel() {
        // One channel: a queued demand refill must start before any
        // queued prefetch request, regardless of arrival order.
        let mut cache = Cache::new(prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(4),
        ));
        cache.prefetch_hint(PrefetchHint::contiguous(0x1000, 2 * 64, 0));
        // Cycle 1: the prefetcher grabs the idle channel for line 0x40.
        cache.begin_cycle();
        // A demand miss to a different line arrives the same cycle.
        assert_eq!(cache.probe_read(0x0, 1), Probe::MissPending);
        cache.end_cycle();
        // Next cycle the channel is still busy with the first prefetch;
        // once it frees, the *demand* refill goes next even though the
        // second prefetch request was queued earlier.
        let mut order = Vec::new();
        for _ in 0..60 {
            cache.begin_cycle();
            cache.end_cycle();
            for line in [0u32, 0x1000 / 64, 0x1000 / 64 + 1] {
                if cache.is_present(line * 64) && !order.contains(&line) {
                    order.push(line);
                }
            }
        }
        assert_eq!(
            order,
            vec![0x1000 / 64, 0, 0x1000 / 64 + 1],
            "demand line 0 must be fetched before the second prefetch"
        );
    }

    #[test]
    fn late_prefetch_covers_the_demand_miss() {
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(16),
        );
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x0, 64, 0));
        // Let the prefetch start, then demand the line mid-flight.
        cache.begin_cycle();
        cache.end_cycle();
        let stalls = read_through(&mut cache, 0x0, 0);
        let s = cache.stats();
        assert_eq!(s.demand_misses_covered_by_prefetch, 1);
        assert_eq!(s.prefetches_issued, 1);
        assert_eq!(s.refills, 1, "one fetch serves both");
        assert_eq!(s.prefetch_refills, 1);
        assert_eq!(s.read_misses, 1, "the demand beat still missed");
        assert_eq!(
            s.prefetch_hits, 0,
            "a covered line is late, not an accurate hit"
        );
        assert!(
            stalls < cfg.channel_cycles() + 1,
            "merging into the in-flight prefetch saves stall cycles"
        );
    }

    #[test]
    fn prefetch_pressure_fills_a_tiny_mshr_file_and_demand_bounces() {
        // 2 MSHRs, both taken by prefetches: a demand miss to a third
        // line must bounce off the full file (Probe::MshrFull), then
        // allocate once a prefetch retires.
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(32)
                .with_mshrs(2)
                .with_channels(2),
        );
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x1000, 2 * 64, 0));
        cache.begin_cycle();
        assert_eq!(cache.mshr_occupancy(), 2, "both MSHRs hold prefetches");
        assert_eq!(
            cache.probe_read(0x0, 1),
            Probe::MshrFull,
            "demand miss to a new line bounces off the prefetch-full file"
        );
        cache.end_cycle();
        assert!(cache.stats().mshr_full_stalls >= 1);
        assert_eq!(cache.stats().mshr_peak, 2);
        // The demand beat eventually gets its line.
        assert!(read_through(&mut cache, 0x0, 1) > 0);
        assert_eq!(cache.stats().mshr_allocations, 1);
        assert_eq!(cache.stats().refills, 3);
    }

    #[test]
    fn prefetcher_never_steals_the_mshr_a_demand_miss_needs() {
        // 1 MSHR, occupied by a demand refill; the prefetch request must
        // wait in its queue rather than bouncing the file size.
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(8)
                .with_mshrs(1)
                .with_channels(2),
        );
        let mut cache = Cache::new(cfg);
        cache.begin_cycle();
        assert_eq!(cache.probe_read(0x0, 0), Probe::MissPending);
        cache.end_cycle();
        cache.prefetch_hint(PrefetchHint::contiguous(0x1000, 64, 0));
        cache.begin_cycle();
        assert_eq!(
            cache.mshr_occupancy(),
            1,
            "the prefetch waits for a free MSHR"
        );
        assert_eq!(cache.prefetch_backlog(), 1);
        cache.end_cycle();
        drain_prefetches(&mut cache);
        assert_eq!(cache.stats().prefetches_issued, 1, "issued after the miss");
        assert!(cache.is_present(0x1000));
    }

    #[test]
    fn distance_throttles_the_run_ahead_window() {
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(0),
        )
        .with_prefetch_distance(2)
        .with_channels(4);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x0, 64 * 64, 0));
        drain_prefetches(&mut cache);
        assert_eq!(
            cache.stats().prefetches_issued,
            2,
            "only `distance` lines ahead of a demand cursor that never moved"
        );
        // Demand consuming the first line opens the window by one.
        read_through(&mut cache, 0x0, 0);
        drain_prefetches(&mut cache);
        assert_eq!(cache.stats().prefetches_issued, 3);
        // A requester the stream does not belong to moves nothing.
        read_through(&mut cache, 0x40, 9);
        drain_prefetches(&mut cache);
        assert_eq!(cache.stats().prefetches_issued, 3);
    }

    #[test]
    fn bounded_queue_backpressures_streams_without_losing_lines() {
        // Queue of 2, one slow channel: the stream trickles through the
        // bounded queue but eventually covers the whole footprint.
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(2),
        )
        .with_prefetch_queue(2)
        .with_prefetch_distance(64);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x0, 8 * 64, 0));
        cache.begin_cycle();
        assert!(cache.prefetch_backlog() <= 2, "queue stays bounded");
        cache.end_cycle();
        drain_prefetches(&mut cache);
        for i in 0..8u32 {
            assert!(cache.is_present(i * 64), "line {i} eventually fetched");
        }
        assert_eq!(cache.stats().prefetches_issued, 8);
    }

    #[test]
    fn demand_into_one_stream_does_not_cancel_a_sibling_at_lower_addresses() {
        // Regression: a cluster's engine interleaves descriptors for
        // disjoint regions under ONE requester id. A demand beat into
        // stream B's (higher-address) footprint must not fast-forward
        // stream A's demand cursor — the old `<=`-ordered advance
        // retired A after 2 of its 16 lines, silently losing the
        // prefetch coverage of every multi-operand tiled kernel.
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(0),
        )
        .with_prefetch_distance(16)
        .with_prefetch_queue(32)
        .with_channels(2);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x8000, 2 * 64, 0));
        cache.prefetch_hint(PrefetchHint::contiguous(0x1000, 16 * 64, 0));
        cache.begin_cycle();
        // The same requester demands stream B's first line while stream
        // A has barely started issuing.
        let _ = cache.probe_read(0x8000, 0);
        cache.end_cycle();
        drain_prefetches(&mut cache);
        for i in 0..16u32 {
            assert!(
                cache.is_present(0x1000 + i * 64),
                "stream A line {i} lost to the sibling demand beat"
            );
        }
        assert_eq!(cache.stats().prefetches_issued, 18);
    }

    #[test]
    fn demand_far_outside_every_stream_leaves_cursors_alone() {
        // A beat to an unrelated region (no stream contains it) must not
        // move any cursor in either direction.
        let cfg = prefetching(
            CacheConfig::new()
                .with_line_bytes(64)
                .with_refill_latency(0),
        )
        .with_prefetch_distance(4)
        .with_channels(4);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0x1000, 32 * 64, 0));
        drain_prefetches(&mut cache);
        let issued = cache.stats().prefetches_issued;
        assert_eq!(issued, 4, "distance-limited");
        cache.begin_cycle();
        let _ = cache.probe_read(0x20000, 0); // far beyond the stream
        cache.end_cycle();
        drain_prefetches(&mut cache);
        assert_eq!(
            cache.stats().prefetches_issued,
            issued,
            "an out-of-stream beat must not open the run-ahead window"
        );
    }

    #[test]
    fn disabled_prefetcher_ignores_hints_and_counts_nothing() {
        let mut cache = Cache::new(CacheConfig::new().with_line_bytes(64));
        cache.prefetch_hint(PrefetchHint::contiguous(0x0, 4 * 64, 0));
        drain(&mut cache);
        assert!(!cache.is_present(0x0));
        let s = cache.stats();
        assert_eq!(
            (s.prefetch_hints, s.prefetches_issued, s.prefetch_refills),
            (0, 0, 0)
        );
    }

    // ---- per-set LRU order under mixed demand/prefetch fills -------------

    /// The lines resident in `set`, LRU first (test introspection via
    /// eviction probing would perturb state, so order is pinned through
    /// targeted evictions below instead).
    #[test]
    fn lru_order_interleaves_demand_and_prefetch_fills() {
        // One set of 4 ways, 64 B lines (lines 0,1,2,.. all map to set 0
        // via capacity 256 = 1 set x 4 ways).
        let cfg = prefetching(finite(256, 4)).with_refill_latency(0);
        let mut cache = Cache::new(cfg);
        // Demand-fetch line 0, prefetch lines 8 and 16, demand line 24.
        read_through(&mut cache, 0, 0);
        cache.prefetch_hint(PrefetchHint::contiguous(8 * 64, 64, 0));
        cache.prefetch_hint(PrefetchHint::contiguous(16 * 64, 64, 0));
        drain_prefetches(&mut cache);
        read_through(&mut cache, 24 * 64, 0);
        // LRU order now: 0, 8, 16, 24 (install order; nothing re-touched).
        // Touch line 0 (demand hit) — order becomes 8, 16, 24, 0.
        read_through(&mut cache, 0, 0);
        // Next install evicts line 8: the *prefetched, never used* way.
        read_through(&mut cache, 32 * 64, 0);
        assert!(!cache.is_present(8 * 64), "LRU prefetched way evicted");
        assert!(cache.is_present(0), "re-touched demand line survives");
        assert!(cache.is_present(16 * 64));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            cache.stats().prefetch_evicted_unused,
            1,
            "the evicted prefetched line was never demand-touched"
        );
        // Line 16 is then demand-used: accurate, not useless.
        read_through(&mut cache, 16 * 64, 0);
        assert_eq!(cache.stats().prefetch_hits, 1);
        // Evicting the rest never double-counts the used prefetch.
        for i in [40u32, 48, 56, 64] {
            read_through(&mut cache, i * 64, 0);
        }
        assert_eq!(cache.stats().prefetch_evicted_unused, 1);
    }

    #[test]
    fn demand_touch_of_a_prefetched_line_makes_it_mru() {
        // 1 set x 2 ways: prefetch A, demand-fetch B (A is LRU), then
        // demand-touch A — B becomes the victim for the next install.
        let cfg = prefetching(finite(128, 2)).with_refill_latency(0);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0, 64, 0));
        drain_prefetches(&mut cache);
        read_through(&mut cache, 64, 0); // B via demand
        read_through(&mut cache, 0, 0); // touch A: hit + MRU
        assert_eq!(cache.stats().prefetch_hits, 1);
        read_through(&mut cache, 128, 0); // C evicts B
        assert!(cache.is_present(0), "touched prefetched line is MRU");
        assert!(!cache.is_present(64));
        assert_eq!(
            cache.stats().prefetch_evicted_unused,
            0,
            "evicting the demand line costs no prefetch-accuracy debit"
        );
    }

    #[test]
    fn overwriting_a_prefetched_line_is_not_an_accurate_hit() {
        // Write-allocate-without-fetch: a write landing on a prefetched,
        // never-read line did not consume the fetched data — no
        // accuracy credit, but no eviction-waste debit either (the
        // fetch stays unclassified), and the flag clears so a later
        // eviction cannot count it as useless retroactively.
        let cfg = prefetching(finite(256, 4)).with_refill_latency(0);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0, 64, 0));
        drain_prefetches(&mut cache);
        cache.begin_cycle();
        cache.commit_write(0);
        cache.end_cycle();
        assert_eq!(cache.stats().prefetch_hits, 0, "a write is not a use");
        // Thrash the set: the overwritten line's eviction is not waste.
        for i in 1..5u32 {
            read_through(&mut cache, i * 64, 0);
        }
        assert!(!cache.is_present(0));
        assert_eq!(cache.stats().prefetch_evicted_unused, 0);
        assert_eq!(cache.stats().prefetch_hits, 0);
    }

    #[test]
    fn prefetched_then_evicted_unused_full_lifecycle() {
        // 1 set x 1 way: every install evicts. Prefetch A; demand B
        // evicts A unused; re-prefetch A; demand A uses it this time.
        let cfg = prefetching(finite(64, 1)).with_refill_latency(0);
        let mut cache = Cache::new(cfg);
        cache.prefetch_hint(PrefetchHint::contiguous(0, 64, 0));
        drain_prefetches(&mut cache);
        read_through(&mut cache, 64, 0);
        assert_eq!(cache.stats().prefetch_evicted_unused, 1);
        assert_eq!(cache.stats().prefetch_hits, 0);
        cache.prefetch_hint(PrefetchHint::contiguous(0, 64, 0));
        drain_prefetches(&mut cache);
        read_through(&mut cache, 0, 0);
        assert_eq!(cache.stats().prefetch_hits, 1);
        assert_eq!(cache.stats().prefetch_evicted_unused, 1);
        let s = cache.stats();
        assert!(s.prefetch_hits + s.prefetch_evicted_unused <= s.prefetches_issued);
    }
}
