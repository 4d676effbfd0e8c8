//! The shared L2 between the clusters' DMA engines and the background
//! memory.
//!
//! A scaled-out system places an interconnect level above the per-cluster
//! L1 scratchpads: every cluster's DMA engine moves its beats against one
//! **banked L2**, and the L2 itself refills from the background memory
//! ([`crate::Dram`]). Sustained chaining throughput is ultimately bounded
//! here — once several clusters stream tiles concurrently, their beats
//! contend for L2 banks, cold misses queue behind the refill channels,
//! and (with a finite capacity) evicted dirty lines generate write-back
//! traffic of their own.
//!
//! ## What is modelled
//!
//! The L2 is a **timing filter, not a second data store**: the system
//! keeps one functional image in the background memory, and the L2
//! decides *when* a beat may touch it. Per cycle it:
//!
//! * arbitrates at most one beat per bank across the clusters' engines,
//!   with round-robin rotation over clusters so no engine starves,
//! * consults its cache core ([`sc_cache::Cache`], when
//!   [`L2Config::refill`] is on): a *read* beat to a line not present
//!   stalls — allocating an MSHR and queueing a refill for a new line,
//!   merging into the pending refill for an already-missing one, or
//!   bouncing off a full MSHR file — while the cache core's `channels`
//!   fetch lines from the Dram in parallel. Writes allocate without a fetch
//!   (DMA write-back streams write whole lines) and, with
//!   [`CacheConfig::write_back`] on, mark their line dirty; a dirty line
//!   evicted by LRU replacement enqueues a **write-back job** that
//!   contends for the same channels the refills use.
//!
//! With [`CacheConfig::prefetch`] on, the L2 additionally runs the cache
//! core's **descriptor-driven prefetch engine**: the system hands it
//! every DMA descriptor's Dram-side read footprint at `DMA_START`
//! ([`L2::prefetch_hint`]), and the engine pulls the footprint's lines
//! through the refill channels ahead of the demand beats — at strictly
//! lower priority than demand misses and write-backs, throttled by
//! degree/distance/queue knobs. Prefetching changes *when* lines arrive,
//! never which beats move: results are bit-identical with it on or off
//! (pinned by this crate's differential proptests).
//!
//! [`CacheConfig::capacity_bytes`]` == 0` keeps the capacity infinite: no
//! line is ever evicted, exactly the cold-miss-only residency model of
//! earlier revisions (an infinite-capacity / 1-channel / no-write-back
//! L2 is cycle-identical to it, pinned by tests and proptests). The
//! *per-beat* timing the engines pay (startup latency, beats-per-cycle)
//! comes from [`L2Config::engine_timing`], mirroring how the
//! single-cluster path derives it from [`crate::DramConfig`].
//!
//! ## Pass-through mode
//!
//! [`L2Config::passthrough`] copies a `DramConfig`'s timing and disables
//! residency tracking: a single cluster behind a pass-through L2 is
//! cycle-identical to the same cluster moving directly against that
//! `Dram` (pinned by `sc-system`'s equivalence tests).

use sc_cache::{Cache, CacheConfig, CacheStats, CacheWake, PrefetchHint, Probe};
use sc_trace::{MetricSource, Tracer, Track};

use crate::dram::DramConfig;
use crate::tcdm::AccessKind;

/// Geometry and timing of the shared L2: the bank arbiter's own knobs
/// plus the configuration of the cache core behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Number of L2 banks (power of two). Beats from different clusters
    /// to different banks proceed in parallel; same-bank beats
    /// serialise.
    pub banks: u32,
    /// Bank word width in bytes (interleaving granule; 8 = 64-bit).
    pub bank_width: u32,
    /// Per-transfer startup latency the DMA engines pay (the L2-hop
    /// analogue of [`DramConfig::latency`]).
    pub latency: u32,
    /// Cycles each 64-bit beat occupies an L2 bank (≥ 1).
    pub cycles_per_beat: u32,
    /// Whether the cache core is active (capacity, misses, refills from
    /// the background memory). Off = pass-through: every line is warm.
    pub refill: bool,
    /// The cache core's geometry, policies and refill/write-back channel
    /// timing (its `channels` are the L2's refill channels to the Dram).
    /// The default is infinite capacity, one channel, no write-back and
    /// no prefetching.
    pub cache: CacheConfig,
}

impl L2Config {
    /// Defaults sized like a multi-cluster interconnect hop: closer and
    /// wider than the Dram (8 cycles startup, 8 banks), over the default
    /// cache core ([`CacheConfig::new`]) — i.e. the residency-only L2
    /// earlier revisions modelled.
    #[must_use]
    pub fn new() -> Self {
        L2Config {
            banks: 8,
            bank_width: 8,
            latency: 8,
            cycles_per_beat: 1,
            refill: true,
            cache: CacheConfig::new(),
        }
    }

    /// A pass-through L2 that imposes exactly `timing`'s latency and
    /// bandwidth and never refills: one cluster behind it behaves
    /// cycle-identically to the same cluster moving directly against a
    /// `Dram` with that config.
    #[must_use]
    pub fn passthrough(timing: DramConfig) -> Self {
        L2Config {
            latency: timing.latency,
            cycles_per_beat: timing.cycles_per_beat,
            refill: false,
            ..Self::new()
        }
    }

    /// Sets the bank count.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two.
    #[must_use]
    pub fn with_banks(mut self, banks: u32) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        self.banks = banks;
        self
    }

    /// Sets the bank word width (the interleaving granule).
    ///
    /// # Panics
    ///
    /// Panics unless `bank_width` is a power of two ≥ 8.
    #[must_use]
    pub fn with_bank_width(mut self, bank_width: u32) -> Self {
        assert!(
            bank_width.is_power_of_two() && bank_width >= 8,
            "bank width must be a power of two of at least 8 bytes"
        );
        self.bank_width = bank_width;
        self
    }

    /// Sets the per-transfer startup latency.
    #[must_use]
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the per-beat bank occupancy (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_beat` is zero.
    #[must_use]
    pub fn with_cycles_per_beat(mut self, cycles_per_beat: u32) -> Self {
        assert!(cycles_per_beat >= 1, "bandwidth is at most one beat/cycle");
        self.cycles_per_beat = cycles_per_beat;
        self
    }

    /// Enables/disables the cache core (miss/refill modelling).
    #[must_use]
    pub fn with_refill(mut self, refill: bool) -> Self {
        self.refill = refill;
        self
    }

    // The cache-core knobs: each forwards to `CacheConfig`'s builder,
    // which owns the check and its panic.

    /// Sets the cache line size ([`CacheConfig::with_line_bytes`]).
    #[must_use]
    pub fn with_line_bytes(mut self, line_bytes: u32) -> Self {
        self.cache = self.cache.with_line_bytes(line_bytes);
        self
    }

    /// Sets the capacity, 0 = infinite
    /// ([`CacheConfig::with_capacity_bytes`]).
    #[must_use]
    pub fn with_capacity_bytes(mut self, capacity_bytes: u32) -> Self {
        self.cache = self.cache.with_capacity_bytes(capacity_bytes);
        self
    }

    /// Sets the associativity of a finite L2 ([`CacheConfig::with_ways`]).
    #[must_use]
    pub fn with_ways(mut self, ways: u32) -> Self {
        self.cache = self.cache.with_ways(ways);
        self
    }

    /// Sets the MSHR file size, 0 = unbounded ([`CacheConfig::with_mshrs`]).
    #[must_use]
    pub fn with_mshrs(mut self, mshrs: u32) -> Self {
        self.cache = self.cache.with_mshrs(mshrs);
        self
    }

    /// Sets the number of parallel refill/write-back channels
    /// ([`CacheConfig::with_channels`]).
    #[must_use]
    pub fn with_refill_channels(mut self, refill_channels: u32) -> Self {
        self.cache = self.cache.with_channels(refill_channels);
        self
    }

    /// Enables/disables write-back traffic for evicted dirty lines
    /// ([`CacheConfig::with_write_back`]).
    #[must_use]
    pub fn with_write_back(mut self, write_back: bool) -> Self {
        self.cache = self.cache.with_write_back(write_back);
        self
    }

    /// Sets the refill-channel startup latency
    /// ([`CacheConfig::with_refill_latency`]).
    #[must_use]
    pub fn with_refill_latency(mut self, refill_latency: u32) -> Self {
        self.cache = self.cache.with_refill_latency(refill_latency);
        self
    }

    /// Sets the per-beat refill-channel occupancy
    /// ([`CacheConfig::with_refill_cycles_per_beat`]).
    #[must_use]
    pub fn with_refill_cycles_per_beat(mut self, refill_cycles_per_beat: u32) -> Self {
        self.cache = self
            .cache
            .with_refill_cycles_per_beat(refill_cycles_per_beat);
        self
    }

    /// Enables/disables the descriptor-driven prefetch engine
    /// ([`CacheConfig::with_prefetch`]).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.cache = self.cache.with_prefetch(prefetch);
        self
    }

    /// Sets the per-stream prefetch issue rate in lines per cycle
    /// ([`CacheConfig::with_prefetch_degree`]).
    #[must_use]
    pub fn with_prefetch_degree(mut self, prefetch_degree: u32) -> Self {
        self.cache = self.cache.with_prefetch_degree(prefetch_degree);
        self
    }

    /// Sets how far ahead of demand a prefetch stream may run
    /// ([`CacheConfig::with_prefetch_distance`]).
    #[must_use]
    pub fn with_prefetch_distance(mut self, prefetch_distance: u32) -> Self {
        self.cache = self.cache.with_prefetch_distance(prefetch_distance);
        self
    }

    /// Sets the bounded prefetch-request queue capacity
    /// ([`CacheConfig::with_prefetch_queue`]).
    #[must_use]
    pub fn with_prefetch_queue(mut self, prefetch_queue: u32) -> Self {
        self.cache = self.cache.with_prefetch_queue(prefetch_queue);
        self
    }

    /// The timing the DMA engines pay per transfer/beat at this L2 (a
    /// [`L2Config::passthrough`] hands back the Dram timing it wraps).
    #[must_use]
    pub fn engine_timing(&self) -> DramConfig {
        DramConfig::new()
            .with_latency(self.latency)
            .with_cycles_per_beat(self.cycles_per_beat)
    }
}

impl Default for L2Config {
    fn default() -> Self {
        Self::new()
    }
}

/// One cluster's L2-side beat for a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Request {
    /// The requesting cluster's index (the arbitration port).
    pub cluster: u32,
    /// Byte address of the beat on the background-memory side.
    pub addr: u32,
    /// Read (Dram→TCDM beat) or write (TCDM→Dram beat).
    pub kind: AccessKind,
}

/// Per-request outcome of one [`L2::arbitrate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Outcome {
    /// The beat won its bank (and, for reads, its line was present): it
    /// proceeds this cycle.
    Granted,
    /// The beat lost same-cycle bank arbitration to another cluster; it
    /// retries next cycle.
    BankConflict,
    /// A read beat's line is missing; its refill is in flight or queued.
    MissWait,
    /// A read beat's line is missing and the MSHR file is full: the miss
    /// could not even be accepted this cycle.
    MshrFull,
}

impl L2Outcome {
    /// Whether the beat proceeds this cycle.
    #[must_use]
    pub fn granted(self) -> bool {
        matches!(self, L2Outcome::Granted)
    }

    /// Whether the denial is miss/refill-related (as opposed to losing
    /// bank arbitration).
    #[must_use]
    pub fn refill_related(self) -> bool {
        matches!(self, L2Outcome::MissWait | L2Outcome::MshrFull)
    }
}

/// Cumulative L2 activity: the bank-arbitration side (per requesting
/// cluster) plus the cache core's hit/miss/eviction/MSHR counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Beats granted an L2 bank.
    pub accesses: u64,
    /// Beats denied by same-cycle bank contention from another cluster.
    pub conflicts: u64,
    /// Granted beats per cluster.
    pub accesses_by_cluster: Vec<u64>,
    /// Bank-conflict denials per cluster.
    pub conflicts_by_cluster: Vec<u64>,
    /// The cache core's counters (hits, misses, refills, evictions,
    /// write-backs, MSHR activity).
    pub cache: CacheStats,
}

impl L2Stats {
    /// Cycles beats spent stalled because their line was still missing
    /// (refilling, queued, or bounced off a full MSHR file).
    #[must_use]
    pub fn refill_stalls(&self) -> u64 {
        self.cache.stall_cycles
    }

    /// Lines refilled from the background memory.
    #[must_use]
    pub fn refills(&self) -> u64 {
        self.cache.refills
    }

    /// 64-bit beats moved over the refill channels (one Dram access each
    /// — the unit `sc-energy` charges).
    #[must_use]
    pub fn refill_beats(&self, cfg: &L2Config) -> u64 {
        self.cache.refill_beats(&cfg.cache)
    }

    /// 64-bit beats of write-back traffic dirty evictions generated (one
    /// Dram access each).
    #[must_use]
    pub fn writeback_beats(&self, cfg: &L2Config) -> u64 {
        self.cache.writeback_beats(&cfg.cache)
    }

    /// 64-bit beats the refill channels moved for *prefetch-issued* line
    /// fetches — a subset of [`L2Stats::refill_beats`], charged by
    /// `sc-energy` exactly like demand refill beats (one Dram access
    /// per beat).
    #[must_use]
    pub fn prefetch_beats(&self, cfg: &L2Config) -> u64 {
        self.cache.prefetch_beats(&cfg.cache)
    }

    /// Bundles these stats with their derived beat counts into the
    /// [`MetricSource`] every consumer (sampling, report serialization,
    /// gate discovery) iterates.
    #[must_use]
    pub fn metric_set(&self, cfg: &L2Config) -> L2MetricSet {
        L2MetricSet::from_parts(
            self.clone(),
            self.refill_beats(cfg),
            self.writeback_beats(cfg),
            self.prefetch_beats(cfg),
        )
    }
}

/// The L2's full scalar metric list — bank arbitration, the cache
/// core's counters and the per-beat traffic the config derives — as one
/// [`MetricSource`]. The visit order and names **are** the serialized
/// `l2` report schema: `sc-bench`'s `l2_stats_json` writes exactly these
/// pairs and `perf_gate` derives its required-metric list from them, so
/// a counter added here is automatically reported, sampled and gated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct L2MetricSet {
    /// The raw stats.
    pub stats: L2Stats,
    /// 64-bit beats moved over the refill channels.
    pub refill_beats: u64,
    /// 64-bit beats of dirty-eviction write-back traffic.
    pub writeback_beats: u64,
    /// Refill beats moved for prefetch-issued fetches.
    pub prefetch_beats: u64,
}

impl L2MetricSet {
    /// Assembles the set from stats plus externally derived beat counts
    /// (`l2_stats_json`'s historical signature).
    #[must_use]
    pub fn from_parts(
        stats: L2Stats,
        refill_beats: u64,
        writeback_beats: u64,
        prefetch_beats: u64,
    ) -> Self {
        L2MetricSet {
            stats,
            refill_beats,
            writeback_beats,
            prefetch_beats,
        }
    }

    /// The metric names in visit order (schema discovery without an
    /// instance's values).
    #[must_use]
    pub fn metric_names() -> Vec<&'static str> {
        let mut names = Vec::new();
        L2MetricSet::default().visit_metrics(&mut |name, _| names.push(name));
        names
    }
}

impl MetricSource for L2MetricSet {
    fn source_name(&self) -> &'static str {
        "l2"
    }

    // The names deliberately keep the historical `l2_stats_json` keys
    // (e.g. `hits` for the cache core's `read_hits`): checked-in
    // baselines and report-diff tooling pin this schema.
    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64)) {
        visit("accesses", self.stats.accesses);
        visit("conflicts", self.stats.conflicts);
        visit("refills", self.stats.refills());
        visit("refill_stalls", self.stats.refill_stalls());
        visit("refill_beats", self.refill_beats);
        visit("hits", self.stats.cache.read_hits);
        visit("misses", self.stats.cache.read_misses);
        visit("evictions", self.stats.cache.evictions);
        visit("writeback_beats", self.writeback_beats);
        visit("mshr_merges", self.stats.cache.mshr_merges);
        visit("mshr_full_stalls", self.stats.cache.mshr_full_stalls);
        visit("mshr_peak", self.stats.cache.mshr_peak);
        visit("prefetch_hints", self.stats.cache.prefetch_hints);
        visit("prefetches_issued", self.stats.cache.prefetches_issued);
        visit("prefetch_hits", self.stats.cache.prefetch_hits);
        visit(
            "prefetch_covered_misses",
            self.stats.cache.demand_misses_covered_by_prefetch,
        );
        visit(
            "prefetch_evicted_unused",
            self.stats.cache.prefetch_evicted_unused,
        );
        visit("prefetch_beats", self.prefetch_beats);
    }
}

/// The cycle-stepped shared L2: bank arbiter over a [`sc_cache::Cache`]
/// core.
///
/// Step protocol per system cycle: [`L2::begin_cycle`] →
/// [`L2::arbitrate`] (once, with every cluster's beat) →
/// [`L2::end_cycle`].
#[derive(Debug)]
pub struct L2 {
    cfg: L2Config,
    /// The capacity/miss/refill core (used only when `cfg.refill`).
    cache: Cache,
    accesses: u64,
    conflicts: u64,
    accesses_by_cluster: Vec<u64>,
    conflicts_by_cluster: Vec<u64>,
    /// Round-robin rotation over clusters.
    rr_next: u32,
    /// Scratch: banks taken this cycle.
    bank_taken: Vec<bool>,
    /// Scratch: each cluster's request index this cycle, `None` when it
    /// sent none (one slot per cluster; emptied again by every pass).
    request_of: Vec<Option<u32>>,
}

impl L2 {
    /// Creates an empty (fully cold) L2 arbitrating `num_clusters`
    /// engine ports.
    ///
    /// # Panics
    ///
    /// Panics on an invalid cache geometry (a finite capacity that is
    /// not a multiple of `line_bytes × ways`).
    #[must_use]
    pub fn new(cfg: L2Config, num_clusters: u32) -> Self {
        L2 {
            cache: Cache::new(cfg.cache),
            accesses: 0,
            conflicts: 0,
            accesses_by_cluster: vec![0; num_clusters as usize],
            conflicts_by_cluster: vec![0; num_clusters as usize],
            rr_next: 0,
            bank_taken: vec![false; cfg.banks as usize],
            request_of: vec![None; num_clusters.max(1) as usize],
            cfg,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Activity counters accumulated so far (assembled from the bank
    /// arbiter and the cache core).
    #[must_use]
    pub fn stats(&self) -> L2Stats {
        L2Stats {
            accesses: self.accesses,
            conflicts: self.conflicts,
            accesses_by_cluster: self.accesses_by_cluster.clone(),
            conflicts_by_cluster: self.conflicts_by_cluster.clone(),
            cache: *self.cache.stats(),
        }
    }

    /// The cache core (config/occupancy inspection).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Subscribes the L2 (its cache core's channels, counters and
    /// prefetch lifecycle) to an observability bus, rooted at `track`.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        if tracer.is_on() {
            tracer.name_process(track.pid, "l2");
        }
        self.cache.set_tracer(tracer, track);
    }

    /// The bank serving a byte address.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / self.cfg.bank_width) % self.cfg.banks
    }

    /// Whether the line holding `addr` is present (always true with the
    /// cache core off).
    #[must_use]
    pub fn is_resident(&self, addr: u32) -> bool {
        !self.cfg.refill || self.cache.is_present(addr)
    }

    /// Whether stepping the L2 with no requests is a provable no-op:
    /// pass-through L2s always are; with the cache core on, its queues,
    /// channels and prefetcher must all be drained. The condition an
    /// event-driven system needs before fast-forwarding an idle window
    /// across [`L2::begin_cycle`]/[`L2::end_cycle`] pairs.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        !self.cfg.refill || self.cache.is_quiescent()
    }

    /// How soon the L2 next needs a dense cycle, delegated to the cache
    /// core's channel countdowns and MSHR/queue state
    /// ([`Cache::next_wake`]). A pass-through L2 is always
    /// [`CacheWake::Quiescent`] — with no requests arriving, stepping it
    /// changes nothing (the bank arbiter is stateless on an empty
    /// request vector).
    #[must_use]
    pub fn next_wake(&self) -> CacheWake {
        if self.cfg.refill {
            self.cache.next_wake()
        } else {
            CacheWake::Quiescent
        }
    }

    /// Bulk-advances an inert window across the cache core's channels —
    /// the exact effect of `cycles` [`L2::begin_cycle`]/[`L2::end_cycle`]
    /// pairs with no requests, valid only within the window
    /// [`L2::next_wake`] granted.
    pub fn skip(&mut self, cycles: u64) {
        if self.cfg.refill {
            self.cache.skip(cycles);
        }
    }

    /// Hands the cache core an upcoming strided read footprint (a DMA
    /// descriptor's Dram-side access pattern, delivered at `DMA_START`).
    /// A no-op unless the cache core and [`CacheConfig::prefetch`] are both
    /// on — feeding hints to a prefetch-disabled L2 changes nothing,
    /// which is what keeps the disabled path cycle-identical.
    pub fn prefetch_hint(&mut self, hint: PrefetchHint) {
        if self.cfg.refill {
            self.cache.prefetch_hint(hint);
        }
    }

    /// Cycle start: idle refill/write-back channels pick up queued jobs
    /// — demand refills and write-backs first, prefetch requests only
    /// with channels and MSHRs to spare.
    pub fn begin_cycle(&mut self) {
        if self.cfg.refill {
            self.cache.begin_cycle();
        }
    }

    /// Arbitrates one cycle of beats — at most one request per cluster,
    /// at most one grant per bank, rotation over clusters. Reads of
    /// missing lines stall behind the cache core's MSHRs/channels;
    /// writes allocate without a fetch and never stall. Returns per-beat
    /// outcomes index-aligned with `requests`.
    ///
    /// A convenience wrapper over [`L2::arbitrate_into`], which reuses a
    /// caller-owned outcome buffer instead of allocating one per cycle.
    pub fn arbitrate(&mut self, requests: &[L2Request]) -> Vec<L2Outcome> {
        let mut outcomes = Vec::with_capacity(requests.len());
        self.arbitrate_into(requests, &mut outcomes);
        outcomes
    }

    /// Arbitrates one cycle of beats into `outcomes`, which is cleared
    /// and refilled index-aligned with `requests` (see [`L2::arbitrate`]
    /// for the policy).
    pub fn arbitrate_into(&mut self, requests: &[L2Request], outcomes: &mut Vec<L2Outcome>) {
        outcomes.clear();
        outcomes.resize(requests.len(), L2Outcome::BankConflict);
        if requests.is_empty() {
            return;
        }
        self.bank_taken.fill(false);
        // True round-robin over the *configured* cluster ids: priority
        // starts at the pointer and wraps, and the pointer then advances
        // past the highest-priority winner — so idle clusters never skew
        // the split between the ones actually contending (a free-running
        // counter would hand an absent id's turn to the next id above
        // it, starving lower-numbered clusters of their share).
        let n = self.accesses_by_cluster.len().max(1) as u32;
        debug_assert!(
            requests.iter().all(|r| r.cluster < n),
            "request from cluster outside the configured id range"
        );
        let rr = self.rr_next % n;
        // Priority order is cluster order rotated to start at `rr`:
        // index the requests by cluster, then visit the clusters
        // `rr, rr + 1, …` (mod n), O(n) with no sort.
        for (i, req) in requests.iter().enumerate() {
            let slot = &mut self.request_of[req.cluster as usize];
            debug_assert!(
                slot.is_none(),
                "two requests from cluster {} in one cycle",
                req.cluster
            );
            *slot = Some(i as u32);
        }
        let mut first_winner = None;
        let mut left = requests.len();
        for c in (rr..n).chain(0..rr) {
            if left == 0 {
                break;
            }
            if let Some(i) = self.request_of[c as usize].take() {
                left -= 1;
                let i = i as usize;
                if self.serve(&requests[i], &mut outcomes[i]) {
                    first_winner.get_or_insert(c);
                }
            }
        }
        self.advance_rotation(first_winner, n);
    }

    /// The sort-based priority order [`L2::arbitrate_into`] replaced,
    /// kept as the reference its rotation is pinned against.
    #[cfg(test)]
    pub(crate) fn arbitrate_sort_reference(&mut self, requests: &[L2Request]) -> Vec<L2Outcome> {
        let mut outcomes = vec![L2Outcome::BankConflict; requests.len()];
        if requests.is_empty() {
            return outcomes;
        }
        self.bank_taken.fill(false);
        let n = self.accesses_by_cluster.len().max(1) as u32;
        let rr = self.rr_next % n;
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].cluster + n - rr) % n);
        let mut first_winner = None;
        for i in order {
            if self.serve(&requests[i], &mut outcomes[i]) {
                first_winner.get_or_insert(requests[i].cluster);
            }
        }
        self.advance_rotation(first_winner, n);
        outcomes
    }

    /// Arbitrates one request in priority order: a read of a missing
    /// line stalls behind the cache core, otherwise the beat takes its
    /// bank unless an earlier one did. Returns whether it was granted.
    fn serve(&mut self, req: &L2Request, outcome: &mut L2Outcome) -> bool {
        let c = req.cluster as usize;
        if self.cfg.refill && req.kind == AccessKind::Read {
            match self.cache.probe_read(req.addr, req.cluster) {
                Probe::Ready => {}
                Probe::MissPending => {
                    *outcome = L2Outcome::MissWait;
                    return false;
                }
                Probe::MshrFull => {
                    *outcome = L2Outcome::MshrFull;
                    return false;
                }
            }
        }
        let bank = self.bank_of(req.addr) as usize;
        if self.bank_taken[bank] {
            self.conflicts += 1;
            self.conflicts_by_cluster[c] += 1;
            return false;
        }
        self.bank_taken[bank] = true;
        *outcome = L2Outcome::Granted;
        self.accesses += 1;
        self.accesses_by_cluster[c] += 1;
        if self.cfg.refill {
            match req.kind {
                AccessKind::Read => {
                    let _ = self.cache.commit_read(req.addr, req.cluster);
                }
                // Allocate-without-fetch in the timing sense, and the
                // written data is now the L2's to serve: later reads
                // hit.
                AccessKind::Write => self.cache.commit_write(req.addr),
            }
        }
        true
    }

    /// Moves the round-robin pointer past this cycle's highest-priority
    /// winner, or one step when nothing was granted.
    fn advance_rotation(&mut self, first_winner: Option<u32>, n: u32) {
        self.rr_next = match first_winner {
            Some(cluster) => (cluster + 1) % n,
            None => (self.rr_next + 1) % n,
        };
    }

    /// Cycle end: the refill/write-back channels advance; a finished
    /// line becomes present (its stalled beats may be granted from next
    /// cycle).
    pub fn end_cycle(&mut self) {
        if self.cfg.refill {
            self.cache.end_cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cluster: u32, addr: u32) -> L2Request {
        L2Request {
            cluster,
            addr,
            kind: AccessKind::Read,
        }
    }

    fn wr(cluster: u32, addr: u32) -> L2Request {
        L2Request {
            cluster,
            addr,
            kind: AccessKind::Write,
        }
    }

    fn warm(l2: &mut L2, addrs: &[u32]) {
        // Drive the refill channel until every named line is resident.
        for &a in addrs {
            while !l2.is_resident(a) {
                l2.begin_cycle();
                let _ = l2.arbitrate(&[req(0, a)]);
                l2.end_cycle();
            }
        }
    }

    #[test]
    fn passthrough_always_grants_single_cluster() {
        let mut l2 = L2::new(L2Config::passthrough(DramConfig::new()), 1);
        for i in 0..100u32 {
            l2.begin_cycle();
            let g = l2.arbitrate(&[req(0, i * 8)]);
            assert!(
                g[0].granted(),
                "pass-through must never deny a lone cluster"
            );
            l2.end_cycle();
        }
        assert_eq!(l2.stats().accesses, 100);
        assert_eq!(l2.stats().refills(), 0);
    }

    #[test]
    fn cache_builders_reject_what_the_cache_core_rejects() {
        // The L2's cache knobs forward to `CacheConfig`'s builders: each
        // of these must still panic when set through `L2Config`.
        type Set = fn(L2Config) -> L2Config;
        let cases: [(&str, Set); 9] = [
            ("zero ways", |c| c.with_ways(0)),
            ("zero refill channels", |c| c.with_refill_channels(0)),
            ("zero refill cycles per beat", |c| {
                c.with_refill_cycles_per_beat(0)
            }),
            ("zero prefetch degree", |c| c.with_prefetch_degree(0)),
            ("zero prefetch distance", |c| c.with_prefetch_distance(0)),
            ("zero prefetch queue", |c| c.with_prefetch_queue(0)),
            ("zero-byte line", |c| c.with_line_bytes(0)),
            ("4-byte line", |c| c.with_line_bytes(4)),
            ("96-byte line", |c| c.with_line_bytes(96)),
        ];
        for (case, set) in cases {
            let built = std::panic::catch_unwind(|| set(L2Config::new()));
            assert!(built.is_err(), "{case} must panic");
        }
        // The smallest legal values build.
        let min = L2Config::new()
            .with_ways(1)
            .with_refill_channels(1)
            .with_refill_cycles_per_beat(1)
            .with_prefetch_degree(1)
            .with_prefetch_distance(1)
            .with_prefetch_queue(1)
            .with_line_bytes(8);
        assert_eq!(min.cache.line_beats(), 1);
    }

    #[test]
    fn cold_lines_stall_until_refilled() {
        let cfg = L2Config::new()
            .with_line_bytes(64)
            .with_cycles_per_beat(1)
            .with_latency(0);
        let refill_cycles = cfg.cache.channel_cycles();
        let mut l2 = L2::new(cfg, 1);
        let mut stalled = 0;
        loop {
            l2.begin_cycle();
            let g = l2.arbitrate(&[req(0, 0x100)]);
            l2.end_cycle();
            if g[0].granted() {
                break;
            }
            assert_eq!(g[0], L2Outcome::MissWait);
            stalled += 1;
            assert!(stalled < 10_000, "refill never completed");
        }
        // The beat waits out exactly one line refill (first denial
        // enqueues it; the channel starts next begin_cycle).
        assert_eq!(stalled, refill_cycles as u64 + 1);
        assert_eq!(l2.stats().refills(), 1);
        assert_eq!(l2.stats().refill_stalls(), stalled);
        assert_eq!(l2.stats().cache.read_misses, 1);
        // The neighbouring beat on the same line is now warm.
        l2.begin_cycle();
        assert!(l2.arbitrate(&[req(0, 0x108)])[0].granted());
        l2.end_cycle();
        assert_eq!(l2.stats().cache.read_hits, 1);
    }

    #[test]
    fn same_bank_beats_from_two_clusters_share_fairly() {
        let mut l2 = L2::new(L2Config::new().with_banks(4), 2);
        warm(&mut l2, &[0x0, 0x20]);
        // Both clusters hit bank 0 every cycle (0x0 and 0x20 with 4
        // banks × 8 B both map to bank 0).
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            l2.begin_cycle();
            let g = l2.arbitrate(&[req(0, 0x0), req(1, 0x20)]);
            assert_eq!(g.iter().filter(|g| g.granted()).count(), 1);
            for (w, granted) in wins.iter_mut().zip(&g) {
                *w += u32::from(granted.granted());
            }
            l2.end_cycle();
        }
        assert_eq!(wins, [50, 50], "round-robin must split a contended bank");
        assert_eq!(l2.stats().conflicts, 100);
        assert_eq!(l2.stats().conflicts_by_cluster, vec![50, 50]);
    }

    #[test]
    fn writes_bypass_the_refill_channel_and_warm_their_line() {
        // Allocate-without-fetch: a cold-line write proceeds immediately
        // (never stalls on the refill channel), and a later read of the
        // just-written line hits.
        let mut l2 = L2::new(L2Config::new().with_line_bytes(64), 1);
        l2.begin_cycle();
        let g = l2.arbitrate(&[wr(0, 0x200)]);
        assert!(g[0].granted(), "cold write must not wait for a refill");
        l2.end_cycle();
        assert_eq!(l2.stats().refills(), 0);
        assert_eq!(l2.stats().refill_stalls(), 0);
        l2.begin_cycle();
        assert!(
            l2.arbitrate(&[req(0, 0x208)])[0].granted(),
            "reading back freshly written data is a hit"
        );
        l2.end_cycle();
        assert_eq!(l2.stats().refills(), 0);
    }

    #[test]
    fn idle_clusters_do_not_skew_the_round_robin() {
        // Regression: with a free-running rotation counter, cluster 1
        // sitting idle handed its priority turns to cluster 2, splitting
        // a contended bank 1:2 between clusters 0 and 2. The pointer
        // must advance past the actual winner, keeping the split even
        // among the clusters genuinely contending.
        let mut l2 = L2::new(L2Config::new().with_banks(4).with_refill(false), 3);
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            l2.begin_cycle();
            let g = l2.arbitrate(&[req(0, 0x0), req(2, 0x20)]);
            assert_eq!(g.iter().filter(|g| g.granted()).count(), 1);
            wins[0] += u32::from(g[0].granted());
            wins[1] += u32::from(g[1].granted());
            l2.end_cycle();
        }
        assert_eq!(wins, [50, 50], "idle cluster 1 must not skew the split");
    }

    #[test]
    fn disjoint_banks_proceed_in_parallel() {
        let mut l2 = L2::new(L2Config::new().with_banks(4), 2);
        warm(&mut l2, &[0x0, 0x8]);
        l2.begin_cycle();
        let g = l2.arbitrate(&[req(0, 0x0), req(1, 0x8)]);
        assert_eq!(g, vec![L2Outcome::Granted, L2Outcome::Granted]);
        l2.end_cycle();
        assert_eq!(l2.stats().conflicts, 0);
    }

    #[test]
    fn single_refill_channel_serialises_lines() {
        let cfg = L2Config::new().with_line_bytes(64);
        let per_line = cfg.cache.channel_cycles();
        let mut l2 = L2::new(cfg, 2);
        // Two clusters miss two different lines in the same cycle: the
        // single channel fetches them one after the other.
        let mut cycles = 0u32;
        let (mut got0, mut got1) = (false, false);
        while !(got0 && got1) {
            l2.begin_cycle();
            let g = l2.arbitrate(&[req(0, 0x0), req(1, 0x1000)]);
            got0 |= g[0].granted();
            got1 |= g[1].granted();
            l2.end_cycle();
            cycles += 1;
            assert!(cycles < 10_000, "refills never completed");
        }
        assert!(cycles > 2 * per_line, "two lines cannot overlap refills");
        assert_eq!(l2.stats().refills(), 2);
        assert_eq!(
            l2.stats().refill_beats(l2.config()),
            2 * u64::from(l2.config().cache.line_beats())
        );
    }

    #[test]
    fn parallel_refill_channels_overlap_lines() {
        let run = |channels: u32| {
            let cfg = L2Config::new()
                .with_line_bytes(64)
                .with_refill_channels(channels);
            let mut l2 = L2::new(cfg, 2);
            let mut cycles = 0u32;
            let (mut got0, mut got1) = (false, false);
            while !(got0 && got1) {
                l2.begin_cycle();
                let g = l2.arbitrate(&[req(0, 0x0), req(1, 0x1000)]);
                got0 |= g[0].granted();
                got1 |= g[1].granted();
                l2.end_cycle();
                cycles += 1;
                assert!(cycles < 10_000, "refills never completed");
            }
            cycles
        };
        assert!(
            run(2) < run(1),
            "a second channel must overlap the two lines' refills"
        );
    }

    #[test]
    fn capacity_pressure_evicts_and_writes_back_dirty_lines() {
        // 2 KiB, 2-way, 64 B lines = 16 sets; stream writes over 64
        // lines, then re-read the start: early lines were dirty-evicted,
        // so write-back traffic appears and the re-read misses again.
        let cfg = L2Config::new()
            .with_line_bytes(64)
            .with_capacity_bytes(2 << 10)
            .with_ways(2)
            .with_write_back(true);
        let mut l2 = L2::new(cfg, 1);
        for i in 0..64u32 {
            l2.begin_cycle();
            assert!(l2.arbitrate(&[wr(0, i * 64)])[0].granted());
            l2.end_cycle();
        }
        let stats = l2.stats();
        assert_eq!(stats.cache.write_beats, 64);
        assert_eq!(stats.cache.evictions, 32, "64 lines through 32 slots");
        assert_eq!(stats.cache.dirty_evictions, 32, "every victim was dirty");
        assert_eq!(
            stats.writeback_beats(l2.config()),
            32 * u64::from(l2.config().cache.line_beats())
        );
        assert!(
            !l2.is_resident(0),
            "the first written line was evicted by capacity pressure"
        );
        // An infinite L2 driven identically never evicts.
        let mut inf = L2::new(L2Config::new().with_line_bytes(64), 1);
        for i in 0..64u32 {
            inf.begin_cycle();
            assert!(inf.arbitrate(&[wr(0, i * 64)])[0].granted());
            inf.end_cycle();
        }
        assert_eq!(inf.stats().cache.evictions, 0);
        assert!(inf.is_resident(0));
    }

    #[test]
    fn mshr_file_limits_outstanding_misses() {
        let cfg = L2Config::new()
            .with_line_bytes(64)
            .with_banks(8)
            .with_mshrs(1);
        let mut l2 = L2::new(cfg, 2);
        l2.begin_cycle();
        let g = l2.arbitrate(&[req(0, 0x0), req(1, 0x1000)]);
        assert_eq!(g[0], L2Outcome::MissWait, "first miss allocates the MSHR");
        assert_eq!(g[1], L2Outcome::MshrFull, "second distinct line bounces");
        l2.end_cycle();
        assert!(l2.stats().cache.mshr_full_stalls >= 1);
        assert_eq!(l2.stats().cache.mshr_peak, 1);
    }

    #[test]
    fn prefetch_pressure_surfaces_mshr_full_to_demand_beats() {
        // A tiny MSHR file fully occupied by in-flight *prefetches*: a
        // demand read to a third line must come back `MshrFull` — the
        // outcome the cluster books as a miss wait — and succeed once a
        // prefetch retires and frees an entry.
        let cfg = L2Config::new()
            .with_line_bytes(64)
            .with_banks(8)
            .with_mshrs(2)
            .with_refill_latency(32)
            .with_refill_channels(2)
            .with_prefetch(true)
            .with_prefetch_degree(4)
            .with_prefetch_distance(16)
            .with_prefetch_queue(8);
        let mut l2 = L2::new(cfg, 2);
        l2.prefetch_hint(PrefetchHint::contiguous(0x1000, 2 * 64, 0));
        l2.begin_cycle();
        assert_eq!(l2.cache().mshr_occupancy(), 2, "both MSHRs hold prefetches");
        let g = l2.arbitrate(&[req(1, 0x0)]);
        assert_eq!(
            g[0],
            L2Outcome::MshrFull,
            "demand miss bounces off the prefetch-full file"
        );
        assert!(g[0].refill_related(), "MshrFull counts as a miss wait");
        l2.end_cycle();
        assert!(l2.stats().cache.mshr_full_stalls >= 1);
        // Once the prefetches land, the demand beat allocates and is
        // eventually served.
        let mut granted = false;
        for _ in 0..200 {
            l2.begin_cycle();
            granted |= l2.arbitrate(&[req(1, 0x0)])[0].granted();
            l2.end_cycle();
            if granted {
                break;
            }
        }
        assert!(granted, "demand beat starved behind retired prefetches");
        let s = l2.stats();
        assert_eq!(s.cache.prefetches_issued, 2);
        assert_eq!(s.cache.mshr_allocations, 1, "one demand allocation");
        assert_eq!(s.refills(), 3);
        assert_eq!(
            s.prefetch_beats(l2.config()),
            2 * u64::from(l2.config().cache.line_beats()),
            "prefetch beats are the prefetched lines' refill traffic"
        );
    }

    #[test]
    fn hinted_prefetch_hides_the_refill_latency_of_a_streamed_footprint() {
        // The end-to-end point of the engine at the L2 level: a cluster
        // streaming a hinted footprint over one refill channel finishes
        // in fewer cycles than the same stream cold, and the lines it
        // touches are counted accurate (`prefetch_hits`), not useless.
        // Two channels: with one, a fetch (latency + 8 beats) always
        // outlasts the 8 demand beats consuming the previous line, so
        // every prefetch is merely *late* (covered); the second channel
        // lets the engine genuinely run ahead and bank accurate hits.
        let base_cfg = L2Config::new()
            .with_line_bytes(64)
            .with_refill_latency(16)
            .with_refill_channels(2);
        let schedule: Vec<u32> = (0..64u32).map(|w| w * 8).collect();
        let run = |prefetch: bool| {
            let cfg = if prefetch {
                base_cfg
                    .with_prefetch(true)
                    .with_prefetch_degree(2)
                    .with_prefetch_distance(32)
                    .with_prefetch_queue(32)
            } else {
                base_cfg
            };
            let mut l2 = L2::new(cfg, 1);
            if prefetch {
                l2.prefetch_hint(PrefetchHint::contiguous(0, 64 * 8, 0));
            }
            let mut cycles = 0u64;
            let mut pos = 0;
            while pos < schedule.len() {
                l2.begin_cycle();
                if l2.arbitrate(&[req(0, schedule[pos])])[0].granted() {
                    pos += 1;
                }
                l2.end_cycle();
                cycles += 1;
                assert!(cycles < 100_000);
            }
            (cycles, l2.stats())
        };
        let (cold_cycles, cold) = run(false);
        let (warm_cycles, warm) = run(true);
        assert!(
            warm_cycles < cold_cycles,
            "prefetching must hide refill latency ({warm_cycles} vs {cold_cycles})"
        );
        assert_eq!(warm.refills(), cold.refills(), "same lines moved");
        assert!(warm.cache.prefetch_hits > 0);
        assert_eq!(warm.cache.prefetch_evicted_unused, 0, "nothing wasted");
    }
}
