//! # sc-cluster — multi-core simulation over a shared banked TCDM
//!
//! A Snitch-style *cluster*: N compute cores ([`sc_core::Core`]) stepped
//! cycle by cycle in lock-step against one shared multi-banked TCDM.
//! Inter-core bank contention — each core brings its LSU port plus one
//! port per stream data mover — is the first-order effect a single-core
//! model cannot express, and the quantity the cluster counters break
//! down.
//!
//! ## Lock-step protocol
//!
//! Every cluster cycle:
//!
//! 1. each active core runs its writeback/issue/execute phases
//!    ([`sc_core::Core::begin_cycle`]),
//! 2. all cores' TCDM requests are gathered (ports are namespaced
//!    `hart × ports_per_core`) and arbitrated in **one** crossbar pass,
//!    with inter-core fair round-robin
//!    ([`sc_mem::Tcdm::set_port_group_size`]),
//! 3. grants are applied per core, then every core advances its
//!    pipelines,
//! 4. barrier rendezvous resolves: once every active hart has written the
//!    barrier CSR, all of them release in the same cycle.
//!
//! A 1-core cluster performs exactly the same sequence as the single-core
//! [`sc_core::Simulator`], cycle for cycle — the equivalence tests in
//! `sc-kernels` pin this.
//!
//! ## Barrier semantics
//!
//! A hart arrives at the barrier by writing CSR 0x7C5 (after draining its
//! FP subsystem and streams; see `sc-core`). The cluster releases all
//! waiting harts in the cycle in which the *last active* hart arrives.
//! Harts that have already halted (`ecall`) no longer participate: a
//! barrier among the remaining active harts still releases. A program in
//! which some hart never reaches a barrier the others wait on is a
//! software bug: the owning system's run ends at its cycle budget, or
//! its watchdog names the parked harts. The inter-cluster barrier (CSR
//! 0x7C6) is the owner's to resolve ([`Cluster::system_barrier_census`],
//! [`Cluster::release_system_barrier`]).
//!
//! ## A component with one driver
//!
//! A cluster has no run loop of its own. Its owner, an `sc_system`
//! `System` (one cluster or many), steps it with
//! [`Cluster::begin_cycle`] / [`Cluster::end_cycle`], owns the clock
//! budget, the hang watchdog and the run-end trace sample, and decides
//! when to fast-forward idle windows through [`Cluster::next_wake`],
//! [`Cluster::skip_quiet`] and [`Cluster::sample_now`].
//!
//! ## Hart census and lazy settlement
//!
//! A cycle costs O(runnable harts), not O(harts). The cluster keeps a
//! census entry per hart — runnable, halted, or parked (on which
//! barrier, or on a DMA wait with its target) since cycle `c` — updated
//! only at transitions: the end-of-cycle pass over the harts it stepped,
//! the barrier and DMA-wait releases, and program loads. A cycle steps
//! the runnable list only; completion, the rendezvous counts and the
//! core half of [`Cluster::next_wake`] read O(1) counts
//! ([`HartCensus`]). A parked hart is drained, so each of its dense
//! cycles is exactly one cycle of the closed form
//! [`sc_core::Core::skip_cycles`]: it is not touched at all while
//! parked, and owes `now - c` cycles, paid once through that closed
//! form when it is released, by [`Cluster::settle`] (which the owning
//! system calls on every run exit) and by [`Cluster::core_mut`]. Every
//! `&self` reader of hart counters (summaries, samples, attribution
//! snapshots, hang diagnoses) adds the owed cycles with the same closed
//! form ([`Cluster::hart_counters`]).
//!
//! ## Background memory
//!
//! A cluster owns no background memory. Its optional DMA engine
//! ([`ClusterBuilder::shared_dma`]) moves against the store its owner
//! hands to every [`Cluster::end_cycle`]: an `sc_system::System`'s
//! shared L2/Dram. A single cluster fed straight from Dram is a
//! one-cluster system behind `L2Config::passthrough`.
//!
//! Construction is most convenient through the fluent [`ClusterBuilder`],
//! which applies DMA/embedding wiring in the right order at build time.
//!
//! ```
//! use sc_cluster::ClusterConfig;
//! use sc_isa::{csr, IntReg, ProgramBuilder};
//! use sc_mem::Store;
//! use sc_system::{SystemBuilder, SystemConfig};
//!
//! // Every hart stores its ID to TCDM word 0x100 + hart*4, rendezvous,
//! // halts.
//! let program = |_hart: u32| {
//!     let mut b = ProgramBuilder::new();
//!     b.csrrs(IntReg::new(10), csr::MHARTID, IntReg::ZERO);
//!     b.slli(IntReg::new(11), IntReg::new(10), 2);
//!     b.sw(IntReg::new(10), IntReg::new(11), 0x100);
//!     b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
//!     b.ecall();
//!     b.build().unwrap()
//! };
//! // One cluster of four cores, driven by a one-cluster system.
//! let cfg = SystemConfig::new(1, 4).with_cluster(ClusterConfig::new(4));
//! let mut system = SystemBuilder::new(cfg, vec![vec![(0..4).map(program).collect()]]).build();
//! let summary = system.run(10_000)?.per_cluster.remove(0);
//! for hart in 0..4u32 {
//!     assert_eq!(system.cluster(0).tcdm().read_u32(0x100 + hart * 4)?, hart);
//! }
//! assert_eq!(summary.barriers, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use sc_core::{Core, CoreConfig, DmaCommand, PerfCounters, RunSummary, SimError, Wake};
use sc_dma::{DmaEngine, DmaError, DmaStats, Transfer};
use sc_isa::Program;
use sc_lint::{lint_harts, LintConfig, LintReport};
use sc_mem::{AccessKind, Dram, DramConfig, L2Outcome, PortId, PrefetchHint, Request, Tcdm};
use sc_perf::{Attribution, Leaf};
use sc_trace::{ResourceState, Tracer, Track};

/// Thread id the DMA engine's trace track uses within a cluster's
/// process (hart tracks occupy the low ids).
pub const DMA_TRACK_TID: u32 = 100;

/// Thread id the shared TCDM's sampled metrics use.
pub const TCDM_TRACK_TID: u32 = 98;

/// Cluster geometry: how many cores share the TCDM, and their per-core
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of compute cores.
    pub num_cores: u32,
    /// Per-core configuration; `core.tcdm` describes the *shared* TCDM.
    pub core: CoreConfig,
}

impl ClusterConfig {
    /// A cluster of `num_cores` default-configured cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn new(num_cores: u32) -> Self {
        assert!(num_cores >= 1, "a cluster has at least one core");
        ClusterConfig {
            num_cores,
            core: CoreConfig::new(),
        }
    }

    /// Replaces the per-core configuration.
    #[must_use]
    pub fn with_core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// TCDM crossbar ports each core occupies (LSU + stream movers).
    #[must_use]
    pub fn ports_per_core(&self) -> u8 {
        1 + self.core.num_ssrs
    }
}

/// Any failure during cluster simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A core's simulation failed.
    Core {
        /// The faulting hart.
        hart: u32,
        /// The underlying error.
        source: SimError,
    },
    /// The DMA engine rejected a descriptor or faulted on a beat.
    Dma {
        /// The hart whose doorbell ring enqueued the transfer, if the
        /// failure is attributable (descriptor rejection); beat faults
        /// mid-transfer are reported without a hart.
        hart: Option<u32>,
        /// The underlying error.
        source: DmaError,
    },
    /// Static verification refused the programs before simulation:
    /// the owning system's builder was asked for strict verification
    /// (`SystemBuilder::lint_strict`) and the `sc-lint` pass found
    /// error-severity protocol violations.
    Lint(LintReport),
    /// A DMA engine built with [`ClusterBuilder::shared_dma`] moved a
    /// beat in a [`Cluster::end_cycle`] call that passed no external
    /// store (`ext_mem == None`).
    MissingExternalStore,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Core { hart, source } => write!(f, "hart {hart}: {source}"),
            ClusterError::Dma {
                hart: Some(hart),
                source,
            } => write!(f, "hart {hart}: {source}"),
            ClusterError::Dma { hart: None, source } => write!(f, "dma engine: {source}"),
            ClusterError::Lint(report) => {
                write!(f, "static verification refused the programs:\n{report}")
            }
            ClusterError::MissingExternalStore => write!(
                f,
                "shared-memory DMA engine moved a beat without the external store"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Core { source, .. } => Some(source),
            ClusterError::Dma { source, .. } => Some(source),
            ClusterError::Lint(_) => None,
            ClusterError::MissingExternalStore => None,
        }
    }
}

/// Aggregated result of a completed cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster cycles until the *last* core halted.
    pub cycles: u64,
    /// Each core's own run summary (counters, measured region, trace).
    pub per_core: Vec<RunSummary>,
    /// Element-wise sum of all cores' whole-run counters, with `cycles`
    /// overwritten by the cluster cycle count (so utilisation-style
    /// ratios use wall-clock cycles, not core-cycle sums).
    pub aggregate: PerfCounters,
    /// Cycle at which each core halted.
    pub core_done_at: Vec<u64>,
    /// Lost TCDM arbitrations per core (inter- plus intra-core).
    pub core_conflicts: Vec<u64>,
    /// Granted TCDM accesses per core.
    pub core_accesses: Vec<u64>,
    /// Lost arbitrations per TCDM bank.
    pub conflicts_by_bank: Vec<u64>,
    /// Granted accesses per TCDM bank.
    pub accesses_by_bank: Vec<u64>,
    /// Barrier episodes completed by the whole cluster.
    pub barriers: u64,
    /// Inter-cluster (system) barrier episodes this cluster's harts
    /// completed (the owning system resolves them).
    pub system_barriers: u64,
    /// DMA activity and compute–transfer overlap, when an engine is
    /// attached ([`ClusterBuilder::shared_dma`]).
    pub dma: Option<DmaSummary>,
    /// Top-down cycle attribution aggregated over every hart: each
    /// core's own partition plus [`sc_perf::Leaf::Park`] padding for the
    /// window between that core's halt and the cluster's last cycle, so
    /// the whole tree partitions `harts × cluster cycles` exactly
    /// (verified as a hard error when the summary is assembled).
    pub attribution: Attribution,
}

/// DMA activity of a cluster run, including the overlap metrics that
/// quantify how well double-buffered tiling hides transfer time behind
/// compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaSummary {
    /// Engine counters (beats, bytes, conflicts, wait cycles).
    pub stats: DmaStats,
    /// Cycles the engine had a transfer in flight.
    pub busy_cycles: u64,
    /// Busy cycles during which at least one core simultaneously issued
    /// an FPU compute op — transfer time hidden behind compute.
    pub overlap_cycles: u64,
    /// The crossbar port the engine's beats arbitrate on (index into the
    /// per-port TCDM statistics).
    pub port: u8,
}

impl DmaSummary {
    /// Fraction of DMA-busy cycles overlapped with compute (0 when the
    /// engine never ran).
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.busy_cycles as f64
        }
    }

    /// The uncore transfer split for top-down reports: busy cycles
    /// divided into compute-overlapped vs exposed.
    #[must_use]
    pub fn transfer_attribution(&self) -> sc_perf::TransferAttribution {
        sc_perf::TransferAttribution {
            busy_cycles: self.busy_cycles,
            overlap_cycles: self.overlap_cycles,
        }
    }
}

impl ClusterSummary {
    /// Aggregate FPU utilisation: compute-issue cycles of all cores over
    /// `num_cores × cluster cycles` — the cluster's peak-relative
    /// throughput.
    #[must_use]
    pub fn cluster_utilization(&self) -> f64 {
        let peak = self.cycles.saturating_mul(self.per_core.len() as u64);
        if peak == 0 {
            0.0
        } else {
            self.aggregate.fpu_issue_cycles as f64 / peak as f64
        }
    }

    /// Total flops over cluster cycles.
    #[must_use]
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.aggregate.flops as f64 / self.cycles as f64
        }
    }
}

/// How a cluster's harts stand at a cycle boundary: how many the next
/// cycle steps, and how many wait on each thing the cluster releases.
/// [`Cluster::hart_census`] reports the census the cluster maintains at
/// state transitions; [`HartCensus::count`] recounts it from the cores'
/// states, and the two are always equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HartCensus {
    /// Harts the next cycle steps: not halted, and [`Core::wake`] is
    /// [`Wake::EveryCycle`] (a tracing hart steps even while parked).
    pub runnable: usize,
    /// Halted harts.
    pub halted: usize,
    /// Harts parked on the cluster barrier.
    pub barrier: usize,
    /// Harts parked on the inter-cluster (system) barrier.
    pub system_barrier: usize,
    /// Harts parked on the blocking DMA-wait CSR.
    pub dma_wait: usize,
}

impl HartCensus {
    /// The census of `cores`, recounted from each core's state.
    pub fn count<'a>(cores: impl IntoIterator<Item = &'a Core>) -> Self {
        let mut census = HartCensus::default();
        for core in cores {
            census.enter(Standing::of(core));
            if !core.is_halted() && core.wake() == Wake::EveryCycle {
                census.runnable += 1;
            }
        }
        census
    }

    /// The count a hart in `standing` contributes to, if any.
    fn count_of(&mut self, standing: Standing) -> Option<&mut usize> {
        match standing {
            Standing::Running => None,
            Standing::Barrier => Some(&mut self.barrier),
            Standing::SystemBarrier => Some(&mut self.system_barrier),
            Standing::DmaWait(_) => Some(&mut self.dma_wait),
            Standing::Halted => Some(&mut self.halted),
        }
    }

    fn enter(&mut self, standing: Standing) {
        if let Some(n) = self.count_of(standing) {
            *n += 1;
        }
    }

    fn leave(&mut self, standing: Standing) {
        if let Some(n) = self.count_of(standing) {
            *n -= 1;
        }
    }
}

/// What a hart waits on, as the cluster's census counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// Waiting on nothing the cluster releases (executing, stalled on
    /// memory or the FPU, or draining towards a halt).
    Running,
    Barrier,
    SystemBarrier,
    /// Parked on `DMA_WAIT` until the engine's completion counter
    /// reaches the target.
    DmaWait(u32),
    Halted,
}

impl Standing {
    fn of(core: &Core) -> Self {
        if core.is_halted() {
            Standing::Halted
        } else if core.in_barrier() {
            Standing::Barrier
        } else if core.in_system_barrier() {
            Standing::SystemBarrier
        } else if let Some(target) = core.dma_wait_target() {
            Standing::DmaWait(target)
        } else {
            Standing::Running
        }
    }
}

/// One hart's entry in the cluster's census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HartStatus {
    standing: Standing,
    /// `Some(c)`: the hart is parked and has not been stepped since
    /// cycle `c`. Its `Core` still owes the `now - c` parked cycles,
    /// paid in closed form ([`Core::skip_cycles`]) when it is released
    /// or settled.
    parked_since: Option<u64>,
}

/// The attached DMA subsystem: the engine, the timing it pays, and the
/// overlap bookkeeping. The background memory it moves against is owned
/// outside the cluster (a system's shared L2/Dram) and handed to every
/// [`Cluster::end_cycle`].
#[derive(Debug)]
struct DmaAttachment {
    engine: DmaEngine,
    /// The per-transfer/per-beat timing the engine pays (the system
    /// L2's engine-side timing).
    timing: DramConfig,
    busy_cycles: u64,
    overlap_cycles: u64,
    /// `fpu_issue_cycles` summed over this cycle's runnable harts at
    /// its start (set by [`Cluster::begin_cycle`]), to detect whether
    /// any core issued compute this cycle. Parked and halted harts
    /// cannot issue, so they are left out.
    fpu_issue_before: u64,
    /// Whether the engine had a transfer in flight at this cycle's start
    /// (set by [`Cluster::begin_cycle`], consumed by
    /// [`Cluster::end_cycle`]).
    busy_this_cycle: bool,
    /// Whether the engine had an issuable beat this cycle (so an
    /// external denial is attributed to the right cycle).
    beat_ready: bool,
}

/// The cluster: N lock-stepped cores over one shared banked TCDM,
/// optionally fed by a DMA engine from a background memory its owner
/// supplies each cycle.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    cores: Vec<Core>,
    tcdm: Tcdm,
    cycles: u64,
    core_done_at: Vec<Option<u64>>,
    barriers: u64,
    system_barriers: u64,
    dma: Option<DmaAttachment>,
    /// Stride hints the engine published this cycle (doorbells rung at
    /// this [`Cluster::begin_cycle`]); the system collects them between
    /// the two half-cycles and feeds the shared L2's prefetcher; without
    /// a shared L2 they are simply dropped each cycle.
    prefetch_hints: Vec<PrefetchHint>,
    /// Per-hart census entries, updated only at state transitions.
    status: Vec<HartStatus>,
    /// The counts over `status`, plus the length of `runnable`.
    census: HartCensus,
    /// The harts the next cycle steps, in hart order.
    runnable: Vec<usize>,
    /// Set by [`Cluster::core_mut`]: the caller may have changed a
    /// hart's state, so the census is recounted before its next use.
    census_stale: bool,
    /// The engine completion count the last DMA-wait release scan saw;
    /// `None` when a hart has parked on `DMA_WAIT` since. Until one of
    /// the two changes, a rescan cannot release anyone.
    dma_wait_scanned: Option<u32>,
    // Scratch reused across cycles to keep the hot loop allocation-free.
    requests: Vec<Request>,
    grants: Vec<bool>,
    ranges: Vec<(usize, usize, usize)>,
    tracer: Tracer,
    /// Perfetto process id this cluster's tracks live under.
    pid: u32,
}

impl Cluster {
    /// Creates a cluster running one program per core.
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len() == cfg.num_cores`.
    #[must_use]
    pub fn new(cfg: ClusterConfig, programs: Vec<Program>) -> Self {
        assert_eq!(
            programs.len(),
            cfg.num_cores as usize,
            "one program per core"
        );
        let mut tcdm = Tcdm::new(cfg.core.tcdm);
        tcdm.set_port_group_size(cfg.ports_per_core());
        let cores: Vec<Core> = programs
            .into_iter()
            .enumerate()
            .map(|(hart, program)| Core::with_hart(cfg.core, program, hart as u32, cfg.num_cores))
            .collect();
        let n = cores.len();
        let mut cluster = Cluster {
            cfg,
            cores,
            tcdm,
            cycles: 0,
            core_done_at: vec![None; n],
            barriers: 0,
            system_barriers: 0,
            dma: None,
            prefetch_hints: Vec::new(),
            status: vec![
                HartStatus {
                    standing: Standing::Running,
                    parked_since: None,
                };
                n
            ],
            census: HartCensus::default(),
            runnable: Vec::with_capacity(n),
            census_stale: true,
            dma_wait_scanned: None,
            requests: Vec::new(),
            grants: Vec::new(),
            ranges: Vec::new(),
            tracer: Tracer::off(),
            pid: 0,
        };
        cluster.refresh_census();
        cluster
    }

    /// Static-verification findings (`sc-lint`) for the currently loaded
    /// programs, linted on each call under [`lint_config`]. Simulation
    /// never consults them; hang diagnoses cross-reference them.
    #[must_use]
    pub fn lint_report(&self) -> LintReport {
        let programs: Vec<Program> = self.cores.iter().map(|c| c.program().clone()).collect();
        lint_harts(&programs, &lint_config(&self.cfg))
    }

    /// Subscribes the cluster to a trace sink: every core becomes one
    /// thread track under process `pid` (tid = hart id), the DMA engine
    /// rides [`DMA_TRACK_TID`], and the shared TCDM's counters are
    /// sampled on [`TCDM_TRACK_TID`]. Attaching a DMA engine later
    /// inherits the subscription.
    pub fn set_tracer(&mut self, tracer: Tracer, pid: u32) {
        if tracer.is_on() {
            let cid = self.cores[0].cluster_id();
            tracer.name_process(pid, &format!("cluster{cid}"));
            tracer.name_thread(Track::new(pid, TCDM_TRACK_TID), "tcdm");
        }
        for (h, core) in self.cores.iter_mut().enumerate() {
            core.set_tracer(tracer.clone(), Track::new(pid, h as u32));
        }
        if let Some(dma) = &mut self.dma {
            dma.engine
                .set_tracer(tracer.clone(), Track::new(pid, DMA_TRACK_TID));
        }
        self.tracer = tracer;
        self.pid = pid;
    }

    /// The sum the watchdog samples: strictly grows whenever any hart
    /// retires an instruction, a stream moves an element, a barrier
    /// completes, or the DMA engine moves a beat. The owning system sums
    /// these across clusters for its watchdog.
    #[must_use]
    pub fn progress_signature(&self) -> u64 {
        let cores: u64 = self.cores.iter().map(Core::progress_signature).sum();
        let dma = self.dma.as_ref().map_or(0, |d| {
            d.engine.stats().beats + d.engine.stats().transfers_completed
        });
        cores + dma
    }

    /// Appends the hang-diagnosis view of every cluster resource to
    /// `out`, paths prefixed with `path` (e.g. `cluster0`).
    pub fn diagnose(&self, path: &str, out: &mut Vec<ResourceState>) {
        let lint = self.lint_report();
        for (h, core) in self.cores.iter().enumerate() {
            if !core.is_halted() {
                core.diagnose(&format!("{path}.hart{h}"), out);
                // Cross-reference static findings for the wedged hart: a
                // hang whose program the linter already flagged is almost
                // certainly that bug, and the rule id names the class.
                for d in lint.for_hart(h as u32) {
                    out.push(ResourceState::info(
                        format!("{path}.hart{h}.lint"),
                        format!("{d}"),
                    ));
                }
            }
        }
        if let Some(dma) = &self.dma {
            if !dma.engine.is_idle() {
                out.push(ResourceState::info(
                    format!("{path}.dma"),
                    format!(
                        "{} transfer(s) outstanding, engine {}",
                        dma.engine.outstanding(),
                        if dma.engine.is_busy() { "busy" } else { "idle" }
                    ),
                ));
            }
        }
    }

    /// Appends each wedged hart's stalled-window attribution — where its
    /// cycles went since the snapshot in `base` — next to the structural
    /// diagnoses of a hang report, against the owning system's baselines
    /// ([`Cluster::attr_snapshot`]).
    pub fn diagnose_attr_since(
        &self,
        path: &str,
        base: &[Attribution],
        out: &mut Vec<ResourceState>,
    ) {
        for (h, core) in self.cores.iter().enumerate() {
            if core.is_halted() {
                continue;
            }
            let start = base.get(h).copied().unwrap_or_default();
            let window = self.hart_counters(h).attr.delta_since(&start);
            out.push(ResourceState::info(
                format!("{path}.hart{h}.attr"),
                format!("stalled-window attribution: {}", window.render_compact(3)),
            ));
        }
    }

    /// Per-hart whole-run attribution snapshots, in hart order — the
    /// baselines a system-level watchdog records at each progress change
    /// so its hang reports can show stalled-window deltas.
    #[must_use]
    pub fn attr_snapshot(&self) -> Vec<Attribution> {
        (0..self.cores.len())
            .map(|h| self.hart_counters(h).attr)
            .collect()
    }

    /// Attaches the DMA engine; the owner passes the store it moves
    /// against into every [`Cluster::end_cycle`]. The engine arbitrates on the first
    /// crossbar port *after* every core's namespace (`num_cores ×
    /// ports_per_core`), forming its own arbitration group — inter-group
    /// fairness treats the mover like one more core, so DMA beats
    /// neither starve nor are starved by compute traffic. An idle engine
    /// leaves the cluster's cycle-by-cycle behaviour bit-identical to a
    /// cluster without one.
    fn attach_dma(&mut self, timing: DramConfig) {
        let port = self.cfg.num_cores * u32::from(self.cfg.ports_per_core());
        assert!(port < 256, "DMA port overflows the 8-bit port namespace");
        let mut engine = DmaEngine::new(PortId(port as u8));
        if self.tracer.is_on() {
            engine.set_tracer(self.tracer.clone(), Track::new(self.pid, DMA_TRACK_TID));
        }
        self.dma = Some(DmaAttachment {
            engine,
            timing,
            busy_cycles: 0,
            overlap_cycles: 0,
            fpu_issue_before: 0,
            busy_this_cycle: false,
            beat_ready: false,
        });
    }

    /// The DMA engine, when attached (queue inspection in tests).
    #[must_use]
    pub fn dma_engine(&self) -> Option<&DmaEngine> {
        self.dma.as_ref().map(|d| &d.engine)
    }

    /// Replaces every halted core's program and restarts them at
    /// instruction 0, preserving all architectural and counter state —
    /// the model of a software outer loop (the double-buffered tile
    /// loop) starting its next iteration. Cycle and counter accumulation
    /// continue seamlessly; an attached DMA engine keeps draining its
    /// queue across the switch.
    ///
    /// # Panics
    ///
    /// Panics unless every core has halted, or if the program count does
    /// not match the core count.
    pub fn load_programs(&mut self, programs: Vec<Program>) {
        assert!(
            self.is_done(),
            "load_programs requires every core to have halted"
        );
        assert_eq!(programs.len(), self.cores.len(), "one program per core");
        for (core, program) in self.cores.iter_mut().zip(programs) {
            core.load_program(program);
        }
        self.core_done_at.fill(None);
        self.census_stale = true;
        self.refresh_census();
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared TCDM (pre-load inputs / read back results).
    #[must_use]
    pub fn tcdm(&self) -> &Tcdm {
        &self.tcdm
    }

    /// Mutable shared-TCDM access.
    pub fn tcdm_mut(&mut self) -> &mut Tcdm {
        &mut self.tcdm
    }

    /// One core, by hart ID.
    ///
    /// The counters of a hart parked mid-run lag the cluster clock by the
    /// cycles it has not been stepped (see [`Cluster::hart_counters`]);
    /// they are current once the owning system's run returns or after
    /// [`Cluster::settle`].
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    #[must_use]
    pub fn core(&self, hart: usize) -> &Core {
        &self.cores[hart]
    }

    /// Mutable core access (test setup: seed registers before running).
    /// The hart's owed parked cycles are paid first, and the census is
    /// recounted before its next use, since the caller may change the
    /// hart's state.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn core_mut(&mut self, hart: usize) -> &mut Core {
        self.settle_hart(hart);
        self.census_stale = true;
        &mut self.cores[hart]
    }

    /// A hart's counters as of the cluster clock. A parked hart is not
    /// stepped: its `Core` owes every cycle since it parked, paid once
    /// when it is released. This view adds the owed cycles with the
    /// same closed form ([`Core::counters_after_skip`]).
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    #[must_use]
    pub fn hart_counters(&self, hart: usize) -> PerfCounters {
        self.cores[hart].counters_after_skip(self.owed(hart))
    }

    /// The census of the cluster's harts: how many the next cycle steps,
    /// and how many wait on each barrier, on DMA, or have halted.
    #[must_use]
    pub fn hart_census(&self) -> HartCensus {
        if self.census_stale {
            HartCensus::count(&self.cores)
        } else {
            self.census
        }
    }

    /// Pays every parked hart's owed cycles, so each [`Cluster::core`]
    /// reads counters as of the cluster clock. The owning system does
    /// this on every run exit; an owner stepping the cluster itself calls
    /// it before reading cores directly.
    pub fn settle(&mut self) {
        for h in 0..self.cores.len() {
            self.settle_hart(h);
        }
    }

    /// Cycles hart `hart` owes: the cycles since it parked, or 0.
    fn owed(&self, hart: usize) -> u64 {
        self.status[hart]
            .parked_since
            .map_or(0, |since| self.cycles - since)
    }

    /// Pays hart `hart`'s owed cycles in closed form; it keeps parking
    /// from now on.
    fn settle_hart(&mut self, hart: usize) {
        let owed = self.owed(hart);
        if owed > 0 {
            self.cores[hart].skip_cycles(owed);
            self.status[hart].parked_since = Some(self.cycles);
        }
    }

    /// Recounts the census from the cores' states after
    /// [`Cluster::core_mut`] or a program load. A hart still parked
    /// keeps its `parked_since`: the only hart a caller could have
    /// changed was settled when it was handed out.
    fn refresh_census(&mut self) {
        if !self.census_stale {
            return;
        }
        self.census = HartCensus::count(&self.cores);
        for (core, status) in self.cores.iter().zip(&mut self.status) {
            let standing = Standing::of(core);
            let parked = standing != Standing::Halted && core.wake() == Wake::Idle;
            status.parked_since = if parked {
                status.parked_since.or(Some(self.cycles))
            } else {
                None
            };
            status.standing = standing;
        }
        self.rebuild_runnable();
        self.dma_wait_scanned = None;
        self.census_stale = false;
    }

    /// Rebuilds the runnable list from the census entries, in hart
    /// order.
    fn rebuild_runnable(&mut self) {
        self.runnable.clear();
        self.runnable.extend(
            self.status
                .iter()
                .enumerate()
                .filter(|(_, s)| s.standing != Standing::Halted && s.parked_since.is_none())
                .map(|(h, _)| h),
        );
        self.census.runnable = self.runnable.len();
    }

    /// Releases every hart whose standing `waits` accepts with
    /// `release`, paying its owed cycles first (the closed form charges
    /// them to the wait being left), and rebuilds the runnable list.
    fn release_harts(&mut self, waits: impl Fn(Standing) -> bool, release: impl Fn(&mut Core)) {
        for h in 0..self.cores.len() {
            if waits(self.status[h].standing) {
                self.settle_hart(h);
                release(&mut self.cores[h]);
                self.census.leave(self.status[h].standing);
                self.status[h] = HartStatus {
                    standing: Standing::Running,
                    parked_since: None,
                };
            }
        }
        self.rebuild_runnable();
    }

    /// Phase 4 over the harts this cycle stepped, in one pass: each
    /// ends its cycle and, unless the census is stale (then
    /// [`Cluster::refresh_census`] recounts it after the clock moves),
    /// is classified anew — one that halted or parked leaves the
    /// runnable list, and a parked hart starts owing cycles from `now`,
    /// the clock after this cycle. Returns the stepped harts' summed
    /// `fpu_issue_cycles` for the DMA overlap detector. A hart's cycle
    /// end and standing depend on that hart alone, so one pass gives
    /// what a pass per step would.
    fn end_stepped(&mut self) -> u64 {
        let now = self.cycles + 1;
        let classify = !self.census_stale;
        let mut issued = 0;
        let mut kept = 0;
        for i in 0..self.runnable.len() {
            let h = self.runnable[i];
            let core = &mut self.cores[h];
            core.end_cycle();
            issued += core.counters().fpu_issue_cycles;
            if !classify {
                continue;
            }
            let standing = Standing::of(core);
            let status = &mut self.status[h];
            if standing != status.standing {
                self.census.leave(status.standing);
                self.census.enter(standing);
                status.standing = standing;
                if let Standing::DmaWait(_) = standing {
                    self.dma_wait_scanned = None;
                }
            }
            if standing == Standing::Halted {
                if self.core_done_at[h].is_none() {
                    self.core_done_at[h] = Some(now);
                }
            } else if standing != Standing::Running && core.wake() == Wake::Idle {
                status.parked_since = Some(now);
            } else {
                self.runnable[kept] = h;
                kept += 1;
            }
        }
        if classify {
            self.runnable.truncate(kept);
            self.census.runnable = kept;
        }
        issued
    }

    /// Cluster cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether every core has halted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.hart_census().halted == self.cores.len()
    }

    /// First half of a cluster cycle: core phases 1–2 (writeback, issue,
    /// integer execute), doorbell draining into the DMA engine, and the
    /// engine's own cycle start. Returns the background-memory side of
    /// the engine's beat, if one is ready this cycle — a multi-cluster
    /// system arbitrates these across clusters at the shared L2, then
    /// resumes each cluster with [`Cluster::end_cycle`]. The name
    /// matches the `begin_cycle`/`arbitrate`/`end_cycle` convention the
    /// memory-side components (`sc-mem`, `sc-cache`) already use. The
    /// owner sets the trace sink's clock for the cycle
    /// ([`sc_trace::Tracer::set_cycle`]) before stepping its clusters.
    ///
    /// # Errors
    ///
    /// The first core error, tagged with its hart ID.
    pub fn begin_cycle(&mut self) -> Result<Option<(u32, AccessKind)>, ClusterError> {
        let tag = |hart: usize| {
            move |source| ClusterError::Core {
                hart: hart as u32,
                source,
            }
        };

        // Only runnable harts step. Halted cores sit the cycle out
        // entirely (their counters freeze at their own completion).
        // Parked harts (barrier / system-barrier / blocking DMA waits)
        // sit it out too and are not touched at all: a parked hart is
        // drained, so each of its dense cycles is exactly
        // [`sc_core::Core::skip_cycles`] of one cycle, and the cluster
        // pays them all at once when the hart is released or its
        // counters are read. A core with a per-core issue trace
        // never reports idle ([`sc_core::Core::wake`]), so it stays
        // runnable and its trace keeps one entry per cycle.
        self.refresh_census();

        // Phases 1–2 on every runnable core, in one pass that also
        // mirrors the DMA engine's state into each core first (so this
        // cycle's status-CSR reads see the queue as of cycle start),
        // notes its compute-issue count for the overlap detector, and
        // afterwards whether it rang a doorbell. Each of these reads or
        // writes only its own core and the engine is not touched, so the
        // one pass equals a pass per step.
        let status = self
            .dma
            .as_ref()
            .map(|dma| (dma.engine.outstanding(), dma.engine.completed()));
        let mut issued = 0;
        let mut rang = false;
        for &h in &self.runnable {
            let core = &mut self.cores[h];
            if let Some((outstanding, completed)) = status {
                core.set_dma_status(outstanding, completed);
                issued += core.counters().fpu_issue_cycles;
            }
            core.begin_cycle().map_err(tag(h))?;
            rang |= core.has_dma_commands();
        }

        // Doorbells rung this cycle enter the engine's FIFO; the engine
        // picks up new work at its own cycle start below.
        let mut beat = None;
        if let Some(dma) = &mut self.dma {
            dma.fpu_issue_before = issued;
            if rang {
                for &h in &self.runnable {
                    for cmd in self.cores[h].drain_dma_commands() {
                        dma.engine.enqueue(command_to_transfer(&cmd)).map_err(|e| {
                            ClusterError::Dma {
                                hart: Some(h as u32),
                                source: e,
                            }
                        })?;
                    }
                }
            }
            // A fully idle engine (nothing queued, nothing in flight —
            // no doorbell rang above) sits the cycle out: every one of
            // the calls below is a no-op on it, so the local skip is
            // exact. Enqueued hints cannot go stale here — an enqueue
            // leaves the engine non-idle until its transfer completes,
            // and its hints were drained the same cycle.
            if dma.engine.is_idle() {
                dma.busy_this_cycle = false;
                dma.beat_ready = false;
                self.prefetch_hints.clear();
            } else {
                dma.engine.begin_cycle(dma.timing);
                dma.busy_this_cycle = dma.engine.is_busy();
                beat = dma.engine.dram_request();
                dma.beat_ready = beat.is_some();
                // This cycle's DMA_START hints replace last cycle's
                // (which the system either forwarded to the L2 or let
                // lapse).
                self.prefetch_hints.clear();
                self.prefetch_hints
                    .extend(dma.engine.drain_prefetch_hints());
            }
        }
        Ok(beat)
    }

    /// The stride hints this cycle's doorbells published (valid between
    /// [`Cluster::begin_cycle`] and [`Cluster::end_cycle`]): a system
    /// owner forwards them to the shared L2's prefetcher, rewriting each
    /// hint's `requester` to this cluster's id.
    pub fn take_prefetch_hints(&mut self) -> Vec<PrefetchHint> {
        self.drain_prefetch_hints().collect()
    }

    /// [`Cluster::take_prefetch_hints`] without giving up the buffer: the
    /// allocation-free form the system's per-cycle loop uses. Inlined,
    /// so the per-cycle caller builds the (almost always empty) `Drain`
    /// in place instead of copying it back from a call.
    #[inline]
    pub fn drain_prefetch_hints(&mut self) -> std::vec::Drain<'_, PrefetchHint> {
        self.prefetch_hints.drain(..)
    }

    /// Second half of a cluster cycle: the TCDM crossbar pass (the DMA
    /// beat participates only when `dma_mem` granted it), grant
    /// application, core/engine cycle end, and barrier rendezvous.
    ///
    /// `dma_mem` is the shared-memory-side arbitration outcome for the
    /// beat [`Cluster::begin_cycle`] returned
    /// ([`sc_mem::L2Outcome::Granted`] when there was none, or when no
    /// shared L2 sits in front of the store); a denial's kind decides
    /// whether the engine books a bank-conflict or a miss/refill wait.
    /// `ext_mem` is the functional store the engine built with
    /// [`ClusterBuilder::shared_dma`] moves against; `None` serves only
    /// a cycle in which the engine moves no beat.
    ///
    /// # Errors
    ///
    /// Core errors (hart-tagged), DMA beat faults, or
    /// [`ClusterError::MissingExternalStore`] if a shared-memory engine
    /// moves a beat without `ext_mem`.
    pub fn end_cycle(
        &mut self,
        dma_mem: L2Outcome,
        ext_mem: Option<&mut Dram>,
    ) -> Result<(), ClusterError> {
        let tag = |hart: usize| {
            move |source| ClusterError::Core {
                hart: hart as u32,
                source,
            }
        };

        // Phase 3: one crossbar pass over all cores' *and* the DMA
        // engine's requests — DMA beats contend for bank ports exactly
        // like compute traffic and show up in the per-bank stats. A beat
        // denied at the shared memory never reaches the crossbar: the
        // engine retries the whole beat next cycle.
        self.requests.clear();
        self.ranges.clear();
        for &h in &self.runnable {
            let start = self.requests.len();
            self.cores[h].mem_requests(&mut self.requests);
            self.ranges.push((h, start, self.requests.len()));
        }
        let mut dma_req = false;
        if let Some(dma) = &mut self.dma {
            if dma.beat_ready {
                if dma_mem.granted() {
                    if let Some(req) = dma.engine.request() {
                        self.requests.push(req);
                        dma_req = true;
                    }
                } else {
                    dma.engine.note_l2_denied(dma_mem.refill_related());
                }
            }
        }
        if self.requests.is_empty() {
            for &h in &self.runnable {
                self.cores[h]
                    .apply_grants(&[], &mut self.tcdm)
                    .map_err(tag(h))?;
            }
        } else {
            self.tcdm.arbitrate_into(&self.requests, &mut self.grants);
            let grants = &self.grants;
            for &(h, start, end) in &self.ranges {
                self.cores[h]
                    .apply_grants(&grants[start..end], &mut self.tcdm)
                    .map_err(tag(h))?;
            }
            if dma_req {
                let dma = self.dma.as_mut().expect("dma_req implies attachment");
                let mem = ext_mem.ok_or(ClusterError::MissingExternalStore)?;
                dma.engine
                    .apply_grant(grants[grants.len() - 1], &mut self.tcdm, mem, dma.timing)
                    .map_err(|e| ClusterError::Dma {
                        hart: None,
                        source: e,
                    })?;
            }
        }

        // Phase 4. The census learns where this cycle's stepped harts
        // now stand — before the sample (a parked hart's view is settled
        // against the advanced clock) and before the rendezvous (a hart
        // arriving this cycle counts).
        let issued = self.end_stepped();
        if let Some(dma) = &mut self.dma {
            dma.engine.end_cycle();
            // One increment per cluster cycle, however many descriptors
            // were queued or completed within it — `overlap_cycles` can
            // therefore never exceed `busy_cycles` and the overlap
            // fraction stays in [0, 1] (asserted by the sweep
            // validators). Compute–transfer overlap: did any core issue
            // an FPU compute op while the engine was busy?
            if dma.busy_this_cycle {
                dma.busy_cycles += 1;
                if issued > dma.fpu_issue_before {
                    dma.overlap_cycles += 1;
                }
            }
            dma.busy_this_cycle = false;
            dma.beat_ready = false;
        }
        let sample = self.tracer.wants_sample(self.cycles);
        self.cycles += 1;
        self.refresh_census();
        if sample {
            self.sample_now();
        }

        // Barrier rendezvous: release once every active hart has arrived.
        if self.census.barrier > 0 && self.census.barrier == self.cores.len() - self.census.halted {
            self.release_harts(|s| s == Standing::Barrier, Core::release_barrier);
            self.barriers += 1;
        }
        // Blocking DMA waits: release every hart whose target the
        // engine's wrapping completion counter has reached (transfers
        // complete in the crossbar phase above, so a hart resumes the
        // cycle after its transfer lands).
        if let Some(completed) = self.dma.as_ref().map(|d| d.engine.completed()) {
            if self.census.dma_wait > 0 && self.dma_wait_scanned != Some(completed) {
                let reached = |s| match s {
                    Standing::DmaWait(target) => (completed.wrapping_sub(target) as i32) >= 0,
                    _ => false,
                };
                self.release_harts(reached, |core| core.release_dma_wait(completed));
                self.dma_wait_scanned = Some(completed);
            }
        }
        debug_assert_eq!(
            self.census,
            HartCensus::count(&self.cores),
            "maintained hart census drifted from the cores' states"
        );
        Ok(())
    }

    /// How many of this cluster's harts are parked on the inter-cluster
    /// barrier, and how many are still active (not halted) — the
    /// system's rendezvous census.
    #[must_use]
    pub fn system_barrier_census(&self) -> (usize, usize) {
        let census = self.hart_census();
        (census.system_barrier, self.cores.len() - census.halted)
    }

    /// Releases every hart parked on the inter-cluster barrier and
    /// counts the episode (system use; the caller must have verified
    /// that every active hart across *all* clusters has arrived). A
    /// cluster with no waiting hart — e.g. one that halted before a
    /// system-wide episode it never participated in — is left untouched
    /// and does not count the episode.
    pub fn release_system_barrier(&mut self) {
        self.refresh_census();
        if self.census.system_barrier == 0 {
            return;
        }
        self.release_harts(
            |s| s == Standing::SystemBarrier,
            Core::release_system_barrier,
        );
        self.system_barriers += 1;
    }

    /// The earliest future cycle at which stepping this cluster could do
    /// anything a skip cannot reproduce in closed form. Merges the
    /// cores' wake — dense while the census has a runnable hart
    /// ([`sc_core::Core::wake`]), idle otherwise — with the DMA
    /// engine's: an idle engine sleeps, an engine mid-countdown wakes when its wait
    /// elapses, anything else (a queued transfer waiting to start, a
    /// beat ready to arbitrate) needs dense stepping. A subscribed
    /// tracer does *not* pin the cluster to dense stepping: a skippable
    /// window emits no timeline transitions by construction (state
    /// labels coalesce), and the owning system's `skip_idle` synthesizes
    /// the sampled counter rows dense stepping would have produced
    /// ([`Cluster::sample_now`]).
    #[must_use]
    pub fn next_wake(&self) -> Wake {
        // Every core's wake is `EveryCycle` or `Idle`: the runnable
        // count decides.
        if self.hart_census().runnable > 0 {
            return Wake::EveryCycle;
        }
        let dma = self.dma.as_ref().map_or(Wake::Idle, |d| {
            match d.engine.stalled_for() {
                // No transfer in flight: an empty queue means the
                // engine's cycle is a total no-op; a non-empty queue
                // pops at the next cycle start.
                None if d.engine.is_idle() => Wake::Idle,
                None | Some(0) => Wake::EveryCycle,
                Some(wait) => Wake::At(self.cycles + u64::from(wait)),
            }
        });
        dma
    }

    /// Bulk-applies `cycles` idle cycles: exactly the bookkeeping that
    /// many dense steps would have performed while every component was
    /// in a skippable state — the cluster clock advances (parked harts
    /// owe the window with the rest of their parked cycles), the DMA
    /// engine's countdown and busy time progress. Only a system owner
    /// fast-forwards a cluster, and only up to the window
    /// [`Cluster::next_wake`] allows; it interleaves these with
    /// [`Cluster::sample_now`] so the synthesized rows keep dense
    /// emission order (clusters in index order, then the shared L2, per
    /// cadence point).
    pub fn skip_quiet(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.refresh_census();
        // A skippable window means every hart is parked or halted: no
        // hart steps, and the parked ones' debt grows with the clock.
        debug_assert!(
            self.runnable.is_empty(),
            "skipping a window in which a hart can still step"
        );
        if let Some(dma) = &mut self.dma {
            if dma.engine.is_busy() {
                // No hart can issue an FPU op inside the window, so the
                // dense loop would book each of these cycles as busy and
                // *never* as overlap — the bulk charge stays exposed-only
                // ([`TransferAttribution::exposed_cycles`]).
                dma.busy_cycles += cycles;
                dma.engine.skip(cycles);
            }
        }
        self.cycles += cycles;
    }

    /// Emits one sample row set — exactly what the dense loop emits at a
    /// sampling point: every core's counters (hart order), the TCDM's
    /// stats, then the DMA engine's. The caller owns the sink clock
    /// ([`sc_trace::Tracer::set_cycle`]).
    pub fn sample_now(&self) {
        for h in 0..self.cores.len() {
            self.tracer
                .sample(Track::new(self.pid, h as u32), &self.hart_counters(h));
        }
        self.tracer
            .sample(Track::new(self.pid, TCDM_TRACK_TID), self.tcdm.stats());
        if let Some(dma) = &self.dma {
            self.tracer
                .sample(Track::new(self.pid, DMA_TRACK_TID), dma.engine.stats());
        }
    }

    /// The cluster summary as of now (meaningful once [`Self::is_done`]).
    ///
    /// # Panics
    ///
    /// Panics when the attribution invariant is violated — any hart
    /// whose leaf counts do not sum to its cycle count, or an aggregate
    /// that does not partition `harts × cluster cycles`. Either is a
    /// simulator bug, never a property of the program under test.
    #[must_use]
    pub fn summary(&self) -> ClusterSummary {
        let per_core: Vec<RunSummary> = (0..self.cores.len())
            .map(|h| {
                let mut summary = self.cores[h].summary();
                summary.counters = self.hart_counters(h);
                summary.cycles = summary.counters.cycles;
                summary
            })
            .collect();
        let mut aggregate = PerfCounters::new();
        let mut attribution = Attribution::new();
        for s in &per_core {
            aggregate.accumulate(&s.counters);
            s.counters
                .attr
                .verify(s.counters.cycles)
                .expect("per-hart attribution must partition the hart's cycles");
            attribution.accumulate(&s.counters.attr);
            // A halted core sits out the rest of the run: the dense loop
            // freezes its counters, so the gap to the cluster's last
            // cycle is done-padding, attributed to Park.
            attribution.record_n(Leaf::Park, self.cycles.saturating_sub(s.counters.cycles));
        }
        attribution
            .verify(self.cycles.saturating_mul(per_core.len() as u64))
            .expect("cluster attribution must partition harts x cluster cycles");
        aggregate.cycles = self.cycles;
        let stats = self.tcdm.stats();
        let ppc = self.cfg.ports_per_core();
        let mut core_conflicts = Vec::with_capacity(self.cores.len());
        let mut core_accesses = Vec::with_capacity(self.cores.len());
        for core in &self.cores {
            let base = core.port_base();
            let (accesses, conflicts) = stats.totals_of_port_range(base..base + ppc);
            core_accesses.push(accesses);
            core_conflicts.push(conflicts);
        }
        let dma_accesses = self.dma.as_ref().map_or(0, |d| {
            let port = d.engine.port().0;
            stats.totals_of_port_range(port..port + 1).0
        });
        debug_assert_eq!(
            core_accesses.iter().sum::<u64>() + dma_accesses,
            stats.total_accesses(),
            "per-core port ranges plus the DMA port must partition the crossbar"
        );
        ClusterSummary {
            cycles: self.cycles,
            aggregate,
            core_done_at: self
                .core_done_at
                .iter()
                .map(|d| d.unwrap_or(self.cycles))
                .collect(),
            core_conflicts,
            core_accesses,
            conflicts_by_bank: stats.conflicts_by_bank().to_vec(),
            accesses_by_bank: stats.accesses_by_bank().to_vec(),
            barriers: self.barriers,
            system_barriers: self.system_barriers,
            dma: self.dma.as_ref().map(|d| DmaSummary {
                stats: *d.engine.stats(),
                busy_cycles: d.busy_cycles,
                overlap_cycles: d.overlap_cycles,
                port: d.engine.port().0,
            }),
            attribution,
            per_core,
        }
    }
}

/// Fluent construction of a [`Cluster`]: options accumulate in any
/// order and [`ClusterBuilder::build`] applies them in the one order that
/// wires everything correctly (embedding before engine attachment).
///
/// ```
/// use sc_cluster::ClusterBuilder;
/// use sc_cluster::ClusterConfig;
/// use sc_isa::ProgramBuilder;
/// use sc_mem::DramConfig;
///
/// let mut b = ProgramBuilder::new();
/// b.ecall();
/// let cluster = ClusterBuilder::new(ClusterConfig::new(1), vec![b.build()?])
///     .shared_dma(DramConfig::new())
///     .embedded(1, 2)
///     .build();
/// assert!(cluster.dma_engine().is_some());
/// assert_eq!(cluster.core(0).cluster_id(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    programs: Vec<Program>,
    /// The engine-side timing of the DMA engine, when one is attached.
    dma: Option<DramConfig>,
    embedded: Option<(u32, u32)>,
}

impl ClusterBuilder {
    /// Starts a builder for a cluster running one program per core.
    #[must_use]
    pub fn new(cfg: ClusterConfig, programs: Vec<Program>) -> Self {
        ClusterBuilder {
            cfg,
            programs,
            dma: None,
            embedded: None,
        }
    }

    /// Attaches a DMA engine moving against an externally owned store
    /// (a system's shared L2/Dram), paying `timing` per transfer/beat.
    /// The owner passes the store into every [`Cluster::end_cycle`].
    #[must_use]
    pub fn shared_dma(mut self, timing: DramConfig) -> Self {
        self.dma = Some(timing);
        self
    }

    /// Places the cluster as cluster `cluster_id` of a
    /// `num_clusters`-cluster system (the cluster-position CSRs).
    #[must_use]
    pub fn embedded(mut self, cluster_id: u32, num_clusters: u32) -> Self {
        self.embedded = Some((cluster_id, num_clusters));
        self
    }

    /// Builds the cluster, applying the accumulated options in wiring
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration: a program count that does not
    /// match the core count, a DMA port overflowing the 8-bit port
    /// space, or `cluster_id >= num_clusters`.
    #[must_use]
    pub fn build(self) -> Cluster {
        let mut cluster = Cluster::new(self.cfg, self.programs);
        if let Some((cluster_id, num_clusters)) = self.embedded {
            assert!(
                cluster_id < num_clusters,
                "cluster id {cluster_id} outside the {num_clusters}-cluster system"
            );
            for core in &mut cluster.cores {
                core.set_cluster_pos(cluster_id, num_clusters);
            }
        }
        if let Some(timing) = self.dma {
            cluster.attach_dma(timing);
        }
        cluster
    }
}

/// Derives the lint model from the hardware configuration: the chained
/// FIFO holds `addmul_latency + 1` entries (every pipeline stage plus
/// the held writeback) and the TCDM footprint cap is the configured
/// TCDM size. This is the exact configuration [`Cluster::lint_report`]
/// verifies against; exported so system-level code can lint queued tile
/// stages with the same model before they are loaded.
#[must_use]
pub fn lint_config(cfg: &ClusterConfig) -> LintConfig {
    LintConfig::new()
        .with_fifo_capacity(cfg.core.fpu.addmul_latency + 1)
        .with_tcdm_cap_bytes(u64::from(cfg.core.tcdm.size))
}

/// Converts a core's doorbell snapshot into an engine transfer
/// descriptor. The CSR naming is direction-relative (`src` = Dram side,
/// `dst` = TCDM side, in the Dram→TCDM sense) regardless of direction.
fn command_to_transfer(cmd: &DmaCommand) -> Transfer {
    Transfer {
        dram_addr: cmd.src,
        tcdm_addr: cmd.dst,
        row_bytes: cmd.len,
        dram_stride: cmd.src_stride,
        tcdm_stride: cmd.dst_stride,
        reps: cmd.reps,
        to_tcdm: cmd.to_tcdm,
    }
}
