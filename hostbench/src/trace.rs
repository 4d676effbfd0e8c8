//! The traced run's drivers: replicas of the library's stepping loops,
//! written against the layer crates' public phase calls, with an
//! `Instant` span on each call. The spans live here, in the benchmark;
//! the simulator itself carries no host timers.
//!
//! Each driver must reproduce the untraced run of the same point
//! exactly (the caller compares [`Fingerprint`]s), so a replica that
//! drifts from the loop it copies cannot publish layer numbers.
//!
//! The cluster and tiled kernels keep their input-staging closures
//! private, so those replicas run over an empty TCDM or background
//! memory. The model's timing does not depend on data values, which the
//! fingerprint comparison checks on every point.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use sc_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use sc_core::{Core, Scheduler};
use sc_mem::{Dram, DramConfig, L2Outcome, L2Request, Tcdm, TcdmConfig, L2};
use sc_system::SystemBuilder;

use crate::workload::{Code, Fingerprint, Point, MAX_CYCLES};

/// Host time and work counts of the `Core` + `Tcdm` driver.
#[derive(Debug, Default)]
pub struct CoreProfile {
    /// `Core::begin_cycle` over the active harts.
    pub begin: Duration,
    /// `Core::mem_requests` over the active harts.
    pub mem_requests: Duration,
    /// `Tcdm::arbitrate`.
    pub arbitrate: Duration,
    /// `Core::apply_grants` over the active harts.
    pub apply: Duration,
    /// `Core::end_cycle` over the active harts plus the barrier
    /// rendezvous (`Core::in_barrier` / `release_barrier`).
    pub end: Duration,
    /// Wall time of the stepping loops.
    pub total: Duration,
    /// Building the machines (cores, TCDM, the cluster builder's lint).
    pub build: Duration,
    /// Hart-cycles stepped.
    pub hart_cycles: u64,
    /// `Tcdm::arbitrate` calls.
    pub arbitrate_calls: u64,
    /// Requests presented to the crossbar.
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
}

/// Host time and work counts of the `Cluster` + `L2` driver.
#[derive(Debug, Default)]
pub struct ClusterProfile {
    /// `Cluster::begin_cycle`.
    pub begin: Duration,
    /// `Cluster::take_prefetch_hints` and forwarding them to the L2.
    pub hints: Duration,
    /// `L2::begin_cycle` + `L2::end_cycle`.
    pub l2: Duration,
    /// `L2::arbitrate`.
    pub arbitrate: Duration,
    /// `Cluster::end_cycle`.
    pub end: Duration,
    /// Stage advance (program loads), the inter-cluster barrier and
    /// finding the clusters left to step.
    pub bookkeeping: Duration,
    /// Wall time of the stepping loops.
    pub total: Duration,
    /// Building the machines (cluster builders with lint, the L2).
    pub build: Duration,
    /// Cluster-cycles stepped (`Cluster::begin_cycle` calls).
    pub cluster_cycles: u64,
    /// System cycles stepped.
    pub system_cycles: u64,
    /// Beats presented to the L2.
    pub requests: u64,
    /// Beats granted.
    pub granted: u64,
    /// Beats denied by bank conflicts.
    pub bank_conflict: u64,
    /// Beats denied while their line refills.
    pub miss_wait: u64,
    /// Beats denied on a full MSHR file.
    pub mshr_full: u64,
    /// L2 read hits.
    pub read_hits: u64,
    /// L2 read misses.
    pub read_misses: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Prefetched lines demand later hit.
    pub prefetch_hits: u64,
    /// Write-back beats towards the background memory.
    pub writeback_beats: u64,
    /// Beats every DMA engine moved.
    pub dma_beats: u64,
}

/// Host time and work counts of the `System` + `Scheduler` driver.
#[derive(Debug, Default)]
pub struct SystemProfile {
    /// `System::next_wake`.
    pub next_wake: Duration,
    /// `Scheduler::plan`.
    pub plan: Duration,
    /// `System::skip_idle`.
    pub skip: Duration,
    /// `System::step`.
    pub step: Duration,
    /// Wall time of the run loops.
    pub total: Duration,
    /// Building the machines (system builder with lint).
    pub build: Duration,
    /// Scheduler decisions (`next_wake` + `plan` calls).
    pub decisions: u64,
    /// Idle windows skipped.
    pub windows: u64,
    /// Cycles skipped inside those windows.
    pub skipped_cycles: u64,
    /// Cycles stepped densely.
    pub stepped_cycles: u64,
}

/// The cores a core driver steps: its own, or a cluster's.
enum Harts<'a> {
    Own(&'a mut Core),
    Cluster(&'a mut Cluster),
}

impl Harts<'_> {
    fn len(&self) -> usize {
        match self {
            Harts::Own(_) => 1,
            Harts::Cluster(c) => c.num_cores(),
        }
    }

    fn get(&self, h: usize) -> &Core {
        match self {
            Harts::Own(c) => c,
            Harts::Cluster(c) => c.core(h),
        }
    }

    fn get_mut(&mut self, h: usize) -> &mut Core {
        match self {
            Harts::Own(c) => c,
            Harts::Cluster(c) => c.core_mut(h),
        }
    }
}

/// Replays a `core_tcdm` point: `Simulator::run` for a single core,
/// the dense `Cluster::run` without DMA for a cluster.
///
/// # Errors
///
/// A simulation error, or a point of another workload.
pub fn core_tcdm(point: &Point, prof: &mut CoreProfile) -> Result<Fingerprint, String> {
    let cfg = point.spec.core;
    match &point.code {
        Code::Core(kernel) => {
            let t = Instant::now();
            let mut core = Core::new(cfg, kernel.program().clone());
            let mut tcdm = Tcdm::new(cfg.tcdm);
            prof.build += t.elapsed();
            kernel.apply_setup(&mut tcdm).map_err(|e| e.to_string())?;
            let mut harts = Harts::Own(&mut core);
            let cycles = step_cores(&mut harts, &mut tcdm, prof)?;
            kernel.verify(&tcdm).map_err(|e| e.to_string())?;
            Ok(core_fingerprint(cycles, &harts))
        }
        Code::Cluster(kernel) => {
            let t = Instant::now();
            let ccfg = ClusterConfig::new(kernel.num_harts() as u32).with_core(cfg);
            let mut cluster = ClusterBuilder::new(ccfg, kernel.programs().to_vec()).build();
            prof.build += t.elapsed();
            // Drive the builder's own cores and crossbar: the TCDM moves
            // out of the cluster so a core and it can be borrowed at once.
            let mut tcdm = std::mem::replace(cluster.tcdm_mut(), Tcdm::new(TcdmConfig::new()));
            let mut harts = Harts::Cluster(&mut cluster);
            let cycles = step_cores(&mut harts, &mut tcdm, prof)?;
            Ok(core_fingerprint(cycles, &harts))
        }
        Code::System(_) => Err("the core driver takes no system points".into()),
    }
}

fn core_fingerprint(cycles: u64, harts: &Harts) -> Fingerprint {
    Fingerprint {
        cycles,
        harts: (0..harts.len()).map(|h| *harts.get(h).counters()).collect(),
        dma: Vec::new(),
        l2: None,
    }
}

/// The dense lock-step loop shared by `Simulator::step` and
/// `Cluster::step` on a cluster without DMA: every active hart's phases
/// 1–2, one crossbar pass, grant application, phase 4, and the barrier
/// rendezvous. Returns the cycles stepped.
fn step_cores(harts: &mut Harts, tcdm: &mut Tcdm, prof: &mut CoreProfile) -> Result<u64, String> {
    let n = harts.len();
    let mut active = Vec::with_capacity(n);
    let mut requests = Vec::new();
    let mut ranges = Vec::with_capacity(n);
    let mut cycles = 0u64;
    let start = Instant::now();
    loop {
        active.clear();
        active.extend((0..n).filter(|&h| !harts.get(h).is_halted()));
        if active.is_empty() {
            break;
        }
        if cycles >= MAX_CYCLES {
            return Err(format!("exceeded {MAX_CYCLES} cycles"));
        }
        let mut clock = Lap::start();
        for &h in &active {
            harts
                .get_mut(h)
                .begin_cycle()
                .map_err(|e| format!("hart {h}: {e}"))?;
        }
        clock.lap(&mut prof.begin);
        requests.clear();
        ranges.clear();
        for &h in &active {
            let first = requests.len();
            harts.get_mut(h).mem_requests(&mut requests);
            ranges.push((h, first, requests.len()));
        }
        clock.lap(&mut prof.mem_requests);
        let grants = if requests.is_empty() {
            Vec::new()
        } else {
            prof.arbitrate_calls += 1;
            tcdm.arbitrate(&requests)
        };
        clock.lap(&mut prof.arbitrate);
        for &(h, first, end) in &ranges {
            harts
                .get_mut(h)
                .apply_grants(&grants[first..end], tcdm)
                .map_err(|e| format!("hart {h}: {e}"))?;
        }
        clock.lap(&mut prof.apply);
        for &h in &active {
            harts.get_mut(h).end_cycle();
        }
        rendezvous(harts)?;
        clock.lap(&mut prof.end);
        cycles += 1;
        prof.requests += requests.len() as u64;
        prof.grants += grants.iter().filter(|g| **g).count() as u64;
        prof.hart_cycles += active.len() as u64;
    }
    prof.total += start.elapsed();
    Ok(cycles)
}

/// A stopwatch over consecutive spans: each lap ends the running span
/// and starts the next with one clock read, so the few lines of loop
/// glue between two phase calls are charged to the later call. Time
/// outside any lap (choosing the harts to step, the cycle-budget check,
/// the replica's own tallies) stays unattributed and shows as missing
/// coverage.
struct Lap(Instant);

impl Lap {
    fn start() -> Self {
        Lap(Instant::now())
    }

    fn lap(&mut self, span: &mut Duration) {
        let now = Instant::now();
        *span += now - self.0;
        self.0 = now;
    }
}

/// End-of-cycle barrier resolution of a stand-alone cluster (for one
/// core, exactly the simulator's immediate release).
fn rendezvous(harts: &mut Harts) -> Result<(), String> {
    let n = harts.len();
    let count = |harts: &Harts, f: fn(&Core) -> bool| (0..n).filter(|&h| f(harts.get(h))).count();
    let still_active = count(harts, |c| !c.is_halted());
    let waiting = count(harts, Core::in_barrier);
    if waiting > 0 && waiting == still_active {
        for h in 0..n {
            harts.get_mut(h).release_barrier();
        }
    }
    let waiting = count(harts, Core::in_system_barrier);
    if waiting > 0 && waiting == still_active {
        for h in 0..n {
            harts.get_mut(h).release_system_barrier();
        }
    }
    if count(harts, |c| c.dma_wait_target().is_some()) > 0 {
        return Err("a hart waits on DMA, which this driver does not model".into());
    }
    Ok(())
}

/// Replays an `l2_pressure` point: `System::run` in dense mode, as a
/// loop over `Cluster::begin_cycle` / `take_prefetch_hints` / the shared
/// `L2`'s cycle / `Cluster::end_cycle`, stage advance and the
/// inter-cluster barrier.
///
/// # Errors
///
/// A simulation error, or a point without a shared L2.
pub fn cluster_l2(point: &Point, prof: &mut ClusterProfile) -> Result<Fingerprint, String> {
    let (kernel, cfg, _) = point
        .system_config()
        .ok_or("the cluster driver takes system points only")?;
    let l2_cfg = cfg.l2;
    let t = Instant::now();
    let n = cfg.num_clusters as usize;
    let mut stages: Vec<VecDeque<_>> = kernel
        .stages()
        .iter()
        .map(|s| s.iter().cloned().collect())
        .collect();
    let mut clusters = Vec::with_capacity(n);
    for (c, queue) in stages.iter_mut().enumerate() {
        let first = queue.pop_front().ok_or("a cluster without stages")?;
        clusters.push(
            ClusterBuilder::new(cfg.cluster, first)
                .embedded(c as u32, cfg.num_clusters)
                .shared_dma(l2_cfg.engine_timing())
                .build(),
        );
    }
    let mut l2 = L2::new(l2_cfg, cfg.num_clusters);
    prof.build += t.elapsed();
    let mut dram = Dram::new(DramConfig::new());

    let mut cycles = 0u64;
    let mut stepped = Vec::with_capacity(n);
    let mut reqs = Vec::with_capacity(n);
    let mut req_of = vec![None; n];
    let unfinished = |clusters: &[Cluster], stages: &[VecDeque<_>], stepped: &mut Vec<usize>| {
        stepped.clear();
        stepped.extend((0..n).filter(|&c| !(clusters[c].is_done() && stages[c].is_empty())));
    };
    let start = Instant::now();
    unfinished(&clusters, &stages, &mut stepped);
    while !stepped.is_empty() {
        if cycles >= MAX_CYCLES {
            return Err(format!("exceeded {MAX_CYCLES} cycles"));
        }
        reqs.clear();
        req_of.fill(None);
        prof.cluster_cycles += stepped.len() as u64;
        let mut clock = Lap::start();
        for &c in &stepped {
            let beat = clusters[c]
                .begin_cycle()
                .map_err(|e| format!("cluster {c}: {e}"))?;
            clock.lap(&mut prof.begin);
            if let Some((addr, kind)) = beat {
                req_of[c] = Some(reqs.len());
                reqs.push(L2Request {
                    cluster: c as u32,
                    addr,
                    kind,
                });
            }
            for mut hint in clusters[c].take_prefetch_hints() {
                hint.requester = c as u32;
                l2.prefetch_hint(hint);
            }
            clock.lap(&mut prof.hints);
        }
        l2.begin_cycle();
        clock.lap(&mut prof.l2);
        let outcomes = l2.arbitrate(&reqs);
        clock.lap(&mut prof.arbitrate);
        for &c in &stepped {
            let outcome = req_of[c].map_or(L2Outcome::Granted, |r| {
                outcomes.get(r).copied().unwrap_or(L2Outcome::Granted)
            });
            clusters[c]
                .end_cycle(outcome, Some(&mut dram))
                .map_err(|e| format!("cluster {c}: {e}"))?;
            clock.lap(&mut prof.end);
        }
        l2.end_cycle();
        clock.lap(&mut prof.l2);
        cycles += 1;
        for &c in &stepped {
            if clusters[c].is_done() {
                if let Some(next) = stages[c].pop_front() {
                    clusters[c].load_programs(next);
                }
            }
        }
        let (waiting, active) = clusters
            .iter()
            .map(Cluster::system_barrier_census)
            .fold((0, 0), |(w, a), (cw, ca)| (w + cw, a + ca));
        if waiting > 0 && waiting == active {
            for cluster in &mut clusters {
                cluster.release_system_barrier();
            }
        }
        unfinished(&clusters, &stages, &mut stepped);
        clock.lap(&mut prof.bookkeeping);
        prof.requests += reqs.len() as u64;
        for outcome in &outcomes {
            match outcome {
                L2Outcome::Granted => prof.granted += 1,
                L2Outcome::BankConflict => prof.bank_conflict += 1,
                L2Outcome::MissWait => prof.miss_wait += 1,
                L2Outcome::MshrFull => prof.mshr_full += 1,
            }
        }
    }
    prof.total += start.elapsed();
    prof.system_cycles += cycles;

    let stats = l2.stats();
    prof.read_hits += stats.cache.read_hits;
    prof.read_misses += stats.cache.read_misses;
    prof.prefetches_issued += stats.cache.prefetches_issued;
    prof.prefetch_hits += stats.cache.prefetch_hits;
    prof.writeback_beats += stats.writeback_beats(&l2_cfg);
    let summaries: Vec<_> = clusters.iter().map(Cluster::summary).collect();
    let fp = Fingerprint::from_clusters(cycles, &summaries, Some(stats));
    prof.dma_beats += fp.dma.iter().map(|d| d.stats.beats).sum::<u64>();
    Ok(fp)
}

/// Replays a `system_event` point: `System::run` under its scheduling
/// mode, as a loop over `System::next_wake` / `Scheduler::plan` /
/// `System::skip_idle` / `System::step`.
///
/// # Errors
///
/// A simulation error, or a point that is not a system point.
pub fn system_sched(point: &Point, prof: &mut SystemProfile) -> Result<Fingerprint, String> {
    let (kernel, cfg, mode) = point
        .system_config()
        .ok_or("the system driver takes system points only")?;
    let t = Instant::now();
    let mut system = SystemBuilder::new(cfg, kernel.stages().to_vec())
        .dram(Dram::new(DramConfig::new()))
        .sched_mode(mode)
        .build();
    prof.build += t.elapsed();

    let sched = Scheduler::new(mode);
    let start = Instant::now();
    while !system.is_done() {
        let mut clock = Lap::start();
        let wake = system.next_wake();
        clock.lap(&mut prof.next_wake);
        let skip = sched.plan(system.cycles(), wake, [MAX_CYCLES]);
        clock.lap(&mut prof.plan);
        prof.decisions += 1;
        if skip > 0 {
            system.skip_idle(skip);
            clock.lap(&mut prof.skip);
            prof.windows += 1;
            prof.skipped_cycles += skip;
            continue;
        }
        if system.cycles() >= MAX_CYCLES {
            return Err(format!("exceeded {MAX_CYCLES} cycles"));
        }
        system.step().map_err(|e| e.to_string())?;
        clock.lap(&mut prof.step);
        prof.stepped_cycles += 1;
    }
    prof.total += start.elapsed();
    let summary = system.summary();
    Ok(Fingerprint::from_clusters(
        summary.cycles,
        &summary.per_cluster,
        summary.l2,
    ))
}
