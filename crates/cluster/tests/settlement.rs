//! Lazy-settlement and hart-census pins.
//!
//! A cluster steps only its runnable harts: a hart parked on the cluster
//! barrier, the system barrier or a blocking DMA wait is not touched, and
//! its `Core` owes every cycle since it parked until the cluster pays
//! them in closed form (on release, in `settle`, which the owning
//! system calls on every run exit, and in `core_mut`). Every reader
//! must see the settled values anyway. These tests hold harts parked
//! for long windows and check the readers against the cluster *clock* —
//! not against another lazily settled run:
//!
//! * every non-halted hart's `summary()` cycles equal the clock, and its
//!   attribution leaves sum to them (`hart_counters`, `attr_snapshot`
//!   agree);
//! * the sampled per-core trace rows equal those settled counters;
//! * the census the cluster maintains equals a recount over the cores.
//!
//! A cluster's one driver is a `System`, and only a system
//! fast-forwards. Every program here runs as the one cluster of a
//! system (`one_cluster_system`): the dense halves step it one
//! `System::step` at a time, checking the readers after every cycle
//! (`step_checked`), and the event halves run it under
//! `SchedMode::Event` and require the dense run's cluster summary and
//! trace rows from it.

mod common;

use std::collections::HashMap;

use common::one_cluster;
use proptest::prelude::*;
use sc_cluster::{Cluster, ClusterSummary, HartCensus};
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, IntReg, Program, ProgramBuilder};
use sc_mem::{DramConfig, TcdmConfig};
use sc_system::{System, SystemBuilder, SystemConfig, SystemError};
use sc_trace::{TraceConfig, TraceSession};

const CADENCE: u64 = 10;
const T0: IntReg = IntReg::new(5);
const T1: IntReg = IntReg::new(6);

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

fn session() -> TraceSession {
    TraceSession::new(TraceConfig::new().with_sample_every(CADENCE))
}

/// A countdown loop of `iterations` × 2 instructions.
fn delay(b: &mut ProgramBuilder, iterations: u32, label: &str) {
    if iterations == 0 {
        return;
    }
    b.li(T0, iterations as i32);
    b.label(label);
    b.addi(T0, T0, -1);
    b.bne(T0, IntReg::ZERO, label);
}

/// Rings a 256-byte Dram → TCDM transfer.
fn ring(b: &mut ProgramBuilder, tcdm: u32) {
    for (addr, value) in [
        (csr::DMA_SRC, 0x10_0000),
        (csr::DMA_DST, tcdm),
        (csr::DMA_LEN, 256),
        (csr::DMA_REPS, 1),
    ] {
        b.li(T0, value as i32);
        b.csrrw(IntReg::ZERO, addr, T0);
    }
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
}

/// Parks on `DMA_WAIT` until `target` transfers have completed.
fn dma_wait(b: &mut ProgramBuilder, target: u32) {
    b.li(T1, target as i32);
    b.csrrw(IntReg::new(10), csr::DMA_WAIT, T1);
}

/// The per-core `cycles` rows a run must have sampled: the settled
/// value per (cycle, pid, hart), recorded by the stepping loop. (The
/// other sampled metrics are taken before the cycle's barrier and DMA
/// releases, which retire an instruction; settlement moves only
/// `cycles` and the attribution.)
#[derive(Default)]
struct Rows(Vec<(u64, u32, usize, u64)>);

impl Rows {
    /// Records `cluster`'s settled cycle counts when the cycle just
    /// completed was a sampling point.
    fn record(&mut self, cluster: &Cluster, pid: u32) {
        let point = cluster.cycles() - 1;
        if point.is_multiple_of(CADENCE) {
            for h in 0..cluster.num_cores() {
                self.0
                    .push((point, pid, h, cluster.hart_counters(h).cycles));
            }
        }
    }

    /// Every recorded value must appear in the trace.
    fn assert_in(&self, session: &TraceSession) {
        let rows = core_rows(session);
        assert!(!self.0.is_empty(), "no sampling point was recorded");
        for &(point, pid, h, cycles) in &self.0 {
            assert_eq!(
                rows.get(&(point, pid, h as u32, "cycles".to_string())),
                Some(&cycles),
                "cycle {point} cluster pid {pid} hart {h}: sampled `cycles`"
            );
        }
    }
}

/// The trace's per-core sample rows, keyed by (cycle, pid, tid, metric).
fn core_rows(session: &TraceSession) -> HashMap<(u64, u32, u32, String), u64> {
    let mut rows = HashMap::new();
    for line in session.samples_csv().lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f[3] == "core" {
            let key = (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].parse().unwrap(),
                f[4].to_string(),
            );
            assert!(rows.insert(key, f[5].parse().unwrap()).is_none());
        }
    }
    rows
}

/// Every sample row of the system's first cluster (process 1), in
/// emission order.
fn cluster_rows(session: &TraceSession) -> Vec<String> {
    session
        .samples_csv()
        .lines()
        .skip(1)
        .filter(|line| line.split(',').nth(1) == Some("1"))
        .map(str::to_owned)
        .collect()
}

/// `programs` as the only cluster of a system under `mode`, traced
/// into `session`. With `dma_latency`, the cluster gets a DMA engine
/// behind a pass-through L2 of that latency.
fn one_cluster_system(
    programs: Vec<Program>,
    dma_latency: Option<u32>,
    mode: SchedMode,
    session: &TraceSession,
) -> System {
    let timing = dma_latency.map(|latency| DramConfig::new().with_latency(latency));
    one_cluster(cfg(), programs, timing)
        .sched_mode(mode)
        .tracer(session.tracer())
        .build()
}

/// Checks every per-core `cycles` row of pid `pid` against the clock: a
/// row sampled during cycle `p` reads `p + 1`, or the hart's halt cycle
/// once it has halted (`done_at`, the clock for harts that never did).
fn assert_rows_follow_clock(session: &TraceSession, pid: u32, done_at: &[u64]) {
    let mut seen = 0;
    for ((point, p, tid, name), value) in core_rows(session) {
        if p == pid && name == "cycles" {
            let expected = (point + 1).min(done_at[tid as usize]);
            assert_eq!(value, expected, "cycle {point} hart {tid}");
            seen += 1;
        }
    }
    assert!(seen > 0, "no per-core rows sampled");
}

/// The settlement and census checks at a cycle boundary.
fn check(cluster: &Cluster) {
    let now = cluster.cycles();
    let n = cluster.num_cores();
    assert_eq!(
        cluster.hart_census(),
        HartCensus::count((0..n).map(|h| cluster.core(h))),
        "cycle {now}: maintained census"
    );
    // `summary` itself panics unless every hart's leaves partition its
    // cycles and the harts partition `harts × clock`.
    let summary = cluster.summary();
    let snapshot = cluster.attr_snapshot();
    for (h, (run, attr)) in summary.per_core.iter().zip(&snapshot).enumerate() {
        assert_eq!(cluster.hart_counters(h), run.counters, "hart {h}");
        assert_eq!(*attr, run.counters.attr, "hart {h}");
        if !cluster.core(h).is_halted() {
            assert_eq!(run.cycles, now, "cycle {now}: hart {h}");
            assert_eq!(run.counters.attr.total(), now, "cycle {now}: hart {h}");
        }
    }
}

/// After a run exit every core is settled: read directly, each
/// non-halted hart's counters equal the clock.
fn assert_settled(cluster: &Cluster) {
    for h in 0..cluster.num_cores() {
        let core = cluster.core(h);
        assert_eq!(*core.counters(), cluster.hart_counters(h), "hart {h}");
        if !core.is_halted() {
            assert_eq!(core.counters().cycles, cluster.cycles(), "hart {h}");
        }
    }
}

/// Steps a one-cluster `system` densely until it finishes or reaches
/// `budget`, checking its cluster after every cycle; then completes the
/// run, which settles every hart and emits the run-end sample. Returns
/// the sampling points' rows and the run's cluster summary, or its
/// budget exit.
fn step_checked(system: &mut System, budget: u64) -> (Rows, Result<ClusterSummary, SystemError>) {
    let mut rows = Rows::default();
    check(system.cluster(0));
    while !system.is_done() && system.cycles() < budget {
        system.step().unwrap();
        check(system.cluster(0));
        rows.record(system.cluster(0), 1);
    }
    let run = system.run(budget);
    (rows, run.map(|mut s| s.per_cluster.remove(0)))
}

/// Four harts, two barriers: hart 0 arrives ~300 cycles late at the
/// first, hart 3 ~240 cycles late at the second.
fn cluster_barrier_programs() -> Vec<Program> {
    (0..4)
        .map(|h| {
            let mut b = ProgramBuilder::new();
            if h == 0 {
                delay(&mut b, 150, "late0");
            }
            b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            if h == 3 {
                delay(&mut b, 120, "late3");
            }
            b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            b.ecall();
            b.build().unwrap()
        })
        .collect()
}

#[test]
fn cluster_barrier_parked_harts_read_settled() {
    let session = session();
    let mut system =
        one_cluster_system(cluster_barrier_programs(), None, SchedMode::Dense, &session);
    // Step to the middle of the first window and confirm three harts
    // are parked there.
    while system.cycles() < 150 {
        system.step().unwrap();
    }
    let census = system.cluster(0).hart_census();
    assert_eq!(census.barrier, 3, "harts 1-3 park early");
    let (rows, run) = step_checked(&mut system, 10_000);
    rows.assert_in(&session);
    let summary = run.unwrap();
    assert_eq!(summary.barriers, 2);
    assert_rows_follow_clock(&session, 1, &summary.core_done_at);
}

#[test]
fn dma_wait_parked_harts_read_settled_in_both_modes() {
    let programs = || -> Vec<Program> {
        (0..2)
            .map(|h| {
                let mut b = ProgramBuilder::new();
                if h == 0 {
                    ring(&mut b, 0x200);
                }
                dma_wait(&mut b, 1);
                b.ecall();
                b.build().unwrap()
            })
            .collect()
    };
    let dense = session();
    let mut system = one_cluster_system(programs(), Some(200), SchedMode::Dense, &dense);
    while system.cycles() < 100 {
        system.step().unwrap();
    }
    let census = system.cluster(0).hart_census();
    assert_eq!(census.dma_wait, 2, "both harts wait");
    let (rows, run) = step_checked(&mut system, 10_000);
    rows.assert_in(&dense);
    let summary = run.unwrap();
    assert!(summary.cycles > 200, "the wait spans the Dram latency");
    assert_rows_follow_clock(&dense, 1, &summary.core_done_at);

    // The event loop skips the window; the rows it synthesizes must
    // read the same settled counters.
    let event = session();
    let mut system = one_cluster_system(programs(), Some(200), SchedMode::Event, &event);
    let run = system.run(10_000).unwrap();
    assert_settled(system.cluster(0));
    assert_eq!(run.per_cluster[0], summary);
    assert_rows_follow_clock(&event, 1, &summary.core_done_at);
    assert_eq!(cluster_rows(&event), cluster_rows(&dense));
}

#[test]
fn system_barrier_parked_cluster_reads_settled() {
    // Cluster 0's hart 0 arrives ~300 cycles late; cluster 1 parks
    // whole on the system barrier meanwhile.
    let program = |c: u32, h: u32| {
        let mut b = ProgramBuilder::new();
        if c == 0 && h == 0 {
            delay(&mut b, 150, "late");
        }
        b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
        b.ecall();
        b.build().unwrap()
    };
    let stages = (0..2)
        .map(|c| vec![(0..2).map(|h| program(c, h)).collect()])
        .collect();
    let session = session();
    let mut system = SystemBuilder::new(SystemConfig::new(2, 2), stages)
        .tracer(session.tracer())
        .build();
    let mut rows = Rows::default();
    while !system.is_done() {
        assert!(system.cycles() < 10_000, "the system did not finish");
        system.step().unwrap();
        for c in 0..2 {
            check(system.cluster(c));
            rows.record(system.cluster(c), c as u32 + 1);
        }
        if system.cycles() == 150 {
            assert_eq!(system.cluster(1).hart_census().system_barrier, 2);
        }
    }
    rows.assert_in(&session);
    let summary = system.summary();
    assert_eq!(summary.system_barriers, 1);
    for c in 0..2 {
        assert_rows_follow_clock(&session, c as u32 + 1, &summary.per_cluster[c].core_done_at);
    }
}

/// Hart 0 parks on the system barrier and the others on the cluster
/// barrier: neither resolves, and the run ends at the cycle budget.
fn deadlocked_programs() -> Vec<Program> {
    (0..3)
        .map(|h| {
            let mut b = ProgramBuilder::new();
            let barrier = if h == 0 {
                csr::SYSTEM_BARRIER
            } else {
                csr::CLUSTER_BARRIER
            };
            b.csrrwi(IntReg::ZERO, barrier, 0);
            b.ecall();
            b.build().unwrap()
        })
        .collect()
}

#[test]
fn max_cycles_exit_leaves_every_hart_settled() {
    // The deadlock stepped to the budget, then fast-forwarded there.
    let stepped = session();
    let skipped = session();
    for (mode, session) in [(SchedMode::Dense, &stepped), (SchedMode::Event, &skipped)] {
        let mut system = one_cluster_system(deadlocked_programs(), None, mode, session);
        let err = system.run(555).unwrap_err();
        assert_eq!(err, SystemError::MaxCyclesExceeded { max_cycles: 555 });
        assert_eq!(system.cluster(0).cycles(), 555);
        assert_settled(system.cluster(0));
        check(system.cluster(0));
        assert_rows_follow_clock(session, 1, &[555; 3]);
    }
    assert_eq!(cluster_rows(&skipped), cluster_rows(&stepped));

    // The same through a system whose cluster 1 spins forever while
    // cluster 0 waits on the system barrier.
    let program = |c: u32| {
        let mut b = ProgramBuilder::new();
        if c == 0 {
            b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
        } else {
            b.label("spin");
            b.j("spin");
        }
        b.ecall();
        b.build().unwrap()
    };
    let stages = (0..2).map(|c| vec![vec![program(c), program(c)]]).collect();
    let mut system: System = SystemBuilder::new(SystemConfig::new(2, 2), stages)
        .sched_mode(SchedMode::Event)
        .build();
    let err = system.run(777).unwrap_err();
    assert_eq!(err, SystemError::MaxCyclesExceeded { max_cycles: 777 });
    for c in 0..2 {
        assert_eq!(system.cluster(c).cycles(), 777);
        assert_settled(system.cluster(c));
        check(system.cluster(c));
    }
}

#[test]
fn core_mut_settles_and_recounts() {
    let mut system = one_cluster(cfg(), cluster_barrier_programs(), None).build();
    while system.cycles() < 200 {
        system.step().unwrap();
    }
    let cluster = system.cluster_mut(0);
    // Hart 1 has been parked for ~200 cycles: handing it out pays them.
    assert!(
        cluster.core(1).counters().cycles < 200,
        "parked harts owe cycles"
    );
    assert_eq!(cluster.core_mut(1).counters().cycles, 200);
    // Releasing it by hand changes the census; the cluster recounts.
    cluster.core_mut(1).release_barrier();
    assert_eq!(cluster.hart_census().barrier, 2);
    system.step().unwrap();
    check(system.cluster(0));
    let census = system.cluster(0).hart_census();
    assert_eq!(census.barrier, 3, "hart 1 re-arrives");
    system.run(10_000).unwrap();
    assert_settled(system.cluster(0));
}

/// One round of a random park/release schedule: every hart delays, then
/// all park the same way.
#[derive(Debug, Clone, Copy)]
enum Park {
    Barrier,
    SystemBarrier,
    /// Hart 0 rings a transfer; every hart waits for it.
    Dma,
}

fn schedule_programs(
    harts: usize,
    rounds: &[(Park, [u32; 4])],
    deviant: Option<usize>,
) -> Vec<Program> {
    (0..harts)
        .map(|h| {
            let mut b = ProgramBuilder::new();
            let mut rung = 0;
            for (r, &(park, delays)) in rounds.iter().enumerate() {
                delay(&mut b, delays[h], &format!("d{r}"));
                // The deviant hart takes the other barrier in the last
                // round, deadlocking the cluster.
                let deviates = deviant == Some(h) && r + 1 == rounds.len();
                match (park, deviates) {
                    (Park::Barrier, false) | (Park::SystemBarrier, true) => {
                        b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
                    }
                    (Park::SystemBarrier, false) | (Park::Barrier | Park::Dma, true) => {
                        b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
                    }
                    (Park::Dma, false) => {
                        rung += 1;
                        if h == 0 {
                            ring(&mut b, 0x200);
                        }
                        dma_wait(&mut b, rung);
                    }
                }
            }
            b.ecall();
            b.build().unwrap()
        })
        .collect()
}

fn park() -> impl Strategy<Value = Park> {
    prop_oneof![
        Just(Park::Barrier),
        Just(Park::SystemBarrier),
        Just(Park::Dma)
    ]
}

proptest! {
    /// Random park/release schedules on a 1-cluster system: stepping
    /// cycle by cycle, every reader is settled against the clock and
    /// the census matches a recount; the same system event-scheduled
    /// reaches the identical cluster summary and trace rows, or the
    /// identical budget exit.
    #[test]
    fn random_park_schedules_read_settled(
        harts in 1usize..5,
        rounds in proptest::collection::vec((park(), (0u32..40, 0u32..40, 0u32..40, 0u32..40)), 1..4),
        latency in 1u32..120,
        deviant in 0usize..8,
    ) {
        let rounds: Vec<(Park, [u32; 4])> = rounds
            .into_iter()
            .map(|(p, (a, b, c, d))| (p, [a, b, c, d]))
            .collect();
        // Half the cases deadlock on a deviant hart (needs two harts).
        let deviant = (deviant < harts && harts > 1).then_some(deviant);
        let budget = 3_000;
        let programs = || schedule_programs(harts, &rounds, deviant);

        let stepped = session();
        let mut dense = one_cluster_system(programs(), Some(latency), SchedMode::Dense, &stepped);
        let (rows, dense_run) = step_checked(&mut dense, budget);
        rows.assert_in(&stepped);

        let event = session();
        let mut system = one_cluster_system(programs(), Some(latency), SchedMode::Event, &event);
        let event_run = system.run(budget).map(|mut s| s.per_cluster.remove(0));
        match (&dense_run, &event_run) {
            (Ok(_), Ok(_)) => {}
            (Err(d), Err(e)) => {
                prop_assert_eq!(d, &SystemError::MaxCyclesExceeded { max_cycles: budget });
                prop_assert_eq!(e, d);
            }
            (d, e) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverge: dense {d:?}, event {e:?}"
                )));
            }
        }
        let run = system.cluster(0);
        prop_assert_eq!(run.summary(), dense.cluster(0).summary());
        assert_settled(run);
        check(run);
        prop_assert_eq!(cluster_rows(&event), cluster_rows(&stepped));
        assert_rows_follow_clock(&event, 1, &run.summary().core_done_at);
    }
}
