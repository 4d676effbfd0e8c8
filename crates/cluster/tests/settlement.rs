//! Lazy-settlement and hart-census pins.
//!
//! A cluster steps only its runnable harts: a hart parked on the cluster
//! barrier, the system barrier or a blocking DMA wait is not touched, and
//! its `Core` owes every cycle since it parked until the cluster pays
//! them in closed form (on release, on every `run` exit, in `core_mut`).
//! Every reader must see the settled values anyway. These tests hold
//! harts parked for long windows and check the readers against the
//! cluster *clock* — not against another lazily settled run:
//!
//! * every non-halted hart's `summary()` cycles equal the clock, and its
//!   attribution leaves sum to them (`hart_counters`, `attr_snapshot`
//!   agree);
//! * the sampled per-core trace rows equal those settled counters;
//! * the census the cluster maintains equals a recount over the cores.
//!
//! A cluster always steps densely; only a system fast-forwards. The
//! event-mode halves therefore run the same programs as the one cluster
//! of a `System` (`one_cluster_system`) and require the stand-alone
//! cluster's summary and trace rows from it. A cluster owns no
//! background memory: the dense halves with a DMA engine step it
//! against a Dram the test holds (`step_with`).

use std::collections::HashMap;

use proptest::prelude::*;
use sc_cluster::{Cluster, ClusterBuilder, ClusterConfig, ClusterError, HartCensus};
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, IntReg, Program, ProgramBuilder};
use sc_mem::{Dram, DramConfig, L2Config, L2Outcome, TcdmConfig};
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

/// Every sample row of process `pid`, in emission order, with the pid
/// column dropped: a stand-alone cluster samples under pid 0, the
/// first cluster of a system under pid 1.
fn process_rows(session: &TraceSession, pid: u32) -> Vec<String> {
    let pid = pid.to_string();
    session
        .samples_csv()
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut f: Vec<&str> = line.split(',').collect();
            (f[1] == pid).then(|| {
                f.remove(1);
                f.join(",")
            })
        })
        .collect()
}

/// One dense cycle of a stand-alone cluster whose DMA engine (if any)
/// moves against `dram`, granted unconditionally on the memory side.
fn step_with(cluster: &mut Cluster, dram: Option<&mut Dram>) {
    cluster.begin_cycle().unwrap();
    cluster.end_cycle(L2Outcome::Granted, dram).unwrap();
}

/// `programs` as the only cluster of an event-scheduled system under
/// `session`. With `dma_latency`, the cluster gets a DMA engine behind
/// a pass-through L2 of that latency — cycle-identical to a
/// stand-alone cluster stepped against a Dram (`step_with`) by an
/// engine paying that latency.
fn one_cluster_system(
    programs: Vec<Program>,
    dma_latency: Option<u32>,
    session: &TraceSession,
) -> System {
    let harts = programs.len() as u32;
    let timing = dma_latency.map(|latency| DramConfig::new().with_latency(latency));
    let mut scfg =
        SystemConfig::new(1, harts).with_cluster(ClusterConfig::new(harts).with_core(cfg()));
    if let Some(timing) = timing {
        scfg = scfg.with_l2(L2Config::passthrough(timing));
    }
    let mut builder = SystemBuilder::new(scfg, vec![vec![programs]])
        .sched_mode(SchedMode::Event)
        .tracer(session.tracer());
    if let Some(timing) = timing {
        builder = builder.dram(Dram::new(timing));
    }
    builder.build()
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

/// Steps `cluster` to its halt against `dram`, checking every cycle;
/// returns the sampling points' rows.
fn step_checked(cluster: &mut Cluster, mut dram: Option<&mut Dram>, budget: u64) -> Rows {
    let mut rows = Rows::default();
    check(cluster);
    while !cluster.is_done() {
        assert!(cluster.cycles() < budget, "the program did not halt");
        step_with(cluster, dram.as_deref_mut());
        check(cluster);
        rows.record(cluster, 0);
    }
    cluster.sample_final();
    rows
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
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(4).with_core(cfg()),
        cluster_barrier_programs(),
    )
    .tracer(session.tracer(), 0)
    .build();
    // Step to the middle of the first window and confirm three harts
    // are parked there.
    while cluster.cycles() < 150 {
        cluster.step().unwrap();
    }
    assert_eq!(cluster.hart_census().barrier, 3, "harts 1-3 park early");
    let rows = step_checked(&mut cluster, None, 10_000);
    rows.assert_in(&session);
    let summary = cluster.summary();
    assert_eq!(summary.barriers, 2);
    assert_rows_follow_clock(&session, 0, &summary.core_done_at);
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
    let timing = DramConfig::new().with_latency(200);
    let mut dram = Dram::new(timing);
    let mut cluster = ClusterBuilder::new(ClusterConfig::new(2).with_core(cfg()), programs())
        .shared_dma(timing)
        .tracer(dense.tracer(), 0)
        .build();
    while cluster.cycles() < 100 {
        step_with(&mut cluster, Some(&mut dram));
    }
    assert_eq!(cluster.hart_census().dma_wait, 2, "both harts wait");
    let rows = step_checked(&mut cluster, Some(&mut dram), 10_000);
    rows.assert_in(&dense);
    let summary = cluster.summary();
    assert!(summary.cycles > 200, "the wait spans the Dram latency");
    assert_rows_follow_clock(&dense, 0, &summary.core_done_at);

    // A system's event loop skips the window; the rows it synthesizes
    // must read the same settled counters.
    let event = session();
    let mut system = one_cluster_system(programs(), Some(200), &event);
    let run = system.run(10_000).unwrap();
    assert_settled(system.cluster(0));
    assert_eq!(run.per_cluster[0], summary);
    assert_rows_follow_clock(&event, 1, &summary.core_done_at);
    assert_eq!(process_rows(&event, 1), process_rows(&dense, 0));
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
    let stepped = session();
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(3).with_core(cfg()),
        deadlocked_programs(),
    )
    .tracer(stepped.tracer(), 0)
    .build();
    let err = cluster.run(555).unwrap_err();
    assert_eq!(err, ClusterError::MaxCyclesExceeded { max_cycles: 555 });
    assert_eq!(cluster.cycles(), 555);
    assert_settled(&cluster);
    check(&cluster);
    assert_rows_follow_clock(&stepped, 0, &[555; 3]);

    // The same deadlock fast-forwarded to the budget by a system.
    let skipped = session();
    let mut system = one_cluster_system(deadlocked_programs(), None, &skipped);
    let err = system.run(555).unwrap_err();
    assert_eq!(err, SystemError::MaxCyclesExceeded { max_cycles: 555 });
    assert_eq!(system.cluster(0).cycles(), 555);
    assert_settled(system.cluster(0));
    check(system.cluster(0));
    assert_rows_follow_clock(&skipped, 1, &[555; 3]);
    assert_eq!(process_rows(&skipped, 1), process_rows(&stepped, 0));

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
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(4).with_core(cfg()),
        cluster_barrier_programs(),
    )
    .build();
    while cluster.cycles() < 200 {
        cluster.step().unwrap();
    }
    // Hart 1 has been parked for ~200 cycles: handing it out pays them.
    assert!(
        cluster.core(1).counters().cycles < 200,
        "parked harts owe cycles"
    );
    assert_eq!(cluster.core_mut(1).counters().cycles, 200);
    // Releasing it by hand changes the census; the cluster recounts.
    cluster.core_mut(1).release_barrier();
    assert_eq!(cluster.hart_census().barrier, 2);
    cluster.step().unwrap();
    check(&cluster);
    assert_eq!(cluster.hart_census().barrier, 3, "hart 1 re-arrives");
    cluster.run(10_000).unwrap();
    assert_settled(&cluster);
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
    /// Random park/release schedules: stepping cycle by cycle, every
    /// reader is settled against the clock and the census matches a
    /// recount; an event-scheduled 1-cluster system running the same
    /// programs reaches the identical cluster summary and trace rows,
    /// or the identical budget exit.
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
        let timing = DramConfig::new().with_latency(latency);
        let mut dram = Dram::new(timing);
        let mut cluster = ClusterBuilder::new(
            ClusterConfig::new(harts as u32).with_core(cfg()),
            programs(),
        )
        .shared_dma(timing)
        .tracer(stepped.tracer(), 0)
        .build();
        let mut rows = Rows::default();
        check(&cluster);
        while !cluster.is_done() && cluster.cycles() < budget {
            step_with(&mut cluster, Some(&mut dram));
            check(&cluster);
            rows.record(&cluster, 0);
        }
        let halted = cluster.is_done();
        if halted {
            cluster.sample_final();
        }
        rows.assert_in(&stepped);

        let event = session();
        let mut system = one_cluster_system(programs(), Some(latency), &event);
        match system.run(budget) {
            Ok(_) => prop_assert!(halted, "event run halted, stepped run did not"),
            Err(err) => {
                prop_assert!(!halted, "stepped run halted, event run: {}", err);
                prop_assert_eq!(err, SystemError::MaxCyclesExceeded { max_cycles: budget });
            }
        }
        let run = system.cluster(0);
        prop_assert_eq!(run.summary(), cluster.summary());
        assert_settled(run);
        check(run);
        prop_assert_eq!(process_rows(&event, 1), process_rows(&stepped, 0));
        assert_rows_follow_clock(&event, 1, &run.summary().core_done_at);
    }
}
