//! The census a cluster maintains at transitions, and the rendezvous
//! totals a system keeps from it, against fresh recounts.
//!
//! A cluster classifies a stepped hart only when its core reports a park
//! or a halt, and a system re-reads its clusters' barrier census only in
//! a cycle in which one of them reports a halt or a system-barrier
//! arrival. Random multi-cluster programs — cluster barriers, system
//! barriers, DMA waits, early halts, several stages per cluster, with
//! and without per-core issue traces (a tracing hart stays runnable
//! while parked) — are stepped one `System::step` at a time, and after
//! every cycle:
//!
//! * each cluster's maintained census equals [`HartCensus::count`] over
//!   its cores;
//! * each cluster's runnable list is exactly its harts that are not
//!   halted and whose `Core::wake` is `Wake::EveryCycle`, in hart order;
//! * the system's running `system_barrier_census` equals the sum of its
//!   clusters' (a finished cluster's harts have all halted and count
//!   nothing).

use proptest::prelude::*;
use sc_cluster::{Cluster, ClusterConfig, HartCensus};
use sc_core::{CoreConfig, Wake};
use sc_isa::{csr, IntReg, Program, ProgramBuilder};
use sc_mem::{Dram, DramConfig, L2Config, TcdmConfig};
use sc_system::{System, SystemBuilder, SystemConfig};

const T0: IntReg = IntReg::new(5);
const T1: IntReg = IntReg::new(6);

#[derive(Debug, Clone, Copy)]
enum Park {
    Barrier,
    SystemBarrier,
    /// Hart 0 rings a transfer; every hart of the cluster waits for it.
    Dma,
}

fn park() -> impl Strategy<Value = Park> {
    prop_oneof![
        Just(Park::Barrier),
        Just(Park::SystemBarrier),
        Just(Park::Dma)
    ]
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

/// One stage's program for hart `hart`: the stage's rounds up to the
/// hart's own early halt, each after a hart-specific delay. `rung`
/// holds the cluster's transfer count before the stage (the engine's
/// completion counter runs on across stages) and is advanced past the
/// stage's transfers.
fn stage_program(
    rounds: &[Park],
    delays: &[u32],
    halt_after: usize,
    hart: usize,
    rung: &mut u32,
) -> Program {
    let mut b = ProgramBuilder::new();
    for (r, &park) in rounds.iter().enumerate().take(halt_after) {
        delay(&mut b, delays[(r + hart) % delays.len()], &format!("d{r}"));
        match park {
            Park::Barrier => {
                b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            }
            Park::SystemBarrier => {
                b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
            }
            Park::Dma => {
                *rung += 1;
                if hart == 0 {
                    for (addr, value) in [
                        (csr::DMA_SRC, 0x10_0000),
                        (csr::DMA_DST, 0x200),
                        (csr::DMA_LEN, 64),
                        (csr::DMA_REPS, 1),
                    ] {
                        b.li(T0, value);
                        b.csrrw(IntReg::ZERO, addr, T0);
                    }
                    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
                }
                b.li(T1, *rung as i32);
                b.csrrw(IntReg::new(10), csr::DMA_WAIT, T1);
            }
        }
    }
    b.ecall();
    b.build().unwrap()
}

/// Checks every maintained count against a recount from the cores.
fn check(system: &System) {
    let now = system.cycles();
    let (mut waiting, mut active) = (0, 0);
    for c in 0..system.num_clusters() {
        let cluster: &Cluster = system.cluster(c);
        let cores = (0..cluster.num_cores()).map(|h| cluster.core(h));
        assert_eq!(
            cluster.hart_census(),
            HartCensus::count(cores),
            "cycle {now}: cluster {c} census"
        );
        let runnable: Vec<usize> = (0..cluster.num_cores())
            .filter(|&h| {
                let core = cluster.core(h);
                !core.is_halted() && core.wake() == Wake::EveryCycle
            })
            .collect();
        assert_eq!(
            cluster.runnable_harts(),
            runnable.as_slice(),
            "cycle {now}: cluster {c} runnable list"
        );
        let (w, a) = cluster.system_barrier_census();
        waiting += w;
        active += a;
    }
    assert_eq!(
        system.system_barrier_census(),
        (waiting, active),
        "cycle {now}: system rendezvous totals"
    );
}

proptest! {
    #[test]
    fn maintained_census_matches_recount(
        clusters in 1usize..4,
        harts in 1usize..4,
        stages in proptest::collection::vec(
            (proptest::collection::vec(park(), 1..4), 1usize..4),
            1..4,
        ),
        delays in proptest::collection::vec(0u32..25, 1..6),
        halts in proptest::collection::vec(0usize..5, 1..8),
        latency in 1u32..40,
        trace in any::<bool>(),
    ) {
        // Cluster `c` runs the first few stages (a count drawn per
        // cluster); hart `h` of cluster `c` halts after a hart-specific
        // number of rounds in every stage.
        let core = CoreConfig::new()
            .with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
            .with_trace(trace);
        let per_cluster: Vec<Vec<Vec<Program>>> = (0..clusters)
            .map(|c| {
                let mut rung = 0;
                let count = stages[c % stages.len()].1.min(stages.len());
                stages[..count]
                    .iter()
                    .map(|(rounds, _)| {
                        let before = rung;
                        (0..harts)
                            .map(|h| {
                                let halt = halts[(c * harts + h) % halts.len()].max(1);
                                let mut hart_rung = before;
                                let p = stage_program(rounds, &delays, halt, h, &mut hart_rung);
                                rung = rung.max(hart_rung);
                                p
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let cfg = SystemConfig::new(clusters as u32, harts as u32)
            .with_cluster(ClusterConfig::new(harts as u32).with_core(core))
            .with_l2(L2Config::passthrough(DramConfig::new().with_latency(latency)));
        let mut system = SystemBuilder::new(cfg, per_cluster)
            .dram(Dram::new(DramConfig::new()))
            .build();
        check(&system);
        // Programs whose harts halt early or wait on an unrung transfer
        // deadlock; the budget bounds them.
        while !system.is_done() && system.cycles() < 4_000 {
            system.step().expect("no program here faults");
            check(&system);
        }
    }
}
