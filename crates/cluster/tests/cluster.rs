//! Cluster-level integration tests with hand-built per-hart programs:
//! hart identity, barrier rendezvous timing, inter-core bank contention
//! and shared-memory dataflow. Each runs its cluster as the one cluster
//! of a `System`, the only driver of a cluster.

mod common;

use common::one_cluster;
use sc_cluster::{ClusterError, ClusterSummary};
use sc_core::{CoreConfig, SimError};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{Store, TcdmConfig};
use sc_system::{System, SystemError};

fn t(i: u8) -> IntReg {
    IntReg::new(i)
}

fn f(i: u8) -> FpReg {
    FpReg::new(i)
}

fn small_cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

/// `programs` on one cluster of `small_cfg` cores.
fn system(programs: Vec<Program>) -> System {
    one_cluster(small_cfg(), programs, None).build()
}

/// Runs `system` to completion; its cluster's summary.
fn run(system: &mut System, max_cycles: u64) -> Result<ClusterSummary, SystemError> {
    Ok(system.run(max_cycles)?.per_cluster.remove(0))
}

/// A program that spins for roughly `iters` loop iterations, then writes
/// `mcycle` to `out_addr`, rendezvouses and halts.
fn spin_then_barrier(iters: u32, out_addr: u32) -> Program {
    let mut b = ProgramBuilder::new();
    if iters > 0 {
        b.li(t(10), 0);
        b.li(t(11), iters as i32);
        b.label("spin");
        b.addi(t(10), t(10), 1);
        b.bne(t(10), t(11), "spin");
    }
    b.csrrwi(t(12), csr::CLUSTER_BARRIER, 0);
    // Read mcycle right after release: every released hart must observe
    // the same value, proving the rendezvous released them together.
    b.csrrs(t(13), csr::MCYCLE, IntReg::ZERO);
    b.li(t(14), out_addr as i32);
    b.sw(t(13), t(14), 0);
    b.ecall();
    b.build().unwrap()
}

#[test]
fn barrier_releases_all_harts_in_the_same_cycle() {
    // Hart 0 spins ~10× longer than the others; after the barrier all
    // four harts read identical mcycle values.
    let programs = (0..4)
        .map(|h| spin_then_barrier(if h == 0 { 200 } else { 20 }, 0x200 + h * 4))
        .collect();
    let mut system = system(programs);
    let summary = run(&mut system, 100_000).unwrap();
    let cluster = system.cluster(0);
    assert_eq!(summary.barriers, 1);
    let released: Vec<u32> = (0..4)
        .map(|h| cluster.tcdm().read_u32(0x200 + h * 4).unwrap())
        .collect();
    assert!(
        released.iter().all(|c| *c == released[0]),
        "all harts must leave the barrier together, got {released:?}"
    );
    // The slow hart dominates: everyone's release happens after its spin.
    assert!(
        released[0] > 200,
        "release at cycle {} must follow the long spin",
        released[0]
    );
    for hart in 0..4 {
        assert_eq!(cluster.core(hart).barriers_completed(), 1);
    }
}

#[test]
fn halted_harts_leave_the_rendezvous() {
    // Hart 0 halts without ever reaching a barrier; harts 1 and 2 still
    // rendezvous among the remaining active harts.
    let mut b = ProgramBuilder::new();
    b.ecall();
    let quit = b.build().unwrap();
    let programs = vec![
        quit,
        spin_then_barrier(50, 0x300),
        spin_then_barrier(5, 0x304),
    ];
    let mut system = system(programs);
    let summary = run(&mut system, 100_000).unwrap();
    let cluster = system.cluster(0);
    assert_eq!(summary.barriers, 1);
    assert_eq!(
        cluster.tcdm().read_u32(0x300).unwrap(),
        cluster.tcdm().read_u32(0x304).unwrap()
    );
}

#[test]
fn missing_rendezvous_is_a_deadlock_not_a_hang() {
    // Hart 1 waits forever on a barrier hart 0 never issues (hart 0
    // spins past the budget).
    let mut spin = ProgramBuilder::new();
    spin.label("forever");
    spin.j("forever");
    let programs = vec![spin.build().unwrap(), spin_then_barrier(1, 0x300)];
    assert_eq!(
        run(&mut system(programs), 2_000).unwrap_err(),
        SystemError::MaxCyclesExceeded { max_cycles: 2_000 }
    );
}

#[test]
fn core_errors_carry_the_hart_id() {
    let mut ok = ProgramBuilder::new();
    ok.ecall();
    let mut bad = ProgramBuilder::new();
    bad.push(sc_isa::Instruction::Ebreak);
    let programs = vec![ok.build().unwrap(), bad.build().unwrap()];
    match run(&mut system(programs), 1_000) {
        Err(SystemError::Cluster {
            cluster: 0,
            source:
                ClusterError::Core {
                    hart: 1,
                    source: SimError::Ebreak { .. },
                },
        }) => {}
        other => panic!("expected hart-1 ebreak, got {other:?}"),
    }
}

/// Per-hart program: `fld`/`fadd`/`fsd` over `n` doubles starting at
/// `in_base`, writing to `out_base` — all explicit memory operations so
/// the TCDM sees steady per-core traffic.
fn vector_add_one(in_base: u32, out_base: u32, n: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(t(10), in_base as i32);
    b.li(t(11), out_base as i32);
    b.li(t(12), 0);
    b.li(t(13), n as i32);
    b.label("loop");
    b.fld(f(4), t(10), 0);
    b.fadd_d(f(5), f(4), f(4));
    b.fsd(f(5), t(11), 0);
    b.addi(t(10), t(10), 8);
    b.addi(t(11), t(11), 8);
    b.addi(t(12), t(12), 1);
    b.bne(t(12), t(13), "loop");
    b.ecall();
    b.build().unwrap()
}

#[test]
fn cores_contend_on_shared_banks_and_all_results_land() {
    // Two harts walk interleaved addresses hitting the same banks; with 2
    // banks the LSU streams collide constantly but the functional result
    // must still be exact, and both cores must make progress (fairness).
    let cfg = CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(2));
    let n = 32u32;
    let programs = vec![
        vector_add_one(0x1000, 0x3000, n),
        vector_add_one(0x1000, 0x4000, n), // same input region: same banks
    ];
    let mut system = one_cluster(cfg, programs, None).build();
    for k in 0..n {
        system
            .cluster_mut(0)
            .tcdm_mut()
            .write_f64(0x1000 + 8 * k, f64::from(k) * 0.5)
            .unwrap();
    }
    let summary = run(&mut system, 100_000).unwrap();
    let cluster = system.cluster(0);
    for k in 0..n {
        let want = f64::from(k);
        assert_eq!(cluster.tcdm().read_f64(0x3000 + 8 * k).unwrap(), want);
        assert_eq!(cluster.tcdm().read_f64(0x4000 + 8 * k).unwrap(), want);
    }
    // Contention must be visible in the cluster breakdown and attributed
    // to both cores (fair arbitration denies each side sometimes).
    assert!(
        summary.aggregate.tcdm_conflicts > 0,
        "same-bank traffic must conflict"
    );
    assert_eq!(
        summary.core_conflicts.iter().sum::<u64>(),
        summary.aggregate.tcdm_conflicts,
        "per-core conflicts must partition the total"
    );
    assert_eq!(
        summary.conflicts_by_bank.iter().sum::<u64>(),
        summary.aggregate.tcdm_conflicts,
        "per-bank conflicts must partition the total"
    );
    assert!(summary.core_accesses.iter().all(|a| *a > 0));
}

#[test]
fn producer_consumer_through_shared_memory_and_barrier() {
    // Hart 0 writes a vector, both harts rendezvous, hart 1 reduces it.
    let n = 8u32;
    let mut producer = ProgramBuilder::new();
    producer.li(t(10), 0x1000);
    producer.li(t(12), 0);
    producer.li(t(13), n as i32);
    producer.label("fill");
    producer.fcvt_d_w(f(4), t(12));
    producer.fsd(f(4), t(10), 0);
    producer.addi(t(10), t(10), 8);
    producer.addi(t(12), t(12), 1);
    producer.bne(t(12), t(13), "fill");
    producer.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
    producer.ecall();

    let mut consumer = ProgramBuilder::new();
    consumer.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
    consumer.li(t(10), 0x1000);
    consumer.li(t(12), 0);
    consumer.li(t(13), n as i32);
    consumer.fmv_d(f(6), f(0)); // f6 = 0.0 accumulator (f0 never written)
    consumer.label("sum");
    consumer.fld(f(4), t(10), 0);
    consumer.fadd_d(f(6), f(6), f(4));
    consumer.addi(t(10), t(10), 8);
    consumer.addi(t(12), t(12), 1);
    consumer.bne(t(12), t(13), "sum");
    consumer.fsd(f(6), t(13), 0x2000 - 8);
    consumer.ecall();

    let programs = vec![producer.build().unwrap(), consumer.build().unwrap()];
    let mut system = system(programs);
    run(&mut system, 100_000).unwrap();
    let want: f64 = (0..n).map(f64::from).sum();
    assert_eq!(system.cluster(0).tcdm().read_f64(0x2000).unwrap(), want);
}

#[test]
fn repeated_runs_are_deterministic() {
    let build = || {
        let programs = (0..4)
            .map(|h| vector_add_one(0x1000 + h * 64, 0x5000 + h * 512, 16))
            .collect();
        let mut system = system(programs);
        for k in 0..64u32 {
            system
                .cluster_mut(0)
                .tcdm_mut()
                .write_f64(0x1000 + 8 * k, f64::from(k))
                .unwrap();
        }
        system
    };
    let a = run(&mut build(), 1_000_000).unwrap();
    let b = run(&mut build(), 1_000_000).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core_done_at, b.core_done_at);
    assert_eq!(a.core_conflicts, b.core_conflicts);
    assert_eq!(a.conflicts_by_bank, b.conflicts_by_bank);
    for (sa, sb) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(sa.counters, sb.counters);
    }
}

#[test]
fn summary_aggregates_match_per_core_sums() {
    let programs = (0..3)
        .map(|h| vector_add_one(0x1000, 0x3000 + h * 512, 8))
        .collect();
    let mut system = system(programs);
    for k in 0..8u32 {
        system
            .cluster_mut(0)
            .tcdm_mut()
            .write_f64(0x1000 + 8 * k, 1.0 + f64::from(k))
            .unwrap();
    }
    let s = run(&mut system, 100_000).unwrap();
    assert_eq!(s.per_core.len(), 3);
    let flops: u64 = s.per_core.iter().map(|c| c.counters.flops).sum();
    assert_eq!(s.aggregate.flops, flops);
    let accesses: u64 = s.per_core.iter().map(|c| c.counters.tcdm_accesses).sum();
    assert_eq!(s.aggregate.tcdm_accesses, accesses);
    assert_eq!(
        s.aggregate.tcdm_accesses,
        s.core_accesses.iter().sum::<u64>()
    );
    assert_eq!(s.cycles, *s.core_done_at.iter().max().unwrap());
    // Cores halting at different times keep their own cycle counts.
    for c in &s.per_core {
        assert!(c.cycles <= s.cycles);
    }
}
