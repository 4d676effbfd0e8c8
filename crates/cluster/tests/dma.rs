//! Cluster ↔ DMA integration pins:
//!
//! * a program rings the `DMA_START` doorbell, polls `DMA_COMPLETED`,
//!   and reads DMA-delivered data from the TCDM,
//! * DMA-out transfers land in the background memory,
//! * DMA beats contend for banks (visible on the engine's port in the
//!   crossbar statistics),
//! * an attached-but-idle engine leaves the cluster bit-identical to
//!   one without an engine,
//! * an engine stepped without its external store fails with a typed
//!   error,
//! * a program load restarts halted cores with their state kept.
//!
//! A cluster owns no background memory and has no run loop: the tests
//! run the cluster as the one cluster of a `System`, behind a
//! pass-through L2 when its engine moves data, so the engine reads and
//! writes the system's Dram directly.

mod common;

use common::one_cluster;
use sc_cluster::{ClusterBuilder, ClusterConfig, ClusterError};
use sc_core::CoreConfig;
use sc_isa::{csr, IntReg, ProgramBuilder};
use sc_mem::{DramConfig, L2Outcome, Store, TcdmConfig};
use sc_system::SystemError;

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

const T0: IntReg = IntReg::new(5);
const T1: IntReg = IntReg::new(6);
const T2: IntReg = IntReg::new(7);

/// Emits CSR writes describing a 1-D transfer and rings the doorbell.
fn ring_doorbell(b: &mut ProgramBuilder, dram: u32, tcdm: u32, bytes: u32, to_tcdm: bool) {
    for (addr, value) in [
        (csr::DMA_SRC, dram),
        (csr::DMA_DST, tcdm),
        (csr::DMA_LEN, bytes),
        (csr::DMA_REPS, 1),
    ] {
        b.li(T0, value as i32);
        b.csrrw(IntReg::ZERO, addr, T0);
    }
    b.csrrwi(IntReg::ZERO, csr::DMA_START, u8::from(to_tcdm));
}

/// Emits a poll loop waiting until `DMA_COMPLETED >= count`.
fn wait_completed(b: &mut ProgramBuilder, count: u32, label: &str) {
    b.li(T1, count as i32);
    b.label(label);
    b.csrrs(T2, csr::DMA_COMPLETED, IntReg::ZERO);
    b.blt(T2, T1, label);
}

#[test]
fn doorbell_transfer_poll_read() {
    let mut b = ProgramBuilder::new();
    ring_doorbell(&mut b, 0x10_0000, 0x200, 32, true);
    wait_completed(&mut b, 1, "in_done");
    // Read the first delivered word into a register.
    b.li(T0, 0x200);
    b.lw(IntReg::new(10), T0, 0);
    // Write everything back to a different Dram region and wait again.
    ring_doorbell(&mut b, 0x20_0000, 0x200, 32, false);
    wait_completed(&mut b, 2, "out_done");
    b.ecall();
    let program = b.build().unwrap();

    let mut system = one_cluster(
        cfg(),
        vec![program],
        Some(DramConfig::new().with_latency(16)),
    )
    .build();
    let dram = system.dram_mut().unwrap();
    for i in 0..4u32 {
        dram.write_u64(0x10_0000 + 8 * i, u64::from(0xC0DE + i))
            .unwrap();
    }

    let summary = system.run(100_000).unwrap().per_cluster.remove(0);
    let cluster = system.cluster(0);
    assert_eq!(cluster.core(0).int_reg(IntReg::new(10)), 0xC0DE);
    for i in 0..4u32 {
        assert_eq!(
            cluster.tcdm().read_u64(0x200 + 8 * i).unwrap(),
            u64::from(0xC0DE + i),
            "inbound transfer word {i}"
        );
        assert_eq!(
            system.dram().unwrap().read_u64(0x20_0000 + 8 * i).unwrap(),
            u64::from(0xC0DE + i),
            "outbound transfer word {i}"
        );
    }
    let dma = summary.dma.expect("dma summary present");
    assert_eq!(dma.stats.transfers_completed, 2);
    assert_eq!(dma.stats.beats, 8);
    assert_eq!(dma.stats.bytes_to_tcdm, 32);
    assert_eq!(dma.stats.bytes_from_tcdm, 32);
    assert!(dma.busy_cycles >= 8 + 2 * 16, "latency paid twice");
    // The engine's beats were granted on its own port, after the core's.
    let ppc = cluster.config().ports_per_core();
    let (accesses, _) = cluster.tcdm().stats().totals_of_port_range(ppc..ppc + 1);
    assert_eq!(accesses, 8, "all DMA beats charged to the engine's port");
}

#[test]
fn invalid_descriptor_is_a_hart_tagged_error() {
    let mut b = ProgramBuilder::new();
    // Misaligned length: 12 bytes.
    ring_doorbell(&mut b, 0x1000, 0x100, 12, true);
    b.ecall();
    let mut system = one_cluster(cfg(), vec![b.build().unwrap()], Some(DramConfig::new())).build();
    let err = system.run(10_000).unwrap_err();
    let SystemError::Cluster {
        cluster: 0,
        source: source @ ClusterError::Dma { hart: Some(0), .. },
    } = &err
    else {
        panic!("expected cluster 0's hart-tagged DMA error, got: {err}");
    };
    let msg = source.to_string();
    assert!(
        msg.contains("hart 0") && msg.contains("row_bytes"),
        "unexpected error: {msg}"
    );
}

#[test]
fn idle_engine_is_cycle_invisible() {
    // Same 2-hart program with and without an attached (idle) engine:
    // every cycle-visible quantity must match bit-for-bit.
    let programs = || {
        (0..2)
            .map(|_| {
                let mut b = ProgramBuilder::new();
                // A little TCDM traffic so arbitration actually runs.
                b.li(T0, 0x300);
                b.li(T1, 77);
                b.sw(T1, T0, 0);
                b.lw(T2, T0, 0);
                b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
                b.ecall();
                b.build().unwrap()
            })
            .collect::<Vec<_>>()
    };
    let run = |dma| {
        let mut system = one_cluster(cfg(), programs(), dma).build();
        system.run(10_000).unwrap().per_cluster.remove(0)
    };
    let a = run(None);
    let b = run(Some(DramConfig::new()));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.core_conflicts, b.core_conflicts);
    assert_eq!(a.conflicts_by_bank, b.conflicts_by_bank);
    let dma = b.dma.expect("summary carries an (idle) dma section");
    assert_eq!(dma.busy_cycles, 0);
    assert_eq!(dma.stats.beats, 0);
}

#[test]
fn shared_engine_without_external_store_is_an_error() {
    let mut b = ProgramBuilder::new();
    ring_doorbell(&mut b, 0x1000, 0x100, 32, true);
    wait_completed(&mut b, 1, "done");
    b.ecall();
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![b.build().unwrap()],
    )
    .shared_dma(DramConfig::new())
    .build();
    // Every cycle before the engine's first beat completes without the
    // store; the beat's cycle reports the missing store instead of
    // panicking.
    for _ in 0..1_000 {
        let beat = cluster.begin_cycle().unwrap();
        let outcome = cluster.end_cycle(L2Outcome::Granted, None);
        if beat.is_none() {
            outcome.unwrap();
            continue;
        }
        let err = outcome.unwrap_err();
        assert_eq!(err, ClusterError::MissingExternalStore);
        assert!(err.to_string().contains("external store"), "{err}");
        assert!(std::error::Error::source(&err).is_none());
        return;
    }
    panic!("the engine never moved a beat");
}

#[test]
fn load_programs_restarts_halted_cores_with_state_kept() {
    let mut first = ProgramBuilder::new();
    first.li(IntReg::new(10), 41);
    first.ecall();
    let mut system = one_cluster(cfg(), vec![first.build().unwrap()], None).build();
    system.run(1_000).unwrap();
    let cycles_after_first = system.cluster(0).cycles();

    // The second program sees the register the first one wrote.
    let mut second = ProgramBuilder::new();
    second.addi(IntReg::new(10), IntReg::new(10), 1);
    second.ecall();
    let cluster = system.cluster_mut(0);
    cluster.load_programs(vec![second.build().unwrap()]);
    assert!(!cluster.is_done());
    // Cycles and counters accumulate across the load: the cluster steps
    // on from where the first program halted.
    let mut cycles = 0;
    while !cluster.is_done() {
        cluster.begin_cycle().unwrap();
        cluster.end_cycle(L2Outcome::Granted, None).unwrap();
        cycles += 1;
        assert!(cycles < 2_000, "the second program did not halt");
    }
    assert_eq!(cluster.core(0).int_reg(IntReg::new(10)), 42);
    assert_eq!(cluster.cycles(), cycles_after_first + cycles);
    assert!(
        cluster.summary().cycles > cycles_after_first,
        "cycles accumulate"
    );
}
