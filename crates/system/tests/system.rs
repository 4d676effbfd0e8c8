//! System correctness pins:
//!
//! * a 1-cluster system behind a **pass-through L2** must match a
//!   stand-alone `Cluster` stepped straight against the Dram
//!   cycle-for-cycle (and counter-for-counter), DMA traffic and the
//!   stage loop included,
//! * multi-cluster DMA traffic genuinely contends at the shared L2
//!   (conflicts appear when banks shrink, refills serialise),
//! * the inter-cluster barrier rendezvouses every hart of every
//!   cluster, and deadlocks surface as budget errors.

use sc_cluster::{ClusterBuilder, ClusterConfig};
use sc_core::CoreConfig;
use sc_isa::{csr, IntReg, Program, ProgramBuilder};
use sc_mem::{Dram, DramConfig, L2Config, L2Outcome, Store};
use sc_system::{SystemBuilder, SystemConfig, SystemError};

/// A program that rings the DMA doorbell for a `bytes`-byte fetch from
/// `dram_addr` to `tcdm_addr`, polls the completion counter, then halts.
fn dma_fetch_program(dram_addr: u32, tcdm_addr: u32, bytes: u32, wait_count: u32) -> Program {
    let t = IntReg::new(5);
    let cnt = IntReg::new(6);
    let tgt = IntReg::new(7);
    let mut b = ProgramBuilder::new();
    for (addr, value) in [
        (csr::DMA_SRC, dram_addr),
        (csr::DMA_DST, tcdm_addr),
        (csr::DMA_LEN, bytes),
        (csr::DMA_SRC_STRIDE, bytes),
        (csr::DMA_DST_STRIDE, bytes),
        (csr::DMA_REPS, 1),
    ] {
        b.li(t, value as i32);
        b.csrrw(IntReg::ZERO, addr, t);
    }
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
    b.li(tgt, wait_count as i32);
    b.label("wait");
    b.csrrs(cnt, csr::DMA_COMPLETED, IntReg::ZERO);
    b.blt(cnt, tgt, "wait");
    b.ecall();
    b.build().unwrap()
}

fn idle_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.ecall();
    b.build().unwrap()
}

#[test]
fn one_cluster_passthrough_system_is_cycle_identical_to_cluster() {
    // The tentpole invariant: System{clusters: 1} over a pass-through
    // L2 performs exactly the same cycle sequence as a stand-alone
    // Cluster whose engine moves straight against the Dram — DMA
    // latency, beat timing, TCDM arbitration and the stage loop
    // (fetch, then write back) included.
    let dram_cfg = DramConfig::new().with_latency(16);
    let stages = vec![
        vec![dma_fetch_program(0x1000, 0x200, 64, 1), idle_program()],
        vec![dma_store_program(0x3000, 0x200, 64, 2), idle_program()],
    ];
    let staged = || {
        let mut dram = Dram::new(dram_cfg);
        for i in 0..8u32 {
            dram.write_u64(0x1000 + 8 * i, u64::from(i) * 5 + 1)
                .unwrap();
        }
        dram
    };

    // The reference: one cluster stepped cycle by cycle against the
    // Dram, the next stage loaded when its cores halt.
    let ccfg = ClusterConfig::new(2).with_core(CoreConfig::new());
    let mut dram = staged();
    let mut cluster = ClusterBuilder::new(ccfg, stages[0].clone())
        .shared_dma(dram_cfg)
        .build();
    for (i, stage) in stages.iter().enumerate() {
        if i > 0 {
            cluster.load_programs(stage.clone());
        }
        while !cluster.is_done() {
            cluster.begin_cycle().unwrap();
            cluster
                .end_cycle(L2Outcome::Granted, Some(&mut dram))
                .unwrap();
        }
    }
    let cluster_summary = cluster.summary();

    let scfg = SystemConfig::new(1, 2).with_l2(L2Config::passthrough(dram_cfg));
    let mut system = SystemBuilder::new(scfg, vec![stages])
        .dram(staged())
        .build();
    let system_summary = system.run(100_000).unwrap();

    assert_eq!(
        cluster_summary.cycles, system_summary.cycles,
        "pass-through system must be cycle-identical to the cluster"
    );
    assert_eq!(cluster_summary, system_summary.per_cluster[0]);
    for i in 0..8u32 {
        let want = u64::from(i) * 5 + 1;
        assert_eq!(
            system.cluster(0).tcdm().read_u64(0x200 + 8 * i).unwrap(),
            want
        );
        assert_eq!(cluster.tcdm().read_u64(0x200 + 8 * i).unwrap(), want);
        assert_eq!(
            system.dram().unwrap().read_u64(0x3000 + 8 * i).unwrap(),
            want
        );
        assert_eq!(dram.read_u64(0x3000 + 8 * i).unwrap(), want);
    }
    let l2 = system_summary.l2.unwrap();
    assert_eq!(l2.accesses, 16, "one L2 access per beat");
    assert_eq!(l2.conflicts, 0, "a lone cluster never conflicts");
    assert_eq!(l2.refills(), 0, "pass-through never refills");
}

#[test]
fn clusters_contend_at_the_shared_l2() {
    // Two clusters streaming simultaneously from the same L2 must slow
    // each other down when the L2 narrows to one bank, and an L2 wide
    // enough must let them overlap.
    let run = |banks: u32| {
        let l2 = L2Config::new()
            .with_refill(false)
            .with_banks(banks)
            .with_latency(0);
        let scfg = SystemConfig::new(2, 1).with_l2(l2);
        let stages = (0..2u32)
            .map(|c| vec![vec![dma_fetch_program(0x1000 + c * 0x800, 0x200, 512, 1)]])
            .collect();
        let mut dram = Dram::new(DramConfig::new());
        for i in 0..256u32 {
            dram.write_u64(0x1000 + 8 * i, u64::from(i)).unwrap();
        }
        let mut system = SystemBuilder::new(scfg, stages).dram(dram).build();
        let summary = system.run(100_000).unwrap();
        (summary.cycles, summary.l2.unwrap())
    };
    let (wide_cycles, wide_l2) = run(8);
    let (narrow_cycles, narrow_l2) = run(1);
    assert!(
        narrow_l2.conflicts > wide_l2.conflicts,
        "one bank must conflict more: {} vs {}",
        narrow_l2.conflicts,
        wide_l2.conflicts
    );
    assert!(
        narrow_cycles > wide_cycles,
        "conflicts must cost cycles: {narrow_cycles} vs {wide_cycles}"
    );
    // Fair arbitration: both clusters moved all 64 of their beats.
    assert_eq!(narrow_l2.accesses_by_cluster, vec![64, 64]);
}

#[test]
fn cold_l2_refills_charge_and_warm_reruns_speed_up() {
    let l2 = L2Config::new().with_line_bytes(256);
    let scfg = SystemConfig::new(1, 1).with_l2(l2);
    // Two identical fetch stages: the first is cold, the second hits
    // warm lines.
    let prog = |wait| vec![dma_fetch_program(0x1000, 0x200, 256, wait)];
    let mut dram = Dram::new(DramConfig::new());
    dram.write_u64(0x1000, 77).unwrap();
    let mut system = SystemBuilder::new(scfg, vec![vec![prog(1), prog(2)]])
        .dram(dram)
        .build();
    let summary = system.run(1_000_000).unwrap();
    let l2 = summary.l2.unwrap();
    assert_eq!(l2.refills(), 1, "256 B fetch twice = one cold line");
    assert_eq!(summary.l2_refill_beats, 32);
    assert!(l2.refill_stalls() > 0);
    assert_eq!(system.cluster(0).tcdm().read_u64(0x200).unwrap(), 77);
}

/// A program that rings the doorbell for a `bytes`-byte write-back from
/// `tcdm_addr` to `dram_addr`, polls the counter, then halts.
fn dma_store_program(dram_addr: u32, tcdm_addr: u32, bytes: u32, wait_count: u32) -> Program {
    let t = IntReg::new(5);
    let cnt = IntReg::new(6);
    let tgt = IntReg::new(7);
    let mut b = ProgramBuilder::new();
    for (addr, value) in [
        (csr::DMA_SRC, dram_addr),
        (csr::DMA_DST, tcdm_addr),
        (csr::DMA_LEN, bytes),
        (csr::DMA_SRC_STRIDE, bytes),
        (csr::DMA_DST_STRIDE, bytes),
        (csr::DMA_REPS, 1),
    ] {
        b.li(t, value as i32);
        b.csrrw(IntReg::ZERO, addr, t);
    }
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 0);
    b.li(tgt, wait_count as i32);
    b.label("wait");
    b.csrrs(cnt, csr::DMA_COMPLETED, IntReg::ZERO);
    b.blt(cnt, tgt, "wait");
    b.ecall();
    b.build().unwrap()
}

#[test]
fn finite_l2_evicts_and_writes_back_through_the_whole_system() {
    // A 1 KiB direct-mapped write-back L2 under a 4 KiB output stream:
    // the DMA engine's TCDM→Dram beats dirty 64 lines through 16 slots,
    // so capacity pressure must evict dirty lines and the summary must
    // carry the write-back beats sc-energy charges.
    let l2 = L2Config::new()
        .with_line_bytes(64)
        .with_capacity_bytes(1 << 10)
        .with_ways(1)
        .with_write_back(true);
    let scfg = SystemConfig::new(1, 1).with_l2(l2);
    let mut dram = Dram::new(DramConfig::new());
    dram.write_u64(0x0, 0).unwrap(); // touch so the store exists
    let mut system = SystemBuilder::new(
        scfg,
        vec![vec![vec![dma_store_program(0x1000, 0x200, 4096, 1)]]],
    )
    .dram(dram)
    .build();
    let summary = system.run(1_000_000).unwrap();
    let l2_stats = summary.l2.unwrap();
    assert_eq!(l2_stats.cache.write_beats, 512, "4 KiB = 512 beats");
    assert_eq!(
        l2_stats.cache.evictions, 48,
        "64 dirty lines through 16 slots"
    );
    assert_eq!(l2_stats.cache.dirty_evictions, 48);
    assert_eq!(summary.l2_writeback_beats, 48 * 8);
    assert_eq!(
        summary.l2_refill_beats, 0,
        "pure write streams never refill"
    );
    // The functional image is intact regardless of the timing model.
    for i in 0..8u32 {
        assert!(system.dram().unwrap().read_u64(0x1000 + 8 * i).is_ok());
    }
}

#[test]
fn dma_stats_split_miss_waits_from_bank_conflicts() {
    // One cluster fetching cold lines through a refilling L2: every
    // engine stall on the shared side is a *miss* wait (there is nobody
    // to lose bank arbitration to), and the split subset must account
    // for all of them.
    let scfg = SystemConfig::new(1, 1).with_l2(L2Config::new().with_line_bytes(64));
    let mut dram = Dram::new(DramConfig::new());
    for i in 0..32u32 {
        dram.write_u64(0x1000 + 8 * i, u64::from(i)).unwrap();
    }
    let mut system = SystemBuilder::new(
        scfg,
        vec![vec![vec![dma_fetch_program(0x1000, 0x200, 256, 1)]]],
    )
    .dram(dram)
    .build();
    let summary = system.run(1_000_000).unwrap();
    let dma = summary.per_cluster[0].dma.unwrap();
    assert!(
        dma.stats.l2_wait_cycles > 0,
        "cold lines must stall the engine"
    );
    assert_eq!(
        dma.stats.l2_miss_wait_cycles, dma.stats.l2_wait_cycles,
        "a lone cluster's only L2 stalls are miss waits"
    );
}

#[test]
fn system_barrier_rendezvous_and_deadlock() {
    let waiter = {
        let mut b = ProgramBuilder::new();
        b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
        b.ecall();
        b.build().unwrap()
    };
    // A hart that halts without arriving leaves the rendezvous (same
    // convention as the cluster barrier): the remaining harts release.
    let scfg = SystemConfig::new(2, 1);
    let mut system = SystemBuilder::new(
        scfg,
        vec![vec![vec![waiter.clone()]], vec![vec![idle_program()]]],
    )
    .build();
    let summary = system.run(1_000).unwrap();
    assert_eq!(summary.system_barriers, 1);

    // A hart that never arrives but keeps *running* deadlocks the
    // rendezvous, surfacing as a budget error rather than a hang.
    let spinner = {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        b.build().unwrap()
    };
    let mut system = SystemBuilder::new(
        SystemConfig::new(2, 1),
        vec![vec![vec![waiter]], vec![vec![spinner]]],
    )
    .build();
    let err = system.run(1_000).unwrap_err();
    assert!(matches!(err, SystemError::MaxCyclesExceeded { .. }));
}

#[test]
fn barrier_waits_for_a_cluster_between_stages() {
    // Regression: the rendezvous census once ran before the stage
    // advance, so a cluster that had just halted stage N with stage N+1
    // queued counted as inactive — a sibling's barrier released without
    // it (and each hart's solo "rendezvous" double-counted episodes).
    // Cluster 0 arrives at the barrier immediately; cluster 1 burns a
    // stage of busy-work first and only reaches its barrier in stage 2.
    let barrier_then_halt = {
        let mut b = ProgramBuilder::new();
        b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
        b.ecall();
        b.build().unwrap()
    };
    let busy_work = {
        let mut b = ProgramBuilder::new();
        let (i, n) = (IntReg::new(10), IntReg::new(11));
        b.li(i, 0);
        b.li(n, 50);
        b.label("loop");
        b.addi(i, i, 1);
        b.bne(i, n, "loop");
        b.ecall();
        b.build().unwrap()
    };
    let stages = vec![
        vec![vec![barrier_then_halt.clone()]],
        vec![vec![busy_work], vec![barrier_then_halt]],
    ];
    let mut system = SystemBuilder::new(SystemConfig::new(2, 1), stages).build();
    let summary = system.run(10_000).unwrap();
    assert_eq!(
        summary.system_barriers, 1,
        "one genuine rendezvous, not two solo releases"
    );
    for cluster in &summary.per_cluster {
        assert_eq!(
            cluster.system_barriers, 1,
            "each cluster's hart completed exactly one episode"
        );
    }
    // Cluster 0 must have waited for cluster 1's busy stage to finish.
    assert!(
        summary.cluster_done_at[0] > 50,
        "cluster 0 released too early, at cycle {}",
        summary.cluster_done_at[0]
    );
}

#[test]
fn stages_advance_independently_per_cluster() {
    // Cluster 0 runs three stages, cluster 1 one stage: no global sync
    // between stages, and the system ends when the laggard finishes.
    let scfg = SystemConfig::new(2, 1);
    let stages = vec![
        vec![
            vec![idle_program()],
            vec![idle_program()],
            vec![idle_program()],
        ],
        vec![vec![idle_program()]],
    ];
    let mut system = SystemBuilder::new(scfg, stages).build();
    let summary = system.run(1_000).unwrap();
    assert!(summary.cluster_done_at[0] >= summary.cluster_done_at[1]);
    assert_eq!(summary.system_barriers, 0);
}

#[test]
fn lint_strict_refuses_a_bad_queued_stage() {
    use sc_lint::{fixtures, Rule};
    // Strict verification must refuse an error wherever it hides — in
    // the loaded stage or in a *queued* tile stage — before any cycle
    // runs. Six back-to-back chained pushes overflow the FIFO even with
    // the issue-stage drain: an error.
    let refused = [
        vec![vec![fixtures::fifo_overflow()]],
        vec![vec![idle_program()], vec![fixtures::fifo_overflow()]],
    ];
    for stages in refused {
        let err = SystemBuilder::new(SystemConfig::new(1, 1), vec![stages])
            .lint_strict()
            .try_build()
            .expect_err("strict verification must refuse the overflow");
        let SystemError::Cluster { cluster, source } = err else {
            panic!("expected a cluster-tagged lint refusal, got: {err}");
        };
        assert_eq!(cluster, 0);
        let sc_cluster::ClusterError::Lint(report) = source else {
            panic!("expected ClusterError::Lint, got: {source}");
        };
        assert!(report.has_errors(), "{report}");
        assert!(report.has_rule(Rule::FifoBalance), "{report}");
    }

    // Clean stages build, and so do warning-tier ones: the
    // drain-dependent burst is legal on the shipped hardware, and its
    // finding stays visible on the loaded cluster.
    let admitted = [(idle_program(), true), (fixtures::fifo_wedge(16), false)];
    for (program, clean) in admitted {
        let system = SystemBuilder::new(SystemConfig::new(1, 1), vec![vec![vec![program]]])
            .lint_strict()
            .try_build()
            .expect("clean and warning-tier stages build under strict verification");
        let report = system.cluster(0).lint_report();
        assert_eq!(report.is_clean(), clean, "{report}");
        assert!(!report.has_errors(), "{report}");
    }
}

#[test]
#[should_panic(expected = "core count must match")]
fn with_cluster_refuses_a_second_hart_count() {
    // The hart count is stated once, in `SystemConfig::new`: a cluster
    // config of another size must not silently replace it.
    let _ = SystemConfig::new(1, 4).with_cluster(ClusterConfig::new(2));
}
