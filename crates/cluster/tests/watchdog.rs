//! The hang watchdog against a real, historical deadlock.
//!
//! The chained-FIFO writeback jam: under sustained backpressure a
//! producer's completion is *held* in the FPU's final stage waiting to
//! push into a full chained register, while the consumer that would pop
//! that register stalls on the packed unit — a circular wait the
//! issue-stage drain (`CoreConfig::chained_fifo_shift`, the synchronous
//! FIFO shift) resolves. With the drain disabled the same program wedges
//! silently; the watchdog must convert that into a `SystemError::Hang`
//! whose report names the held chained-FIFO writeback as the blocked
//! resource, instead of a bare max-cycles timeout.
//!
//! The watchdog belongs to the cluster's one driver, a `System`: each
//! fixture runs as the one cluster of a system armed with
//! `SystemBuilder::watchdog`. Only a system fast-forwards idle
//! windows, so the event-mode pins require dense and event runs to
//! report the same firing cycle and stuck-for span.

mod common;

use common::one_cluster;
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{DramConfig, Store, Tcdm, TcdmConfig};
use sc_system::{System, SystemError};
use sc_trace::HangReport;

fn t(i: u8) -> IntReg {
    IntReg::new(i)
}

fn f(i: u8) -> FpReg {
    FpReg::new(i)
}

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

/// A producer/consumer burst through chained `f3`: five back-to-back
/// chained-dest adds — exactly enough to pack the 3-stage addmul pipe
/// plus its held writeback back to the issue slot — then five multiplies
/// popping `f3` while the unit is full. The first multiply is the drain
/// case: with the synchronous shift it issues by retiring the held
/// producer into the register it pops; without it, circular wait.
/// (One more producer would overflow the rigid FIFO's total capacity and
/// wedge even *with* the drain — that would be a software bug, not the
/// hardware hazard this fixture pins.)
fn chained_burst_program(reps: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x400);
    b.fld(f(1), t(10), 0);
    b.fld(f(2), t(10), 8);
    b.fld(f(4), t(10), 16);
    b.li(t(5), f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t(5));
    for _ in 0..reps {
        for _ in 0..5 {
            b.fadd_d(f(3), f(1), f(2));
        }
        // Distinct destinations keep the consumers issuing back-to-back
        // (a WAW stall would serialize them and change the jam's shape).
        for i in 0..5u8 {
            b.fmul_d(f(5 + i % 4), f(3), f(4));
        }
    }
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    b.fsd(f(5), t(10), 32);
    b.ecall();
    b.build().unwrap()
}

/// The burst's operands: `f1 = 2`, `f2 = 3`, `f4 = 10`.
fn seed_burst(tcdm: &mut Tcdm) {
    tcdm.write_f64(0x400, 2.0).unwrap();
    tcdm.write_f64(0x408, 3.0).unwrap();
    tcdm.write_f64(0x410, 10.0).unwrap();
}

/// Runs the 16-rep burst as the one hart of a system's only cluster,
/// with the watchdog armed at `watchdog` when given.
fn run_burst(core_cfg: CoreConfig, watchdog: Option<u64>) -> (System, Result<(), SystemError>) {
    let mut builder = one_cluster(core_cfg, vec![chained_burst_program(16)], None);
    if let Some(limit) = watchdog {
        builder = builder.watchdog(limit);
    }
    let mut system = builder.build();
    seed_burst(system.cluster_mut(0).tcdm_mut());
    let outcome = system.run(200_000).map(|_| ());
    (system, outcome)
}

#[test]
fn burst_program_completes_with_the_fifo_shift() {
    let (system, outcome) = run_burst(cfg(), Some(5_000));
    outcome.expect("the drain resolves the jam; the watchdog stays quiet");
    // (2 + 3) * 10, from the last iteration's final multiply.
    assert_eq!(system.cluster(0).tcdm().read_f64(0x420).unwrap(), 50.0);
}

#[test]
fn watchdog_names_the_wedged_chained_fifo() {
    // Same program, drain disabled: silent wedge -> named diagnosis.
    let (_, outcome) = run_burst(cfg().with_chained_fifo_shift(false), Some(5_000));
    let err = outcome.expect_err("the writeback jam must wedge without the drain");
    let SystemError::Hang(report) = err else {
        panic!("expected the watchdog to fire, got: {err}");
    };
    assert!(
        report.mentions("chained"),
        "report must name the held chained-FIFO writeback:\n{report}"
    );
    assert!(
        report.mentions("cluster0.hart0"),
        "report must locate the wedged hart:\n{report}"
    );
    assert!(
        report.stuck_for >= 5_000,
        "stuck_for {} below the watchdog limit",
        report.stuck_for
    );
    // The rendered report is what lands in a panic message or a log —
    // it must carry the blocked resources, not just a cycle number.
    let rendered = format!("{report}");
    assert!(rendered.contains("BLOCKED"), "{rendered}");
}

/// Runs `programs` as the only cluster of a system under `mode`, with
/// the watchdog armed at `limit` and the burst's operands seeded
/// (programs that do not read them ignore them). With `dma`, the
/// cluster has a DMA engine over a pass-through L2. Returns the hang
/// report, checking that the watchdog is what ended the run.
fn system_hang(
    core_cfg: CoreConfig,
    programs: Vec<Program>,
    dma: Option<DramConfig>,
    limit: u64,
    mode: SchedMode,
) -> HangReport {
    let mut system = one_cluster(core_cfg, programs, dma)
        .watchdog(limit)
        .sched_mode(mode)
        .build();
    seed_burst(system.cluster_mut(0).tcdm_mut());
    match system.run(200_000) {
        Err(SystemError::Hang(report)) => report,
        outcome => panic!("expected the watchdog to fire, got: {outcome:?}"),
    }
}

#[test]
fn event_mode_fires_the_watchdog_at_the_dense_cycle() {
    // The event scheduler may only skip windows the watchdog would have
    // slept through: on the fifo-wedge fixture (all harts stalled but
    // *not* parked — the jam is an FPU-structural stall, so every core
    // still reports an every-cycle wake) the report must be
    // bit-identical to the dense one, with or without an (idle) DMA
    // engine behind a pass-through L2.
    let wedged = cfg().with_chained_fifo_shift(false);
    let run = |dma, mode| system_hang(wedged, vec![chained_burst_program(16)], dma, 5_000, mode);
    let reference = run(None, SchedMode::Dense);
    for dma in [None, Some(DramConfig::new())] {
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let report = run(dma, mode);
            assert_eq!(
                report.cycle, reference.cycle,
                "{dma:?} {mode:?}: firing cycle"
            );
            assert_eq!(report.stuck_for, reference.stuck_for, "{dma:?} {mode:?}");
        }
    }
}

#[test]
fn skipped_idle_windows_count_toward_the_watchdog_span() {
    // A hart parks on DMA_WAIT for a completion count the engine will
    // never deliver (no doorbell ever rings): in event mode the whole
    // wait is one idle window the scheduler fast-forwards, but the
    // watchdog must still observe the full progress-free span and fire
    // at exactly the dense cycle — the skip is capped at the firing
    // point, not flown past it.
    let parked_forever = || {
        let mut b = ProgramBuilder::new();
        b.li(t(6), 1);
        b.csrrw(t(7), csr::DMA_WAIT, t(6));
        b.ecall();
        vec![b.build().unwrap()]
    };
    let dma = Some(DramConfig::new());
    let run = |mode| system_hang(cfg(), parked_forever(), dma, 1_000, mode);
    let dense = run(SchedMode::Dense);
    let event = run(SchedMode::Event);
    assert_eq!(dense.cycle, event.cycle, "same firing cycle");
    assert_eq!(dense.stuck_for, event.stuck_for);
    assert!(dense.stuck_for >= 1_000);
}

#[test]
fn without_a_watchdog_the_wedge_only_times_out() {
    // The pre-watchdog behaviour the fixture documents: the same hang
    // burns the whole cycle budget and reports nothing useful.
    let (_, outcome) = run_burst(cfg().with_chained_fifo_shift(false), None);
    assert_eq!(
        outcome.expect_err("still wedged"),
        SystemError::MaxCyclesExceeded {
            max_cycles: 200_000
        },
        "no watchdog was armed"
    );
}
