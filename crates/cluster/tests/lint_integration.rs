//! The static verifier wired into the cluster: hang diagnoses must
//! cross-reference lint findings for the wedged harts (a hang whose
//! program the linter already flagged is almost certainly that bug),
//! and each load replaces the verdict. The hangs fire on the watchdog
//! of the cluster's one driver, a one-cluster `System`; the
//! `lint_strict` refusal and admission cases live with
//! `SystemBuilder::lint_strict` in `sc-system`'s tests.

mod common;

use common::one_cluster;
use sc_core::CoreConfig;
use sc_isa::{csr, FpReg, IntReg, ProgramBuilder};
use sc_lint::fixtures;
use sc_mem::{DramConfig, Store, TcdmConfig};
use sc_system::{System, SystemError};
use sc_trace::HangReport;

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

fn expect_hang(system: &mut System) -> HangReport {
    match system.run(200_000).expect_err("the fixture must wedge") {
        SystemError::Hang(report) => report,
        err => panic!("expected the watchdog to fire, got: {err}"),
    }
}

#[test]
fn hang_report_cross_references_the_fifo_balance_finding() {
    // The chained-burst wedge: five pushes rely on the issue-stage
    // drain; with the drain disabled the hart wedges. The linter flags
    // exactly that reliance (warning tier), and the fired watchdog's
    // report must carry the finding, rule id included.
    let mut system = one_cluster(
        cfg().with_chained_fifo_shift(false),
        vec![fixtures::fifo_wedge(16)],
        None,
    )
    .watchdog(5_000)
    .build();
    assert!(
        !system.cluster(0).lint_report().is_clean(),
        "the wedge fixture must be flagged at load time"
    );
    let tcdm = system.cluster_mut(0).tcdm_mut();
    tcdm.write_f64(0x400, 2.0).unwrap();
    tcdm.write_f64(0x408, 3.0).unwrap();
    let report = expect_hang(&mut system);
    assert!(
        report.mentions("fifo-balance"),
        "hang report must cross-reference the lint finding:\n{report}"
    );
    assert!(report.mentions("cluster0.hart0.lint"), "{report}");
}

#[test]
fn hang_report_cross_references_the_dma_protocol_finding() {
    // A hart parked on DMA_WAIT for a completion that never comes (no
    // doorbell was ever rung): the linter flags the orphan wait, and
    // the hang diagnosis names the rule.
    let mut system = one_cluster(
        cfg(),
        vec![fixtures::parked_forever()],
        Some(DramConfig::new()),
    )
    .watchdog(1_000)
    .build();
    let report = expect_hang(&mut system);
    assert!(
        report.mentions("dma-protocol"),
        "hang report must cross-reference the lint finding:\n{report}"
    );
    assert!(report.mentions("cluster0.hart0.lint"), "{report}");
}

#[test]
fn lint_strict_admits_a_repeated_chained_source() {
    // `fmul.d f6, f3, f3` pops chained f3 once, so the single push
    // balances it: the strict builder must accept the program, and the
    // run must square the chained value.
    let mut b = ProgramBuilder::new();
    b.li(IntReg::new(5), FpReg::new(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, IntReg::new(5));
    b.fadd_d(FpReg::new(3), FpReg::new(1), FpReg::new(2));
    b.fmul_d(FpReg::new(6), FpReg::new(3), FpReg::new(3));
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    b.ecall();
    let mut system = one_cluster(cfg(), vec![b.build().unwrap()], None)
        .lint_strict()
        .try_build()
        .expect("a repeated chained source is balanced");
    let report = system.cluster(0).lint_report();
    assert!(report.is_clean(), "{report}");
    let core = system.cluster_mut(0).core_mut(0);
    core.set_fp_reg(FpReg::new(1), 1.0);
    core.set_fp_reg(FpReg::new(2), 2.0);
    system.run(10_000).expect("the program halts");
    assert_eq!(system.cluster(0).core(0).fp_reg(FpReg::new(6)), 9.0);
}

#[test]
fn lint_report_tracks_reloaded_programs() {
    // `load_programs` replaces the verdict along with the programs.
    let mut system = one_cluster(cfg(), vec![fixtures::fifo_wedge(16)], None).build();
    assert!(!system.cluster(0).lint_report().is_clean());
    system.run(200_000).expect("the drain resolves the burst");
    let mut b = ProgramBuilder::new();
    b.ecall();
    let cluster = system.cluster_mut(0);
    cluster.load_programs(vec![b.build().unwrap()]);
    assert!(cluster.lint_report().is_clean());
}
