//! The static verifier wired into the cluster: hang diagnoses must
//! cross-reference lint findings for the wedged harts (a hang whose
//! program the linter already flagged is almost certainly that bug),
//! and `lint_strict` builders must refuse error-diagnosed programs
//! before a single cycle is simulated.

use sc_cluster::{ClusterBuilder, ClusterConfig, ClusterError};
use sc_core::CoreConfig;
use sc_isa::{csr, FpReg, IntReg, ProgramBuilder};
use sc_lint::{fixtures, Rule};
use sc_mem::{DramConfig, TcdmConfig};
use sc_trace::HangReport;

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

fn expect_hang(outcome: Result<(), ClusterError>) -> HangReport {
    match outcome.expect_err("the fixture must wedge") {
        ClusterError::Hang(report) => report,
        err => panic!("expected the watchdog to fire, got: {err}"),
    }
}

#[test]
fn hang_report_cross_references_the_fifo_balance_finding() {
    // The chained-burst wedge: five pushes rely on the issue-stage
    // drain; with the drain disabled the hart wedges. The linter flags
    // exactly that reliance (warning tier), and the fired watchdog's
    // report must carry the finding, rule id included.
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg().with_chained_fifo_shift(false)),
        vec![fixtures::fifo_wedge(16)],
    )
    .watchdog(5_000)
    .build();
    assert!(
        !cluster.lint_report().is_clean(),
        "the wedge fixture must be flagged at load time"
    );
    cluster.tcdm_mut().write_f64(0x400, 2.0).unwrap();
    cluster.tcdm_mut().write_f64(0x408, 3.0).unwrap();
    let report = expect_hang(cluster.run(200_000).map(|_| ()));
    assert!(
        report.mentions("fifo-balance"),
        "hang report must cross-reference the lint finding:\n{report}"
    );
    assert!(report.mentions("hart0.lint"), "{report}");
}

#[test]
fn hang_report_cross_references_the_dma_protocol_finding() {
    // A hart parked on DMA_WAIT for a completion that never comes (no
    // doorbell was ever rung): the linter flags the orphan wait, and
    // the hang diagnosis names the rule. The engine stays idle, so the
    // stand-alone run needs no background store.
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::parked_forever()],
    )
    .shared_dma(DramConfig::new())
    .watchdog(1_000)
    .build();
    let report = expect_hang(cluster.run(200_000).map(|_| ()));
    assert!(
        report.mentions("dma-protocol"),
        "hang report must cross-reference the lint finding:\n{report}"
    );
}

#[test]
fn lint_strict_refuses_error_diagnosed_programs() {
    // Six back-to-back chained pushes overflow the FIFO even with the
    // drain — an error, so the strict builder must refuse it.
    let err = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_overflow()],
    )
    .lint_strict()
    .try_build()
    .expect_err("strict verification must refuse the overflow");
    let ClusterError::Lint(report) = err else {
        panic!("expected ClusterError::Lint, got: {err}");
    };
    assert!(report.has_errors());
    assert!(report.has_rule(Rule::FifoBalance), "{report}");
}

#[test]
fn lint_strict_admits_warning_tier_programs() {
    // The drain-dependent burst is warning tier: legal on the shipped
    // hardware, so strict mode builds it (the finding stays visible).
    let cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_wedge(16)],
    )
    .lint_strict()
    .try_build()
    .expect("warnings do not refuse the build");
    assert!(!cluster.lint_report().is_clean());
    assert!(!cluster.lint_report().has_errors());
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
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![b.build().unwrap()],
    )
    .lint_strict()
    .try_build()
    .expect("a repeated chained source is balanced");
    let report = cluster.lint_report();
    assert!(report.is_clean(), "{report}");
    cluster.core_mut(0).set_fp_reg(FpReg::new(1), 1.0);
    cluster.core_mut(0).set_fp_reg(FpReg::new(2), 2.0);
    cluster.run(10_000).expect("the program halts");
    assert_eq!(cluster.core(0).fp_reg(FpReg::new(6)), 9.0);
}

#[test]
fn lint_report_tracks_reloaded_programs() {
    // `load_programs` replaces the verdict along with the programs.
    let mut cluster = ClusterBuilder::new(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_wedge(16)],
    )
    .build();
    assert!(!cluster.lint_report().is_clean());
    let mut b = sc_isa::ProgramBuilder::new();
    b.ecall();
    cluster.run(200_000).ok();
    cluster.load_programs(vec![b.build().unwrap()]);
    assert!(cluster.lint_report().is_clean());
}
