//! Negative-fixture suite: each seeded-bug program must trip exactly
//! its rule, and a representative set of *correct* protocol idioms must
//! stay clean — the same zero-false-negative / zero-false-positive
//! contract the `lint_sweep` CI bin enforces over the full baseline
//! kernel set.

use sc_isa::{csr, FpReg, IntReg, ProgramBuilder};
use sc_lint::{fixtures, lint_harts, lint_program, LintConfig, Rule, Severity};

fn t(i: u8) -> IntReg {
    IntReg::new(i)
}

fn f(i: u8) -> FpReg {
    FpReg::new(i)
}

#[test]
fn every_fixture_trips_exactly_its_rule() {
    for (name, rule_id, programs) in fixtures::expectations() {
        let report = lint_harts(&programs, &LintConfig::new());
        assert!(!report.is_clean(), "fixture {name} produced no diagnostics");
        for d in report.iter() {
            assert_eq!(
                d.rule.id(),
                rule_id,
                "fixture {name} tripped {} instead of {rule_id}: {d}",
                d.rule
            );
        }
    }
}

#[test]
fn fifo_wedge_is_the_drain_dependent_warning() {
    // Five back-to-back pushes = capacity + held writeback: legal on
    // cores with the issue-stage drain, a wedge without it — warning
    // severity, not error.
    let report = lint_program(&fixtures::fifo_wedge(16), &LintConfig::new());
    let d = report.iter().next().expect("one finding");
    assert_eq!(d.rule, Rule::FifoBalance);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("drain"), "{d}");
}

#[test]
fn fifo_overflow_is_an_error_even_with_the_drain() {
    let report = lint_program(&fixtures::fifo_overflow(), &LintConfig::new());
    assert!(
        report
            .iter()
            .any(|d| d.rule == Rule::FifoBalance && d.severity == Severity::Error),
        "{report}"
    );
}

#[test]
fn unbalanced_loop_is_caught_by_occupancy_drift() {
    let report = lint_program(&fixtures::fifo_unbalanced_loop(), &LintConfig::new());
    assert!(
        report.iter().any(|d| d.rule == Rule::FifoBalance
            && d.severity == Severity::Error
            && d.message.contains("per iteration")),
        "{report}"
    );
}

#[test]
fn wider_fifo_capacity_clears_the_wedge_warning() {
    // The depth-ablation path: the same burst on deeper hardware is
    // clean, so the capacity must be configurable.
    let report = lint_program(
        &fixtures::fifo_wedge(16),
        &LintConfig::new().with_fifo_capacity(8),
    );
    assert!(report.is_clean(), "{report}");
}

#[test]
fn balanced_chained_kernel_is_clean() {
    // The paper's idiom: pushes and pops balanced within each frep
    // iteration, mask cleared after the FIFO drains.
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x400);
    b.fld(f(1), t(10), 0);
    b.fld(f(2), t(10), 8);
    b.li(t(5), f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t(5));
    b.li(t(11), 63); // 64 frep iterations
    b.frep_outer(t(11), |b| {
        for _ in 0..4 {
            b.fadd_d(f(3), f(1), f(2));
        }
        for i in 0..4u8 {
            b.fmul_d(f(8 + i), f(3), f(2));
        }
    });
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn repeated_chained_source_pops_once() {
    // The core pops a chained register once per instruction however
    // often it is named, so `fmul.d f6, f3, f3` consumes exactly the one
    // element `fadd.d f3, …` pushed — straight-line, inside a known-trip
    // `frep.o`, and as a net-zero `fmul.d f3, f3, f3` accumulation inside
    // an unknown-trip `frep.i`.
    let chain_f3 = |b: &mut ProgramBuilder| {
        b.li(t(5), f(3).chain_mask_bit() as i32);
        b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t(5));
    };
    let unchain = |b: &mut ProgramBuilder| {
        b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
        b.ecall();
    };

    let mut straight = ProgramBuilder::new();
    chain_f3(&mut straight);
    straight.fadd_d(f(3), f(1), f(2));
    straight.fmul_d(f(6), f(3), f(3));
    unchain(&mut straight);

    let mut outer = ProgramBuilder::new();
    chain_f3(&mut outer);
    outer.li(t(11), 15);
    outer.frep_outer(t(11), |b| {
        b.fadd_d(f(3), f(1), f(2));
        b.fmul_d(f(6), f(3), f(3));
    });
    unchain(&mut outer);

    let mut inner = ProgramBuilder::new();
    chain_f3(&mut inner);
    inner.csrrs(t(11), csr::MCYCLE, IntReg::ZERO);
    inner.fadd_d(f(3), f(1), f(2));
    inner.frep_inner(t(11), |b| {
        b.fmul_d(f(3), f(3), f(3));
    });
    inner.fmul_d(f(6), f(3), f(3));
    unchain(&mut inner);

    for (name, b) in [("straight", straight), ("outer", outer), ("inner", inner)] {
        let report = lint_program(&b.build().unwrap(), &LintConfig::new());
        assert!(report.is_clean(), "{name}: {report}");
    }
}

#[test]
fn frep_with_unknown_trip_and_net_drift_is_flagged() {
    // Trip count comes from a CSR read (statically unknown); a block
    // that nets +1 push per iteration cannot be balanced for any trip.
    let mut b = ProgramBuilder::new();
    b.li(t(5), f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t(5));
    b.csrrs(t(11), csr::MCYCLE, IntReg::ZERO);
    b.frep_outer(t(11), |b| {
        b.fadd_d(f(3), f(1), f(2));
    });
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(
        report
            .iter()
            .any(|d| d.rule == Rule::FifoBalance && d.message.contains("unknown trip")),
        "{report}"
    );
}

#[test]
fn matching_barrier_sequences_are_clean() {
    let hart = || {
        let mut b = ProgramBuilder::new();
        b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
        b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
        b.ecall();
        b.build().unwrap()
    };
    let report = lint_harts(&[hart(), hart(), hart()], &LintConfig::new());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn barrier_kind_mismatch_diverges() {
    // Same count, different barrier CSR: still divergent.
    let hart = |addr: u16| {
        let mut b = ProgramBuilder::new();
        b.csrrwi(IntReg::ZERO, addr, 0);
        b.ecall();
        b.build().unwrap()
    };
    let report = lint_harts(
        &[hart(csr::CLUSTER_BARRIER), hart(csr::SYSTEM_BARRIER)],
        &LintConfig::new(),
    );
    assert!(report.has_rule(Rule::BarrierMatch), "{report}");
}

#[test]
fn wrap_safe_poll_is_clean_and_retires_transfers() {
    // The tiling codegen's exact idiom: signed distance against zero.
    let mut b = ProgramBuilder::new();
    b.li(t(5), 0x100);
    b.csrrw(IntReg::ZERO, csr::DMA_SRC, t(5));
    b.li(t(5), 0x0);
    b.csrrw(IntReg::ZERO, csr::DMA_DST, t(5));
    b.li(t(5), 256);
    b.csrrw(IntReg::ZERO, csr::DMA_LEN, t(5));
    b.csrrw(IntReg::ZERO, csr::DMA_SRC_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_DST_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_REPS, IntReg::ZERO);
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
    b.li(t(6), 1);
    b.label("dma_wait");
    b.csrrs(t(7), csr::DMA_COMPLETED, IntReg::ZERO);
    b.sub(t(7), t(6), t(7));
    b.blt(IntReg::ZERO, t(7), "dma_wait");
    // After the wait the destination is safe to read.
    b.li(t(10), 0x0);
    b.fld(f(1), t(10), 0);
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn wrap_unsafe_poll_is_flagged() {
    // Branching on the raw counter: breaks when the u32 wraps.
    let mut b = ProgramBuilder::new();
    b.li(t(5), 0x100);
    b.csrrw(IntReg::ZERO, csr::DMA_SRC, t(5));
    b.li(t(5), 0x0);
    b.csrrw(IntReg::ZERO, csr::DMA_DST, t(5));
    b.li(t(5), 256);
    b.csrrw(IntReg::ZERO, csr::DMA_LEN, t(5));
    b.csrrw(IntReg::ZERO, csr::DMA_SRC_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_DST_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_REPS, IntReg::ZERO);
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
    b.li(t(6), 1);
    b.label("dma_wait");
    b.csrrs(t(7), csr::DMA_COMPLETED, IntReg::ZERO);
    b.branch(sc_isa::BranchOp::Ltu, t(7), t(6), "dma_wait");
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(
        report
            .iter()
            .any(|d| d.rule == Rule::DmaProtocol && d.message.contains("wrap")),
        "{report}"
    );
}

#[test]
fn reading_the_dma_destination_before_the_wait_is_flagged() {
    let mut b = ProgramBuilder::new();
    b.li(t(5), 0x100);
    b.csrrw(IntReg::ZERO, csr::DMA_SRC, t(5));
    b.li(t(5), 0x0);
    b.csrrw(IntReg::ZERO, csr::DMA_DST, t(5));
    b.li(t(5), 256);
    b.csrrw(IntReg::ZERO, csr::DMA_LEN, t(5));
    b.csrrw(IntReg::ZERO, csr::DMA_SRC_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_DST_STRIDE, IntReg::ZERO);
    b.csrrw(IntReg::ZERO, csr::DMA_REPS, IntReg::ZERO);
    b.csrrwi(IntReg::ZERO, csr::DMA_START, 1);
    // No wait: the load races the in-flight transfer.
    b.li(t(10), 0x80);
    b.fld(f(1), t(10), 0);
    b.csrrw(t(7), csr::DMA_WAIT, t(6));
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(
        report
            .iter()
            .any(|d| d.rule == Rule::DmaProtocol && d.message.contains("before any completion")),
        "{report}"
    );
}

#[test]
fn write_to_read_only_csr_is_flagged() {
    let mut b = ProgramBuilder::new();
    b.li(t(5), 7);
    b.csrrw(IntReg::ZERO, csr::MHARTID, t(5));
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(
        report
            .iter()
            .any(|d| d.rule == Rule::CsrUnknown && d.message.contains("read-only")),
        "{report}"
    );
}

#[test]
fn pure_csr_reads_are_not_writes() {
    // csrrs/csrrc with a zero operand performs no architectural write:
    // reading a read-only CSR is fine.
    let mut b = ProgramBuilder::new();
    b.csrrs(t(5), csr::MHARTID, IntReg::ZERO);
    b.csrrs(t(6), csr::CLUSTER_NUM_CORES, IntReg::ZERO);
    b.csrrs(t(7), csr::DMA_COMPLETED, IntReg::ZERO);
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn empty_and_trivial_programs_are_clean() {
    let mut b = ProgramBuilder::new();
    b.ecall();
    let report = lint_program(&b.build().unwrap(), &LintConfig::new());
    assert!(report.is_clean(), "{report}");
}
