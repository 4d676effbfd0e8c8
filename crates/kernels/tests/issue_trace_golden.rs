//! Byte-for-byte pins of rendered issue traces.
//!
//! The issue trace records, per cycle, the instruction the integer
//! pipeline retired and what the FP issue slot did. Both are written
//! off the per-cycle hot path only when `CoreConfig::trace` is set, so a
//! change to how the issue stage hands back what it issued must leave
//! every rendered row unchanged. Two programs are pinned:
//!
//! * the three Fig. 1 `VecOpVariant`s, built and run as `sc-bench
//!   fig1_trace` builds them (whole traces, not just its display window);
//! * a hand-built program with staggered `frep.o` and `frep.i` loops, so
//!   the FP slot shows renamed instructions issued from the sequence
//!   buffer and from inner repetition.
//!
//! The golden files under `tests/golden/` were rendered by the code this
//! pin guards; a mismatch names the first differing line.

use sc_core::{CoreConfig, Simulator};
use sc_isa::{FpReg, IntReg, ProgramBuilder};
use sc_kernels::{VecOpKernel, VecOpVariant};

/// The vector length `fig1_trace` uses.
const FIG1_N: u32 = 32;

fn fig1_traces() -> String {
    let mut out = String::new();
    for variant in VecOpVariant::ALL {
        let kernel = VecOpKernel::new(FIG1_N, variant).build();
        let run = kernel
            .run(CoreConfig::new().with_trace(true), 1_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        out.push_str(&format!("--- {} ---\n", kernel.name()));
        out.push_str(&run.summary.trace.render());
    }
    out
}

fn staggered_frep_trace() -> String {
    let f = FpReg::new;
    let t0 = IntReg::new(5);
    let mut b = ProgramBuilder::new();
    b.li(t0, 3); // four iterations
                 // Outer loop, rd staggered over offsets 0..=1: f8/f9 and f10/f11.
    b.frep_o(t0, 2, 1, 0b0001);
    b.fadd_d(f(8), f(0), f(1));
    b.fmul_d(f(10), f(2), f(3));
    // Inner loop, rs1 and rs2 staggered over offsets 0..=2.
    b.frep_i(t0, 2, 2, 0b0110);
    b.fadd_d(f(12), f(0), f(4));
    b.fmadd_d(f(13), f(1), f(2), f(3));
    b.fadd_d(f(20), f(8), f(9));
    b.ecall();
    let mut sim = Simulator::new(
        CoreConfig::new().with_trace(true),
        b.build().expect("program assembles"),
    );
    for i in 0..8 {
        sim.set_fp_reg(f(i), f64::from(i) + 0.5);
    }
    let summary = sim.run(10_000).expect("program halts");
    summary.trace.render()
}

fn assert_matches_golden(name: &str, got: &str, golden: &str) {
    if got == golden {
        return;
    }
    let line = got
        .lines()
        .zip(golden.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
    panic!(
        "{name}: rendered trace differs from the golden file at line {} \
         (got {} lines, golden {})\n  got:    {:?}\n  golden: {:?}",
        line + 1,
        got.lines().count(),
        golden.lines().count(),
        got.lines().nth(line),
        golden.lines().nth(line),
    );
}

#[test]
fn fig1_issue_traces_match_golden() {
    assert_matches_golden(
        "fig1",
        &fig1_traces(),
        include_str!("golden/fig1_issue_traces.txt"),
    );
}

#[test]
fn staggered_frep_issue_trace_matches_golden() {
    assert_matches_golden(
        "staggered frep",
        &staggered_frep_trace(),
        include_str!("golden/staggered_frep_issue_trace.txt"),
    );
}
