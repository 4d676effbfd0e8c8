//! End-to-end simulator tests: full programs through the integer core,
//! sequencer, SSRs, FPU and the chaining extension — including the
//! paper's Fig. 1 microbenchmark in all three code variants.

use sc_core::{CoreConfig, SimError, Simulator, StallCause};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{Store, TcdmConfig};
use sc_ssr::CfgAddr;

const T0: IntReg = IntReg::new(5);

fn t(i: u8) -> IntReg {
    IntReg::new(i)
}

fn f(i: u8) -> FpReg {
    FpReg::new(i)
}

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

/// Emits SSR configuration: 1-D read/write stream of `n` doubles at `base`.
fn cfg_linear_stream(b: &mut ProgramBuilder, dm: u8, base: u32, n: u32, write: bool) {
    let tmp = t(28);
    b.li(tmp, (n - 1) as i32);
    b.scfgwi(tmp, CfgAddr { dm, reg: 2 }.to_imm());
    b.li(tmp, 8);
    b.scfgwi(tmp, CfgAddr { dm, reg: 6 }.to_imm());
    b.li(tmp, base as i32);
    b.scfgwi(
        tmp,
        CfgAddr {
            dm,
            reg: if write { 28 } else { 24 },
        }
        .to_imm(),
    );
}

fn enable_ssr(b: &mut ProgramBuilder) {
    let tmp = t(28);
    b.li(tmp, 1);
    b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, tmp);
}

fn disable_ssr(b: &mut ProgramBuilder) {
    b.csrrw(IntReg::ZERO, csr::SSR_ENABLE, IntReg::ZERO);
}

#[test]
fn straight_line_integer_program() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 6);
    b.li(t(11), 7);
    b.mul(t(12), t(10), t(11));
    b.addi(t(12), t(12), -2);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    let summary = sim.run(100).unwrap();
    assert_eq!(sim.int_reg(t(12)), 40);
    assert!(summary.cycles < 20);
}

#[test]
fn integer_loads_and_stores() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x100);
    b.li(t(11), 1234);
    b.sw(t(11), t(10), 0);
    b.lw(t(12), t(10), 0);
    b.addi(t(12), t(12), 1);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.run(100).unwrap();
    assert_eq!(sim.int_reg(t(12)), 1235);
    assert_eq!(sim.tcdm().read_u32(0x100).unwrap(), 1234);
}

#[test]
fn branch_loop_counts() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0);
    b.li(t(11), 10);
    b.label("loop");
    b.addi(t(10), t(10), 1);
    b.bne(t(10), t(11), "loop");
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.run(200).unwrap();
    assert_eq!(sim.int_reg(t(10)), 10);
}

#[test]
fn fp_load_compute_store_roundtrip() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x200);
    b.fld(f(4), t(10), 0);
    b.fld(f(5), t(10), 8);
    b.fadd_d(f(6), f(4), f(5));
    b.fsd(f(6), t(10), 16);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.tcdm_mut().write_f64(0x200, 1.5).unwrap();
    sim.tcdm_mut().write_f64(0x208, 2.25).unwrap();
    sim.run(200).unwrap();
    assert_eq!(sim.tcdm().read_f64(0x210).unwrap(), 3.75);
}

#[test]
fn fp_compare_writes_integer_register() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x200);
    b.fld(f(4), t(10), 0);
    b.fld(f(5), t(10), 8);
    b.push(sc_isa::Instruction::FpCmp {
        op: sc_isa::FpCmpOp::Lt,
        fmt: sc_isa::FpFormat::Double,
        rd: t(12),
        frs1: f(4),
        frs2: f(5),
    });
    // Integer consumer must wait for the FP comparison result.
    b.addi(t(13), t(12), 100);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.tcdm_mut().write_f64(0x200, 1.0).unwrap();
    sim.tcdm_mut().write_f64(0x208, 2.0).unwrap();
    sim.run(200).unwrap();
    assert_eq!(sim.int_reg(t(13)), 101);
}

/// Builds the paper's Fig. 1a baseline: a = b * (c + d), element-wise,
/// streams c→ft0, d→ft1, a←ft2, scalar b in f4.
fn fig1_baseline(n: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let (i, len) = (t(10), t(11));
    b.li(t(12), 0x4000);
    b.fld(f(4), t(12), 0); // b coefficient
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 0, 0x1000, n, false);
    cfg_linear_stream(&mut b, 1, 0x2000, n, false);
    cfg_linear_stream(&mut b, 2, 0x3000, n, true);
    b.li(i, 0);
    b.li(len, n as i32);
    b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
    b.label("loop");
    b.fadd_d(f(3), f(0), f(1));
    b.fmul_d(f(2), f(3), f(4));
    b.addi(i, i, 1);
    b.bne(i, len, "loop");
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
    disable_ssr(&mut b);
    b.ecall();
    b.build().unwrap()
}

/// Fig. 1b: unrolled by 4 with four temporaries ft3–ft6. As in the real
/// SARIS kernels, the loop is driven by `frep.o` so the integer front-end
/// is not the bottleneck (a plain branch loop caps utilisation at
/// 8 flops / 11 integer cycles ≈ 0.72 — Snitch's motivation for FREP).
fn fig1_unrolled(n: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(t(12), 0x4000);
    b.fld(f(4), t(12), 0);
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 0, 0x1000, n, false);
    cfg_linear_stream(&mut b, 1, 0x2000, n, false);
    cfg_linear_stream(&mut b, 2, 0x3000, n, true);
    b.li(t(11), (n / 4 - 1) as i32);
    b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
    b.frep_outer(t(11), |b| {
        for k in 0..4 {
            b.fadd_d(f(5 + k), f(0), f(1));
        }
        for k in 0..4 {
            b.fmul_d(f(2), f(5 + k), f(4));
        }
    });
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
    disable_ssr(&mut b);
    b.ecall();
    b.build().unwrap()
}

/// Fig. 1c: chaining through ft3 — same unrolled schedule but a single
/// temporary register with FIFO semantics (FREP-driven like Fig. 1b).
fn fig1_chained(n: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(t(12), 0x4000);
    b.fld(f(4), t(12), 0);
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 0, 0x1000, n, false);
    cfg_linear_stream(&mut b, 1, 0x2000, n, false);
    cfg_linear_stream(&mut b, 2, 0x3000, n, true);
    b.li(t(11), (n / 4 - 1) as i32);
    // li mask, 8 ; csrs 0x7C3, mask — the paper's prologue.
    b.li(T0, f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, T0);
    b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
    b.frep_outer(t(11), |b| {
        for _ in 0..4 {
            b.fadd_d(f(3), f(0), f(1));
        }
        for _ in 0..4 {
            b.fmul_d(f(2), f(3), f(4));
        }
    });
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    disable_ssr(&mut b);
    b.ecall();
    b.build().unwrap()
}

fn run_fig1(prog: Program, n: u32) -> (Simulator, sc_core::RunSummary) {
    let mut sim = Simulator::new(cfg(), prog);
    let coef = 2.5f64;
    sim.tcdm_mut().write_f64(0x4000, coef).unwrap();
    for k in 0..n {
        sim.tcdm_mut()
            .write_f64(0x1000 + k * 8, f64::from(k))
            .unwrap();
        sim.tcdm_mut().write_f64(0x2000 + k * 8, 1.0).unwrap();
    }
    let summary = sim.run(100_000).expect("fig1 program runs to completion");
    for k in 0..n {
        let got = sim.tcdm().read_f64(0x3000 + k * 8).unwrap();
        let want = coef * (f64::from(k) + 1.0);
        assert!((got - want).abs() < 1e-12, "a[{k}] = {got}, want {want}");
    }
    (sim, summary)
}

#[test]
fn fig1a_baseline_stalls_three_cycles_per_iteration() {
    let (_, summary) = run_fig1(fig1_baseline(64), 64);
    let m = summary.measured();
    // Steady state: 2 flops issued per 5 cycles → 40 % utilisation.
    let util = m.fpu_utilization();
    assert!(
        (0.36..=0.44).contains(&util),
        "baseline utilisation {util:.3}, expected ≈ 0.40"
    );
    assert!(
        m.stalls_of(StallCause::RawHazard) >= 3 * 60,
        "RAW stalls dominate"
    );
}

#[test]
fn fig1b_unrolling_reaches_high_utilization() {
    let (_, summary) = run_fig1(fig1_unrolled(64), 64);
    let m = summary.measured();
    let util = m.fpu_utilization();
    assert!(
        util > 0.90,
        "unrolled utilisation {util:.3}, expected > 0.90"
    );
}

#[test]
fn fig1c_chaining_matches_unrolling_without_extra_registers() {
    let (_, chained) = run_fig1(fig1_chained(64), 64);
    let (_, unrolled) = run_fig1(fig1_unrolled(64), 64);
    let cu = chained.measured().fpu_utilization();
    let uu = unrolled.measured().fpu_utilization();
    assert!(cu > 0.90, "chained utilisation {cu:.3}, expected > 0.90");
    assert!(uu > 0.90, "unrolled utilisation {uu:.3}, expected > 0.90");
    // Chaining must be at least as good as unrolling (paper's pitch), while
    // using one temporary register instead of four.
    assert!(
        chained.measured().cycles <= unrolled.measured().cycles + 4,
        "chained {} vs unrolled {} cycles",
        chained.measured().cycles,
        unrolled.measured().cycles
    );
}

#[test]
fn fig1_all_variants_agree_numerically() {
    // The three variants are alternative schedules of the same math; the
    // memory images must agree bit-for-bit.
    let n = 32;
    let (a, _) = run_fig1(fig1_baseline(n), n);
    let (b, _) = run_fig1(fig1_unrolled(n), n);
    let (c, _) = run_fig1(fig1_chained(n), n);
    for k in 0..n {
        let addr = 0x3000 + k * 8;
        let va = a.tcdm().read_u64(addr).unwrap();
        assert_eq!(va, b.tcdm().read_u64(addr).unwrap());
        assert_eq!(va, c.tcdm().read_u64(addr).unwrap());
    }
}

#[test]
fn frep_loop_runs_without_integer_issue() {
    // frep.o replaces the branch loop entirely: the integer core issues
    // the body once; the sequencer replays it.
    let n = 64u32;
    let mut b = ProgramBuilder::new();
    b.li(t(12), 0x4000);
    b.fld(f(4), t(12), 0);
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 0, 0x1000, n, false);
    cfg_linear_stream(&mut b, 1, 0x2000, n, false);
    cfg_linear_stream(&mut b, 2, 0x3000, n, true);
    b.li(t(11), (n / 4 - 1) as i32); // max_rpt = iterations - 1
    b.li(T0, f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, T0);
    b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
    b.frep_outer(t(11), |b| {
        for _ in 0..4 {
            b.fadd_d(f(3), f(0), f(1));
        }
        for _ in 0..4 {
            b.fmul_d(f(2), f(3), f(4));
        }
    });
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    disable_ssr(&mut b);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.tcdm_mut().write_f64(0x4000, 3.0).unwrap();
    for k in 0..n {
        sim.tcdm_mut()
            .write_f64(0x1000 + k * 8, f64::from(k))
            .unwrap();
        sim.tcdm_mut().write_f64(0x2000 + k * 8, 2.0).unwrap();
    }
    let summary = sim.run(100_000).unwrap();
    for k in 0..n {
        let got = sim.tcdm().read_f64(0x3000 + k * 8).unwrap();
        assert_eq!(got, 3.0 * (f64::from(k) + 2.0));
    }
    let m = summary.measured();
    assert!(
        m.fpu_utilization() > 0.93,
        "frep+chaining utilisation {:.3} (paper: >93 %)",
        m.fpu_utilization()
    );
    assert!(m.frep_replays > 0, "sequencer must replay the body");
}

#[test]
fn chaining_csr_on_extensionless_core_errors() {
    let mut b = ProgramBuilder::new();
    b.li(T0, 8);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, T0);
    b.ecall();
    let mut sim = Simulator::new(cfg().with_chaining(false), b.build().unwrap());
    assert_eq!(sim.run(1_000).unwrap_err(), SimError::ChainingAbsent);
}

#[test]
fn trace_records_issue_slots() {
    let mut b = ProgramBuilder::new();
    b.fadd_d(f(3), f(4), f(5));
    b.fmul_d(f(6), f(3), f(4));
    b.ecall();
    let mut sim = Simulator::new(cfg().with_trace(true), b.build().unwrap());
    let summary = sim.run(1_000).unwrap();
    assert_eq!(summary.trace.fp_issue_count(), 2);
    assert!(summary.trace.stall_count(StallCause::RawHazard) >= 3);
    let text = summary.trace.render();
    assert!(text.contains("fadd.d"));
    assert!(text.contains("stall (raw)"));
}

#[test]
fn mhartid_and_cluster_size_read_zero_and_one_on_lone_core() {
    let mut b = ProgramBuilder::new();
    b.csrrs(t(10), sc_isa::csr::MHARTID, IntReg::ZERO);
    b.csrrs(t(11), sc_isa::csr::CLUSTER_NUM_CORES, IntReg::ZERO);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.run(100).unwrap();
    assert_eq!(sim.int_reg(t(10)), 0);
    assert_eq!(sim.int_reg(t(11)), 1);
}

#[test]
fn hart_identity_is_visible_to_programs() {
    use sc_core::Core;
    use sc_mem::Tcdm;
    let mut b = ProgramBuilder::new();
    b.csrrs(t(10), sc_isa::csr::MHARTID, IntReg::ZERO);
    b.csrrs(t(11), sc_isa::csr::CLUSTER_NUM_CORES, IntReg::ZERO);
    b.ecall();
    let config = cfg();
    let mut tcdm = Tcdm::new(config.tcdm);
    let mut core = Core::with_hart(config, b.build().unwrap(), 2, 4);
    while !core.is_halted() {
        core.step(&mut tcdm).unwrap();
        if core.in_barrier() {
            core.release_barrier();
        }
    }
    assert_eq!(core.int_reg(t(10)), 2);
    assert_eq!(core.int_reg(t(11)), 4);
    assert_eq!(
        core.port_base(),
        2 * 4,
        "hart 2 with 3 SSRs owns ports 8..12"
    );
}

#[test]
fn lone_core_barrier_releases_immediately() {
    let mut b = ProgramBuilder::new();
    // Two barrier episodes; the second returns completion count 1.
    b.csrrwi(t(10), sc_isa::csr::CLUSTER_BARRIER, 0);
    b.csrrwi(t(11), sc_isa::csr::CLUSTER_BARRIER, 0);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    let summary = sim.run(1_000).unwrap();
    assert_eq!(
        sim.int_reg(t(10)),
        0,
        "first barrier reports zero prior episodes"
    );
    assert_eq!(
        sim.int_reg(t(11)),
        1,
        "second barrier reports one prior episode"
    );
    assert_eq!(sim.core().barriers_completed(), 2);
    assert!(
        summary.cycles < 20,
        "a lone hart's barrier must be nearly free"
    );
}

#[test]
fn barrier_csr_pure_read_does_not_arrive() {
    // csrrs rd, 0x7C5, x0 is the canonical CSR read: per the RISC-V
    // spec it performs no write, so it must return the completed-episode
    // count without parking the hart on the barrier.
    let mut b = ProgramBuilder::new();
    b.csrrs(t(10), sc_isa::csr::CLUSTER_BARRIER, IntReg::ZERO); // read: 0
    b.csrrwi(IntReg::ZERO, sc_isa::csr::CLUSTER_BARRIER, 0); // arrive
    b.csrrs(t(11), sc_isa::csr::CLUSTER_BARRIER, IntReg::ZERO); // read: 1
    b.csrrsi(t(12), sc_isa::csr::CLUSTER_BARRIER, 0); // imm-zero read: 1
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.run(1_000).unwrap();
    assert_eq!(sim.int_reg(t(10)), 0, "read before any episode");
    assert_eq!(sim.int_reg(t(11)), 1, "read after one episode");
    assert_eq!(
        sim.int_reg(t(12)),
        1,
        "zero-immediate csrrsi is also a pure read"
    );
    assert_eq!(sim.core().barriers_completed(), 1, "only the csrrw arrived");
}

#[test]
fn barrier_waits_for_streams_to_complete() {
    // The barrier is a rendezvous of quiesced harts: a pending write
    // stream must drain before the hart arrives.
    let n = 4u32;
    let mut b = ProgramBuilder::new();
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 2, 0x3000, n, true);
    for _ in 0..n {
        b.fmv_d(f(2), f(4)); // push into the write stream
    }
    b.csrrwi(t(10), sc_isa::csr::CLUSTER_BARRIER, 0);
    disable_ssr(&mut b);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.set_fp_reg(f(4), 6.5);
    sim.run(10_000).unwrap();
    for k in 0..n {
        assert_eq!(sim.tcdm().read_f64(0x3000 + 8 * k).unwrap(), 6.5);
    }
    assert_eq!(sim.core().barriers_completed(), 1);
}

#[test]
fn adjacent_duplicate_stream_source_pops_once() {
    // `fmul.d ft3, ft0, ft0` reads stream ft0 twice in one instruction:
    // one pop, broadcast to both operands — so four squares consume
    // exactly the four stream elements.
    let n = 4;
    let mut b = ProgramBuilder::new();
    b.li(t(12), 0x3000);
    enable_ssr(&mut b);
    cfg_linear_stream(&mut b, 0, 0x1000, n, false);
    for k in 0..n {
        b.fmul_d(f(3), f(0), f(0));
        b.fsd(f(3), t(12), 8 * k as i32);
    }
    disable_ssr(&mut b);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    for k in 0..n {
        sim.tcdm_mut()
            .write_f64(0x1000 + 8 * k, f64::from(k + 1))
            .unwrap();
    }
    let summary = sim.run(10_000).unwrap();
    for k in 0..n {
        let x = f64::from(k + 1);
        assert_eq!(sim.tcdm().read_f64(0x3000 + 8 * k).unwrap(), x * x);
    }
    assert_eq!(summary.counters.ssr_elements, u64::from(n), "one pop each");
}

#[test]
fn non_adjacent_duplicate_chained_source_pops_once() {
    // `fmadd.d fd, fc, fa, fc` names chained fc as operands 1 and 3:
    // one pop per instruction. Two pushes feed exactly two consumers; a
    // double pop would starve the second consumer forever.
    let fc = f(3);
    let mut b = ProgramBuilder::new();
    b.li(T0, fc.chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, T0);
    b.fadd_d(fc, f(6), f(7)); // push 0.5 + 1.5 = 2
    b.fmadd_d(f(8), fc, f(5), fc); // 2 * 10 + 2
    b.fadd_d(fc, f(7), f(7)); // push 1.5 + 1.5 = 3
    b.fmadd_d(f(9), fc, f(5), fc); // 3 * 10 + 3
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    b.ecall();
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    sim.set_fp_reg(f(5), 10.0);
    sim.set_fp_reg(f(6), 0.5);
    sim.set_fp_reg(f(7), 1.5);
    let summary = sim.run(10_000).expect("each consumer pops exactly once");
    assert_eq!(sim.fp_reg(f(8)), 22.0);
    assert_eq!(sim.fp_reg(f(9)), 33.0);
    assert!(!sim.fp_subsystem().chain().is_valid(fc), "FIFO drained");
    // One register-file read per *distinct* source: 2 + 2 + 1 + 2.
    assert_eq!(summary.counters.fp_rf_reads, 7);
}

#[test]
fn ebreak_reports_pc() {
    let mut b = ProgramBuilder::new();
    b.nop();
    b.push(sc_isa::Instruction::Ebreak);
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    assert_eq!(sim.run(100).unwrap_err(), SimError::Ebreak { pc: 4 });
}

#[test]
fn runaway_program_hits_cycle_budget() {
    let mut b = ProgramBuilder::new();
    b.label("spin");
    b.j("spin");
    let mut sim = Simulator::new(cfg(), b.build().unwrap());
    assert_eq!(
        sim.run(500).unwrap_err(),
        SimError::MaxCyclesExceeded { max_cycles: 500 }
    );
}
