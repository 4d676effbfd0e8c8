//! Machine-code round trip: programs assembled, encoded to binary words,
//! decoded back and executed must behave identically — the encoder, the
//! decoder and the simulator agree on the ISA.

use sc_core::{CoreConfig, Simulator};
use sc_isa::{csr, parse_asm, FpReg, IntReg, Program};
use sc_mem::Store;

fn run_both(src: &str, setup: impl Fn(&mut Simulator)) -> (Simulator, Simulator) {
    let original = parse_asm(src).expect("parses");
    let words = original.to_words();
    let decoded = Program::from_words(&words).expect("decodes");
    assert_eq!(original.code(), decoded.code(), "decode(encode(p)) == p");
    let mut a = Simulator::new(CoreConfig::new(), original);
    let mut b = Simulator::new(CoreConfig::new(), decoded);
    setup(&mut a);
    setup(&mut b);
    a.run(100_000).expect("original runs");
    b.run(100_000).expect("decoded runs");
    (a, b)
}

#[test]
fn integer_program_roundtrips_through_binary() {
    let (a, b) = run_both(
        r"
            li  t0, 100
            li  t1, 0
        loop:
            addi t1, t1, 3
            addi t0, t0, -1
            bne  t0, x0, loop
            sw   t1, 0x80(x0)
            ecall
        ",
        |_| {},
    );
    assert_eq!(a.int_reg(IntReg::new(6)), 300);
    assert_eq!(
        a.tcdm().read_u32(0x80).unwrap(),
        b.tcdm().read_u32(0x80).unwrap()
    );
}

#[test]
fn chained_fp_program_roundtrips_through_binary() {
    let src = r"
        li   t0, 8
        csrs 0x7C3, t0
        fadd.d ft3, ft4, ft5
        fadd.d ft3, ft4, ft5
        fmv.d  ft8, ft3
        fmv.d  ft9, ft3
        csrw 0x7C3, x0
        ecall
    ";
    let (a, b) = run_both(src, |sim| {
        sim.set_fp_reg(FpReg::new(4), 1.5);
        sim.set_fp_reg(FpReg::new(5), 2.0);
    });
    assert_eq!(a.fp_reg(FpReg::new(28)), 3.5, "ft8 is f28");
    assert_eq!(a.fp_reg(FpReg::new(29)), 3.5, "ft9 is f29");
    assert_eq!(
        a.fp_reg(FpReg::new(28)).to_bits(),
        b.fp_reg(FpReg::new(28)).to_bits()
    );
}

#[test]
fn div_sqrt_cvt_paths_execute() {
    // End-to-end coverage of the iterative unit and the conversion path.
    let src = r"
        li t0, 9
        fcvt.d.w ft4, t0
        fsqrt.d  ft5, ft4
        fdiv.d   ft6, ft4, ft5
        flt.d    t1, ft5, ft4
        addi     t2, t1, 10
        ecall
    ";
    let (a, _) = run_both(src, |_| {});
    assert_eq!(a.fp_reg(FpReg::new(4)), 9.0);
    assert_eq!(a.fp_reg(FpReg::new(5)), 3.0);
    assert_eq!(a.fp_reg(FpReg::new(6)), 3.0);
    assert_eq!(a.int_reg(IntReg::new(7)), 11, "3.0 < 9.0");
}

#[test]
fn iterative_unit_blocks_issue_while_busy() {
    // Two back-to-back divides serialise on the unpipelined unit.
    let src = r"
        fdiv.d ft6, ft4, ft5
        fdiv.d ft7, ft4, ft5
        ecall
    ";
    let prog = parse_asm(src).unwrap();
    let mut sim = Simulator::new(CoreConfig::new(), prog);
    sim.set_fp_reg(FpReg::new(4), 8.0);
    sim.set_fp_reg(FpReg::new(5), 2.0);
    let summary = sim.run(10_000).unwrap();
    assert_eq!(sim.fp_reg(FpReg::new(6)), 4.0);
    assert_eq!(sim.fp_reg(FpReg::new(7)), 4.0);
    // Div latency is 11: two serialised divides dominate the runtime.
    assert!(summary.cycles >= 22, "cycles {}", summary.cycles);
}

#[test]
fn mcycle_csr_is_readable() {
    let src = r"
        nop
        nop
        csrr t0, 0xB00
        ecall
    ";
    let prog = parse_asm(src).unwrap();
    let mut sim = Simulator::new(CoreConfig::new(), prog);
    sim.run(1_000).unwrap();
    let cycles_at_read = sim.int_reg(IntReg::new(5));
    assert!(cycles_at_read >= 2, "mcycle read {cycles_at_read}");
    let _ = csr::MCYCLE;
}

#[test]
fn staggered_frep_executes_through_the_simulator() {
    // frep.o with rd-stagger writes alternating destinations — the Snitch
    // feature the sequencer implements; exercised end-to-end here.
    let src = r"
        li t0, 3
        frep.o t0, 1, 1, 1
        fadd.d ft8, ft4, ft5
        ecall
    ";
    let prog = parse_asm(src).unwrap();
    let mut sim = Simulator::new(CoreConfig::new(), prog);
    sim.set_fp_reg(FpReg::new(4), 2.0);
    sim.set_fp_reg(FpReg::new(5), 0.5);
    sim.run(1_000).unwrap();
    // 4 iterations, stagger_max 1 on rd: ft8 = f28, so writes f28, f29.
    assert_eq!(sim.fp_reg(FpReg::new(28)), 2.5);
    assert_eq!(sim.fp_reg(FpReg::new(29)), 2.5);
}
