//! Failure injection: the core must turn software misuse into
//! descriptive errors.

use scalar_chaining::prelude::*;
use scalar_chaining::ssr::CfgAddr as Cfg;

fn t(i: u8) -> IntReg {
    IntReg::new(i)
}

fn arm_read_stream(b: &mut ProgramBuilder, dm: u8, base: u32, n: u32) {
    let tmp = t(28);
    b.li(tmp, n as i32 - 1);
    b.scfgwi(tmp, Cfg { dm, reg: 2 }.to_imm());
    b.li(tmp, 8);
    b.scfgwi(tmp, Cfg { dm, reg: 6 }.to_imm());
    b.li(tmp, base as i32);
    b.scfgwi(tmp, Cfg { dm, reg: 24 }.to_imm());
}

#[test]
fn reading_more_than_streamed_is_an_error() {
    let mut b = ProgramBuilder::new();
    b.li(t(5), 1);
    b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t(5));
    arm_read_stream(&mut b, 0, 0x100, 2);
    // Stream holds 2 elements; read 3.
    for k in 0..3u8 {
        b.fmv_d(FpReg::new(8 + k), FpReg::FT0);
    }
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    let err = sim.run(10_000).unwrap_err();
    assert_eq!(err, SimError::StreamReadExhausted { dm: 0 });
}

#[test]
fn ecall_with_undelivered_stream_elements_is_an_error() {
    let mut b = ProgramBuilder::new();
    b.li(t(5), 1);
    b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t(5));
    arm_read_stream(&mut b, 0, 0x100, 4);
    b.fmv_d(FpReg::new(8), FpReg::FT0); // consume only 1 of 4
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    let err = sim.run(10_000).unwrap_err();
    assert_eq!(err, SimError::EcallWithActiveStream { dm: 0 });
}

#[test]
fn out_of_bounds_stream_is_reported_with_address_context() {
    let mut b = ProgramBuilder::new();
    b.li(t(5), 1);
    b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t(5));
    // Arm a stream that runs past the end of the TCDM.
    let size = CoreConfig::new().tcdm.size;
    arm_read_stream(&mut b, 0, size - 8, 4);
    for k in 0..4u8 {
        b.fmv_d(FpReg::new(8 + k), FpReg::FT0);
    }
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    let err = sim.run(10_000).unwrap_err();
    // Surfaced through the stream layer with full address context.
    assert!(matches!(err, SimError::Ssr(_)), "{err}");
    assert!(err.to_string().contains("outside memory"), "{err}");
}

#[test]
fn oversized_frep_body_is_reported() {
    let mut b = ProgramBuilder::new();
    b.li(t(6), 3);
    // Body larger than the 16-entry sequence buffer.
    b.frep_o(t(6), 20, 0, 0);
    for _ in 0..20 {
        b.fadd_d(FpReg::new(8), FpReg::new(9), FpReg::new(10));
    }
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    match sim.run(10_000).unwrap_err() {
        SimError::Seq(e) => assert!(e.to_string().contains("exceeds")),
        other => panic!("expected sequencer error, got {other}"),
    }
}

#[test]
fn misaligned_fp_access_is_reported() {
    let mut b = ProgramBuilder::new();
    b.li(t(10), 0x104); // 4-byte aligned, not 8
    b.fld(FpReg::new(8), t(10), 0);
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    match sim.run(10_000).unwrap_err() {
        SimError::Mem(e) => assert!(e.to_string().contains("misaligned")),
        other => panic!("expected memory error, got {other}"),
    }
}

#[test]
fn fetch_past_program_end_is_reported() {
    let mut b = ProgramBuilder::new();
    b.nop(); // no ecall
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    assert_eq!(
        sim.run(100).unwrap_err(),
        SimError::FetchOutOfProgram { pc: 4 }
    );
}

#[test]
fn rearming_active_stream_stalls_until_complete_not_corrupt() {
    // Re-arming a stream that still has elements is NOT an immediate
    // error: the pointer write waits for completion (hardware-safe
    // serialisation). With a consumer that never drains, it becomes a
    // deterministic hang.
    let mut b = ProgramBuilder::new();
    b.li(t(5), 1);
    b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, t(5));
    arm_read_stream(&mut b, 0, 0x100, 8);
    b.li(t(28), 0x200_i32);
    b.scfgwi(t(28), Cfg { dm: 0, reg: 24 }.to_imm()); // re-arm while active
    b.ecall();
    let mut sim = Simulator::new(CoreConfig::new(), b.build().unwrap());
    assert_eq!(
        sim.run(1_000).unwrap_err(),
        SimError::MaxCyclesExceeded { max_cycles: 1_000 }
    );
}
