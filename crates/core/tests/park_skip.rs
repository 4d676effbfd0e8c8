//! Exactness pin for the parked-hart fast path: a hart parked on the
//! cluster barrier, the system barrier or `DMA_WAIT` is drained, so one
//! dense cycle of it must equal `Core::skip_cycles(1)` — counters and
//! attribution leaves, measured region, phase marks, registers, the
//! progress signature and every exported trace byte alike. Clusters take
//! the closed-form cycle for every parked hart in every scheduling mode,
//! so this is the check that licenses it.

use sc_core::{Core, CoreConfig, RunSummary, Wake};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{Store, Tcdm, TcdmConfig};
use sc_perf::Leaf;
use sc_trace::{TraceConfig, TraceSession, Track};

const T0: IntReg = IntReg::new(5);
const T1: IntReg = IntReg::new(6);
const TRACK: Track = Track::new(1, 0);

fn f(i: u8) -> FpReg {
    FpReg::new(i)
}

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

#[derive(Debug, Clone, Copy)]
enum Park {
    Barrier,
    SystemBarrier,
    DmaWait,
}

impl Park {
    /// The attribution leaf a parked cycle lands in.
    fn leaf(self) -> Leaf {
        match self {
            Park::Barrier => Leaf::Barrier,
            Park::SystemBarrier => Leaf::SystemBarrier,
            Park::DmaWait => Leaf::DmaWait,
        }
    }
}

/// Chained FP work, a marked region and phase marks on both sides of
/// one parking CSR write.
fn program(park: Park) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(T0, 0x100);
    b.fld(f(1), T0, 0);
    b.fld(f(2), T0, 8);
    b.csrrwi(IntReg::ZERO, csr::PHASE_MARK, 1);
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 1);
    b.li(T1, f(3).chain_mask_bit() as i32);
    b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, T1);
    b.fadd_d(f(3), f(1), f(2));
    b.fmul_d(f(4), f(3), f(2));
    b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
    b.fsd(f(4), T0, 16);
    b.li(T1, 1);
    let (addr, rd) = match park {
        Park::Barrier => (csr::CLUSTER_BARRIER, IntReg::new(10)),
        Park::SystemBarrier => (csr::SYSTEM_BARRIER, IntReg::new(11)),
        Park::DmaWait => (csr::DMA_WAIT, IntReg::new(12)),
    };
    b.csrrw(rd, addr, T1);
    b.csrrwi(IntReg::ZERO, csr::PHASE_MARK, 2);
    b.fmadd_d(f(5), f(4), f(1), f(2));
    b.fsd(f(5), T0, 24);
    b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);
    b.ecall();
    b.build().unwrap()
}

struct Outcome {
    summary: RunSummary,
    int_regs: Vec<u32>,
    fp_regs: Vec<u64>,
    signature: u64,
    perfetto: String,
    csv: String,
}

/// Runs `park`'s program to its parking point, holds it parked for
/// `window` cycles — dense `Core::step`s, or `skip_cycles(1)` each —
/// releases it, then runs it to halt. Samples counters at `cadence`,
/// the way a cluster does after each cycle.
fn drive(park: Park, window: u64, skip: bool, cadence: u64) -> Outcome {
    let session = TraceSession::new(TraceConfig::new().with_sample_every(cadence));
    let tracer = session.tracer();
    let mut core = Core::new(cfg(), program(park));
    core.set_tracer(tracer.clone(), TRACK);
    let mut tcdm = Tcdm::new(cfg().tcdm);
    tcdm.write_f64(0x100, 1.5).unwrap();
    tcdm.write_f64(0x108, 2.25).unwrap();

    let mut cycle = 0;
    let mut cycle_of = |core: &mut Core, tcdm: &mut Tcdm, skip: bool| {
        tracer.set_cycle(cycle);
        if skip {
            core.skip_cycles(1);
        } else {
            core.step(tcdm).unwrap();
        }
        if tracer.wants_sample(cycle) {
            tracer.sample(TRACK, core.counters());
        }
        cycle += 1;
    };

    let mut budget = 0..1_000;
    while core.wake() != Wake::Idle {
        assert!(budget.next().is_some(), "{park:?}: the hart never parked");
        cycle_of(&mut core, &mut tcdm, false);
    }
    assert!(!core.is_halted(), "{park:?}: halted instead of parking");
    for _ in 0..window {
        cycle_of(&mut core, &mut tcdm, skip);
    }
    match park {
        Park::Barrier => core.release_barrier(),
        Park::SystemBarrier => core.release_system_barrier(),
        Park::DmaWait => core.release_dma_wait(1),
    }
    while !core.is_halted() {
        assert!(budget.next().is_some(), "{park:?}: the hart never halted");
        cycle_of(&mut core, &mut tcdm, false);
    }
    assert_eq!(
        tcdm.read_f64(0x118).unwrap(),
        (1.5 + 2.25) * 2.25 * 1.5 + 2.25
    );

    Outcome {
        summary: core.summary(),
        int_regs: (0..32).map(|r| core.int_reg(IntReg::new(r))).collect(),
        fp_regs: (0..32).map(|r| core.fp_reg(f(r)).to_bits()).collect(),
        signature: core.progress_signature(),
        perfetto: session.perfetto_json(),
        csv: session.samples_csv(),
    }
}

#[test]
fn a_parked_cycle_equals_a_closed_form_skip() {
    for park in [Park::Barrier, Park::SystemBarrier, Park::DmaWait] {
        for window in [1, 6, 41] {
            for cadence in [1, 4, 16] {
                let dense = drive(park, window, false, cadence);
                let skipped = drive(park, window, true, cadence);
                let at = format!("{park:?}, window {window}, cadence {cadence}");
                assert_eq!(dense.summary, skipped.summary, "{at}");
                assert_eq!(dense.int_regs, skipped.int_regs, "{at}");
                assert_eq!(dense.fp_regs, skipped.fp_regs, "{at}");
                assert_eq!(dense.signature, skipped.signature, "{at}");
                assert_eq!(dense.perfetto, skipped.perfetto, "{at}");
                assert_eq!(dense.csv, skipped.csv, "{at}");
                // The window really was parked and really was sampled.
                assert!(
                    dense.summary.counters.attr.get(park.leaf()) > window,
                    "{at}"
                );
                assert_eq!(dense.summary.phase_marks.len(), 2, "{at}");
                assert!(dense.summary.region.is_some(), "{at}");
                assert!(dense.csv.lines().count() > 1, "{at}");
            }
        }
    }
}
