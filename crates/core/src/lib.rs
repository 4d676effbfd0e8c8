//! # sc-core — a cycle-level Snitch-like core with the chaining extension
//!
//! This crate is the reproduction's centrepiece: a scalar in-order RV32
//! core with a decoupled floating-point subsystem (pseudo dual-issue),
//! stream semantic registers, an FREP sequencer — and the paper's
//! **scalar chaining** ISA extension:
//!
//! * CSR **0x7C3** holds a 32-bit mask giving selected FP registers FIFO
//!   semantics (reads pop, writes push),
//! * one **valid bit** per register implements backpressure: a completing
//!   producer holds in the FPU's final pipeline stage until the previous
//!   value is consumed, and a consumer holds at issue until a value is
//!   available,
//! * WAW dependencies between successive writers of a chained register
//!   vanish, so a latency-hiding software pipeline needs one register
//!   instead of one per in-flight result.
//!
//! ```
//! use sc_core::{CoreConfig, Simulator};
//! use sc_isa::{csr, FpReg, IntReg, ProgramBuilder};
//!
//! // fadd.d producers chained through ft3, consumed by an fmul.d.
//! let t0 = IntReg::new(5);
//! let mut b = ProgramBuilder::new();
//! b.li(t0, FpReg::FT3.chain_mask_bit() as i32);
//! b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, t0);
//! b.fadd_d(FpReg::FT3, FpReg::new(4), FpReg::new(5));
//! b.fmul_d(FpReg::new(6), FpReg::FT3, FpReg::new(4));
//! b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
//! b.ecall();
//!
//! let mut sim = Simulator::new(CoreConfig::new(), b.build()?);
//! sim.set_fp_reg(FpReg::new(4), 2.0);
//! sim.set_fp_reg(FpReg::new(5), 3.0);
//! sim.run(1_000)?;
//! assert_eq!(sim.fp_reg(FpReg::new(6)), 10.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
mod config;
mod counters;
mod error;
mod fp_subsys;
mod sched;
mod sequencer;
mod sim;
mod trace;
mod uop;

pub use chain::{ChainError, ChainUnit};
pub use config::CoreConfig;
pub use counters::{PerfCounters, StallCause};
pub use error::SimError;
pub use fp_subsys::{FpSubsystem, IntWriteback, IssueOutcome};
pub use sc_perf::{Attribution, AttributionError, PhaseMark};
pub use sched::{SchedMode, Scheduler, Wake};
pub use sequencer::{OffloadedFp, SeqError, SeqItem, Sequencer};
pub use sim::{Core, DmaCommand, RunSummary, Simulator};
pub use trace::{FpSlot, IssueTrace, TraceCycle};
pub use uop::{FpUop, FpUopKind};
