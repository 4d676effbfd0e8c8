//! # sc-ssr — stream semantic registers
//!
//! Snitch's SSR extension maps the FP registers `ft0`–`ft2` onto hardware
//! *data movers*: reading such a register pops the next element of a
//! programmed affine memory stream, writing pushes into a store stream.
//! This removes explicit load/store instructions from inner loops — the
//! prerequisite for the paper's near-100 % FPU utilisation numbers — at
//! the price of one TCDM crossbar port per active stream.
//!
//! The crate provides:
//!
//! * [`AffinePattern`] / [`AddrGen`] — up-to-4-D affine address walks with
//!   element repetition,
//! * [`DataMover`] — a stream engine with a prefetch/drain FIFO and
//!   single-cycle-SRAM landing-slot timing,
//! * [`SsrUnit`] — the configuration register file (`scfgwi`/`scfgri`
//!   immediates, Snitch layout) plus the mover array.
//!
//! ```
//! use sc_ssr::{AddrGen, AffinePattern};
//! // Stream a 3×3 stencil window row: 3 doubles, rows 40 bytes apart.
//! let pat = AffinePattern::from_loops(0x200, &[(3, 8), (3, 40)]);
//! assert_eq!(pat.total_elements(), 9);
//! assert_eq!(AddrGen::new(pat).next(), Some(0x200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addrgen;
mod dm;
mod unit;

#[cfg(test)]
mod proptests;

pub use addrgen::{AddrGen, AffinePattern};
pub use dm::{DataMover, DmStats, SsrError, StreamDir};
pub use unit::{CfgAddr, SsrUnit};
