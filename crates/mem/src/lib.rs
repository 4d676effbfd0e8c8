//! # sc-mem — banked TCDM model
//!
//! A cycle-level model of the tightly-coupled data memory of a Snitch-like
//! cluster: word-interleaved SRAM banks behind a single-cycle crossbar with
//! per-bank arbitration. The model separates:
//!
//! * **functional access** — the [`Store`] trait's bounds/alignment-checked
//!   byte-addressed reads/writes used to move actual data, shared by the
//!   TCDM and the background [`Dram`], and
//! * **timing access** — [`Tcdm::arbitrate`], which decides per cycle which
//!   master ports win their banks; losers retry (a *bank conflict*).
//!
//! Bank conflicts are central to the paper's evaluation: each stream
//! semantic register occupies a crossbar port, so streaming the stencil
//! coefficients (the `Base` variant) adds a contender while holding them in
//! registers (the `Chaining` variants) removes one.
//!
//! ```
//! use sc_mem::{Store, Tcdm, TcdmConfig};
//! let mut tcdm = Tcdm::new(TcdmConfig::new().with_banks(8));
//! tcdm.write_f64(64, 1.25)?;
//! assert_eq!(tcdm.read_f64(64)?, 1.25);
//! # Ok::<(), sc_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dram;
mod l2;
mod stats;
mod store;
mod tcdm;

#[cfg(test)]
mod proptests;

pub use dram::{Dram, DramConfig};
pub use l2::{L2Config, L2MetricSet, L2Outcome, L2Request, L2Stats, L2};
// The cache core the L2 is built on, re-exported so consumers can read
// its configuration and statistics types without a direct dependency.
pub use sc_cache::{Cache, CacheConfig, CacheStats, CacheWake, PrefetchHint, Probe};
pub use stats::TcdmStats;
pub use store::{MemError, Store};
pub use tcdm::{AccessKind, PortId, Request, Tcdm, TcdmConfig};
