//! # sc-bench — the paper's experiment harness
//!
//! The library behind the `sc-bench` binary. Its commands regenerate
//! the paper's figures and claims, run the baselined sweeps and gate
//! their reports; the command table in `src/main.rs` lists them all,
//! and `sc-bench` without a command prints it. The paper's side:
//!
//! * [`Fig3Experiment`] — both stencils × all five variants,
//! * [`measure`] — kernel → counters → energy pipeline,
//! * [`headline`] — the §III geomean speedup/efficiency claims,
//! * [`render_fig3`]/[`fig3_csv`]/[`render_headline`] — output formatting.
//!
//! The five baselined sweeps (`cluster_scaling` through
//! `prefetch_ablation`), `sched_identity` and `lint_sweep` all iterate
//! [`registry`], the one definition of the 166 config points the CI perf
//! gate pins. The plumbing they share lives here, so each sweep command
//! keeps only its text table, its acceptance checks, its derived
//! top-level keys and its closing prose:
//!
//! * one point runner — a sweep is `parallel_sweep(specs, |s| s.run())`
//!   over a bounded pool of host threads ([`parallel_sweep`]), and each
//!   [`registry::PointRun`] carries its point, its summary, its system
//!   energy report ([`registry::PointRun::system_energy`]) and the
//!   finite L2's accounting validator
//!   ([`registry::PointRun::check_l2_accounting`]);
//! * one serializer per shared block — attribution
//!   ([`json::attribution_json`]) and the `"l2"`/`"l2_occupancy"` pair
//!   ([`json::with_l2_json`]);
//! * one report writer ([`json::emit_report`]): the report's first key
//!   names its file under `target/reports/`, and a failed write exits
//!   non-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attr;
pub mod gate;
mod harness;
pub mod json;
mod parallel;
pub mod registry;
mod report;

pub use harness::{geomean, headline, measure, Fig3Experiment, HeadlineNumbers, Measurement};
pub use json::Json;
pub use parallel::parallel_sweep;
pub use report::{fig3_csv, render_fig3, render_headline};
