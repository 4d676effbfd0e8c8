//! # sc-bench — the paper's experiment harness
//!
//! One binary per figure/claim (see `src/bin/`), built on:
//!
//! * [`Fig3Experiment`] — both stencils × all five variants,
//! * [`measure`] — kernel → counters → energy pipeline,
//! * [`headline`] — the §III geomean speedup/efficiency claims,
//! * [`render_fig3`]/[`fig3_csv`]/[`render_headline`] — output formatting.
//!
//! Binaries:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_trace` | Fig. 1(a–c): issue traces of the three vecop variants |
//! | `fig3` | Fig. 3: utilisation + power per stencil/variant, headline geomeans |
//! | `area_report` | §III: <2 % area-overhead claim (structural proxy) |
//! | `ablation_depth` | §II claim: chaining benefit grows with pipeline depth |
//! | `ablation_registers` | §I claim: unrolling trades registers for ILP |
//! | `ablation_banks` | TCDM bank-count sensitivity of the Fig. 3 sweep |
//! | `cluster_scaling` | multi-core scaling: 1/2/4/8 cores × chaining on/off ([`registry::Sweep::ClusterScaling`]) |
//! | `system_scaling` | multi-cluster scaling: 1/2/4 clusters × 1/4/8 cores over a shared L2 ([`registry::Sweep::SystemScaling`]) |
//! | `l2_ablation` | finite-L2 sweep: capacity × ways × refill channels × chaining ([`registry::Sweep::L2Ablation`]) |
//! | `weak_scaling` | weak scaling: the grid grows with the cluster count, 1/4 refill channels ([`registry::Sweep::WeakScaling`]) |
//! | `prefetch_ablation` | descriptor-driven L2 prefetch: degree × distance × channels ([`registry::Sweep::PrefetchAblation`]) |
//! | `sched_identity` | event scheduler ≡ dense stepping on every system-level registry point (150 of 166) |
//! | `lint_sweep` | every program the registry's points generate is lint-clean; seeded bugs are flagged |
//! | `host_speed` | host wall-clock: dense vs event-driven clock advancement |
//! | `perf_report` | top-down attribution trees / roofline / CSV over any sweep report, plus `diff` |
//!
//! The five baselined sweeps (`cluster_scaling` through
//! `prefetch_ablation`), `sched_identity` and `lint_sweep` all iterate
//! [`registry`], the one definition of the 166 config points the CI perf
//! gate pins. The plumbing they share lives here, so each sweep binary
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
//!
//! The reports let the perf trajectory be tracked across PRs.

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
