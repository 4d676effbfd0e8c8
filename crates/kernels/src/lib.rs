//! # sc-kernels — the paper's workloads
//!
//! Code generators for every benchmark the paper evaluates:
//!
//! * [`VecOpKernel`] — the Fig. 1 microbenchmark `a = b * (c + d)` in
//!   baseline / unrolled / chained form,
//! * [`StencilKernel`] — the register-limited SARIS stencils (`box3d1r`,
//!   `j3d27pt`) in all five Fig. 3 variants (`Base--`, `Base-`, `Base`,
//!   `Chaining`, `Chaining+`),
//!
//! plus the supporting pieces: [`Grid3`] data layout, [`Stencil`]
//! definitions with a golden model, and the [`Kernel`] harness that runs a
//! generated program on the simulator and verifies its output bit-exactly
//! against the golden model (all variants execute the same FMA sequence
//! per output point, so equality is exact, not approximate).
//!
//! ```
//! use sc_core::CoreConfig;
//! use sc_kernels::{VecOpKernel, VecOpVariant};
//!
//! let kernel = VecOpKernel::new(32, VecOpVariant::Chained).build();
//! let run = kernel.run(CoreConfig::new(), 100_000)?;
//! assert!(run.measured().fpu_utilization() > 0.9);
//! # Ok::<(), sc_kernels::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster_kernel;
mod codegen;
mod grid;
mod kernel;
mod partition;
mod stencil;
mod system_kernel;
mod tiling;
mod variant;
mod vecop;

pub use cluster_kernel::{ClusterKernel, ClusterKernelRun};
pub use codegen::{BuildError, Layout, StencilKernel};
pub use grid::Grid3;
pub use kernel::{verify_f64_exact, CheckFn, Kernel, KernelError, KernelRun, SetupFn, VerifyError};
pub use partition::split_ranges;
pub use stencil::Stencil;
pub use system_kernel::{SystemKernel, SystemKernelRun, TiledSystemKernel, TiledSystemRun};
pub use tiling::{TileError, WorkingSet, L2_CAP_GRANULE_BYTES, L2_SWEEP_MSHRS, TCDM_CAP_BYTES};
pub use variant::Variant;
pub use vecop::{VecOpKernel, VecOpVariant};

/// Debug-build self-check run on every `build_*` output: the generated
/// program set must pass the hardware-independent subset of the static
/// verifier (`sc-lint`) — balanced chained-FIFO traffic, well-formed DMA
/// descriptor protocol, known CSRs. Capacity- and footprint-dependent
/// rules are deliberately excluded ([`sc_lint::LintConfig::balance_only`]):
/// generators are parameterised over hardware depth (e.g. the
/// depth-ablation's unroll-8 chained bursts) and must not be rejected
/// for one particular FIFO size.
#[cfg(debug_assertions)]
pub(crate) fn debug_lint_harts(kernel: &str, harts: &[sc_isa::Program]) {
    let report = sc_lint::lint_harts(harts, &sc_lint::LintConfig::balance_only());
    assert!(
        !report.has_errors(),
        "kernel `{kernel}`: codegen produced statically invalid programs:\n{report}"
    );
}

#[cfg(not(debug_assertions))]
pub(crate) fn debug_lint_harts(_kernel: &str, _harts: &[sc_isa::Program]) {}
