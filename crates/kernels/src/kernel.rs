//! The common kernel harness: a program plus its data setup and
//! result verification, runnable on a configured core.

use std::fmt;

use sc_core::{CoreConfig, RunSummary, SimError, Simulator};
use sc_isa::Program;
use sc_mem::{MemError, Store};

/// A mismatch found during result verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Linear index of the first mismatching element.
    pub index: usize,
    /// Value produced by the simulated kernel.
    pub got: f64,
    /// Value produced by the golden model.
    pub want: f64,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "result mismatch at element {}: got {:e}, want {:e}",
            self.index, self.got, self.want
        )
    }
}

impl std::error::Error for VerifyError {}

/// Any failure while running a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The simulation itself failed.
    Sim(SimError),
    /// A multi-cluster system simulation failed (cluster-tagged).
    System(sc_system::SystemError),
    /// Data setup failed (layout outside the TCDM).
    Mem(MemError),
    /// The kernel ran but produced wrong results.
    Verify(VerifyError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Sim(e) => write!(f, "simulation error: {e}"),
            KernelError::System(e) => write!(f, "system simulation error: {e}"),
            KernelError::Mem(e) => write!(f, "data setup error: {e}"),
            KernelError::Verify(e) => write!(f, "verification error: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<SimError> for KernelError {
    fn from(e: SimError) -> Self {
        KernelError::Sim(e)
    }
}

impl From<sc_system::SystemError> for KernelError {
    fn from(e: sc_system::SystemError) -> Self {
        KernelError::System(e)
    }
}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> Self {
        KernelError::Mem(e)
    }
}

impl From<VerifyError> for KernelError {
    fn from(e: VerifyError) -> Self {
        KernelError::Verify(e)
    }
}

/// Writes a kernel's input data into a store: a TCDM, or the
/// background memory a tiled kernel stages from.
pub type SetupFn = Box<dyn Fn(&mut dyn Store) -> Result<(), MemError> + Send + Sync>;
/// Checks a store against a kernel's golden model.
pub type CheckFn = Box<dyn Fn(&dyn Store) -> Result<(), VerifyError> + Send + Sync>;

/// A runnable kernel: program + data setup + golden-model check.
pub struct Kernel {
    name: String,
    program: Program,
    flops: u64,
    setup: SetupFn,
    check: CheckFn,
}

impl Kernel {
    /// Assembles a kernel from its parts.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        program: Program,
        flops: u64,
        setup: SetupFn,
        check: CheckFn,
    ) -> Self {
        let name = name.into();
        crate::debug_lint_harts(&name, std::slice::from_ref(&program));
        Kernel {
            name,
            program,
            flops,
            setup,
            check,
        }
    }

    /// The kernel's display name (e.g. `"box3d1r/Chaining+"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assembled program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Double-precision flops the measured region performs.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Runs the kernel on a core configured with `cfg`, verifying results.
    ///
    /// # Errors
    ///
    /// Simulation errors, setup errors and verification mismatches are all
    /// reported as [`KernelError`].
    pub fn run(&self, cfg: CoreConfig, max_cycles: u64) -> Result<KernelRun, KernelError> {
        let mut sim = Simulator::new(cfg, self.program.clone());
        (self.setup)(sim.tcdm_mut())?;
        let summary = sim.run(max_cycles)?;
        (self.check)(sim.tcdm())?;
        Ok(KernelRun { summary })
    }

    /// Writes the kernel's input data into `mem` (a TCDM) — for callers
    /// driving a simulator (or cluster) themselves, e.g. the
    /// cycle-equivalence tests.
    ///
    /// # Errors
    ///
    /// Functional memory errors if the layout does not fit.
    pub fn apply_setup(&self, mem: &mut dyn Store) -> Result<(), MemError> {
        (self.setup)(mem)
    }

    /// Checks `mem` (a TCDM) against the kernel's golden model.
    ///
    /// # Errors
    ///
    /// The first mismatching element.
    pub fn verify(&self, mem: &dyn Store) -> Result<(), VerifyError> {
        (self.check)(mem)
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("instructions", &self.program.len())
            .field("flops", &self.flops)
            .finish_non_exhaustive()
    }
}

/// The outcome of a verified kernel run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The simulator's run summary (counters, measured region, trace).
    pub summary: RunSummary,
}

impl KernelRun {
    /// Counters of the measured region (falls back to the whole run).
    #[must_use]
    pub fn measured(&self) -> &sc_core::PerfCounters {
        self.summary.measured()
    }
}

/// Compares a range of doubles in `mem` against expected values
/// bit-exactly.
///
/// # Errors
///
/// Returns the first mismatch as a [`VerifyError`].
pub fn verify_f64_exact(mem: &dyn Store, base: u32, want: &[f64]) -> Result<(), VerifyError> {
    for (i, w) in want.iter().enumerate() {
        let got = mem.read_f64(base + 8 * i as u32).map_err(|_| VerifyError {
            index: i,
            got: f64::NAN,
            want: *w,
        })?;
        if got.to_bits() != w.to_bits() {
            return Err(VerifyError {
                index: i,
                got,
                want: *w,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::ProgramBuilder;
    use sc_mem::TcdmConfig;

    fn trivial_kernel(expected: f64) -> Kernel {
        let mut b = ProgramBuilder::new();
        let a0 = sc_isa::IntReg::new(10);
        b.li(a0, 0x100);
        b.fld(sc_isa::FpReg::new(4), a0, 0);
        b.fadd_d(
            sc_isa::FpReg::new(5),
            sc_isa::FpReg::new(4),
            sc_isa::FpReg::new(4),
        );
        b.fsd(sc_isa::FpReg::new(5), a0, 8);
        b.ecall();
        Kernel::new(
            "trivial",
            b.build().unwrap(),
            1,
            Box::new(|t| t.write_f64(0x100, 2.5)),
            Box::new(move |t| verify_f64_exact(t, 0x108, &[expected])),
        )
    }

    fn cfg() -> CoreConfig {
        CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(4096).with_banks(4))
    }

    #[test]
    fn kernel_runs_and_verifies() {
        let k = trivial_kernel(5.0);
        let run = k.run(cfg(), 1_000).unwrap();
        assert!(run.summary.cycles > 0);
        assert_eq!(k.flops(), 1);
        assert_eq!(k.name(), "trivial");
    }

    #[test]
    fn verification_failure_is_reported() {
        let k = trivial_kernel(999.0);
        match k.run(cfg(), 1_000) {
            Err(KernelError::Verify(v)) => {
                assert_eq!(v.got, 5.0);
                assert_eq!(v.want, 999.0);
            }
            other => panic!("expected verify error, got {other:?}"),
        }
    }

    #[test]
    fn debug_impl_is_informative() {
        let k = trivial_kernel(5.0);
        let s = format!("{k:?}");
        assert!(s.contains("trivial"));
        assert!(s.contains("instructions"));
    }
}
