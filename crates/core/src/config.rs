//! Core configuration.

use sc_fpu::FpuTiming;
use sc_mem::TcdmConfig;

/// Configuration of the Snitch-like core and its surroundings.
///
/// The defaults model the system of the paper: a single compute core with a
/// 3-stage ADDMUL FPU, three stream semantic registers, FREP, and a
/// 32-bank TCDM, with the chaining extension available.
///
/// # Examples
///
/// ```
/// use sc_core::CoreConfig;
/// let cfg = CoreConfig::new().with_chaining(false); // ablation: no extension
/// assert!(!cfg.chaining_enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// FPU per-class latencies.
    pub fpu: FpuTiming,
    /// TCDM geometry.
    pub tcdm: TcdmConfig,
    /// Number of stream semantic registers (data movers), `ft0`-up.
    pub num_ssrs: u8,
    /// Per-stream FIFO capacity.
    pub ssr_fifo_capacity: usize,
    /// Depth of the integer→FP offload queue (pseudo dual-issue buffer).
    pub offload_queue_depth: usize,
    /// Maximum FREP body size the sequencer can buffer.
    pub sequence_buffer_depth: usize,
    /// Whether the chaining extension hardware is present. When false,
    /// a non-zero write to the chaining CSR (0x7C3) is an error — the
    /// ablation baseline core.
    pub chaining_enabled: bool,
    /// Extra cycles charged for a taken branch (pipeline refill).
    pub branch_taken_penalty: u32,
    /// Capture a full per-cycle issue trace (costs memory; used by the
    /// Fig. 1 experiment and debugging).
    pub trace: bool,
    /// Whether the chained-FIFO writeback drain shifts entries in the
    /// same cycle a chained consumer pops (the hardware behaviour).
    /// Disabling it re-introduces a writeback deadlock — a held FPU
    /// result waiting on FIFO space that only its own consumer can
    /// free — and exists solely so watchdog tests can exercise hang
    /// diagnosis on a real historical bug.
    pub chained_fifo_shift: bool,
}

impl CoreConfig {
    /// The paper's system defaults.
    #[must_use]
    pub fn new() -> Self {
        CoreConfig {
            fpu: FpuTiming::new(),
            tcdm: TcdmConfig::new(),
            num_ssrs: 3,
            ssr_fifo_capacity: 4,
            offload_queue_depth: 8,
            sequence_buffer_depth: 16,
            chaining_enabled: true,
            branch_taken_penalty: 1,
            trace: false,
            chained_fifo_shift: true,
        }
    }

    /// Enables/disables the same-cycle chained-FIFO drain shift (see
    /// [`CoreConfig::chained_fifo_shift`]). Only watchdog tests should
    /// turn this off.
    #[must_use]
    pub fn with_chained_fifo_shift(mut self, enabled: bool) -> Self {
        self.chained_fifo_shift = enabled;
        self
    }

    /// Enables/disables the chaining extension hardware.
    #[must_use]
    pub fn with_chaining(mut self, enabled: bool) -> Self {
        self.chaining_enabled = enabled;
        self
    }

    /// Overrides the FPU timing.
    #[must_use]
    pub fn with_fpu(mut self, fpu: FpuTiming) -> Self {
        self.fpu = fpu;
        self
    }

    /// Overrides the TCDM geometry.
    #[must_use]
    pub fn with_tcdm(mut self, tcdm: TcdmConfig) -> Self {
        self.tcdm = tcdm;
        self
    }

    /// Enables per-cycle issue tracing.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_system() {
        let c = CoreConfig::new();
        assert_eq!(c.fpu.addmul_latency, 3, "Snitch FPU depth");
        assert_eq!(c.num_ssrs, 3, "Snitch has three SSRs");
        assert!(c.chaining_enabled);
    }

    #[test]
    fn builders_compose() {
        let c = CoreConfig::new().with_chaining(false).with_trace(true);
        assert!(!c.chaining_enabled);
        assert!(c.trace);
    }
}
