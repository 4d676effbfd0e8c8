//! # sc-lint — static kernel verifier for chaining/DMA/barrier hazards
//!
//! The bug classes that have cost the most in this repo — chained-FIFO
//! push/pop imbalance deadlocks, wrap-unsafe DMA completion polls,
//! barrier divergence, touching a tile buffer before its DMA completes —
//! are all *statically visible* in the instruction stream plus the DMA
//! descriptor schedule. This crate decides them before a single cycle is
//! simulated: a linear abstract-interpretation pass over each hart's
//! [`sc_isa::Program`] tracks integer-register constants, the chaining
//! mask (CSR 0x7C3) with per-register FIFO occupancy, the barrier-write
//! sequence, and the in-flight DMA transfer set, and emits a structured
//! [`LintReport`] of [`Diagnostic`]s.
//!
//! ## Rules
//!
//! | rule id | catches |
//! |---|---|
//! | `fifo-balance` | chained-FIFO pushes/pops unbalanced along any path (loop-aware via `frep` trip-count constants and back-edge occupancy deltas); overflow past the FIFO capacity; drain-dependent bursts |
//! | `barrier-match` | harts of one cluster reaching different sequences of barrier CSR writes (cluster 0x7C5 / system 0x7C6) |
//! | `dma-protocol` | doorbell rung before the descriptor is programmed, wrap-unsafe completion polls, transfers started in a loop or left at program end without a completion wait, reads of a DMA destination before the wait |
//! | `tcdm-hazard` | descriptor footprints exceeding the TCDM capacity, overlapping in-flight DMA writes, compute stores racing in-flight transfers |
//! | `csr-unknown` | architectural writes to undefined or read-only CSR addresses |
//!
//! ## Scope and soundness
//!
//! The pass is per-program: double-buffered tile pipelines load a fresh
//! program per tile, and completion-wait counts are *global* FIFO
//! positions spanning programs, so a wait is conservatively assumed to
//! retire every transfer rung earlier in the same program. Forward
//! branches are treated as fall-through (both paths are scanned in
//! order); backward branches are treated as loops and checked for
//! per-iteration imbalance against the state snapshot at their target.
//! SSR stream footprints are not modelled. These approximations are
//! chosen so that every generator-emitted kernel in the repo lints
//! clean while each historical bug class is still flagged — the
//! `lint_sweep` CI bin pins both directions.
//!
//! ```
//! use sc_isa::{csr, FpReg, IntReg, ProgramBuilder};
//! use sc_lint::{lint_program, LintConfig, Rule};
//!
//! // Enable chaining on f3, push twice, pop once: unbalanced.
//! let mut b = ProgramBuilder::new();
//! b.li(IntReg::new(5), FpReg::new(3).chain_mask_bit() as i32);
//! b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, IntReg::new(5));
//! b.fadd_d(FpReg::new(3), FpReg::new(1), FpReg::new(2));
//! b.fadd_d(FpReg::new(3), FpReg::new(1), FpReg::new(2));
//! b.fmul_d(FpReg::new(4), FpReg::new(3), FpReg::new(1));
//! b.ecall();
//! let report = lint_program(&b.build()?, &LintConfig::new());
//! assert!(report.iter().any(|d| d.rule == Rule::FifoBalance));
//! # Ok::<(), sc_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use sc_isa::Program;

mod engine;
pub mod fixtures;

/// The statically decidable hazard classes the linter checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Chained-FIFO pushes/pops unbalanced or overflowing along a path.
    FifoBalance,
    /// Harts reach different barrier CSR write sequences.
    BarrierMatch,
    /// DMA descriptor/doorbell/completion-wait protocol violations.
    DmaProtocol,
    /// TCDM capacity overruns or racing accesses to in-flight regions.
    TcdmHazard,
    /// Writes to undefined or read-only CSR addresses.
    CsrUnknown,
}

impl Rule {
    /// The stable string id used in reports, CI expectations and docs.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::FifoBalance => "fifo-balance",
            Rule::BarrierMatch => "barrier-match",
            Rule::DmaProtocol => "dma-protocol",
            Rule::TcdmHazard => "tcdm-hazard",
            Rule::CsrUnknown => "csr-unknown",
        }
    }

    /// Every rule, in report order.
    #[must_use]
    pub fn all() -> [Rule; 5] {
        [
            Rule::FifoBalance,
            Rule::BarrierMatch,
            Rule::DmaProtocol,
            Rule::TcdmHazard,
            Rule::CsrUnknown,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How certain/severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intentional (e.g. a burst that only
    /// completes with the issue-stage FIFO drain, or a protocol step
    /// that may be satisfied by an earlier program of the same run).
    Warning,
    /// A protocol violation that wedges or corrupts on conforming
    /// hardware. [`SystemBuilder::lint_strict`]-style gates refuse
    /// programs with errors.
    ///
    /// [`SystemBuilder::lint_strict`]: https://docs.rs/sc-system
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: a rule violated at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// The hart whose program contains the finding (set by
    /// [`lint_harts`]; `None` for single-program lints).
    pub hart: Option<u32>,
    /// Byte PC of the offending instruction, if attributable.
    pub pc: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(hart) = self.hart {
            write!(f, " hart{hart}")?;
        }
        if let Some(pc) = self.pc {
            write!(f, " pc={pc:#x}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The structured outcome of a lint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diags: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty (clean) report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// No findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any finding is [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether any finding fired `rule` (at any severity).
    #[must_use]
    pub fn has_rule(&self, rule: Rule) -> bool {
        self.diags.iter().any(|d| d.rule == rule)
    }

    /// All findings, in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Findings for one hart (plus hart-less findings when `hart` is 0).
    pub fn for_hart(&self, hart: u32) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diags.iter().filter(move |d| d.hart == Some(hart))
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when there are no findings (alias of [`LintReport::is_clean`]
    /// for the conventional pair with `len`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.diags.extend(other.diags);
    }

    pub(crate) fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Stamps every hart-less finding with `hart` (used by the
    /// multi-hart entry point).
    pub(crate) fn assign_hart(&mut self, hart: u32) {
        for d in &mut self.diags {
            if d.hart.is_none() {
                d.hart = Some(hart);
            }
        }
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diags.is_empty() {
            return write!(f, "lint clean");
        }
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Tunable hardware/model parameters the rules check against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Logical chained-FIFO capacity (hardware FPU depth + 1; the
    /// model's default depth of 3 gives 4). Occupancy of exactly
    /// `capacity + 1` relies on the issue-stage drain
    /// (`chained_fifo_shift`) and is reported as a warning; anything
    /// beyond wedges even with the drain and is an error.
    pub fifo_capacity: i64,
    /// TCDM capacity a DMA descriptor footprint may not exceed.
    pub tcdm_cap_bytes: u64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            fifo_capacity: 4,
            tcdm_cap_bytes: 128 << 10,
        }
    }
}

impl LintConfig {
    /// The default configuration (FIFO capacity 4, 128 KiB TCDM).
    #[must_use]
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Overrides the chained-FIFO capacity (FPU depth + 1).
    #[must_use]
    pub fn with_fifo_capacity(mut self, capacity: u32) -> Self {
        self.fifo_capacity = i64::from(capacity);
        self
    }

    /// Overrides the TCDM capacity cap.
    #[must_use]
    pub fn with_tcdm_cap_bytes(mut self, bytes: u64) -> Self {
        self.tcdm_cap_bytes = bytes;
        self
    }

    /// A configuration for generator self-checks: the FIFO capacity is
    /// effectively unbounded, so only *hardware-independent* invariants
    /// fire (push/pop balance, underflow, loop imbalance, DMA/barrier/
    /// CSR protocol) — depth-ablation kernels deliberately exceed the
    /// default capacity and must still pass the generators' debug
    /// assertions.
    #[must_use]
    pub fn balance_only() -> Self {
        LintConfig::default().with_fifo_capacity(1 << 20)
    }
}

/// Lints a single hart's program.
#[must_use]
pub fn lint_program(program: &Program, cfg: &LintConfig) -> LintReport {
    engine::lint_one(program, cfg).report
}

/// Lints every hart of a cluster: each program individually, plus the
/// cross-hart `barrier-match` check (all harts must reach the same
/// sequence of cluster/system barrier writes, or the rendezvous hangs).
#[must_use]
pub fn lint_harts(programs: &[Program], cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new();
    let mut seqs = Vec::with_capacity(programs.len());
    for (h, prog) in programs.iter().enumerate() {
        let outcome = engine::lint_one(prog, cfg);
        let mut hart_report = outcome.report;
        hart_report.assign_hart(h as u32);
        report.merge(hart_report);
        seqs.push(outcome.barriers);
    }
    if let Some(first) = seqs.first() {
        for (h, seq) in seqs.iter().enumerate().skip(1) {
            if seq != first {
                report.push(Diagnostic {
                    rule: Rule::BarrierMatch,
                    severity: Severity::Error,
                    hart: Some(h as u32),
                    pc: None,
                    message: format!(
                        "barrier sequence diverges from hart 0: hart 0 performs {}, hart {h} performs {} — the rendezvous can never release every hart",
                        engine::describe_barriers(first),
                        engine::describe_barriers(seq),
                    ),
                });
            }
        }
    }
    report
}
