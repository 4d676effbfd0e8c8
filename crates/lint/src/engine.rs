//! The abstract-interpretation pass behind [`crate::lint_program`].
//!
//! One linear scan per program. The abstract state tracks:
//!
//! * integer-register constants (`li`/`lui`/ALU propagation — enough to
//!   recover `frep` trip counts and DMA descriptor values from
//!   generator-emitted code),
//! * the chaining mask (CSR 0x7C3) and per-register FIFO occupancy,
//! * the per-hart barrier-write sequence,
//! * the programmed DMA descriptor and the in-flight transfer set with
//!   TCDM footprint hulls.
//!
//! A snapshot of the loop-relevant state is kept per instruction so a
//! backward branch can compare "state at the back-edge" against "state
//! at the target": any per-iteration drift in FIFO occupancy or the
//! in-flight transfer set is a hazard that compounds every iteration.
//! Completion-wait loops (polls of `DMA_COMPLETED`) are recognized
//! structurally and additionally checked for u32-wrap safety.

use sc_isa::{csr, CsrOp, CsrSrc, FpReg, Instruction, IntReg, Program};

use crate::{Diagnostic, LintConfig, LintReport, Rule, Severity};

/// Result of linting one program: the findings plus the barrier-write
/// sequence for the cross-hart comparison.
pub(crate) struct Outcome {
    pub(crate) report: LintReport,
    pub(crate) barriers: Vec<BarrierEvent>,
}

/// One barrier CSR write in a hart's trace. `looped` marks writes inside
/// a backward-branch body, where the static repetition count is part of
/// the event identity (two harts only match if the same barrier is
/// looped the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BarrierEvent {
    csr: u16,
    looped: bool,
}

pub(crate) fn describe_barriers(seq: &[BarrierEvent]) -> String {
    if seq.is_empty() {
        return "no barrier writes".to_string();
    }
    let name = |c: u16| {
        if c == csr::CLUSTER_BARRIER {
            "cluster"
        } else {
            "system"
        }
    };
    let parts: Vec<String> = seq
        .iter()
        .map(|e| {
            if e.looped {
                format!("{}(in loop)", name(e.csr))
            } else {
                name(e.csr).to_string()
            }
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// CSR addresses the model implements.
const KNOWN_CSRS: &[u16] = &[
    csr::FFLAGS,
    csr::FRM,
    csr::FCSR,
    csr::SSR_ENABLE,
    csr::FPMODE,
    csr::CHAIN_MASK,
    csr::PERF_REGION,
    csr::CLUSTER_BARRIER,
    csr::SYSTEM_BARRIER,
    csr::CLUSTER_ID,
    csr::SYSTEM_NUM_CLUSTERS,
    csr::CLUSTER_NUM_CORES,
    csr::PHASE_MARK,
    csr::DMA_SRC,
    csr::DMA_DST,
    csr::DMA_LEN,
    csr::DMA_SRC_STRIDE,
    csr::DMA_DST_STRIDE,
    csr::DMA_REPS,
    csr::DMA_START,
    csr::DMA_STATUS,
    csr::DMA_COMPLETED,
    csr::DMA_WAIT,
    csr::MCYCLE,
    csr::MINSTRET,
    csr::MHARTID,
];

/// CSRs an architectural write can never legally target.
const READ_ONLY_CSRS: &[u16] = &[
    csr::CLUSTER_ID,
    csr::SYSTEM_NUM_CLUSTERS,
    csr::CLUSTER_NUM_CORES,
    csr::DMA_STATUS,
    csr::DMA_COMPLETED,
    csr::MCYCLE,
    csr::MINSTRET,
    csr::MHARTID,
];

/// One programmed DMA descriptor field.
#[derive(Debug, Clone, Copy, Default)]
struct DescField {
    written: bool,
    val: Option<u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Descriptor {
    src: DescField,
    dst: DescField,
    len: DescField,
    dst_stride: DescField,
    reps: DescField,
}

/// A doorbell-rung transfer not yet covered by a completion wait, with
/// its TCDM-side footprint hull `[lo, hi)` when statically known.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    pc: u32,
    /// `Some(true)` = Dram→TCDM (writes TCDM), `Some(false)` =
    /// TCDM→Dram (reads TCDM), `None` = direction unknown.
    to_tcdm: Option<bool>,
    hull: Option<(u64, u64)>,
}

/// Loop-relevant state snapshot, taken before each instruction.
#[derive(Clone)]
struct Snapshot {
    occ: [i64; 32],
    barrier_len: usize,
    inflight_len: usize,
}

struct Analyzer<'a> {
    code: &'a [Instruction],
    cfg: &'a LintConfig,
    report: LintReport,
    /// Integer-register constants; index 0 is pinned to `Some(0)`.
    consts: [Option<u32>; 32],
    /// Chaining mask; `None` once an unknown value was written (the
    /// FIFO accounting then stops rather than guess).
    chain_mask: Option<u32>,
    occ: [i64; 32],
    barriers: Vec<BarrierEvent>,
    desc: Descriptor,
    inflight: Vec<Inflight>,
    doorbells: u32,
    snapshots: Vec<Snapshot>,
    /// Per-register one-shot latches so one unbalanced loop does not
    /// cascade into a diagnostic per enclosing scope.
    reported_underflow: u32,
    reported_overflow: u32,
    reported_drain: u32,
}

pub(crate) fn lint_one(program: &Program, cfg: &LintConfig) -> Outcome {
    let mut a = Analyzer {
        code: program.code(),
        cfg,
        report: LintReport::new(),
        consts: {
            let mut c = [None; 32];
            c[0] = Some(0);
            c
        },
        chain_mask: Some(0),
        occ: [0; 32],
        barriers: Vec::new(),
        desc: Descriptor::default(),
        inflight: Vec::new(),
        doorbells: 0,
        snapshots: Vec::new(),
        reported_underflow: 0,
        reported_overflow: 0,
        reported_drain: 0,
    };
    a.run();
    Outcome {
        report: a.report,
        barriers: a.barriers,
    }
}

impl Analyzer<'_> {
    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.code.len() {
            self.snapshots.push(self.snapshot());
            let inst = self.code[i];
            if let Instruction::Frep {
                is_outer,
                max_rpt,
                n_instr,
                stagger_max: _,
                stagger_mask,
            } = inst
            {
                let end = (i + 1 + n_instr as usize).min(self.code.len());
                let block: Vec<Instruction> = self.code[i + 1..end].to_vec();
                // Keep the snapshot vector aligned with instruction
                // indices for branches that (illegally) target the body.
                for _ in i + 1..end {
                    self.snapshots.push(self.snapshot());
                }
                self.frep(pc(i), is_outer, max_rpt, stagger_mask, &block);
                i = end;
                continue;
            }
            self.step(pc(i), i, inst);
            i += 1;
        }
        self.finish(pc(self.code.len().saturating_sub(1)));
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            occ: self.occ,
            barrier_len: self.barriers.len(),
            inflight_len: self.inflight.len(),
        }
    }

    fn diag(&mut self, rule: Rule, severity: Severity, pc: u32, message: String) {
        self.report.push(Diagnostic {
            rule,
            severity,
            hart: None,
            pc: Some(pc),
            message,
        });
    }

    /// One non-`frep` instruction.
    fn step(&mut self, pc: u32, index: usize, inst: Instruction) {
        match inst {
            Instruction::Csr { op, rd, csr, src } => self.csr(pc, op, rd, csr, src),
            Instruction::Branch { offset, .. } => {
                if offset <= 0 {
                    self.back_edge(pc, index, offset);
                }
            }
            Instruction::Jal { rd, offset } => {
                if offset <= 0 {
                    self.back_edge(pc, index, offset);
                }
                self.clobber(rd);
            }
            Instruction::Jalr { rd, .. } => self.clobber(rd),
            _ => {
                self.memory_access(pc, inst);
                self.fifo_step(pc, inst, 1);
                self.constants(inst);
            }
        }
    }

    // ---- integer constant propagation -------------------------------

    fn clobber(&mut self, rd: IntReg) {
        if !rd.is_zero() {
            self.consts[rd.index() as usize] = None;
        }
    }

    fn set_const(&mut self, rd: IntReg, val: Option<u32>) {
        if !rd.is_zero() {
            self.consts[rd.index() as usize] = val;
        }
    }

    fn get_const(&self, r: IntReg) -> Option<u32> {
        self.consts[r.index() as usize]
    }

    fn constants(&mut self, inst: Instruction) {
        match inst {
            Instruction::Lui { rd, imm } => self.set_const(rd, Some(imm)),
            Instruction::OpImm { op, rd, rs1, imm } => {
                let v = self.get_const(rs1).map(|a| op.evaluate(a, imm as u32));
                self.set_const(rd, v);
            }
            Instruction::Op { op, rd, rs1, rs2 } => {
                let v = match (self.get_const(rs1), self.get_const(rs2)) {
                    (Some(a), Some(b)) => Some(op.evaluate(a, b)),
                    _ => None,
                };
                self.set_const(rd, v);
            }
            Instruction::MulDiv { op, rd, rs1, rs2 } => {
                let v = match (self.get_const(rs1), self.get_const(rs2)) {
                    (Some(a), Some(b)) => Some(op.evaluate(a, b)),
                    _ => None,
                };
                self.set_const(rd, v);
            }
            _ => {
                if let Some(rd) = inst.int_dest() {
                    self.clobber(rd);
                }
            }
        }
    }

    // ---- chained-FIFO accounting (fifo-balance) ---------------------

    fn is_chained(&self, r: FpReg) -> bool {
        self.chain_mask.is_some_and(|m| m & r.chain_mask_bit() != 0)
    }

    /// The chained registers one execution of `inst` pops, each once:
    /// the core pops a chained register once per instruction however
    /// often it is named (`FpSubsystem::try_issue` dedups its sources
    /// the same way), e.g. `fmul.d f6, f3, f3` pops `f3` once.
    fn chained_pops(&self, inst: Instruction) -> impl Iterator<Item = FpReg> + '_ {
        let srcs = inst.fp_sources();
        srcs.clone()
            .enumerate()
            .filter(move |&(i, r)| self.is_chained(r) && !srcs.clone().take(i).any(|s| s == r))
            .map(|(_, r)| r)
    }

    /// Applies one instruction's pops/pushes `times` times (pops before
    /// pushes within one execution, per the FIFO read-then-write order).
    fn fifo_step(&mut self, pc: u32, inst: Instruction, times: i64) {
        if self.chain_mask == Some(0) || self.chain_mask.is_none() {
            return;
        }
        let mut delta: Vec<(FpReg, i64, i64)> =
            self.chained_pops(inst).map(|r| (r, 1, 0)).collect();
        if let Some(dst) = inst.fp_dest() {
            if self.is_chained(dst) {
                match delta.iter_mut().find(|(r, _, _)| *r == dst) {
                    Some((_, _, q)) => *q += 1,
                    None => delta.push((dst, 0, 1)),
                }
            }
        }
        for (r, p, q) in delta {
            let start = self.occ[r.index() as usize];
            let net = q - p;
            // Exact min/max over `times` executions with constant
            // per-execution pops `p` then pushes `q`.
            let low = start - p + 0i64.min((times - 1) * net);
            let high = start - p + q + 0i64.max((times - 1) * net);
            self.check_occ(r, low, high, pc);
            self.occ[r.index() as usize] = start + times * net;
        }
    }

    fn check_occ(&mut self, r: FpReg, low: i64, high: i64, pc: u32) {
        let bit = r.chain_mask_bit();
        if low < 0 && self.reported_underflow & bit == 0 {
            self.reported_underflow |= bit;
            self.diag(
                Rule::FifoBalance,
                Severity::Error,
                pc,
                format!(
                    "chained FIFO {r}: pops exceed pushes along this path (occupancy would reach {low}); the in-order hart stalls forever on the empty FIFO"
                ),
            );
        }
        let cap = self.cfg.fifo_capacity;
        if high > cap + 1 && self.reported_overflow & bit == 0 {
            self.reported_overflow |= bit;
            self.diag(
                Rule::FifoBalance,
                Severity::Error,
                pc,
                format!(
                    "chained FIFO {r}: {high} elements in flight exceeds capacity {cap} plus the held writeback; the push blocks the FPU pipeline and the program wedges even with the issue-stage drain"
                ),
            );
        } else if high == cap + 1 && self.reported_drain & bit == 0 {
            self.reported_drain |= bit;
            self.diag(
                Rule::FifoBalance,
                Severity::Warning,
                pc,
                format!(
                    "chained FIFO {r}: burst of {high} fills the FIFO (capacity {cap}) plus the held writeback slot; completes only on cores with the issue-stage drain (chained_fifo_shift)"
                ),
            );
        }
    }

    /// A `frep` block: `max_rpt`+1 repetitions of the next `n_instr` FP
    /// instructions. The trip count is recovered from the constant
    /// tracker — generator code always materializes it with `li` — and
    /// the occupancy extremes over all repetitions are computed
    /// analytically, so a million-iteration `frep` costs one block scan.
    fn frep(
        &mut self,
        pc: u32,
        is_outer: bool,
        max_rpt: IntReg,
        stagger_mask: u8,
        block: &[Instruction],
    ) {
        let trip = self.get_const(max_rpt).map(|v| i64::from(v) + 1);
        // Staggered register rotation re-targets operands per iteration;
        // the static accounting would mis-attribute pushes, so chained
        // occupancy is left untouched (conservative: no finding).
        let stagger = stagger_mask != 0;
        if is_outer {
            // Whole-block repetition: one symbolic pass records each
            // chained register's running offset extremes and net delta.
            let mut net: [i64; 32] = [0; 32];
            let mut lo: [i64; 32] = [0; 32];
            let mut hi: [i64; 32] = [0; 32];
            for inst in block {
                self.memory_access(pc, *inst);
                if stagger {
                    continue;
                }
                for src in self.chained_pops(*inst) {
                    let i = src.index() as usize;
                    net[i] -= 1;
                    lo[i] = lo[i].min(net[i]);
                }
                if let Some(dst) = inst.fp_dest() {
                    if self.is_chained(dst) {
                        let i = dst.index() as usize;
                        net[i] += 1;
                        hi[i] = hi[i].max(net[i]);
                    }
                }
            }
            if stagger {
                return;
            }
            for r in FpReg::all() {
                let i = r.index() as usize;
                if net[i] == 0 && lo[i] == 0 && hi[i] == 0 {
                    continue;
                }
                let start = self.occ[i];
                match trip {
                    Some(t) => {
                        let low = start + lo[i] + 0i64.min((t - 1) * net[i]);
                        let high = start + hi[i] + 0i64.max((t - 1) * net[i]);
                        self.check_occ(r, low, high, pc);
                        self.occ[i] = start + t * net[i];
                    }
                    None => {
                        if net[i] != 0 {
                            self.frep_unknown_trip(r, net[i], pc);
                        } else {
                            self.check_occ(r, start + lo[i], start + hi[i], pc);
                        }
                    }
                }
            }
        } else {
            // Per-instruction repetition: instruction k runs trip times
            // before instruction k+1 starts.
            for inst in block {
                self.memory_access(pc, *inst);
                if stagger {
                    continue;
                }
                match trip {
                    Some(t) => self.fifo_step(pc, *inst, t),
                    None => {
                        // Unknown trip: a net-zero instruction is safe at
                        // any count; a net-nonzero one is unbalanced.
                        let net_nonzero = {
                            let mut n = -(self.chained_pops(*inst).count() as i64);
                            if inst.fp_dest().is_some_and(|d| self.is_chained(d)) {
                                n += 1;
                            }
                            n
                        };
                        if net_nonzero != 0 {
                            if let Some(r) = inst.fp_dest().or_else(|| inst.fp_sources().last()) {
                                self.frep_unknown_trip(r, net_nonzero, pc);
                            }
                        } else {
                            self.fifo_step(pc, *inst, 1);
                        }
                    }
                }
            }
        }
    }

    fn frep_unknown_trip(&mut self, r: FpReg, net: i64, pc: u32) {
        let bit = r.chain_mask_bit();
        if (net > 0 && self.reported_overflow & bit != 0)
            || (net < 0 && self.reported_underflow & bit != 0)
        {
            return;
        }
        if net > 0 {
            self.reported_overflow |= bit;
        } else {
            self.reported_underflow |= bit;
        }
        self.diag(
            Rule::FifoBalance,
            Severity::Error,
            pc,
            format!(
                "chained FIFO {r}: frep with a statically unknown trip count changes occupancy by {net} per repetition — unbalanced for any trip count past the FIFO capacity"
            ),
        );
    }

    // ---- CSR instructions -------------------------------------------

    fn csr(&mut self, pc: u32, op: CsrOp, rd: IntReg, addr: u16, src: CsrSrc) {
        let operand = match src {
            CsrSrc::Reg(r) => self.get_const(r),
            CsrSrc::Imm(v) => Some(u32::from(v)),
        };
        // Per the spec, csrrs/csrrc with a zero operand performs no
        // write; csrrw always writes.
        let zero_operand = match src {
            CsrSrc::Reg(r) => r.is_zero(),
            CsrSrc::Imm(v) => v == 0,
        };
        let writes = op == CsrOp::ReadWrite || !zero_operand;
        self.clobber(rd);
        if writes && !KNOWN_CSRS.contains(&addr) {
            self.diag(
                Rule::CsrUnknown,
                Severity::Error,
                pc,
                format!("write to undefined CSR {addr:#x}; the model implements no register there"),
            );
            return;
        }
        if writes && READ_ONLY_CSRS.contains(&addr) {
            self.diag(
                Rule::CsrUnknown,
                Severity::Error,
                pc,
                format!("write to read-only CSR {addr:#x}"),
            );
            return;
        }
        match addr {
            csr::CHAIN_MASK if writes => self.chain_mask_write(pc, op, operand),
            csr::CLUSTER_BARRIER | csr::SYSTEM_BARRIER if writes => {
                self.barriers.push(BarrierEvent {
                    csr: addr,
                    looped: false,
                });
            }
            csr::DMA_SRC if writes => self.desc.src = desc_write(self.desc.src, op, operand),
            csr::DMA_DST if writes => self.desc.dst = desc_write(self.desc.dst, op, operand),
            csr::DMA_LEN if writes => self.desc.len = desc_write(self.desc.len, op, operand),
            csr::DMA_SRC_STRIDE if writes => {}
            csr::DMA_DST_STRIDE if writes => {
                self.desc.dst_stride = desc_write(self.desc.dst_stride, op, operand);
            }
            csr::DMA_REPS if writes => self.desc.reps = desc_write(self.desc.reps, op, operand),
            csr::DMA_START if writes => self.doorbell(pc, operand),
            csr::DMA_WAIT if writes => self.dma_wait(pc, operand),
            _ => {}
        }
    }

    fn chain_mask_write(&mut self, pc: u32, op: CsrOp, operand: Option<u32>) {
        let new_mask = match (op, operand, self.chain_mask) {
            (CsrOp::ReadWrite, Some(v), _) => Some(v),
            (CsrOp::ReadSet, Some(v), Some(m)) => Some(m | v),
            (CsrOp::ReadClear, Some(v), Some(m)) => Some(m & !v),
            _ => None,
        };
        if let (Some(old), Some(new)) = (self.chain_mask, new_mask) {
            let disabled = old & !new;
            for r in FpReg::all() {
                let i = r.index() as usize;
                if disabled & r.chain_mask_bit() != 0 && self.occ[i] != 0 {
                    let n = self.occ[i];
                    self.diag(
                        Rule::FifoBalance,
                        Severity::Warning,
                        pc,
                        format!(
                            "chaining disabled on {r} with {n} element(s) still buffered; the queued values are discarded"
                        ),
                    );
                }
                if disabled & r.chain_mask_bit() != 0 {
                    self.occ[i] = 0;
                }
            }
        }
        self.chain_mask = new_mask;
    }

    // ---- DMA protocol -----------------------------------------------

    fn doorbell(&mut self, pc: u32, operand: Option<u32>) {
        self.doorbells += 1;
        if !(self.desc.src.written && self.desc.dst.written && self.desc.len.written) {
            self.diag(
                Rule::DmaProtocol,
                Severity::Warning,
                pc,
                "doorbell rung before DMA_SRC/DMA_DST/DMA_LEN were all programmed in this program; the transfer reuses stale descriptor state".to_string(),
            );
        }
        let to_tcdm = operand.map(|v| v & 1 == 1);
        let hull = self.footprint(pc);
        if let Some((_, hi)) = hull {
            if hi > self.cfg.tcdm_cap_bytes {
                self.diag(
                    Rule::TcdmHazard,
                    Severity::Error,
                    pc,
                    format!(
                        "descriptor footprint ends at TCDM byte {hi:#x}, beyond the {} KiB capacity",
                        self.cfg.tcdm_cap_bytes >> 10
                    ),
                );
            }
        }
        // Two in-flight transfers may interleave arbitrarily: if either
        // writes a TCDM region the other touches, the result depends on
        // engine timing.
        if let Some(new_hull) = hull {
            for t in &self.inflight {
                let Some(old_hull) = t.hull else { continue };
                let either_writes = to_tcdm.unwrap_or(true) || t.to_tcdm.unwrap_or(true);
                if either_writes && overlaps(new_hull, old_hull) {
                    let old_pc = t.pc;
                    self.diag(
                        Rule::TcdmHazard,
                        Severity::Error,
                        pc,
                        format!(
                            "TCDM footprint {:#x}..{:#x} overlaps the in-flight transfer rung at pc {old_pc:#x} with no completion wait between them",
                            new_hull.0, new_hull.1
                        ),
                    );
                    break;
                }
            }
        }
        self.inflight.push(Inflight { pc, to_tcdm, hull });
    }

    /// TCDM-side hull `[lo, hi)` of the current descriptor, when known.
    fn footprint(&self, _pc: u32) -> Option<(u64, u64)> {
        let dst = u64::from(self.desc.dst.val?);
        let len = u64::from(self.desc.len.val?);
        let rows = u64::from(self.desc.reps.val.unwrap_or(1).max(1));
        let stride = u64::from(self.desc.dst_stride.val.unwrap_or(0));
        Some((dst, dst + (rows - 1) * stride + len))
    }

    fn dma_wait(&mut self, pc: u32, operand: Option<u32>) {
        if self.doorbells == 0 && operand != Some(0) {
            self.diag(
                Rule::DmaProtocol,
                Severity::Warning,
                pc,
                "completion wait with no doorbell rung in this program; unless an earlier program of the same run rang the missing transfers, the hart parks forever".to_string(),
            );
        }
        // Completion counts are global FIFO positions that may span
        // programs; conservatively retire everything rung so far.
        self.inflight.clear();
    }

    // ---- compute accesses vs in-flight DMA --------------------------

    fn memory_access(&mut self, pc: u32, inst: Instruction) {
        let (base, offset, size, is_store) = match inst {
            Instruction::Load {
                op, rs1, offset, ..
            } => (rs1, offset, op.size(), false),
            Instruction::Store {
                op, rs1, offset, ..
            } => (rs1, offset, op.size(), true),
            Instruction::FpLoad {
                fmt, rs1, offset, ..
            } => (rs1, offset, fmt.size(), false),
            Instruction::FpStore {
                fmt, rs1, offset, ..
            } => (rs1, offset, fmt.size(), true),
            _ => return,
        };
        let Some(base) = self.get_const(base) else {
            return;
        };
        let addr = i64::from(base) + i64::from(offset);
        if addr < 0 {
            return;
        }
        let access = (addr as u64, addr as u64 + u64::from(size));
        for t in &self.inflight {
            let Some(hull) = t.hull else { continue };
            if !overlaps(access, hull) {
                continue;
            }
            let t_pc = t.pc;
            if !is_store && t.to_tcdm == Some(false) {
                // Reading a region DMA is also reading: benign.
                continue;
            }
            if is_store {
                self.diag(
                    Rule::TcdmHazard,
                    Severity::Error,
                    pc,
                    format!(
                        "store to {:#x} races the in-flight DMA transfer rung at pc {t_pc:#x}; no completion wait separates them",
                        access.0
                    ),
                );
            } else {
                self.diag(
                    Rule::DmaProtocol,
                    Severity::Error,
                    pc,
                    format!(
                        "load from {:#x} reads the destination of the DMA transfer rung at pc {t_pc:#x} before any completion wait",
                        access.0
                    ),
                );
            }
            break;
        }
    }

    // ---- loops ------------------------------------------------------

    /// A backward branch: either a recognized completion-poll loop or a
    /// genuine loop whose per-iteration state drift is checked against
    /// the snapshot at the target.
    fn back_edge(&mut self, pc: u32, index: usize, offset: i32) {
        let target = (i64::from(pc) + i64::from(offset)) / 4;
        if target < 0 || target as usize > index {
            return;
        }
        let target = target as usize;
        if self.completion_poll(pc, target, index) {
            // The loop exits only once the engine reports completion:
            // everything rung before it is retired (conservatively, as
            // counts are global positions).
            self.inflight.clear();
            return;
        }
        let snap = self.snapshots[target].clone();
        if self.chain_mask.unwrap_or(0) != 0 {
            for r in FpReg::all() {
                let i = r.index() as usize;
                let drift = self.occ[i] - snap.occ[i];
                if drift != 0 && self.is_chained(r) {
                    let bit = r.chain_mask_bit();
                    let already = if drift > 0 {
                        &mut self.reported_overflow
                    } else {
                        &mut self.reported_underflow
                    };
                    if *already & bit != 0 {
                        continue;
                    }
                    *already |= bit;
                    self.diag(
                        Rule::FifoBalance,
                        Severity::Error,
                        pc,
                        format!(
                            "chained FIFO {r}: occupancy drifts by {drift} per iteration of the loop back to pc {:#x} — unbalanced pushes/pops compound every iteration",
                            target * 4
                        ),
                    );
                }
            }
        }
        if self.inflight.len() > snap.inflight_len {
            let grew = self.inflight.len() - snap.inflight_len;
            self.diag(
                Rule::DmaProtocol,
                Severity::Error,
                pc,
                format!(
                    "{grew} DMA transfer(s) started in the loop back to pc {:#x} with no completion wait before the back-edge; in-flight transfers accumulate every iteration",
                    target * 4
                ),
            );
            // Report once, not once per enclosing loop.
            self.inflight.truncate(snap.inflight_len);
        }
        if self.barriers.len() > snap.barrier_len {
            for e in &mut self.barriers[snap.barrier_len..] {
                e.looped = true;
            }
        }
    }

    /// Recognizes a `DMA_COMPLETED` poll loop over `code[target..=index]`
    /// and checks its wrap safety. Returns true when the body reads the
    /// completion counter (making the backward branch a wait, not a
    /// compute loop).
    fn completion_poll(&mut self, pc: u32, target: usize, index: usize) -> bool {
        let body = &self.code[target..=index];
        let mut completed_dst: Option<IntReg> = None;
        for inst in body {
            if let Instruction::Csr {
                op: CsrOp::ReadSet | CsrOp::ReadClear,
                rd,
                csr: csr::DMA_COMPLETED,
                ..
            } = inst
            {
                if !rd.is_zero() {
                    completed_dst = Some(*rd);
                }
            }
        }
        let Some(completed) = completed_dst else {
            return false;
        };
        // Wrap-safe idiom: the signed distance `target - completed`
        // (or its negation) feeds the branch, so a wrapped u32 counter
        // still compares correctly. Branching on the raw counter value
        // breaks after 2^32 transfers.
        let mut distance_regs: Vec<IntReg> = Vec::new();
        for inst in body {
            if let Instruction::Op {
                op: sc_isa::AluOp::Sub,
                rd,
                rs1,
                rs2,
            } = inst
            {
                if *rs1 == completed || *rs2 == completed {
                    distance_regs.push(*rd);
                }
            }
        }
        let Some(Instruction::Branch { op, rs1, rs2, .. }) = self.code.get(index).copied() else {
            return true;
        };
        let uses_distance = |r: IntReg| r.is_zero() || distance_regs.contains(&r);
        let signed = matches!(op, sc_isa::BranchOp::Lt | sc_isa::BranchOp::Ge);
        let safe = signed && uses_distance(rs1) && uses_distance(rs2);
        // Equality polls (`completed != target`) are also wrap-safe:
        // wrapping does not break equality on the exact target.
        let equality = matches!(op, sc_isa::BranchOp::Eq | sc_isa::BranchOp::Ne);
        if !safe && !equality {
            self.diag(
                Rule::DmaProtocol,
                Severity::Warning,
                pc,
                "completion poll compares DMA_COMPLETED without the wrap-safe signed distance ((completed - target) as i32 >= 0); the loop misbehaves once the u32 counter wraps".to_string(),
            );
        }
        true
    }

    // ---- end of program ---------------------------------------------

    fn finish(&mut self, pc: u32) {
        if let Some(mask) = self.chain_mask {
            for r in FpReg::all() {
                let i = r.index() as usize;
                if mask & r.chain_mask_bit() != 0 && self.occ[i] != 0 {
                    let n = self.occ[i];
                    let (sev, what) = if n < 0 {
                        (Severity::Error, "more pops than pushes")
                    } else {
                        (Severity::Warning, "unconsumed element(s)")
                    };
                    self.diag(
                        Rule::FifoBalance,
                        sev,
                        pc,
                        format!("program ends with {n} {what} in chained FIFO {r}"),
                    );
                }
            }
        }
        if !self.inflight.is_empty() {
            let n = self.inflight.len();
            self.diag(
                Rule::DmaProtocol,
                Severity::Warning,
                pc,
                format!(
                    "program ends with {n} DMA transfer(s) rung but never awaited; their completion is unsynchronized"
                ),
            );
        }
    }
}

fn pc(index: usize) -> u32 {
    (index * 4) as u32
}

fn desc_write(old: DescField, op: CsrOp, operand: Option<u32>) -> DescField {
    let val = match (op, operand, old.val) {
        (CsrOp::ReadWrite, v, _) => v,
        (CsrOp::ReadSet, Some(v), Some(o)) => Some(o | v),
        (CsrOp::ReadClear, Some(v), Some(o)) => Some(o & !v),
        _ => None,
    };
    DescField { written: true, val }
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}
