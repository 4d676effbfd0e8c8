//! The decoupled floating-point subsystem: issue stage, scoreboard,
//! chaining unit, FPU pipelines, FP load/store unit and SSR interface.
//!
//! One call to each phase method per simulated cycle, in this order
//! (orchestrated by [`crate::Simulator`]):
//!
//! 1. [`FpSubsystem::writeback`] — at most one completion commits through
//!    the single writeback port; chained destinations with a set valid bit
//!    *hold* (backpressure), stream destinations hold on full FIFOs.
//! 2. [`FpSubsystem::try_issue`] — in-order issue of the next sequencer
//!    instruction if operands and the target unit are ready. Chained and
//!    stream sources pop here.
//! 3. memory phase (owned by the simulator): the FP LSU and the stream
//!    movers place TCDM requests.
//! 4. [`FpSubsystem::advance`] — pipelines shift, landed stream data
//!    becomes poppable.

use sc_fpu::{evaluate, FpuOp, FpuOutput, IterativeUnit, OpClass, Pipeline};
use sc_isa::{FmaOp, FpBinOp, FpFormat, FpReg, Instruction, IntReg};
use sc_mem::{AccessKind, PortId, Request, Store, Tcdm};
use sc_ssr::SsrUnit;
use sc_trace::ResourceState;

use crate::chain::ChainUnit;
use crate::config::CoreConfig;
use crate::counters::{PerfCounters, StallCause};
use crate::error::SimError;
use crate::sequencer::Sequencer;
#[cfg(test)]
use crate::sequencer::{OffloadedFp, SeqItem};
use crate::uop::{FpUop, FpUopKind};

/// Where a completing op's result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbDest {
    /// Plain register write (clears the scoreboard entry).
    Plain(FpReg),
    /// Chained push (requires the valid bit to be clear).
    Chained(FpReg),
    /// Push into a write-stream data mover.
    Stream(u8),
    /// Write to the integer register file (comparisons, fp→int moves).
    Int(IntReg),
}

/// Payload carried through the FPU pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WbOp {
    dest: WbDest,
    bits: u64,
}

/// FP load/store unit: one in-flight memory op on TCDM port 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpLsu {
    Idle,
    StorePending {
        addr: u32,
        bits: u64,
        fmt: FpFormat,
    },
    LoadPending {
        addr: u32,
        dest: WbDest,
        fmt: FpFormat,
    },
    LoadLanded {
        dest: WbDest,
        bits: u64,
    },
}

/// Outcome of the issue phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// The instruction entered its unit this cycle
    /// ([`FpSubsystem::last_issued`] names it).
    Issued,
    /// An instruction was available but stalled.
    Stalled(StallCause),
    /// Nothing to issue.
    Idle,
}

/// A write into the integer register file produced by the FP subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntWriteback {
    /// Destination integer register.
    pub reg: IntReg,
    /// Value.
    pub value: u32,
}

/// How a register is interpreted by the current machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegClass {
    Stream(u8),
    Chained,
    Plain,
}

/// The FP subsystem.
#[derive(Debug, Clone)]
pub struct FpSubsystem {
    rf: [u64; 32],
    /// In-flight producers per FP register (scoreboard; may exceed 1 for
    /// chained registers, which drop the WAW dependency).
    pending: [u32; 32],
    chain: ChainUnit,
    addmul: Pipeline<WbOp>,
    noncomp: Pipeline<WbOp>,
    conv: Pipeline<WbOp>,
    divsqrt: IterativeUnit<WbOp>,
    lsu: FpLsu,
    seq: Sequencer,
    ssr: SsrUnit,
    cfg: CoreConfig,
    /// First TCDM port of this core's namespace (LSU port; movers follow).
    port_base: u8,
    /// Why each unit's writeback is blocked (refines `UnitBusy` stalls).
    blocked_reason: Option<StallCause>,
    /// Whether the single writeback port is still unused this cycle —
    /// the chained-drain path in issue may use it for the same-cycle
    /// FIFO shift (pop at the head + held push) if phase 1 left it free.
    wb_port_free: bool,
    /// The instruction the most recent issue dispatched.
    last_issued: Option<Instruction>,
}

impl FpSubsystem {
    /// Creates the subsystem per the core configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        Self::with_port_base(cfg, 0)
    }

    /// Creates the subsystem with its TCDM requests namespaced to the
    /// ports `port_base ..= port_base + num_ssrs` (cluster use).
    #[must_use]
    pub fn with_port_base(cfg: &CoreConfig, port_base: u8) -> Self {
        FpSubsystem {
            rf: [0; 32],
            pending: [0; 32],
            chain: ChainUnit::new(),
            addmul: Pipeline::new(cfg.fpu.addmul_latency),
            noncomp: Pipeline::new(cfg.fpu.noncomp_latency),
            conv: Pipeline::new(cfg.fpu.conv_latency),
            divsqrt: IterativeUnit::new(),
            lsu: FpLsu::Idle,
            seq: Sequencer::new(cfg.offload_queue_depth, cfg.sequence_buffer_depth),
            ssr: SsrUnit::with_port_base(cfg.num_ssrs, cfg.ssr_fifo_capacity, port_base),
            cfg: *cfg,
            port_base,
            blocked_reason: None,
            wb_port_free: true,
            last_issued: None,
        }
    }

    /// Read access to an FP register (for tests and result extraction).
    #[must_use]
    pub fn reg(&self, reg: FpReg) -> f64 {
        f64::from_bits(self.rf[reg.index() as usize])
    }

    /// Writes an FP register directly (test setup / program loading).
    pub fn set_reg(&mut self, reg: FpReg, value: f64) {
        self.rf[reg.index() as usize] = value.to_bits();
    }

    /// The chaining unit state (diagnostics).
    #[must_use]
    pub fn chain(&self) -> &ChainUnit {
        &self.chain
    }

    /// The SSR unit.
    #[must_use]
    pub fn ssr(&self) -> &SsrUnit {
        &self.ssr
    }

    /// Mutable SSR unit access (configuration instructions).
    pub fn ssr_mut(&mut self) -> &mut SsrUnit {
        &mut self.ssr
    }

    /// The sequencer (offload queue).
    #[must_use]
    pub fn sequencer(&self) -> &Sequencer {
        &self.seq
    }

    /// Mutable sequencer access (offload path).
    pub fn sequencer_mut(&mut self) -> &mut Sequencer {
        &mut self.seq
    }

    /// The instruction the most recent [`IssueOutcome::Issued`] dispatched
    /// (as issued: a staggered replay reads its renamed registers).
    #[must_use]
    pub fn last_issued(&self) -> Option<Instruction> {
        self.last_issued
    }

    /// Whether every queue, pipeline and the LSU is empty. Write streams
    /// may still be draining — check [`SsrUnit::all_done`] separately.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.seq.is_drained()
            && self.addmul.is_empty()
            && self.noncomp.is_empty()
            && self.conv.is_empty()
            && !self.divsqrt.is_busy()
            && self.lsu == FpLsu::Idle
    }

    /// Applies a chaining-CSR write (synchronised by the caller).
    ///
    /// # Errors
    ///
    /// Fails when the extension is absent (a non-zero mask) or a
    /// disabled register still has in-flight producers.
    pub fn set_chain_mask(&mut self, mask: u32) -> Result<(), SimError> {
        if !self.cfg.chaining_enabled {
            if mask != 0 {
                return Err(SimError::ChainingAbsent);
            }
            return Ok(());
        }
        self.chain.set_mask(mask, &self.pending)?;
        Ok(())
    }

    /// The current chaining mask.
    #[must_use]
    pub fn chain_mask(&self) -> u32 {
        self.chain.mask()
    }

    fn classify(&self, reg: FpReg) -> RegClass {
        if self.ssr.maps_register(reg.index()) {
            RegClass::Stream(reg.index())
        } else if self.chain.is_chained(reg) {
            RegClass::Chained
        } else {
            RegClass::Plain
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: writeback
    // ------------------------------------------------------------------

    /// Commits at most one completed op through the writeback port.
    ///
    /// Returns the integer-register writeback for the integer core to
    /// apply, if the committed op targets the integer register file (the
    /// single port commits at most one).
    pub fn writeback(&mut self, counters: &mut PerfCounters) -> Option<IntWriteback> {
        self.blocked_reason = None;
        // Fixed priority: LSU > divsqrt > conv > noncomp > addmul.
        // The first candidate that can commit uses the port; the others
        // hold (their pipelines backpressure).
        let mut committed = None;

        // LSU landed load.
        if let FpLsu::LoadLanded { dest, bits } = self.lsu {
            if self.try_commit(dest, bits, counters) {
                self.lsu = FpLsu::Idle;
                committed = Some(WbOp { dest, bits });
            }
        }
        // Iterative unit.
        if committed.is_none() {
            if let Some(&op) = self.divsqrt.ready() {
                if self.try_commit(op.dest, op.bits, counters) {
                    self.divsqrt.take_ready();
                    committed = Some(op);
                }
            }
        }
        // Pipelines.
        for which in 0..3 {
            if committed.is_some() {
                break;
            }
            let pipe = match which {
                0 => &mut self.conv,
                1 => &mut self.noncomp,
                _ => &mut self.addmul,
            };
            if let Some(&op) = pipe.ready() {
                if self.try_commit(op.dest, op.bits, counters) {
                    match which {
                        0 => self.conv.take_ready(),
                        1 => self.noncomp.take_ready(),
                        _ => self.addmul.take_ready(),
                    };
                    committed = Some(op);
                }
            }
        }
        self.wb_port_free = committed.is_none();
        // Built from the committed op here: an out-parameter filled by
        // `try_commit` and read back at another width would stall
        // store-to-load forwarding on every cycle.
        match committed {
            Some(WbOp {
                dest: WbDest::Int(reg),
                bits,
            }) => Some(IntWriteback {
                reg,
                value: bits as u32,
            }),
            _ => None,
        }
    }

    /// Detects the chained-FIFO jam the issue stage can resolve itself:
    /// `uop` (a compute op) targets a unit whose writeback slot holds a
    /// completion into a chained register that `uop` is about to pop.
    /// In hardware the pipeline registers *are* the tail of that
    /// register's logical FIFO, so the pop at the head and the held push
    /// advance together as one synchronous shift — the consumer must not
    /// stall on the unit being "full", or the rotation deadlocks the
    /// moment backpressure packs the pipeline. Returns the unit class to
    /// drain during issue.
    fn chained_drain_target(&self, uop: &FpUop) -> Option<OpClass> {
        if !self.cfg.chained_fifo_shift || !self.wb_port_free {
            return None;
        }
        let FpUopKind::Compute { op, .. } = uop.kind() else {
            return None;
        };
        let class = op.class();
        let held = match class {
            OpClass::AddMul => self.addmul.ready(),
            OpClass::NonComp => self.noncomp.ready(),
            OpClass::Conv => self.conv.ready(),
            OpClass::DivSqrt => self.divsqrt.ready(),
        }?;
        match held.dest {
            WbDest::Chained(reg)
                if uop.sources().contains(&reg)
                    && matches!(self.classify(reg), RegClass::Chained)
                    && self.chain.can_pop(reg) =>
            {
                Some(class)
            }
            _ => None,
        }
    }

    /// Performs the drain found by [`FpSubsystem::chained_drain_target`]:
    /// retires the held completion into the just-popped register through
    /// the (unused) writeback port, freeing the unit for this cycle's
    /// issue.
    fn apply_chained_drain(&mut self, class: OpClass, counters: &mut PerfCounters) {
        let op = match class {
            OpClass::AddMul => self.addmul.take_ready(),
            OpClass::NonComp => self.noncomp.take_ready(),
            OpClass::Conv => self.conv.take_ready(),
            OpClass::DivSqrt => self.divsqrt.take_ready(),
        }
        .expect("drain target verified by chained_drain_target");
        let committed = self.try_commit(op.dest, op.bits, counters);
        debug_assert!(
            committed && !matches!(op.dest, WbDest::Int(_)),
            "a chained drain commits into the register popped this cycle"
        );
        self.wb_port_free = false;
    }

    /// Attempts one commit; records the block reason on failure. An
    /// integer-register destination always commits; the caller hands the
    /// write to the integer core.
    fn try_commit(&mut self, dest: WbDest, bits: u64, counters: &mut PerfCounters) -> bool {
        match dest {
            WbDest::Plain(reg) => {
                self.rf[reg.index() as usize] = bits;
                self.pending[reg.index() as usize] -= 1;
                counters.fp_rf_writes += 1;
                true
            }
            WbDest::Chained(reg) => {
                if self.chain.can_push(reg) {
                    self.chain.push(reg);
                    self.rf[reg.index() as usize] = bits;
                    self.pending[reg.index() as usize] -= 1;
                    counters.fp_rf_writes += 1;
                    true
                } else {
                    // The paper's backpressure: hold in the final stage.
                    self.blocked_reason.get_or_insert(StallCause::ChainFull);
                    false
                }
            }
            WbDest::Stream(dm) => {
                if self.ssr.mover(dm).can_push() {
                    let value = bits;
                    self.ssr
                        .mover_mut(dm)
                        .push(value)
                        .expect("direction checked at issue");
                    counters.ssr_elements += 1;
                    true
                } else {
                    self.ssr.mover_mut(dm).note_full();
                    self.blocked_reason.get_or_insert(StallCause::SsrFull);
                    false
                }
            }
            WbDest::Int(_) => true,
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: issue
    // ------------------------------------------------------------------

    /// Tries to issue the next instruction from the sequencer.
    ///
    /// # Errors
    ///
    /// Strict-mode misuse (exhausted streams, loads into stream registers,
    /// oversized FREP bodies) is reported as [`SimError`].
    pub fn try_issue(&mut self, counters: &mut PerfCounters) -> Result<IssueOutcome, SimError> {
        // The record stays in the sequencer until `consume` below; copy
        // out the fields issue reads.
        let Some(fp) = self.seq.peek()? else {
            return Ok(IssueOutcome::Idle);
        };
        let (inst, uop, addr, int_operand) = (fp.inst, fp.uop, fp.addr, fp.int_operand);

        // --- readiness checks -----------------------------------------
        // Distinct source registers (a register read twice is one port
        // read / one pop, broadcast to both operand positions). Reading
        // them below leaves every register's class unchanged, so the
        // classes found here serve the reads too.
        let sources = uop.sources();
        let mut classes = [RegClass::Plain; 3];
        for (class, &src) in classes.iter_mut().zip(sources) {
            *class = self.classify(src);
            match *class {
                RegClass::Stream(dm) => {
                    let mover = self.ssr.mover(dm);
                    if !mover.can_pop() {
                        if mover.is_done() {
                            return Err(SimError::StreamReadExhausted { dm });
                        }
                        self.ssr.mover_mut(dm).note_starved();
                        counters.record_stall(StallCause::SsrStarve);
                        return Ok(IssueOutcome::Stalled(StallCause::SsrStarve));
                    }
                }
                RegClass::Chained => {
                    if !self.chain.can_pop(src) {
                        counters.record_stall(StallCause::ChainEmpty);
                        return Ok(IssueOutcome::Stalled(StallCause::ChainEmpty));
                    }
                }
                RegClass::Plain => {
                    if self.pending[src.index() as usize] > 0 {
                        counters.record_stall(StallCause::RawHazard);
                        return Ok(IssueOutcome::Stalled(StallCause::RawHazard));
                    }
                }
            }
        }
        // Destination.
        let dest_class = inst.fp_dest().map(|d| (d, self.classify(d)));
        if let Some((d, RegClass::Plain)) = dest_class {
            if self.pending[d.index() as usize] > 0 {
                counters.record_stall(StallCause::WawHazard);
                return Ok(IssueOutcome::Stalled(StallCause::WawHazard));
            }
        }
        // Target unit.
        let unit_free = match uop.kind() {
            FpUopKind::Load { .. } | FpUopKind::Store { .. } => self.lsu == FpLsu::Idle,
            FpUopKind::Compute { op, .. } => match op.class() {
                OpClass::AddMul => self.addmul.can_issue(),
                OpClass::NonComp => self.noncomp.can_issue(),
                OpClass::Conv => self.conv.can_issue(),
                OpClass::DivSqrt => self.divsqrt.can_issue(),
            },
        };
        let drain = if unit_free {
            None
        } else {
            self.chained_drain_target(&uop)
        };
        if !unit_free && drain.is_none() {
            let cause = match uop.kind() {
                FpUopKind::Load { .. } | FpUopKind::Store { .. } => StallCause::LsuBusy,
                FpUopKind::Compute { .. } => self.blocked_reason.unwrap_or(StallCause::UnitBusy),
            };
            counters.record_stall(cause);
            return Ok(IssueOutcome::Stalled(cause));
        }

        // --- operand read / pop ----------------------------------------
        // One value per distinct source; slot 3 stays zero for the
        // operand positions the instruction does not read.
        let mut values = [0u64; 4];
        for ((value, &class), &src) in values.iter_mut().zip(&classes).zip(sources) {
            *value = match class {
                RegClass::Stream(dm) => {
                    let v = self.ssr.mover_mut(dm).pop().map_err(SimError::from)?;
                    counters.ssr_elements += 1;
                    v
                }
                RegClass::Chained => {
                    self.chain.pop(src);
                    counters.fp_rf_reads += 1;
                    self.rf[src.index() as usize]
                }
                RegClass::Plain => {
                    counters.fp_rf_reads += 1;
                    self.rf[src.index() as usize]
                }
            };
        }
        let operands = uop.operand_values(&values);

        // --- dispatch ----------------------------------------------------
        self.seq.consume();
        self.last_issued = Some(inst);
        counters.fp_issued += 1;

        // The operand pop above freed the chained register the blocked
        // completion targets; retire it now so the unit accepts this
        // instruction (the same-cycle FIFO shift).
        if let Some(class) = drain {
            self.apply_chained_drain(class, counters);
        }

        match uop.kind() {
            FpUopKind::Store { fmt } => {
                counters.fp_mem_ops += 1;
                let addr = addr.expect("store address resolved at offload");
                self.lsu = FpLsu::StorePending {
                    addr,
                    bits: operands[0],
                    fmt,
                };
            }
            FpUopKind::Load { fmt, frd } => {
                counters.fp_mem_ops += 1;
                let addr = addr.expect("load address resolved at offload");
                let dest = match self.classify(frd) {
                    RegClass::Stream(_) => {
                        return Err(SimError::LoadIntoStreamRegister { reg: frd })
                    }
                    RegClass::Chained => WbDest::Chained(frd),
                    RegClass::Plain => WbDest::Plain(frd),
                };
                self.pending[frd.index() as usize] += 1;
                self.lsu = FpLsu::LoadPending { addr, dest, fmt };
            }
            FpUopKind::Compute { op, fmt } => {
                let int_src = int_operand.unwrap_or(0);
                let out = evaluate(op, fmt, operands, int_src);
                let bits = match out {
                    FpuOutput::Fp(b) => b,
                    FpuOutput::Int(v) => u64::from(v),
                };
                let dest = match inst {
                    Instruction::FpCmp { rd, .. } => WbDest::Int(rd),
                    Instruction::FpCvt { op: c, rd, frd, .. } => {
                        if c.writes_int() {
                            WbDest::Int(rd)
                        } else {
                            self.fp_dest_kind(frd)
                        }
                    }
                    _ => {
                        let frd = inst.fp_dest().expect("compute op writes fp");
                        self.fp_dest_kind(frd)
                    }
                };
                if let WbDest::Plain(r) | WbDest::Chained(r) = dest {
                    self.pending[r.index() as usize] += 1;
                }
                // Each arm builds its op in place: one op shared by the
                // arms lives in a stack slot that the inlined issue
                // reloads as a single 16-byte load, which store-to-load
                // forwarding cannot serve.
                match op.class() {
                    OpClass::AddMul => self.addmul.issue(WbOp { dest, bits }),
                    OpClass::NonComp => self.noncomp.issue(WbOp { dest, bits }),
                    OpClass::Conv => self.conv.issue(WbOp { dest, bits }),
                    OpClass::DivSqrt => self
                        .divsqrt
                        .issue(WbOp { dest, bits }, op.latency(&self.cfg.fpu)),
                }
                counters.fpu_issue_cycles += 1;
                counters.flops += flop_count(op);
            }
        }
        Ok(IssueOutcome::Issued)
    }

    fn fp_dest_kind(&self, frd: FpReg) -> WbDest {
        match self.classify(frd) {
            RegClass::Stream(dm) => WbDest::Stream(dm),
            RegClass::Chained => WbDest::Chained(frd),
            RegClass::Plain => WbDest::Plain(frd),
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: memory
    // ------------------------------------------------------------------

    /// The LSU's TCDM request for this cycle, if any (the core's first
    /// namespaced port — port 0 on a single-core system).
    #[must_use]
    pub fn lsu_request(&self) -> Option<Request> {
        match self.lsu {
            FpLsu::StorePending { addr, .. } => Some(Request {
                port: PortId(self.port_base),
                addr,
                kind: AccessKind::Write,
            }),
            FpLsu::LoadPending { addr, .. } => Some(Request {
                port: PortId(self.port_base),
                addr,
                kind: AccessKind::Read,
            }),
            _ => None,
        }
    }

    /// Applies a granted LSU request.
    ///
    /// # Errors
    ///
    /// Functional memory errors (misaligned / out-of-bounds addresses).
    pub fn lsu_grant(&mut self, tcdm: &mut Tcdm) -> Result<(), SimError> {
        match self.lsu {
            FpLsu::StorePending { addr, bits, fmt } => {
                match fmt {
                    FpFormat::Double => tcdm.write_u64(addr, bits)?,
                    FpFormat::Single => tcdm.write_u32(addr, bits as u32)?,
                }
                self.lsu = FpLsu::Idle;
            }
            FpLsu::LoadPending { addr, dest, fmt } => {
                let bits = match fmt {
                    FpFormat::Double => tcdm.read_u64(addr)?,
                    FpFormat::Single => u64::from(tcdm.read_u32(addr)?),
                };
                // Lands this cycle; commits through the WB port from the
                // next cycle (1-cycle SRAM latency).
                self.lsu = FpLsu::LoadLanded { dest, bits };
            }
            _ => panic!("lsu grant without a pending request"),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phase 4: advance
    // ------------------------------------------------------------------

    /// Ends the cycle.
    pub fn advance(&mut self) {
        self.addmul.advance();
        self.noncomp.advance();
        self.conv.advance();
        self.divsqrt.advance();
        self.ssr.advance();
    }

    /// In-flight producer counts (diagnostics; drives the chaining-CSR checks).
    #[must_use]
    pub fn pending_counts(&self) -> &[u32; 32] {
        &self.pending
    }

    /// Appends this subsystem's hang-diagnosis view to `out`, one entry
    /// per stateful resource, paths prefixed with `path`. A resource is
    /// flagged blocked when it holds work that cannot move on its own —
    /// most importantly a completed result parked in a unit's writeback
    /// slot whose chained destination FIFO is full, the signature of a
    /// writeback deadlock.
    pub fn diagnose(&self, path: &str, out: &mut Vec<ResourceState>) {
        let units: [(&str, Option<&WbOp>); 4] = [
            ("addmul", self.addmul.ready()),
            ("noncomp", self.noncomp.ready()),
            ("conv", self.conv.ready()),
            ("divsqrt", self.divsqrt.ready()),
        ];
        for (unit, slot) in units {
            let Some(op) = slot else { continue };
            match op.dest {
                WbDest::Chained(reg) if !self.chain.can_push(reg) => {
                    out.push(ResourceState::blocked(
                        format!("{path}.fp.{unit}"),
                        format!(
                            "held writeback into chained FIFO {reg} \
                             (valid bit set, consumer stalled)"
                        ),
                    ));
                }
                WbDest::Stream(i) if !self.ssr.mover(i).can_push() => {
                    out.push(ResourceState::blocked(
                        format!("{path}.fp.{unit}"),
                        format!("held writeback into write stream ft{i} (FIFO full)"),
                    ));
                }
                _ => out.push(ResourceState::info(
                    format!("{path}.fp.{unit}"),
                    "completed result awaiting the writeback port",
                )),
            }
        }
        for reg in FpReg::all() {
            if self.chain.is_chained(reg) && self.chain.is_valid(reg) {
                out.push(ResourceState::info(
                    format!("{path}.fp.chain.{reg}"),
                    "holds an unconsumed chained value",
                ));
            }
        }
        if self.lsu != FpLsu::Idle {
            out.push(ResourceState::info(
                format!("{path}.fp.lsu"),
                match self.lsu {
                    FpLsu::StorePending { .. } => "store awaiting TCDM grant",
                    FpLsu::LoadPending { .. } => "load awaiting TCDM grant",
                    FpLsu::LoadLanded { .. } => "load landed, awaiting writeback",
                    FpLsu::Idle => unreachable!(),
                },
            ));
        }
        if !self.seq.is_drained() {
            out.push(ResourceState::info(
                format!("{path}.fp.sequencer"),
                "offloaded instructions pending",
            ));
        }
        for m in self.ssr.movers() {
            if m.fifo_len() > 0 || m.is_active() {
                out.push(ResourceState::info(
                    format!("{path}.fp.ssr.ft{}", m.index()),
                    format!("stream FIFO {}/{}", m.fifo_len(), m.fifo_capacity()),
                ));
            }
        }
        if let Some(cause) = self.blocked_reason {
            out.push(ResourceState::info(
                format!("{path}.fp.writeback"),
                format!("blocked: {}", cause.label()),
            ));
        }
    }
}

fn flop_count(op: FpuOp) -> u64 {
    match op {
        FpuOp::Bin(FpBinOp::Add | FpBinOp::Sub | FpBinOp::Mul | FpBinOp::Div) => 1,
        FpuOp::Sqrt => 1,
        FpuOp::Fma(FmaOp::Madd | FmaOp::Msub | FmaOp::Nmsub | FmaOp::Nmadd) => 2,
        _ => 0,
    }
}

/// Test helper: packages an instruction for offload.
#[cfg(test)]
pub(crate) fn offload_item(
    inst: Instruction,
    addr: Option<u32>,
    int_operand: Option<u32>,
) -> SeqItem {
    SeqItem::Fp(OffloadedFp {
        inst,
        uop: FpUop::decode(&inst).expect("FP instruction"),
        addr,
        int_operand,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::FpBinOp;
    use sc_mem::TcdmConfig;

    fn cfg() -> CoreConfig {
        CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(4096).with_banks(4))
    }

    fn fadd(frd: u8, frs1: u8, frs2: u8) -> Instruction {
        Instruction::FpBin {
            op: FpBinOp::Add,
            fmt: FpFormat::Double,
            frd: FpReg::new(frd),
            frs1: FpReg::new(frs1),
            frs2: FpReg::new(frs2),
        }
    }

    /// Runs one full cycle against a scratch TCDM; returns the outcome.
    fn cycle(fs: &mut FpSubsystem, tcdm: &mut Tcdm, c: &mut PerfCounters) -> IssueOutcome {
        c.cycles += 1;
        fs.writeback(c);
        let out = fs.try_issue(c).unwrap();
        if let Some(req) = fs.lsu_request() {
            let g = tcdm.arbitrate(&[req]);
            if g[0] {
                fs.lsu_grant(tcdm).unwrap();
            }
        }
        let dm_reqs: Vec<(u8, Request)> = fs
            .ssr()
            .movers()
            .filter_map(|m| m.request().map(|r| (m.index(), r)))
            .collect();
        if !dm_reqs.is_empty() {
            let reqs: Vec<Request> = dm_reqs.iter().map(|(_, r)| *r).collect();
            let grants = tcdm.arbitrate(&reqs);
            for ((dm, _), granted) in dm_reqs.iter().zip(grants) {
                if granted {
                    fs.ssr_mut().mover_mut(*dm).apply_grant(tcdm).unwrap();
                }
            }
        }
        fs.advance();
        out
    }

    #[test]
    fn raw_hazard_costs_exactly_three_bubbles() {
        // fadd f4 <- f5+f6 ; fmul f7 <- f4*f5 : the paper's 3 wasted cycles.
        let mut fs = FpSubsystem::new(&cfg());
        let mut tcdm = Tcdm::new(cfg().tcdm);
        let mut c = PerfCounters::new();
        fs.set_reg(FpReg::new(5), 2.0);
        fs.set_reg(FpReg::new(6), 3.0);
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpBin {
                op: FpBinOp::Mul,
                fmt: FpFormat::Double,
                frd: FpReg::new(7),
                frs1: FpReg::new(4),
                frs2: FpReg::new(5),
            },
            None,
            None,
        ));
        let mut issues = Vec::new();
        for n in 0..12 {
            let out = cycle(&mut fs, &mut tcdm, &mut c);
            if out == IssueOutcome::Issued {
                let i = fs.last_issued().expect("an issue records its instruction");
                issues.push((n, i.to_string()));
            }
        }
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].0, 0);
        assert_eq!(
            issues[1].0, 4,
            "RAW consumer issues 4 cycles later (3 bubbles)"
        );
        assert_eq!(c.stalls_of(StallCause::RawHazard), 4 - 1);
        assert_eq!(fs.reg(FpReg::new(7)), 10.0);
    }

    #[test]
    fn waw_on_plain_register_stalls_but_chained_does_not() {
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        // Plain: two fadds to the same destination serialise.
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        let mut issue_cycles = Vec::new();
        for n in 0..12 {
            if cycle(&mut fs, &mut tcdm, &mut c) == IssueOutcome::Issued {
                issue_cycles.push(n);
            }
        }
        assert_eq!(issue_cycles, vec![0, 4], "plain WAW serialises");

        // Chained: back-to-back issue, no WAW.
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.set_chain_mask(FpReg::new(4).chain_mask_bit()).unwrap();
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        let mut issue_cycles = Vec::new();
        for n in 0..12 {
            if cycle(&mut fs, &mut tcdm, &mut c) == IssueOutcome::Issued {
                issue_cycles.push(n);
            }
        }
        assert_eq!(
            issue_cycles,
            vec![0, 1],
            "chained writes drop the WAW dependency"
        );
    }

    #[test]
    fn chained_fifo_preserves_order_and_backpressures() {
        // Three pushes into chained f4; pops must see push order. The
        // second producer completes while f4 is still valid → it holds
        // (backpressure), observable as pipeline blocked cycles.
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.set_chain_mask(FpReg::new(4).chain_mask_bit()).unwrap();
        fs.set_reg(FpReg::new(5), 1.0);
        fs.set_reg(FpReg::new(6), 0.0);
        fs.set_reg(FpReg::new(8), 10.0);
        // f4 <- 1, f4 <- 10+1=11? No: keep producers independent:
        // push 1.0 (f5+f6), push 10.0 (f8+f6), push 11.0 (f8+f5).
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 8, 6), None, None));
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 8, 5), None, None));
        // Run enough cycles for all three to complete; no consumer pops.
        for _ in 0..20 {
            cycle(&mut fs, &mut tcdm, &mut c);
        }
        // Only the first value committed; two producers are held.
        assert!(fs.chain().is_valid(FpReg::new(4)));
        assert_eq!(fs.reg(FpReg::new(4)), 1.0);
        assert_eq!(fs.pending_counts()[4], 2, "two pushes still in flight");
        // Consume two elements via chained reads. Note the consumers'
        // own results drain through the same in-order pipeline *behind*
        // the held producers, so both pops are needed before anything
        // retires — exactly the rigid-pipe FIFO behaviour of the paper.
        for dest in [9u8, 10u8] {
            fs.sequencer_mut().offload(offload_item(
                Instruction::FpBin {
                    op: FpBinOp::Mul,
                    fmt: FpFormat::Double,
                    frd: FpReg::new(dest),
                    frs1: FpReg::new(4),
                    frs2: FpReg::new(8),
                },
                None,
                None,
            ));
        }
        for _ in 0..30 {
            cycle(&mut fs, &mut tcdm, &mut c);
        }
        assert_eq!(
            fs.reg(FpReg::new(9)),
            10.0,
            "first pop returns the oldest push (1.0 * 10.0)"
        );
        assert_eq!(
            fs.reg(FpReg::new(10)),
            100.0,
            "second pop returns the next push (10.0 * 10.0)"
        );
        assert_eq!(
            fs.reg(FpReg::new(4)),
            11.0,
            "third push landed after the pops"
        );
        assert!(fs.chain().is_valid(FpReg::new(4)));
        assert_eq!(fs.pending_counts()[4], 0);
    }

    #[test]
    fn chain_empty_read_stalls_until_push() {
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.set_chain_mask(FpReg::new(4).chain_mask_bit()).unwrap();
        // Consumer first (reads chained f4), then producer would be
        // wrong-order software; instead: producer offloaded after one
        // stalled cycle, consumer waits for the push.
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpBin {
                op: FpBinOp::Mul,
                fmt: FpFormat::Double,
                frd: FpReg::new(9),
                frs1: FpReg::new(4),
                frs2: FpReg::new(4),
            },
            None,
            None,
        ));
        let out = cycle(&mut fs, &mut tcdm, &mut c);
        assert_eq!(out, IssueOutcome::Stalled(StallCause::ChainEmpty));
        assert!(c.stalls_of(StallCause::ChainEmpty) > 0);
    }

    #[test]
    fn store_pops_chained_register() {
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.set_chain_mask(FpReg::new(4).chain_mask_bit()).unwrap();
        fs.set_reg(FpReg::new(5), 4.5);
        fs.set_reg(FpReg::new(6), 0.0);
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpStore {
                fmt: FpFormat::Double,
                frs2: FpReg::new(4),
                rs1: IntReg::ZERO,
                offset: 0,
            },
            Some(128),
            None,
        ));
        for _ in 0..16 {
            cycle(&mut fs, &mut tcdm, &mut c);
        }
        assert_eq!(tcdm.read_f64(128).unwrap(), 4.5);
        assert!(
            !fs.chain().is_valid(FpReg::new(4)),
            "store consumed the element"
        );
        assert!(fs.is_drained());
    }

    #[test]
    fn load_writes_back_and_clears_scoreboard() {
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        tcdm.write_f64(256, 6.25).unwrap();
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpLoad {
                fmt: FpFormat::Double,
                frd: FpReg::new(10),
                rs1: IntReg::ZERO,
                offset: 0,
            },
            Some(256),
            None,
        ));
        // Dependent consumer.
        fs.sequencer_mut()
            .offload(offload_item(fadd(11, 10, 10), None, None));
        for _ in 0..12 {
            cycle(&mut fs, &mut tcdm, &mut c);
        }
        assert_eq!(fs.reg(FpReg::new(10)), 6.25);
        assert_eq!(fs.reg(FpReg::new(11)), 12.5);
        assert_eq!(fs.pending_counts()[10], 0);
        assert!(fs.is_drained());
    }

    #[test]
    fn comparison_produces_int_writeback() {
        let cfg = cfg();
        let _tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.set_reg(FpReg::new(5), 1.0);
        fs.set_reg(FpReg::new(6), 2.0);
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpCmp {
                op: sc_isa::FpCmpOp::Lt,
                fmt: FpFormat::Double,
                rd: IntReg::new(7),
                frs1: FpReg::new(5),
                frs2: FpReg::new(6),
            },
            None,
            None,
        ));
        let mut got = Vec::new();
        for _ in 0..8 {
            c.cycles += 1;
            got.extend(fs.writeback(&mut c));
            let _ = fs.try_issue(&mut c).unwrap();
            fs.advance();
        }
        assert_eq!(
            got,
            vec![IntWriteback {
                reg: IntReg::new(7),
                value: 1
            }]
        );
    }

    #[test]
    fn exhausted_stream_read_is_strict_error() {
        let cfg = cfg();
        let tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.ssr_mut().set_enabled(true);
        // DM0 never armed → it is "done" → reading ft0 is a bug.
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 0, 0), None, None));
        let err = loop {
            c.cycles += 1;
            fs.writeback(&mut c);
            match fs.try_issue(&mut c) {
                Err(e) => break e,
                Ok(_) => fs.advance(),
            }
        };
        assert_eq!(err, SimError::StreamReadExhausted { dm: 0 });
        drop(tcdm);
    }

    #[test]
    fn flop_accounting_counts_fma_twice() {
        let cfg = cfg();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        let mut fs = FpSubsystem::new(&cfg);
        let mut c = PerfCounters::new();
        fs.sequencer_mut()
            .offload(offload_item(fadd(4, 5, 6), None, None));
        fs.sequencer_mut().offload(offload_item(
            Instruction::FpFma {
                op: FmaOp::Madd,
                fmt: FpFormat::Double,
                frd: FpReg::new(7),
                frs1: FpReg::new(5),
                frs2: FpReg::new(6),
                frs3: FpReg::new(8),
            },
            None,
            None,
        ));
        for _ in 0..12 {
            cycle(&mut fs, &mut tcdm, &mut c);
        }
        assert_eq!(c.flops, 3);
        assert_eq!(c.fpu_issue_cycles, 2);
    }
}
