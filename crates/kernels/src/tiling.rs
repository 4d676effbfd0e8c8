//! Double-buffered DMA tiling: running whole-problem kernels through a
//! capacity-bounded TCDM.
//!
//! The unbounded-TCDM path cheats: it scales the scratchpad until the
//! whole problem fits. This module retires that cheat. The problem's
//! arrays live in the background memory ([`sc_mem::Dram`]); the TCDM
//! holds only *ping-pong tile buffers* sized to a hard capacity cap
//! (128 KiB for the real cluster), and a per-cluster DMA engine streams
//! tiles in and results out **while the cores compute** — the software
//! pipeline every Snitch kernel uses in practice.
//!
//! ## The pipeline
//!
//! For tiles `0..T`, hart 0's program for tile `i` begins by ringing the
//! DMA doorbell for (a) the write-back of tile `i-1`'s output and (b)
//! the fetch of tile `i+1`'s input — both into the buffers the current
//! tile does *not* touch — then parks on the blocking DMA-wait CSR until
//! the FIFO completion counter shows tile `i`'s own input has landed,
//! and finally rendezvouses with the other harts on the cluster barrier
//! before any of them reads the buffer. Compute of tile `i` thus
//! overlaps the engine's work on tiles `i±1`; the only exposed transfer
//! time is tile 0's fetch and whatever the engine cannot hide behind
//! compute. A short epilogue program
//! writes back the last tile and drains the queue.
//!
//! Buffer-reuse safety falls out of FIFO completion order: waiting for
//! tile `i`'s input implies every earlier transfer — in particular the
//! write-back of tile `i-2`, whose output buffer tile `i` overwrites —
//! has completed.
//!
//! The tile loop itself (switching each hart to its next tile program)
//! is a cluster's stage list in an `sc_system::System`: when a
//! cluster's cores all halt, the system loads its next stage
//! ([`sc_cluster::Cluster::load_programs`]), which restarts the cores
//! with all architectural state and counters intact and charges no
//! re-dispatch cycles.

use sc_isa::{csr, IntReg, Program, ProgramBuilder};
use sc_mem::TcdmConfig;

/// The real cluster's L1 capacity — the default cap for tiled kernels.
pub const TCDM_CAP_BYTES: u32 = 128 << 10;

/// Granule of the finite L2 capacities the sweeps and tests size with
/// [`WorkingSet::overfit_capacity`] / [`WorkingSet::underfit_capacity`]:
/// whole sets for every swept associativity (256 B lines × up to 8 ways).
pub const L2_CAP_GRANULE_BYTES: u32 = 256 * 8;

/// MSHR file size of the finite L2s the capacity sweeps configure.
pub const L2_SWEEP_MSHRS: u32 = 8;

/// One TCDM interleave line (32 banks × 8 B) — the granule capacity caps
/// are rounded *down* to, so an instantiated scratchpad never exceeds
/// the cap.
pub(crate) const TCDM_LINE_BYTES: u32 = 256;

/// A tiling failure: the per-tile working set cannot be double-buffered
/// within the capacity cap even at the minimum tile size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileError {
    /// Bytes the smallest possible tile layout needs.
    pub needed: u32,
    /// The capacity cap that was requested.
    pub capacity: u32,
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "double-buffered tiles need at least {} B of TCDM, cap is {} B",
            self.needed, self.capacity
        )
    }
}

impl std::error::Error for TileError {}

/// One DMA transfer a tile program rings the doorbell for. Mirrors
/// `sc_dma::Transfer` (including the 2-D strided form the engine
/// supports, which the x/y sub-tiling path uses to gather/scatter
/// y-strips plane by plane), but lives here so codegen does not depend
/// on the engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DmaXfer {
    pub dram_addr: u32,
    pub tcdm_addr: u32,
    /// Bytes per row.
    pub row_bytes: u32,
    /// Byte distance between row starts on the Dram side.
    pub dram_stride: u32,
    /// Byte distance between row starts on the TCDM side.
    pub tcdm_stride: u32,
    /// Row count (1 = plain 1-D transfer).
    pub reps: u32,
    pub to_tcdm: bool,
}

impl DmaXfer {
    /// A plain 1-D contiguous transfer.
    pub(crate) fn contiguous(dram_addr: u32, tcdm_addr: u32, bytes: u32, to_tcdm: bool) -> Self {
        DmaXfer {
            dram_addr,
            tcdm_addr,
            row_bytes: bytes,
            dram_stride: bytes,
            tcdm_stride: bytes,
            reps: 1,
            to_tcdm,
        }
    }
}

/// The transfers one tile consumes and produces.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileIo {
    pub inputs: Vec<DmaXfer>,
    pub outputs: Vec<DmaXfer>,
}

/// The background-memory working set a tiled plan touches — what the
/// planner knows *statically* about the traffic it scheduled, so sweeps
/// can size an L2 to deliberately over- or under-fit it.
///
/// Distinguish the two quantities it reports:
///
/// * **footprint** — the union of distinct Dram bytes the plan ever
///   touches. An L2 at least this big (plus associativity slack) can
///   hold the whole problem after the compulsory misses.
/// * **traffic** — the bytes the DMA engines actually move, counting
///   revisits (halo planes are fetched by both neighbouring tiles). An
///   L2 smaller than the reuse distance turns those revisits into
///   capacity misses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkingSet {
    /// Distinct Dram byte ranges touched, merged and sorted (half-open
    /// `[start, end)` intervals).
    intervals: Vec<(u32, u32)>,
    /// Total bytes fetched into the TCDMs (revisits counted).
    pub input_bytes: u64,
    /// Total bytes written back out of the TCDMs.
    pub output_bytes: u64,
    /// The largest single tile's transfer bytes (inputs + outputs) — the
    /// per-tile resident set.
    pub max_tile_bytes: u32,
    /// Compute tiles in the plan.
    pub tiles: usize,
}

impl WorkingSet {
    /// Collects the working set of a tile sequence.
    pub(crate) fn from_tiles(tiles: &[TileIo]) -> Self {
        let mut ws = WorkingSet {
            tiles: tiles.len(),
            ..Self::default()
        };
        let mut raw = Vec::new();
        for tile in tiles {
            let mut tile_bytes = 0u32;
            for (xfers, moved) in [
                (&tile.inputs, &mut ws.input_bytes),
                (&tile.outputs, &mut ws.output_bytes),
            ] {
                for x in xfers {
                    for rep in 0..x.reps {
                        let start = x.dram_addr + rep * x.dram_stride;
                        raw.push((start, start + x.row_bytes));
                    }
                    let bytes = u64::from(x.row_bytes) * u64::from(x.reps);
                    *moved += bytes;
                    tile_bytes += x.row_bytes * x.reps;
                }
            }
            ws.max_tile_bytes = ws.max_tile_bytes.max(tile_bytes);
        }
        ws.intervals = merge_intervals(raw);
        ws
    }

    /// Folds another plan's working set into this one (distinct ranges
    /// shared between the plans — e.g. the coefficient table every
    /// cluster fetches — are counted once in the footprint, but their
    /// traffic adds up).
    pub fn merge(&mut self, other: &WorkingSet) {
        let mut raw = std::mem::take(&mut self.intervals);
        raw.extend(other.intervals.iter().copied());
        self.intervals = merge_intervals(raw);
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
        self.max_tile_bytes = self.max_tile_bytes.max(other.max_tile_bytes);
        self.tiles += other.tiles;
    }

    /// Distinct Dram bytes the plan touches.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.intervals.iter().map(|&(s, e)| u64::from(e - s)).sum()
    }

    /// Total bytes the engines move (input + output traffic, revisits
    /// counted).
    #[must_use]
    pub fn traffic_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }

    /// Distinct cache lines of `line_bytes` the footprint spans — the
    /// number of compulsory refills a cold cache of unbounded capacity
    /// would pay (write-allocated output lines excluded from *refills*
    /// but still occupying capacity, hence counted here).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    #[must_use]
    pub fn l2_lines(&self, line_bytes: u32) -> u64 {
        assert!(line_bytes > 0, "a cache line holds at least one byte");
        merge_intervals(
            self.intervals
                .iter()
                .map(|&(s, e)| (s / line_bytes, (e - 1) / line_bytes + 1))
                .collect(),
        )
        .iter()
        .map(|&(s, e)| u64::from(e - s))
        .sum()
    }

    /// Whether the whole footprint fits a cache of `capacity_bytes`
    /// (ignoring associativity conflicts — a fully warm upper bound).
    #[must_use]
    pub fn fits_in(&self, capacity_bytes: u32) -> bool {
        self.footprint_bytes() <= u64::from(capacity_bytes)
    }

    /// An **over-fit** L2 capacity for this plan: twice the distinct
    /// footprint, rounded up to `granule` (use `line_bytes × ways` so
    /// every swept associativity divides into whole sets). After the
    /// compulsory misses such an L2 holds the whole problem — the
    /// capacity-pressure-free end of an ablation.
    ///
    /// # Panics
    ///
    /// Panics if `granule` is zero.
    #[must_use]
    pub fn overfit_capacity(&self, granule: u32) -> u32 {
        Self::align_capacity(self.footprint_bytes() * 2, granule)
    }

    /// An **under-fit** L2 capacity: a quarter of the distinct
    /// footprint, rounded up to `granule` — small enough that tile
    /// revisits become capacity misses (and, with write-back on, dirty
    /// write-back traffic), the regime the L2 sweeps stress.
    ///
    /// # Panics
    ///
    /// Panics if `granule` is zero.
    #[must_use]
    pub fn underfit_capacity(&self, granule: u32) -> u32 {
        Self::align_capacity(self.footprint_bytes() / 4, granule)
    }

    fn align_capacity(bytes: u64, granule: u32) -> u32 {
        assert!(granule > 0, "capacity granule must be positive");
        let g = u64::from(granule);
        (bytes.div_ceil(g) * g) as u32
    }
}

/// Sorts and merges half-open intervals (overlapping or adjacent ones
/// coalesce).
fn merge_intervals(mut raw: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    raw.retain(|&(s, e)| e > s);
    raw.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(raw.len());
    for (s, e) in raw {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// The static software-pipeline schedule: which transfers hart 0
/// enqueues at the head of each tile program, and the FIFO completion
/// count it must observe before the tile's compute may touch its input
/// buffer.
#[derive(Debug, Clone)]
pub(crate) struct TileSchedule {
    /// Per tile: (doorbells to ring, completion count to wait for).
    pub per_tile: Vec<(Vec<DmaXfer>, u32)>,
    /// Epilogue: (final write-backs, completion count draining the queue).
    pub epilogue: (Vec<DmaXfer>, u32),
}

/// Builds the pipeline schedule for a tile sequence.
///
/// Enqueue order per tile `i`: write-back of tile `i-1` first (so it is
/// already queued before any later input fetch), then the fetch of tile
/// `i+1`. Tile 0 additionally fetches its own input at the very front.
pub(crate) fn schedule(tiles: &[TileIo]) -> TileSchedule {
    let t = tiles.len();
    assert!(t > 0, "a tiled kernel has at least one tile");
    let mut per_tile_enq: Vec<Vec<DmaXfer>> = vec![Vec::new(); t];
    let mut input_end = vec![0u32; t];
    let mut pos = 0u32;
    for i in 0..t {
        if i == 0 {
            per_tile_enq[0].extend(tiles[0].inputs.iter().copied());
            pos += tiles[0].inputs.len() as u32;
            input_end[0] = pos;
        } else {
            per_tile_enq[i].extend(tiles[i - 1].outputs.iter().copied());
            pos += tiles[i - 1].outputs.len() as u32;
        }
        if i + 1 < t {
            per_tile_enq[i].extend(tiles[i + 1].inputs.iter().copied());
            pos += tiles[i + 1].inputs.len() as u32;
            input_end[i + 1] = pos;
        }
    }
    let last_outputs: Vec<DmaXfer> = tiles[t - 1].outputs.clone();
    pos += last_outputs.len() as u32;
    TileSchedule {
        per_tile: per_tile_enq.into_iter().zip(input_end).collect(),
        epilogue: (last_outputs, pos),
    }
}

/// Integer scratch registers used by the DMA prologue; clobbered freely
/// because every kernel program re-initialises its own registers after
/// the data-ready barrier.
const DT0: IntReg = IntReg::new(5);
const DT1: IntReg = IntReg::new(6);
const DT2: IntReg = IntReg::new(7);

/// Emits CSR writes describing `x` and rings the doorbell. All
/// descriptor CSRs are rewritten every time — they persist between
/// doorbells, so stale strides must not leak into 1-D transfers.
pub(crate) fn emit_transfer(b: &mut ProgramBuilder, x: &DmaXfer) {
    for (addr, value) in [
        (csr::DMA_SRC, x.dram_addr),
        (csr::DMA_DST, x.tcdm_addr),
        (csr::DMA_LEN, x.row_bytes),
        (csr::DMA_SRC_STRIDE, x.dram_stride),
        (csr::DMA_DST_STRIDE, x.tcdm_stride),
        (csr::DMA_REPS, x.reps),
    ] {
        b.li(DT0, value as i32);
        b.csrrw(IntReg::ZERO, addr, DT0);
    }
    b.csrrwi(IntReg::ZERO, csr::DMA_START, u8::from(x.to_tcdm));
}

/// Emits a blocking [`csr::DMA_WAIT`] write that parks the hart until
/// the engine's FIFO completion counter reaches `count`. The hart
/// retires nothing while it waits.
///
/// The counter is a *wrapping* u32, so the cluster releases the hart on
/// the **wrapping distance** `completed - count` read as a signed
/// quantity, not on a raw ordered compare. An ordered compare breaks
/// twice on long runs: once when the count crosses `0x8000_0000`, and
/// again right after the wrap. The distance test is exact as long as
/// fewer than 2³¹ transfers are in flight, which the double-buffered
/// pipeline guarantees by construction.
pub(crate) fn emit_dma_wait(b: &mut ProgramBuilder, count: u32) {
    b.li(DT1, count as i32);
    b.csrrw(DT2, csr::DMA_WAIT, DT1);
}

/// Emits a `PHASE_MARK` CSR write carrying `value` (a tile index):
/// profiled builds drop one at the top of each tile-loop iteration so
/// `sc_perf::segment_phases` can cut the run's attribution into
/// prologue / per-tile steady state / drain.
pub(crate) fn emit_phase_mark(b: &mut ProgramBuilder, value: u32) {
    b.li(DT0, value as i32);
    b.csrrw(IntReg::ZERO, csr::PHASE_MARK, DT0);
}

/// Emits hart 0's tile prologue (doorbells + completion wait) followed
/// by the data-ready barrier every hart executes. Call with an empty
/// transfer list and `wait == 0` for harts other than 0 — they only
/// rendezvous.
pub(crate) fn emit_tile_prologue(
    b: &mut ProgramBuilder,
    transfers: &[DmaXfer],
    wait_completed: u32,
) {
    for x in transfers {
        emit_transfer(b, x);
    }
    if wait_completed > 0 {
        emit_dma_wait(b, wait_completed);
    }
    b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
}

/// Builds the per-hart epilogue programs: hart 0 rings the final
/// write-back doorbells and waits for the whole queue to drain; every
/// hart rendezvouses and halts.
pub(crate) fn epilogue_programs(
    num_harts: u32,
    transfers: &[DmaXfer],
    wait_completed: u32,
) -> Vec<Program> {
    (0..num_harts)
        .map(|h| {
            let mut b = ProgramBuilder::new();
            if h == 0 {
                for x in transfers {
                    emit_transfer(&mut b, x);
                }
                emit_dma_wait(&mut b, wait_completed);
            }
            b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
            b.ecall();
            b.build().expect("epilogue program is valid")
        })
        .collect()
}

/// Rounds `v` up to a multiple of `a`.
pub(crate) fn align_up(v: u32, a: u32) -> u32 {
    v.div_ceil(a) * a
}

/// One cluster's tile pipeline as a planner lays it out: the
/// capacity-capped TCDM the tiles were sized for, the stage sequence
/// (every tile's per-hart programs, then the epilogue) and the
/// background-memory working set. The system-tiled builders turn plans
/// into a [`crate::TiledSystemKernel`].
#[derive(Debug)]
pub(crate) struct TilePlan {
    pub tcdm: TcdmConfig,
    pub stages: Vec<Vec<Program>>,
    pub working_set: WorkingSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xfer(tag: u32) -> DmaXfer {
        DmaXfer::contiguous(tag * 0x100, tag * 0x10, 8, true)
    }

    #[test]
    fn schedule_pipelines_inputs_one_tile_ahead() {
        let tiles: Vec<TileIo> = (0..3)
            .map(|i| TileIo {
                inputs: vec![xfer(10 + i)],
                outputs: vec![xfer(20 + i)],
            })
            .collect();
        let s = schedule(&tiles);
        // Tile 0 fetches its own input and prefetches tile 1's.
        assert_eq!(s.per_tile[0].0, vec![xfer(10), xfer(11)]);
        assert_eq!(s.per_tile[0].1, 1, "wait for own input only");
        // Tile 1 writes back tile 0 and prefetches tile 2; its input was
        // the 2nd transfer enqueued.
        assert_eq!(s.per_tile[1].0, vec![xfer(20), xfer(12)]);
        assert_eq!(s.per_tile[1].1, 2);
        // Tile 2 only writes back tile 1; its input was 4th in FIFO
        // order (in0, in1, out0, in2).
        assert_eq!(s.per_tile[2].0, vec![xfer(21)]);
        assert_eq!(s.per_tile[2].1, 4);
        // Epilogue writes back tile 2 and waits for everything: 3 ins +
        // 3 outs.
        assert_eq!(s.epilogue.0, vec![xfer(22)]);
        assert_eq!(s.epilogue.1, 6);
    }

    #[test]
    fn completion_wait_survives_counter_wrap() {
        use sc_core::{Core, CoreConfig};
        use sc_mem::Tcdm;
        // The engine's completion counter sits just below the signed
        // boundary; the program waits for a target just above it. A raw
        // ordered compare reads 0x7FFF_FFFF as a huge positive and the
        // target as negative, and falls through before the transfers
        // land. The wrapping-distance wait must park instead.
        let completed = 0x7FFF_FFFFu32;
        let target = completed.wrapping_add(2);
        let wait = || {
            let mut b = ProgramBuilder::new();
            emit_dma_wait(&mut b, target);
            b.ecall();
            b.build().unwrap()
        };
        let cfg = CoreConfig::new();
        let mut tcdm = Tcdm::new(cfg.tcdm);
        let mut core = Core::new(cfg, wait());
        core.set_dma_status(2, completed);
        for _ in 0..100 {
            core.step(&mut tcdm).unwrap();
        }
        assert_eq!(
            core.dma_wait_target(),
            Some(target),
            "the wait must park across the signed boundary"
        );
        assert!(!core.is_halted());
        // Once the counter has crossed 0x8000_0000 to the target, the
        // same wait retires without parking.
        let mut core = Core::new(cfg, wait());
        core.set_dma_status(0, target);
        for _ in 0..100 {
            if core.is_halted() {
                break;
            }
            core.step(&mut tcdm).unwrap();
        }
        assert!(core.is_halted(), "a reached target must not park");
    }

    #[test]
    fn working_set_reports_footprint_and_traffic() {
        use crate::{Grid3, Stencil, StencilKernel, Variant};
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, 4, 6),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let tk = gen
            .build_system_tiled(1, 2, 8 << 10)
            .expect("tiles fit 8 KiB");
        let ws = tk.working_set();
        assert_eq!(ws.tiles, tk.num_tiles());
        assert!(tk.num_tiles() > 1, "the plan must actually tile");
        // Halo planes are fetched by both neighbouring tiles: moved
        // bytes strictly exceed the distinct footprint.
        assert!(ws.traffic_bytes() > ws.footprint_bytes());
        // Footprint = padded input + written output planes + coeffs.
        let g = Grid3::new(8, 4, 6);
        let (rp, sy) = (8 * g.sx(), g.sy());
        let pp = u64::from(rp * sy);
        let expect = pp * u64::from(g.sz()) + pp * u64::from(g.nz) + 27 * 8;
        assert_eq!(ws.footprint_bytes(), expect);
        assert!(ws.fits_in(TCDM_CAP_BYTES) && !ws.fits_in(1024));
        // Line count covers the footprint at line granularity.
        assert!(ws.l2_lines(256) * 256 >= ws.footprint_bytes());
        assert!(ws.l2_lines(256) <= ws.footprint_bytes() / 256 + 3);

        // A 2-cluster system plan covers the same arrays: identical
        // footprint (the shared coefficient fetch counts once), more
        // traffic (the slab-boundary halo planes move twice more).
        let sys = gen.build_system_tiled(2, 1, 8 << 10).expect("slabs fit");
        assert_eq!(sys.working_set().footprint_bytes(), ws.footprint_bytes());
        assert!(sys.working_set().traffic_bytes() > ws.traffic_bytes());
    }

    #[test]
    fn single_tile_schedule_degenerates() {
        let tiles = vec![TileIo {
            inputs: vec![xfer(1), xfer(2)],
            outputs: vec![xfer(3)],
        }];
        let s = schedule(&tiles);
        assert_eq!(s.per_tile.len(), 1);
        assert_eq!(s.per_tile[0].0.len(), 2);
        assert_eq!(s.per_tile[0].1, 2, "wait for both inputs");
        assert_eq!(s.epilogue.1, 3);
    }
}
