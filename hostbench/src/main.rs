//! Layered host-throughput benchmark of the scalar-chaining simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <core_tcdm|l2_pressure|system_event> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the exact pins are read from
//! `baselines/` and `hostbench/pins/`. With `--trace 0` the workload's
//! points run serially, in a seed-shuffled order, through the library's
//! own run paths for `--seconds` seconds, and the end-to-end metrics are
//! printed. With `--trace 1` every workload's points replay once through
//! the traced drivers of `trace.rs`, and the per-layer metrics are
//! printed. The last line of standard output is the result object; see
//! `hostbench/README.md`.

mod pins;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pins::Pins;
use trace::{ClusterProfile, CoreProfile, SystemProfile};
use workload::{Fingerprint, Point, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the seed's stream of point orders.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nominal time of [`reference_probe`] on a quiet host: its typical time
/// on the 2-vCPU machine the benchmark was calibrated on. Host times are
/// reported in units of this reference (see `normalized`).
const PROBE_NOMINAL_S: f64 = 1.0e-3;

/// How much harder contention hits the simulator than the probe: the
/// slope of log simulator time on log probe time, 1.19 and 1.31 in two
/// 150 s runs on the calibration host.
const PROBE_SENSITIVITY: f64 = 1.25;

/// A fixed reference computation that owes nothing to the simulator: a
/// toy register machine interpreting a pseudo-random program over a
/// fresh 2 MiB memory. Its dispatch, allocation and cache profile make
/// it slow down with the simulator when other tenants contend for the
/// host's caches (0.96 correlation of log times over a 150 s run on a
/// 2-vCPU host; a pure-ALU loop hardly moves). Returns its host time.
fn reference_probe() -> f64 {
    const MEM: usize = 1 << 18;
    const PROG: usize = 1 << 16;
    let t = Instant::now();
    let mut mem = vec![0u64; MEM];
    let mut regs = [1u64; 32];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let prog: Vec<u32> = (0..PROG)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let mut pc = 0;
    for _ in 0..std::hint::black_box(400_000u32) {
        let ins = prog[pc];
        let rd = (ins >> 3 & 31) as usize;
        let rs1 = (ins >> 8 & 31) as usize;
        let rs2 = (ins >> 13 & 31) as usize;
        let imm = u64::from(ins >> 18);
        pc = (pc + 1) % PROG;
        match ins & 7 {
            0 => regs[rd] = regs[rs1].wrapping_add(regs[rs2]),
            1 => regs[rd] = regs[rs1] ^ imm,
            2 => regs[rd] = mem[(regs[rs1].wrapping_add(imm) as usize) % MEM],
            3 => mem[(regs[rs1].wrapping_add(imm) as usize) % MEM] = regs[rs2],
            4 => {
                if regs[rs1] & 1 == 0 {
                    pc = imm as usize % PROG;
                }
            }
            5 => regs[rd] = regs[rs1].wrapping_mul(regs[rs2] | 1),
            6 => regs[rd] = regs[rs1].rotate_left((imm & 63) as u32),
            _ => regs[rd] = u64::from(regs[rs1] < regs[rs2]),
        }
    }
    std::hint::black_box(regs);
    t.elapsed().as_secs_f64()
}

/// A host time in reference seconds: the measured time scaled by the
/// reference probe's slowdown right after it (its time over the nominal
/// one, to the power [`PROBE_SENSITIVITY`]). On a quiet host this is
/// the wall time; on a contended one it removes most of the slowdown
/// the other tenants cause.
fn normalized(seconds: f64) -> f64 {
    seconds / (reference_probe() / PROBE_NOMINAL_S).powf(PROBE_SENSITIVITY)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Points attempted and failed, with each failure reported on stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("hostbench: point failed: {e}");
                None
            }
        }
    }
}

/// Checks one untraced run: no error, no verification mismatch, exact
/// pins, and — when an earlier pass ran the point — the identical
/// simulated results, whatever order the points ran in.
fn check_run(
    pins: &Pins,
    point: &Point,
    run: Result<Fingerprint, sc_kernels::KernelError>,
    earlier: &mut Option<Fingerprint>,
) -> Result<Fingerprint, String> {
    let id = &point.spec.id;
    let fp = run.map_err(|e| format!("{id}: {e}"))?;
    pins.check(point.spec.pins, id, &fp.pinned(point.l2_config().as_ref()))?;
    match earlier {
        Some(prev) if *prev != fp => Err(format!(
            "{id}: simulated results changed between passes (state leaks between points)"
        )),
        Some(_) => Ok(fp),
        None => {
            *earlier = Some(fp.clone());
            Ok(fp)
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    pass_walls: Vec<f64>,
    points: usize,
    sim_cycles: u64,
    hart_cycles: u64,
    totals_ok: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

/// The untraced run: set up `SETUP_REPEATS` times, then serial passes
/// over the workload's points until `--seconds` is spent.
fn measure(args: &Args, pins: &Pins) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut points = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        points = w.build()?;
        setup.push(normalized(t.elapsed().as_secs_f64()));
    }
    let n = points.len();
    let mut rng = Rng(args.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut point_times = vec![Vec::new(); n];
    let mut earlier = vec![None; n];
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let mut totals;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        let mut wall = 0.0;
        let (mut cycles, mut hart_cycles) = (0, 0);
        for &i in &order {
            let point = &points[i];
            let t = Instant::now();
            let run = point.run();
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            point_times[i].push(normalized(dt));
            if let Some(fp) = tally.record(check_run(pins, point, run, &mut earlier[i])) {
                cycles += fp.cycles;
                hart_cycles += fp.hart_cycles();
            }
        }
        walls.push(wall);
        totals = (cycles, hart_cycles);
        // Another pass only if it fits the budget at the mean pass time.
        let spent = start.elapsed();
        if spent + spent / walls.len() as u32 > budget {
            break;
        }
    }
    let totals_ok = check_totals(pins, w, n, totals);
    // Each point's median over the passes of its reference-normalized
    // time. Other tenants slow this host by up to 2x for seconds to
    // minutes at a time; the probe taken right after each sample
    // cancels most of that, and the median the rest.
    let typical: Vec<f64> = point_times.iter().map(|t| median(t)).collect();
    let wall: f64 = typical.iter().sum();
    Ok(Outcome {
        pass_walls: walls,
        points: n,
        sim_cycles: totals.0,
        hart_cycles: totals.1,
        totals_ok,
        tally,
        metrics: vec![
            ("sim_cycles_per_s", totals.0 as f64 / wall, "cycles/s"),
            ("wall_s", wall, "s"),
            (
                "point_max_s",
                typical.iter().copied().fold(0.0, f64::max),
                "s",
            ),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ],
    })
}

fn check_totals(
    pins: &Pins,
    w: Workload,
    points: usize,
    (cycles, hart_cycles): (u64, u64),
) -> bool {
    let got = [
        ("points", points as u64),
        ("sim_cycles", cycles),
        ("hart_cycles", hart_cycles),
    ];
    match pins.check_totals(w.name(), &got) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("hostbench: {e}");
            false
        }
    }
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn share(part: Duration, whole: Duration) -> f64 {
    part.as_secs_f64() / whole.as_secs_f64()
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The traced run: every workload replays once untraced and once
/// through its traced driver, so every per-layer metric is measured on
/// the workload that exercises its layer. The requested workload also
/// gets its build times and tracing overhead.
fn trace_all(args: &Args, pins: &Pins) -> Result<Outcome, String> {
    let mut core = CoreProfile::default();
    let mut cluster = ClusterProfile::default();
    let mut system = SystemProfile::default();
    let mut rng = Rng(args.seed);
    let mut tally = Tally::default();
    let mut own = None;
    let mut totals_ok = true;
    for w in Workload::ALL {
        let t = Instant::now();
        let points = w.build()?;
        let codegen = t.elapsed();
        let mut order: Vec<usize> = (0..points.len()).collect();
        rng.shuffle(&mut order);
        let build_before = core.build + cluster.build + system.build;
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        let (mut cycles, mut hart_cycles) = (0, 0);
        for &i in &order {
            let point = &points[i];
            let t = Instant::now();
            let run = point.run();
            untraced += t.elapsed();
            let reference = check_run(pins, point, run, &mut None);
            let t = Instant::now();
            let replay = match w {
                Workload::CoreTcdm => trace::core_tcdm(point, &mut core),
                Workload::L2Pressure => trace::cluster_l2(point, &mut cluster),
                Workload::SystemEvent => trace::system_sched(point, &mut system),
            };
            traced += t.elapsed();
            let identical = reference.and_then(|want| {
                let got = replay.map_err(|e| format!("{} (traced): {e}", point.spec.id))?;
                if got == want {
                    Ok(got)
                } else {
                    Err(format!(
                        "{}: the traced driver diverged from the untraced run",
                        point.spec.id
                    ))
                }
            });
            if let Some(fp) = tally.record(identical) {
                cycles += fp.cycles;
                hart_cycles += fp.hart_cycles();
            }
        }
        totals_ok &= check_totals(pins, w, points.len(), (cycles, hart_cycles));
        if w == args.workload {
            let build = core.build + cluster.build + system.build - build_before;
            own = Some((
                points.len(),
                cycles,
                hart_cycles,
                codegen,
                build,
                traced,
                untraced,
            ));
        }
    }
    let (points, cycles, hart_cycles, codegen, build, traced, untraced) =
        own.expect("the requested workload is one of Workload::ALL");

    let c = &core;
    let l = &cluster;
    let s = &system;
    let metrics = vec![
        (
            "core.begin_cycle.ns_per_hart_cycle",
            ns_per(c.begin, c.hart_cycles),
            "ns",
        ),
        (
            "core.mem_requests.ns_per_hart_cycle",
            ns_per(c.mem_requests, c.hart_cycles),
            "ns",
        ),
        (
            "tcdm.arbitrate.ns_per_call",
            ns_per(c.arbitrate, c.arbitrate_calls),
            "ns",
        ),
        (
            "core.apply_grants.ns_per_hart_cycle",
            ns_per(c.apply, c.hart_cycles),
            "ns",
        ),
        (
            "core.end_cycle.ns_per_hart_cycle",
            ns_per(c.end, c.hart_cycles),
            "ns",
        ),
        ("core.begin_cycle.share", share(c.begin, c.total), "ratio"),
        (
            "core.mem_requests.share",
            share(c.mem_requests, c.total),
            "ratio",
        ),
        ("tcdm.arbitrate.share", share(c.arbitrate, c.total), "ratio"),
        ("core.apply_grants.share", share(c.apply, c.total), "ratio"),
        ("core.end_cycle.share", share(c.end, c.total), "ratio"),
        ("tcdm.requests", c.requests as f64, "count"),
        ("tcdm.grant_ratio", ratio(c.grants, c.requests), "ratio"),
        (
            "cluster.begin_cycle.ns_per_cycle",
            ns_per(l.begin, l.cluster_cycles),
            "ns",
        ),
        (
            "l2.cycle.ns_per_cycle",
            ns_per(l.l2 + l.arbitrate, l.system_cycles),
            "ns",
        ),
        (
            "l2.arbitrate.ns_per_request",
            ns_per(l.arbitrate, l.requests),
            "ns",
        ),
        (
            "cluster.end_cycle.ns_per_cycle",
            ns_per(l.end, l.cluster_cycles),
            "ns",
        ),
        (
            "cluster.begin_cycle.share",
            share(l.begin, l.total),
            "ratio",
        ),
        (
            "cluster.take_prefetch_hints.share",
            share(l.hints, l.total),
            "ratio",
        ),
        (
            "l2.cycle.share",
            share(l.l2 + l.arbitrate, l.total),
            "ratio",
        ),
        ("l2.arbitrate.share", share(l.arbitrate, l.total), "ratio"),
        ("cluster.end_cycle.share", share(l.end, l.total), "ratio"),
        (
            "system.bookkeeping.share",
            share(l.bookkeeping, l.total),
            "ratio",
        ),
        ("l2.requests", l.requests as f64, "count"),
        ("l2.grant_ratio", ratio(l.granted, l.requests), "ratio"),
        ("l2.denied.bank_conflict", l.bank_conflict as f64, "count"),
        ("l2.denied.miss_wait", l.miss_wait as f64, "count"),
        ("l2.denied.mshr_full", l.mshr_full as f64, "count"),
        (
            "l2.hit_ratio",
            ratio(l.read_hits, l.read_hits + l.read_misses),
            "ratio",
        ),
        (
            "l2.prefetch_accuracy",
            ratio(l.prefetch_hits, l.prefetches_issued),
            "ratio",
        ),
        ("l2.writeback_beats", l.writeback_beats as f64, "count"),
        ("dma.beats", l.dma_beats as f64, "count"),
        (
            "system.step.ns_per_stepped_cycle",
            ns_per(s.step, s.stepped_cycles),
            "ns",
        ),
        (
            "system.next_wake.ns_per_call",
            ns_per(s.next_wake, s.decisions),
            "ns",
        ),
        ("sched.plan.ns_per_call", ns_per(s.plan, s.decisions), "ns"),
        (
            "system.skip_idle.ns_per_window",
            ns_per(s.skip, s.windows),
            "ns",
        ),
        ("system.step.share", share(s.step, s.total), "ratio"),
        (
            "sched.host_share",
            share(s.next_wake + s.plan + s.skip, s.total),
            "ratio",
        ),
        (
            "sched.skipped_cycle_share",
            ratio(s.skipped_cycles, s.skipped_cycles + s.stepped_cycles),
            "ratio",
        ),
        ("sched.windows", s.windows as f64, "count"),
        (
            "trace.span_coverage.core",
            share(
                c.begin + c.mem_requests + c.arbitrate + c.apply + c.end,
                c.total,
            ),
            "ratio",
        ),
        (
            "trace.span_coverage.cluster",
            share(
                l.begin + l.hints + l.l2 + l.arbitrate + l.end + l.bookkeeping,
                l.total,
            ),
            "ratio",
        ),
        (
            "trace.span_coverage.system",
            share(s.next_wake + s.plan + s.skip + s.step, s.total),
            "ratio",
        ),
        ("kernels.build_s", codegen.as_secs_f64(), "s"),
        ("cluster.build_s", build.as_secs_f64(), "s"),
        ("trace.overhead_ratio", share(traced, untraced), "ratio"),
    ];
    Ok(Outcome {
        pass_walls: vec![untraced.as_secs_f64()],
        points,
        sim_cycles: cycles,
        hart_cycles,
        totals_ok,
        tally,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "hostbench: {e}\nusage: hostbench --workload <core_tcdm|l2_pressure|system_event> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = Pins::load().and_then(|pins| {
        if args.trace {
            trace_all(&args, &pins)
        } else {
            measure(&args, &pins)
        }
    });
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, v, _)) = o.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("hostbench: metric {name} is not a number ({v})");
        return ExitCode::FAILURE;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":1,\"host_cpus\":{cpus},\
         \"pass_wall_s\":{:?},\"points\":{},\"sim_cycles\":{},\"hart_cycles\":{}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        o.pass_walls,
        o.points,
        o.sim_cycles,
        o.hart_cycles
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        o.tally.failed == 0 && o.totals_ok,
        o.tally.attempted,
        o.tally.failed
    );
    ExitCode::SUCCESS
}
