//! Tax probe: what the lock-step drivers cost on top of the core model.
//!
//! One program — `box3d1r` 16x16x24, `Chaining+`, one hart — is stepped
//! by three drivers in interleaved rounds within one binary: the bare
//! single-core `Simulator`, a bare `Cluster` begin/end loop, and a
//! one-hart, one-cluster `System`. All three run the same cycles and
//! leave the same verified memory; only `run` (or the loop) is timed,
//! not building or staging data. The probe prints each driver's
//! ns/cycle and the per-round Cluster/Simulator, System/Simulator and
//! System/Cluster ratios as median [quartiles]. Pin it to one CPU for a
//! steadier read.
//!
//! Run with `cargo run --release --example tax_probe -- [rounds] [reps]
//! [driver]` (defaults 15 rounds of 3 runs per driver). Naming one
//! driver (`simulator`, `cluster` or `system`) runs only that one, the
//! rounds × reps times, and prints nothing: a steady load for a
//! sampling profiler.

use std::time::Instant;

use scalar_chaining::cluster::ClusterBuilder;
use scalar_chaining::mem::L2Outcome;
use scalar_chaining::prelude::*;
use scalar_chaining::system::SystemBuilder;

/// Median and quartiles of `v`.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [at(0.5), at(0.25), at(0.75)]
}

fn show(name: &str, v: Vec<f64>) {
    let [m, q1, q3] = quartiles(v);
    println!("{name:<26} {m:8.3} [{q1:.3}-{q3:.3}]");
}

fn main() {
    let arg = |i: usize, default: usize| {
        std::env::args()
            .nth(i)
            .map_or(default, |s| s.parse().expect("a count"))
    };
    let (rounds, reps) = (arg(1, 15), arg(2, 3));
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(16, 16, 24),
        Variant::ChainingPlus,
    )
    .expect("box3d1r is a dense box");
    let cfg = CoreConfig::new().with_chaining(true);
    let kernel = gen.build();
    let program = kernel.program().clone();

    // Each driver returns (timed ns, cycles) and checks the result.
    let simulator = || {
        let mut sim = Simulator::new(cfg, program.clone());
        kernel.apply_setup(sim.tcdm_mut()).expect("data fits");
        let t = Instant::now();
        let cycles = sim.run(u64::MAX).expect("runs").cycles;
        let ns = t.elapsed().as_nanos() as f64;
        kernel.verify(sim.tcdm()).expect("verifies");
        (ns, cycles)
    };
    let cluster = || {
        let mut c =
            ClusterBuilder::new(ClusterConfig::new(1).with_core(cfg), vec![program.clone()])
                .build();
        kernel.apply_setup(c.tcdm_mut()).expect("data fits");
        let t = Instant::now();
        while !c.is_done() {
            c.begin_cycle().expect("runs");
            c.end_cycle(L2Outcome::Granted, None).expect("runs");
        }
        let ns = t.elapsed().as_nanos() as f64;
        kernel.verify(c.tcdm()).expect("verifies");
        (ns, c.cycles())
    };
    let system = || {
        let scfg = SystemConfig::new(1, 1).with_cluster(ClusterConfig::new(1).with_core(cfg));
        let mut s = SystemBuilder::new(scfg, vec![vec![vec![program.clone()]]]).build();
        kernel
            .apply_setup(s.cluster_mut(0).tcdm_mut())
            .expect("data fits");
        let t = Instant::now();
        let cycles = s.run(u64::MAX).expect("runs").cycles;
        let ns = t.elapsed().as_nanos() as f64;
        kernel.verify(s.cluster(0).tcdm()).expect("verifies");
        (ns, cycles)
    };
    let drivers: [&dyn Fn() -> (f64, u64); 3] = [&simulator, &cluster, &system];
    if let Some(name) = std::env::args().nth(3) {
        let d = ["simulator", "cluster", "system"]
            .iter()
            .position(|&n| n == name)
            .expect("driver is simulator, cluster or system");
        for _ in 0..rounds * reps {
            drivers[d]();
        }
        return;
    }
    let cycles = simulator().1;
    for driver in &drivers[1..] {
        assert_eq!(driver().1, cycles, "every driver runs the same cycles");
    }

    // Rounds rotate which driver goes first, so slow host phases fall
    // on each driver alike.
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    for r in 0..rounds {
        for k in 0..3 {
            let d = (r + k) % 3;
            let total: f64 = (0..reps).map(|_| drivers[d]().0).sum();
            ns[d].push(total / (reps * cycles as usize) as f64);
        }
    }
    let ratio = |d: usize, over: usize| -> Vec<f64> {
        ns[d].iter().zip(&ns[over]).map(|(a, b)| a / b).collect()
    };
    println!("{cycles} cycles, {rounds} rounds of {reps} runs per driver");
    println!("{:<26} {:>8} [quartiles]", "", "median");
    show("Simulator ns/cycle", ns[0].clone());
    show("Cluster loop ns/cycle", ns[1].clone());
    show("System ns/cycle", ns[2].clone());
    show("Cluster loop / Simulator", ratio(1, 0));
    show("System / Simulator", ratio(2, 0));
    show("System / Cluster loop", ratio(2, 1));
}
