//! One host-throughput row for `BENCH_host.json`: every registry point
//! run serially, dense, on one thread, timed per sweep.
//!
//! Prints one JSON line: the commit, the rustc version, the host CPU
//! count, and for each sweep its serial wall time (the sum of its
//! points' `PointSpec::run` times, codegen included), simulated cycles
//! per second and hart-cycles per second. Simulated cycles are each
//! point's machine cycles; hart-cycles are every hart's own cycles,
//! summed. Raw host figures of different sessions do not compare on a
//! shared host: compare two commits by running both rows in one session,
//! alternated.
//!
//! `--commit <id>` names the commit; without it the row asks
//! `git rev-parse --short HEAD`. Not part of tier-1 or CI (a full pass
//! takes about as long as the five sweep commands run one after another).
//!
//! Run with `cargo run --release -p sc-bench -- host_trajectory`.

use std::process::{Command, ExitCode};
use std::time::Instant;

use sc_bench::registry::{self, Summary, Sweep};
use sc_bench::Json;

/// The first line a command prints, or `"unknown"` when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine cycles and hart-cycles of one point's run.
fn cycles_of(summary: &Summary) -> (u64, u64) {
    let hart_cycles = |cluster: &sc_cluster::ClusterSummary| -> u64 {
        cluster.per_core.iter().map(|r| r.counters.cycles).sum()
    };
    match summary {
        Summary::Cluster(s) => (s.cycles, hart_cycles(s)),
        Summary::System(s) => (s.cycles, s.per_cluster.iter().map(hart_cycles).sum()),
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let commit = match args {
        [] => first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        [flag, id] if flag == "--commit" => id.clone(),
        _ => {
            eprintln!("usage: sc-bench host_trajectory [--commit <id>]");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let points = registry::all_points();

    let mut sweeps = Json::obj();
    for sweep in Sweep::ALL {
        let (mut wall_s, mut sim_cycles, mut hart_cycles) = (0.0f64, 0u64, 0u64);
        let mut count = 0usize;
        for spec in points.iter().filter(|p| p.sweep == sweep) {
            let start = Instant::now();
            let run = spec.run();
            wall_s += start.elapsed().as_secs_f64();
            let (cycles, harts) = cycles_of(&run.summary);
            sim_cycles += cycles;
            hart_cycles += harts;
            count += 1;
        }
        sweeps = sweeps.set(
            sweep.name(),
            Json::obj()
                .set("points", count)
                .set("serial_wall_s", wall_s)
                .set("sim_cycles", sim_cycles)
                .set("hart_cycles", hart_cycles)
                .set("sim_cycles_per_s", sim_cycles as f64 / wall_s)
                .set("hart_cycles_per_s", hart_cycles as f64 / wall_s),
        );
    }

    let row = Json::obj()
        .set("commit", commit)
        .set("rustc", first_line_of("rustc", &["--version"]))
        .set("host_cpus", host_cpus)
        .set("threads", 1u32)
        .set("sweeps", sweeps);
    println!("{}", row.render());
    ExitCode::SUCCESS
}
