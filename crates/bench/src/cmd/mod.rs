//! The `sc-bench` commands, one module each, and the plumbing more
//! than one of them uses. Every module's `run` takes the arguments that
//! follow its name on the command line and returns the exit code.
//!
//! A sweep runs its points on host threads ([`sc_bench::parallel_sweep`])
//! and writes `target/reports/<name>.json` ([`json::emit_report`]). CI
//! gates the five baselined sweeps' reports against `baselines/<name>.json`
//! (`perf_gate diff`) and `baselines/attr/<name>.json` (`perf_report diff`).

use std::process::ExitCode;

use sc_bench::registry::Sweep;
use sc_bench::{json, Json};
use sc_kernels::Grid3;

pub mod ablation_banks;
pub mod ablation_depth;
pub mod ablation_registers;
pub mod area_report;
pub mod cluster_scaling;
pub mod fig1_trace;
pub mod fig3;
pub mod host_speed;
pub mod host_trajectory;
pub mod l2_ablation;
pub mod lint_sweep;
pub mod perf_gate;
pub mod perf_report;
pub mod prefetch_ablation;
pub mod sched_identity;
pub mod system_scaling;
pub mod trace_smoke;
pub mod weak_scaling;

/// Reads and parses a JSON report; the error names the file.
pub fn load_report(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read report: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The exit code of a command whose failures are messages: success, or
/// the message on stderr and exit 1.
pub fn exit_code(command: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{command}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints how many of the `<sweep>/<point id>` ids fall in each sweep,
/// in the order the sweeps first appear: `<sweep>: <n> points <verdict>`.
pub fn print_by_sweep<'a>(ids: impl Iterator<Item = &'a str>, verdict: &str) {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for id in ids {
        let sweep = id.split('/').next().unwrap_or("?");
        match counts.iter_mut().find(|(s, _)| *s == sweep) {
            Some((_, n)) => *n += 1,
            None => counts.push((sweep, 1)),
        }
    }
    for (sweep, n) in counts {
        println!("{sweep:>20}: {n} points {verdict}");
    }
}

/// A sweep report's leading keys: the sweep's name (which names the
/// report's file), the stencil and the grid.
pub fn sweep_report(sweep: Sweep, grid: Grid3) -> Json {
    Json::obj()
        .set("sweep", sweep.name())
        .set("stencil", "box3d1r")
        .set(
            "grid",
            vec![u64::from(grid.nx), u64::from(grid.ny), u64::from(grid.nz)],
        )
}

/// Writes `report` ([`json::emit_report`]) with `items` appended as the
/// array `key`.
pub fn emit_with_array(report: Json, key: &str, items: impl Iterator<Item = Json>) {
    json::emit_report(&report.set(key, Json::Arr(items.collect())));
}

/// The distinct `values`, ascending.
pub fn distinct(values: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut values: Vec<u32> = values.collect();
    values.sort_unstable();
    values.dedup();
    values
}
