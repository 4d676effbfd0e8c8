//! Renders the top-down cycle-attribution sections of a sweep report.
//!
//! ```text
//! sc-bench perf_report <report.json>                    # indented top-down trees
//! sc-bench perf_report <report.json> --roofline         # compute-vs-traffic table
//! sc-bench perf_report <report.json> --csv              # one row per point
//! sc-bench perf_report <report.json> --json             # slim attribution-only report
//! sc-bench perf_report diff <before.json> <after.json>  # largest share movers
//! ```
//!
//! `--json` output is itself valid `diff` input: CI snapshots it under
//! `baselines/attr/` so a perf-gate failure can be answered with *which
//! leaf the cycles moved to*, not just which metric drifted. `diff` is
//! also the attribution gate: it exits non-zero unless every point of
//! `<before>` appears in `<after>` with the same `harts`,
//! `machine_cycles` and leaf counts, so a stall that moves to another
//! leaf fails even when the cycle count holds. `--top N`
//! bounds the movers a `diff` prints (default 5). Reports without
//! attribution sections (pre-sc-perf, or the non-sweep reports) are
//! refused rather than rendered empty.

use std::process::ExitCode;

use sc_bench::attr;

const DEFAULT_TOP: usize = 5;

/// Extracts `--top N` from `args`, leaving the rest in place.
fn take_top(args: &mut Vec<String>) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--top") else {
        return Ok(DEFAULT_TOP);
    };
    let count = args.get(i + 1).ok_or("--top needs a count")?;
    let n = count
        .parse::<usize>()
        .map_err(|_| format!("--top: `{count}` is not a count"))?;
    args.drain(i..=i + 1);
    Ok(n)
}

pub fn run(args: &[String]) -> ExitCode {
    super::exit_code("perf_report", report(args.to_vec()))
}

fn report(mut args: Vec<String>) -> Result<(), String> {
    let top = take_top(&mut args)?;
    match args.first().map(String::as_str) {
        Some("diff") if args.len() == 3 => {
            let before = super::load_report(&args[1])?;
            let after = super::load_report(&args[2])?;
            let d = attr::diff(&before, &after).map_err(|e| format!("diff: {e}"))?;
            print!("{}", attr::render_diff(&d, top));
            if d.is_exact() {
                Ok(())
            } else {
                Err(format!(
                    "{} pinned point(s) changed, {} missing",
                    d.changed.len(),
                    d.missing.len()
                ))
            }
        }
        Some(path) if !path.starts_with('-') && args.len() <= 2 => {
            let report = super::load_report(path)?;
            let points = attr::collect_points(&report).map_err(|e| format!("{path}: {e}"))?;
            match args.get(1).map(String::as_str) {
                None => print!("{}", attr::render_trees(&points)),
                Some("--roofline") => print!("{}", attr::render_roofline(&report, &points)),
                Some("--csv") => print!("{}", attr::render_csv(&points)),
                Some("--json") => println!("{}", attr::points_json(&points).render_pretty()),
                Some(flag) => return Err(format!("unknown flag `{flag}`")),
            }
            Ok(())
        }
        _ => Err(
            "usage: sc-bench perf_report <report> [--roofline|--csv|--json] [--top N] \
             | diff <before> <after> [--top N]"
                .into(),
        ),
    }
}
