//! The CI perf-regression gate and report validator.
//!
//! ```text
//! sc-bench perf_gate check <report.json>...              # exists + parses + wellformed
//! sc-bench perf_gate diff <baseline.json> <report.json>  # exact diff, exit 1 on drift
//! sc-bench perf_gate baseline <report.json>              # print a fresh baseline to stdout
//! ```
//!
//! `check` fails (exit 1) if any listed report is missing, unparseable
//! or structurally hollow — the bench-reports CI job runs it over every
//! file the sweep commands are expected to produce. `diff` compares a
//! fresh report against the checked-in `baselines/` file exactly; when
//! a model shift is intentional, regenerate with `baseline` and attach
//! the `perf_report diff` of the attribution trees.

use std::path::Path;
use std::process::ExitCode;

use sc_bench::gate;

pub fn run(args: &[String]) -> ExitCode {
    super::exit_code("perf_gate", gate(args))
}

fn gate(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("check") if args.len() >= 2 => {
            for path in &args[1..] {
                let report = super::load_report(path)?;
                gate::check_wellformed(&report).map_err(|e| format!("{path}: {e}"))?;
                println!("ok: {path}");
            }
            Ok(())
        }
        Some("diff") if args.len() == 3 => {
            let baseline = super::load_report(&args[1])?;
            let report = super::load_report(&args[2])?;
            let outcome = gate::diff(&baseline, &report)?;
            if outcome.passed() {
                println!(
                    "perf gate passed: {} metrics equal their pins",
                    outcome.checked
                );
                Ok(())
            } else {
                for f in &outcome.failures {
                    eprintln!("perf gate: {f}");
                }
                Err(format!(
                    "{} of {} metrics drifted from their pins; fix the regression \
                     or regenerate {} with `sc-bench perf_gate baseline {}`",
                    outcome.failures.len(),
                    outcome.checked,
                    args[1],
                    args[2],
                ))
            }
        }
        Some("baseline") if args.len() == 2 => {
            let report = super::load_report(&args[1])?;
            let name = Path::new(&args[1])
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(&args[1]);
            let baseline = gate::baseline_from_report(name, &report)?;
            print!("{}", baseline.render_pretty());
            Ok(())
        }
        _ => Err(
            "usage: sc-bench perf_gate check <report>... | diff <baseline> <report> | baseline <report>"
                .into(),
        ),
    }
}
