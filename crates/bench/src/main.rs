//! `sc-bench <command> [args...]`: the paper's experiments, the
//! baselined sweeps and the CI gates over their reports, as commands of
//! one binary. The first argument names the command ([`commands`]); the
//! rest are the command's own. A missing or unknown command prints the
//! list of commands and exits 2.
//!
//! Run with `cargo run --release -p sc-bench -- <command> [args...]`.

mod cmd;

use std::process::ExitCode;

use cmd::*;
use sc_bench::registry::Sweep;

/// A command's name, what it regenerates or checks, and its entry point.
type Command = (&'static str, &'static str, fn(&[String]) -> ExitCode);

/// Every command, in usage order. The sweeps are named by [`Sweep::name`],
/// which also names their reports and their baseline files.
#[rustfmt::skip]
fn commands() -> [Command; 18] {
    [
        ("fig1_trace", "Fig. 1: issue traces of the three vecop forms", fig1_trace::run),
        ("fig3", "Fig. 3: utilisation and power, headline geomeans", fig3::run),
        ("area_report", "§III: the <2 % area-overhead claim (proxy)", area_report::run),
        ("ablation_depth", "§II: chaining gains grow with FPU depth", ablation_depth::run),
        ("ablation_registers", "§I: unrolling trades registers for ILP", ablation_registers::run),
        ("ablation_banks", "TCDM bank-count sensitivity of Fig. 3", ablation_banks::run),
        (Sweep::ClusterScaling.name(), "one cluster: 1/2/4/8 cores x chaining", cluster_scaling::run),
        (Sweep::SystemScaling.name(), "clusters x cores over a shared L2", system_scaling::run),
        (Sweep::L2Ablation.name(), "L2 capacity x ways x refill channels", l2_ablation::run),
        (Sweep::WeakScaling.name(), "weak scaling: the grid grows per cluster", weak_scaling::run),
        (Sweep::PrefetchAblation.name(), "L2 prefetch degree x distance", prefetch_ablation::run),
        ("sched_identity", "event == dense on every system-level point", sched_identity::run),
        ("lint_sweep", "every registry program lints clean; fixtures trip", lint_sweep::run),
        ("trace_smoke", "tiny traced run: trace schema, results identity", trace_smoke::run),
        ("host_speed", "host wall clock: dense vs event stepping", host_speed::run),
        ("host_trajectory", "one BENCH_host.json row, every point serially", host_trajectory::run),
        ("perf_gate", "check reports; exact diff against baselines/", perf_gate::run),
        ("perf_report", "attribution trees, roofline, CSV; leaf diff", perf_report::run),
    ]
}

/// How to call `sc-bench`, then every command.
fn usage(commands: &[Command]) -> String {
    let mut text = String::from("usage: sc-bench <command> [args...]\n\ncommands:\n");
    for (name, about, _) in commands {
        text += &format!("  {name:<20} {about}\n");
    }
    text
}

/// Runs the command `args[0]` on the rest of `args`.
fn dispatch(args: &[String]) -> ExitCode {
    let commands = commands();
    let name = args.first().map_or("", String::as_str);
    match commands.iter().find(|(n, ..)| *n == name) {
        Some((_, _, run)) => run(&args[1..]),
        None => {
            eprint!("{}", usage(&commands));
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn every_sweep_names_a_command() {
        let commands = commands();
        for sweep in Sweep::ALL {
            assert!(
                commands.iter().any(|(name, ..)| *name == sweep.name()),
                "no command runs {}",
                sweep.name()
            );
        }
    }

    #[test]
    fn command_names_are_unique() {
        let commands = commands();
        for (i, (name, ..)) in commands.iter().enumerate() {
            assert!(
                commands[i + 1..].iter().all(|(other, ..)| other != name),
                "{name} is listed twice"
            );
        }
    }

    #[test]
    fn a_missing_or_unknown_command_exits_2() {
        assert_eq!(dispatch(&[]), ExitCode::from(2));
        assert_eq!(dispatch(&args(&["no_such_command"])), ExitCode::from(2));
        assert_eq!(dispatch(&args(&["--help"])), ExitCode::from(2));
    }

    #[test]
    fn usage_lists_every_command() {
        let commands = commands();
        let text = usage(&commands);
        for (name, about, _) in &commands {
            assert!(
                text.lines()
                    .any(|l| l.split_whitespace().next() == Some(name) && l.ends_with(about)),
                "usage text lacks {name}"
            );
        }
    }

    #[test]
    fn l2_ablation_refuses_a_bare_trace_flag_or_an_unknown_flag() {
        for bad in [
            &["--trace"][..],
            &["--bogus"],
            &["--trace", "t.json", "extra"],
        ] {
            assert_eq!(l2_ablation::run(&args(bad)), ExitCode::from(2), "{bad:?}");
        }
    }

    #[test]
    fn usage_errors_keep_their_exit_codes() {
        assert_eq!(host_trajectory::run(&args(&["--bogus"])), ExitCode::from(2));
        assert_eq!(perf_gate::run(&args(&["bogus"])), ExitCode::FAILURE);
        assert_eq!(perf_report::run(&args(&["--top"])), ExitCode::FAILURE);
    }
}
