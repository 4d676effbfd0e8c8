//! `sc-bench <command> [args...]`: the paper's experiments, the
//! baselined sweeps and the CI gates over their reports, as commands of
//! one binary. The first argument names the command ([`commands`]); the
//! rest are the command's own. A missing or unknown command prints the
//! list of commands and exits 2; so does an argument the command does
//! not take ([`Accepts`]), after printing the command's usage line.
//!
//! Run with `cargo run --release -p sc-bench -- <command> [args...]`.

mod cmd;

use std::process::ExitCode;

use cmd::*;
use sc_bench::registry::Sweep;

/// The arguments a command takes after its name.
#[derive(Debug, Clone, Copy)]
enum Accepts {
    /// Only these flags, each optional; an empty list takes no
    /// arguments. The dispatcher refuses anything else.
    Flags(&'static [&'static str]),
    /// Whatever the command's own parser accepts; it refuses the rest.
    Own,
}

/// No arguments at all.
const NONE: Accepts = Accepts::Flags(&[]);

/// A command's name, what it regenerates or checks, the arguments it
/// takes, and its entry point.
type Command = (
    &'static str,
    &'static str,
    Accepts,
    fn(&[String]) -> ExitCode,
);

/// Every command, in usage order. The sweeps are named by [`Sweep::name`],
/// which also names their reports and their baseline files.
#[rustfmt::skip]
fn commands() -> [Command; 18] {
    use Accepts::{Flags, Own};
    [
        ("fig1_trace", "Fig. 1: issue traces of the three vecop forms", NONE, fig1_trace::run),
        ("fig3", "Fig. 3: utilisation and power, headline geomeans", Flags(&["--csv"]), fig3::run),
        ("area_report", "§III: the <2 % area-overhead claim (proxy)", NONE, area_report::run),
        ("ablation_depth", "§II: chaining gains grow with FPU depth", NONE, ablation_depth::run),
        ("ablation_registers", "§I: unrolling trades registers for ILP", NONE, ablation_registers::run),
        ("ablation_banks", "TCDM bank-count sensitivity of Fig. 3", NONE, ablation_banks::run),
        (Sweep::ClusterScaling.name(), "one cluster: 1/2/4/8 cores x chaining", NONE, cluster_scaling::run),
        (Sweep::SystemScaling.name(), "clusters x cores over a shared L2", NONE, system_scaling::run),
        (Sweep::L2Ablation.name(), "L2 capacity x ways x refill channels", Own, l2_ablation::run),
        (Sweep::WeakScaling.name(), "weak scaling: the grid grows per cluster", NONE, weak_scaling::run),
        (Sweep::PrefetchAblation.name(), "L2 prefetch degree x distance", NONE, prefetch_ablation::run),
        ("sched_identity", "event == dense on every system-level point", NONE, sched_identity::run),
        ("lint_sweep", "every registry program lints clean; fixtures trip", NONE, lint_sweep::run),
        ("trace_smoke", "tiny traced run: trace schema, results identity", NONE, trace_smoke::run),
        ("host_speed", "host wall clock: dense vs event stepping", NONE, host_speed::run),
        ("host_trajectory", "one BENCH_host.json row, every point serially", Own, host_trajectory::run),
        ("perf_gate", "check reports; exact diff against baselines/", Own, perf_gate::run),
        ("perf_report", "attribution trees, roofline, CSV; leaf diff", Own, perf_report::run),
    ]
}

/// How to call `sc-bench`, then every command.
fn usage(commands: &[Command]) -> String {
    let mut text = String::from("usage: sc-bench <command> [args...]\n\ncommands:\n");
    for (name, about, ..) in commands {
        text += &format!("  {name:<20} {about}\n");
    }
    text
}

/// The usage error for `args` given to command `name`, which takes only
/// `flags`, or `None` when it takes them all.
fn refusal(name: &str, flags: &[&str], args: &[String]) -> Option<String> {
    let arg = args.iter().find(|arg| !flags.contains(&arg.as_str()))?;
    let usage: String = flags.iter().map(|flag| format!(" [{flag}]")).collect();
    Some(format!(
        "sc-bench {name}: unexpected argument `{arg}`\nusage: sc-bench {name}{usage}"
    ))
}

/// Runs the command `args[0]` on the rest of `args`.
fn dispatch(args: &[String]) -> ExitCode {
    let commands = commands();
    let name = args.first().map_or("", String::as_str);
    match commands.iter().find(|(n, ..)| *n == name) {
        Some(&(name, _, accepts, run)) => {
            if let Accepts::Flags(flags) = accepts {
                if let Some(error) = refusal(name, flags, &args[1..]) {
                    eprintln!("{error}");
                    return ExitCode::from(2);
                }
            }
            run(&args[1..])
        }
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
        for (name, about, ..) in &commands {
            assert!(
                text.lines()
                    .any(|l| l.split_whitespace().next() == Some(name) && l.ends_with(about)),
                "usage text lacks {name}"
            );
        }
    }

    #[test]
    fn commands_with_fixed_flags_refuse_anything_else() {
        // Refused before the command runs: none of these starts a sweep.
        for (name, _, accepts, _) in commands() {
            if let Accepts::Flags(flags) = accepts {
                for extra in ["--bogus", "x.json"] {
                    let mut call = vec![name];
                    call.extend_from_slice(flags);
                    call.push(extra);
                    assert_eq!(dispatch(&args(&call)), ExitCode::from(2), "{call:?}");
                }
            }
        }
        assert_eq!(
            dispatch(&args(&["cluster_scaling", "--trace", "x.json"])),
            ExitCode::from(2)
        );
    }

    #[test]
    fn only_commands_that_parse_their_own_arguments_take_any() {
        let own: Vec<&str> = commands()
            .into_iter()
            .filter(|(_, _, accepts, _)| matches!(accepts, Accepts::Own))
            .map(|(name, ..)| name)
            .collect();
        assert_eq!(
            own,
            [
                Sweep::L2Ablation.name(),
                "host_trajectory",
                "perf_gate",
                "perf_report"
            ]
        );
        assert_eq!(refusal("fig3", &["--csv"], &args(&["--csv"])), None);
        assert_eq!(refusal("area_report", &[], &args(&[])), None);
        assert_eq!(
            refusal("fig3", &["--csv"], &args(&["-"])).as_deref(),
            Some("sc-bench fig3: unexpected argument `-`\nusage: sc-bench fig3 [--csv]")
        );
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
