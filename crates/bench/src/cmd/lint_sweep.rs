//! Static verification sweep: `sc-lint` over **every program the
//! baseline sweeps generate**, plus the seeded-bug fixtures.
//!
//! Two contracts, both hard CI gates:
//!
//! * **Zero false positives** — every config point of the five
//!   baselined sweeps (`sc_bench::registry`) is rebuilt (codegen only,
//!   no simulation) and every generated program — tile stages and
//!   epilogues included — must lint clean under the default hardware
//!   model (capacity-4 chained FIFO, 128 KiB TCDM).
//! * **Zero false negatives** — every seeded-bug fixture in
//!   [`sc_lint::fixtures`] must trip its rule, and *only* its rule.
//!
//! Any violation panics with the offending point's `<sweep>/<baseline
//! id>` or the fixture id.
//!
//! Run with `cargo run --release -p sc-bench -- lint_sweep`.

use std::process::ExitCode;

use sc_bench::registry;
use sc_bench::{parallel_sweep, Json};
use sc_lint::{lint_harts, LintConfig};

/// One point's verdict after linting every program set it builds.
struct Verdict {
    id: String,
    program_sets: usize,
    diagnostics: usize,
}

pub fn run(_args: &[String]) -> ExitCode {
    let points = registry::all_points();
    let total = points.len();

    println!("=== static verification — sc-lint over every baseline sweep kernel ===");
    println!("=== {total} config points + seeded-bug fixtures ===\n");

    let lint_cfg = LintConfig::new();
    let (verdicts, wall) = parallel_sweep(points, |spec| {
        let id = spec.full_id();
        let sets = spec.programs();
        let mut diagnostics = 0;
        for (s, harts) in sets.iter().enumerate() {
            let report = lint_harts(harts, &lint_cfg);
            assert!(
                report.is_clean(),
                "{id} stage {s}: shipped kernel is not lint-clean:\n{report}"
            );
            diagnostics += report.len();
        }
        Verdict {
            id,
            program_sets: sets.len(),
            diagnostics,
        }
    });
    assert_eq!(verdicts.len(), total);

    let sets_linted: usize = verdicts.iter().map(|v| v.program_sets).sum();
    super::print_by_sweep(verdicts.iter().map(|v| v.id.as_str()), "clean");
    println!("\nall {total} baseline points clean ({sets_linted} program sets)");

    // Zero false negatives: every seeded bug trips exactly its rule.
    let fixtures = sc_lint::fixtures::expectations();
    let n_fixtures = fixtures.len();
    for (name, rule_id, programs) in &fixtures {
        let report = lint_harts(programs, &lint_cfg);
        assert!(
            !report.is_clean(),
            "fixture {name}: seeded bug was not detected"
        );
        for d in report.iter() {
            assert_eq!(
                d.rule.id(),
                *rule_id,
                "fixture {name}: tripped {} instead of {rule_id}: {d}",
                d.rule
            );
        }
        println!("fixture {name:>24}: flagged as {rule_id}");
    }
    println!("\nall {n_fixtures} seeded-bug fixtures flagged with their rule");
    println!("{total} config points in {wall:.2?} wall");

    let report = Json::obj()
        .set("sweep", "lint_sweep")
        .set("points", total as u64)
        .set("program_sets", sets_linted as u64)
        .set("all_clean", true)
        .set("fixtures", n_fixtures as u64)
        .set("all_fixtures_flagged", true)
        .set("wall_seconds", wall.as_secs_f64());
    super::emit_with_array(
        report,
        "points_by_id",
        verdicts.iter().map(|v| {
            Json::obj()
                .set("id", v.id.as_str())
                .set("program_sets", v.program_sets as u64)
                .set("diagnostics", v.diagnostics as u64)
        }),
    );
    ExitCode::SUCCESS
}
