//! Scheduler identity sweep: `SchedMode::Event` replayed against
//! `SchedMode::Dense` on **every system-level config point of every
//! baseline sweep** (150 of the registry's 166; the 16 cluster-level
//! `cluster_scaling` points always step densely, since only
//! `sc_system::System` fast-forwards).
//!
//! The event-driven scheduler is allowed to fast-forward the clock only
//! across windows where stepping would provably change nothing, so it
//! must be an observable no-op: identical cycle counts, per-core
//! `PerfCounters`, DMA statistics and overlap accounting, barrier
//! counts, TCDM conflict maps and shared-L2 statistics. The kernel
//! proptests pin this over *random* kernels; this sweep pins it over
//! every system-level point of `sc_bench::registry` — the exact configs
//! the CI perf gate baselines for `system_scaling`, `l2_ablation`,
//! `weak_scaling` and `prefetch_ablation` — so a scheduler bug cannot
//! hide in a corner of the baselined configuration space.
//!
//! Every point runs twice (dense, then event) and the two summaries must
//! be equal as whole structs; any divergence panics with the offending
//! point's `<sweep>/<baseline id>`. The comparison also re-verifies the
//! top-down attribution's partition invariant (`sum(leaves) == cycles`,
//! per hart and per padded roll-up) on every point.
//!
//! Run with `cargo run --release -p sc-bench -- sched_identity`.

use std::process::ExitCode;

use sc_bench::registry::{self, Level};
use sc_bench::{parallel_sweep, Json};
use sc_cluster::ClusterSummary;
use sc_system::SystemSummary;

/// Beyond dense ≡ event: the attribution must *partition* the run at
/// every level — each hart's leaves sum to its own cycle count, and the
/// padded cluster roll-up covers harts × wall-clock exactly.
fn verify_cluster_partition(id: &str, summary: &ClusterSummary) {
    for (i, c) in summary.per_core.iter().enumerate() {
        c.counters
            .attr
            .verify(c.counters.cycles)
            .unwrap_or_else(|e| panic!("{id}: hart{i}: {e}"));
    }
    summary
        .attribution
        .verify(summary.cycles * summary.per_core.len() as u64)
        .unwrap_or_else(|e| panic!("{id}: cluster roll-up: {e}"));
}

/// Whole-summary equality of two system summaries, plus the attribution
/// partition invariant on every level of the dense one.
fn assert_system_identical(id: &str, dense: &SystemSummary, event: &SystemSummary) {
    assert_eq!(dense, event, "{id}: system summaries diverge");
    for (m, c) in dense.per_cluster.iter().enumerate() {
        verify_cluster_partition(&format!("{id} cluster{m}"), c);
    }
    let harts: u64 = dense
        .per_cluster
        .iter()
        .map(|c| c.per_core.len() as u64)
        .sum();
    dense
        .attribution
        .verify(dense.cycles * harts)
        .unwrap_or_else(|e| panic!("{id}: system roll-up: {e}"));
}

pub fn run(_args: &[String]) -> ExitCode {
    let points: Vec<_> = registry::all_points()
        .into_iter()
        .filter(|spec| spec.level == Level::System)
        .collect();

    println!("=== scheduler identity — event vs dense on every system-level baseline point ===");
    println!("=== {} config points x 2 modes ===\n", points.len());

    let total = points.len();
    // Each point's id and cycle count, once dense and event agree.
    let (verdicts, wall) = parallel_sweep(points, |spec| {
        let id = spec.full_id();
        let dense = spec.run();
        let event = spec
            .run_event()
            .expect("system-level points have an event run");
        assert_system_identical(&id, dense.system(), event.system());
        (id, dense.system().cycles)
    });
    assert_eq!(verdicts.len(), total);

    super::print_by_sweep(verdicts.iter().map(|(id, _)| id.as_str()), "identical");
    println!("\nall {total} system-level baseline points: event == dense");
    println!("{total} config points in {wall:.2?} wall");

    let report = Json::obj()
        .set("sweep", "sched_identity")
        .set("points", total as u64)
        .set("all_identical", true)
        .set("attribution_verified", true)
        .set("wall_seconds", wall.as_secs_f64());
    super::emit_with_array(
        report,
        "cycles_by_point",
        verdicts
            .iter()
            .map(|(id, cycles)| Json::obj().set("id", id.as_str()).set("cycles", *cycles)),
    );
    ExitCode::SUCCESS
}
