//! Parsing, rendering and diffing of the top-down attribution sections
//! in bench reports — the library behind `sc-bench perf_report`.
//!
//! Every sweep point serializes its [`Attribution`] through
//! [`crate::json::attribution_json`], so this module is the read side of
//! that shape: it reconstructs the tree from the flat leaf keys (keyed
//! by [`Leaf::metric_name`], so a model-side rename breaks the parser
//! loudly instead of dropping a leaf), re-checks the partition invariant
//! `sum(leaves) == harts × machine_cycles`, and renders trees, CSV,
//! roofline-style compute-vs-traffic tables and share-shift diffs.

use std::fmt::Write as _;

use sc_perf::{share_shifts, Attribution, Group, Leaf};

use crate::json::Json;

/// One report point's attribution, as parsed back from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointAttr {
    /// The point's `id` string.
    pub id: String,
    /// Harts the attribution aggregates over.
    pub harts: u64,
    /// The container's wall-clock (cluster or system cycles).
    pub machine_cycles: u64,
    /// The reconstructed leaf counts.
    pub attr: Attribution,
}

/// Parses one `"attribution"` object: `harts`, `machine_cycles`, and
/// every leaf key, re-verifying the partition invariant.
///
/// # Errors
///
/// Missing or non-numeric keys, unknown extra leaf keys, or a leaf sum
/// that does not partition `harts × machine_cycles`.
pub fn attribution_from_json(j: &Json) -> Result<(Attribution, u64, u64), String> {
    let field = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("attribution has no numeric `{key}`"))
    };
    let harts = field("harts")?;
    let machine_cycles = field("machine_cycles")?;
    let mut attr = Attribution::new();
    for leaf in Leaf::ALL {
        attr.record_n(leaf, field(leaf.metric_name())?);
    }
    attr.verify(harts.saturating_mul(machine_cycles))
        .map_err(|e| e.to_string())?;
    Ok((attr, harts, machine_cycles))
}

/// Collects the attribution of every point in a report that carries one.
///
/// # Errors
///
/// A report without any attributed point (wrong file, or a pre-sc-perf
/// report), a missing `points` array, or a malformed attribution object
/// (with the offending point's id).
pub fn collect_points(report: &Json) -> Result<Vec<PointAttr>, String> {
    let points = report
        .get("points")
        .and_then(Json::items)
        .ok_or_else(|| "report has no `points` array".to_string())?;
    let mut out = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let Some(a) = p.get("attribution") else {
            continue;
        };
        let id = p
            .get("id")
            .and_then(Json::as_str)
            .map_or_else(|| format!("points[{i}]"), str::to_owned);
        let (attr, harts, machine_cycles) =
            attribution_from_json(a).map_err(|e| format!("{id}: {e}"))?;
        out.push(PointAttr {
            id,
            harts,
            machine_cycles,
            attr,
        });
    }
    if out.is_empty() {
        return Err("report carries no attribution sections (pre-sc-perf report?)".into());
    }
    Ok(out)
}

/// Renders every point as an indented top-down tree.
#[must_use]
pub fn render_trees(points: &[PointAttr]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(
            out,
            "== {} ({} harts x {} cycles) ==",
            p.id, p.harts, p.machine_cycles
        );
        out.push_str(&p.attr.render_tree());
        out.push('\n');
    }
    out
}

/// Renders a roofline-style compute-vs-traffic table: per point, the
/// attribution's group shares next to the memory traffic per machine
/// cycle (DMA beats and L2 refill + write-back beats, when the point
/// reports them) — where the cycles went versus what the memory system
/// was moving meanwhile.
#[must_use]
pub fn render_roofline(report: &Json, points: &[PointAttr]) -> String {
    let mut out = format!(
        "{:<44} {:>12} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
        "point", "cycles", "retired", "issue", "mem", "sync", "dma-b/c", "l2-b/c"
    );
    let items = report.get("points").and_then(Json::items).unwrap_or(&[]);
    for p in points {
        let raw = items
            .iter()
            .find(|j| j.get("id").and_then(Json::as_str) == Some(p.id.as_str()));
        let beats_per_cycle = |total: Option<f64>| {
            total.map_or("-".to_owned(), |b| {
                format!("{:.3}", b / p.machine_cycles.max(1) as f64)
            })
        };
        let dma = raw
            .and_then(|j| j.get("dma"))
            .and_then(|d| d.get("beats"))
            .and_then(Json::as_f64);
        let l2 = raw.and_then(|j| j.get("l2")).and_then(|l| {
            Some(
                l.get("refill_beats").and_then(Json::as_f64)?
                    + l.get("writeback_beats")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
            )
        });
        let share = |g: Group| {
            let total = p.attr.total();
            if total == 0 {
                0.0
            } else {
                p.attr.group_total(g) as f64 / total as f64 * 100.0
            }
        };
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>9} {:>9}",
            p.id,
            p.machine_cycles,
            share(Group::Retired),
            share(Group::IssueBound),
            share(Group::MemoryBound),
            share(Group::SyncBound),
            beats_per_cycle(dma),
            beats_per_cycle(l2),
        );
    }
    out
}

/// Renders the points as CSV: `id,harts,machine_cycles` plus one column
/// per leaf in tree order.
#[must_use]
pub fn render_csv(points: &[PointAttr]) -> String {
    let mut out = String::from("id,harts,machine_cycles");
    for name in Attribution::metric_names() {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for p in points {
        let _ = write!(out, "{},{},{}", p.id, p.harts, p.machine_cycles);
        p.attr.visit(&mut |_, value| {
            let _ = write!(out, ",{value}");
        });
        out.push('\n');
    }
    out
}

/// Re-serializes the points as a slim attribution-only report — the
/// same `points[].attribution` shape the sweeps emit, so the output of
/// `perf_report --json` is itself valid input for `perf_report diff`
/// (CI keeps such slim snapshots under `baselines/attr/`).
#[must_use]
pub fn points_json(points: &[PointAttr]) -> Json {
    Json::Obj(vec![(
        "points".to_owned(),
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj().set("id", p.id.as_str()).set(
                        "attribution",
                        crate::json::attribution_json(&p.attr, p.harts, p.machine_cycles),
                    )
                })
                .collect(),
        ),
    )])
}

/// One matched point's share movement between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PointShift {
    /// The point id present in both reports.
    pub id: String,
    /// Per-leaf share shifts, largest magnitude first.
    pub shifts: Vec<(Leaf, f64)>,
}

impl PointShift {
    /// The largest-magnitude mover, if any share moved at all.
    #[must_use]
    pub fn dominant(&self) -> Option<(Leaf, f64)> {
        self.shifts
            .first()
            .copied()
            .filter(|(_, d)| d.abs() > f64::EPSILON)
    }
}

/// The structured outcome of diffing two reports' attributions.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDiff {
    /// Share shifts of the two reports' *aggregate* attributions
    /// (element-wise sums over matched points), largest mover first.
    pub aggregate: Vec<(Leaf, f64)>,
    /// Per-point shifts, sorted by their dominant mover's magnitude.
    pub per_point: Vec<PointShift>,
    /// Shared point ids whose `harts`, `machine_cycles` or any leaf
    /// count differs, in `before` order.
    pub changed: Vec<String>,
    /// `before` point ids the `after` report lacks.
    pub missing: Vec<String>,
}

impl AttrDiff {
    /// Whether `after` reproduces every point of `before` exactly —
    /// the attribution gate's pass condition.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.changed.is_empty() && self.missing.is_empty()
    }

    /// The leaf whose aggregate share moved most.
    #[must_use]
    pub fn dominant(&self) -> Option<(Leaf, f64)> {
        self.aggregate
            .first()
            .copied()
            .filter(|(_, d)| d.abs() > f64::EPSILON)
    }
}

/// Diffs the attribution sections of two reports, matching points by
/// id, and records which of `before`'s points `after` changes or lacks.
///
/// # Errors
///
/// Either report failing [`collect_points`], or no point id present in
/// both.
pub fn diff(before: &Json, after: &Json) -> Result<AttrDiff, String> {
    let a = collect_points(before)?;
    let b = collect_points(after)?;
    let mut agg_a = Attribution::new();
    let mut agg_b = Attribution::new();
    let mut per_point = Vec::new();
    let (mut changed, mut missing) = (Vec::new(), Vec::new());
    for pa in &a {
        let Some(pb) = b.iter().find(|p| p.id == pa.id) else {
            missing.push(pa.id.clone());
            continue;
        };
        if pb != pa {
            changed.push(pa.id.clone());
        }
        agg_a.accumulate(&pa.attr);
        agg_b.accumulate(&pb.attr);
        per_point.push(PointShift {
            id: pa.id.clone(),
            shifts: share_shifts(&pa.attr, &pb.attr),
        });
    }
    if per_point.is_empty() {
        return Err("the two reports share no point ids".into());
    }
    per_point.sort_by(|x, y| {
        let mag = |p: &PointShift| p.dominant().map_or(0.0, |(_, d)| d.abs());
        mag(y)
            .partial_cmp(&mag(x))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(AttrDiff {
        aggregate: share_shifts(&agg_a, &agg_b),
        per_point,
        changed,
        missing,
    })
}

/// Renders a diff: the aggregate movers first (the answer to "where did
/// the cycles go"), then the individually largest-moved points, then
/// every changed or missing point.
#[must_use]
pub fn render_diff(d: &AttrDiff, top: usize) -> String {
    let pp = |v: f64| format!("{:+.2}pp", v * 100.0);
    let mut out = String::from("aggregate share shifts (largest movers):\n");
    match d.dominant() {
        None => out.push_str("  no share moved\n"),
        Some(_) => {
            for (leaf, delta) in d.aggregate.iter().take(top) {
                if delta.abs() > f64::EPSILON {
                    let _ = writeln!(out, "  {:<16} {}", leaf.label(), pp(*delta));
                }
            }
        }
    }
    out.push_str("largest per-point movers:\n");
    for p in d.per_point.iter().take(top) {
        match p.dominant() {
            Some((leaf, delta)) => {
                let _ = writeln!(out, "  {:<44} {} {}", p.id, leaf.label(), pp(delta));
            }
            None => {
                let _ = writeln!(out, "  {:<44} unchanged", p.id);
            }
        }
    }
    if d.is_exact() {
        let _ = writeln!(out, "every pinned point matches exactly");
    }
    for (what, ids) in [("changed", &d.changed), ("missing", &d.missing)] {
        for id in ids {
            let _ = writeln!(out, "{what}: {id}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::attribution_json;

    /// The two checked-in fixture reports the acceptance criterion names:
    /// `after` moves a big slice of `retired` into `sync_barrier` on the
    /// second point.
    const FIXTURE_BEFORE: &str = include_str!("../fixtures/perf_report_before.json");
    const FIXTURE_AFTER: &str = include_str!("../fixtures/perf_report_after.json");

    fn attr(cells: &[(Leaf, u64)]) -> Attribution {
        let mut a = Attribution::new();
        for &(leaf, n) in cells {
            a.record_n(leaf, n);
        }
        a
    }

    fn report(points: Vec<(&str, Attribution, u64, u64)>) -> Json {
        Json::Obj(vec![(
            "points".to_owned(),
            Json::Arr(
                points
                    .into_iter()
                    .map(|(id, a, harts, cycles)| {
                        Json::obj()
                            .set("id", id)
                            .set("cycles_to_last_core_done", cycles)
                            .set("attribution", attribution_json(&a, harts, cycles))
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn serialization_roundtrips_and_verifies() {
        let a = attr(&[(Leaf::Retired, 70), (Leaf::RawHazard, 20), (Leaf::Park, 10)]);
        let j = attribution_json(&a, 2, 50);
        let (back, harts, cycles) = attribution_from_json(&j).unwrap();
        assert_eq!(back, a);
        assert_eq!((harts, cycles), (2, 50));
        // A corrupted leaf breaks the partition invariant loudly.
        let bad = j.set("retired", 71u64);
        let err = attribution_from_json(&bad).unwrap_err();
        assert!(err.contains("invariant"), "{err}");
        // A missing leaf key is a parse error, not a silent zero.
        let mut fields = match attribution_json(&a, 2, 50) {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        fields.retain(|(k, _)| k != "sync_park");
        let err = attribution_from_json(&Json::Obj(fields)).unwrap_err();
        assert!(err.contains("sync_park"), "{err}");
    }

    #[test]
    fn collect_renders_trees_and_csv() {
        let r = report(vec![
            (
                "a",
                attr(&[(Leaf::Retired, 60), (Leaf::Barrier, 40)]),
                1,
                100,
            ),
            ("b", attr(&[(Leaf::Retired, 100)]), 1, 100),
        ]);
        let pts = collect_points(&r).unwrap();
        assert_eq!(pts.len(), 2);
        let trees = render_trees(&pts);
        assert!(trees.contains("== a (1 harts x 100 cycles) =="), "{trees}");
        assert!(trees.contains("barrier"), "{trees}");
        let csv = render_csv(&pts);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("id,harts,machine_cycles,retired,"));
        assert_eq!(header.split(',').count(), 3 + sc_perf::LEAF_COUNT);
        assert!(lines.next().unwrap().starts_with("a,1,100,60,"));
        // Roofline shows group shares even without traffic objects.
        let roof = render_roofline(&r, &pts);
        assert!(roof.contains("60.0%"), "{roof}");
        assert!(roof.contains("retired"), "{roof}");
        // And the slim --json output re-parses as a report.
        let slim = points_json(&pts);
        assert_eq!(collect_points(&slim).unwrap(), pts);
    }

    #[test]
    fn collect_refuses_unattributed_reports() {
        let none = Json::parse(r#"{"points":[{"id":"a","cycles_to_last_core_done":5}]}"#).unwrap();
        let err = collect_points(&none).unwrap_err();
        assert!(err.contains("no attribution"), "{err}");
        assert!(collect_points(&Json::obj()).is_err());
    }

    #[test]
    fn diff_names_the_dominant_moved_leaf() {
        let before = report(vec![
            (
                "p0",
                attr(&[(Leaf::Retired, 80), (Leaf::RawHazard, 20)]),
                1,
                100,
            ),
            (
                "p1",
                attr(&[(Leaf::Retired, 80), (Leaf::Barrier, 20)]),
                1,
                100,
            ),
        ]);
        let after = report(vec![
            (
                "p0",
                attr(&[(Leaf::Retired, 80), (Leaf::RawHazard, 20)]),
                1,
                100,
            ),
            (
                "p1",
                attr(&[(Leaf::Retired, 50), (Leaf::DmaWait, 50)]),
                1,
                100,
            ),
        ]);
        let d = diff(&before, &after).unwrap();
        let (leaf, delta) = d.dominant().unwrap();
        assert_eq!(leaf, Leaf::DmaWait);
        assert!(delta > 0.0);
        // The per-point ranking puts the moved point first.
        assert_eq!(d.per_point[0].id, "p1");
        assert_eq!(d.per_point[0].dominant().unwrap().0, Leaf::DmaWait);
        assert!(d.per_point[1].dominant().is_none(), "p0 is unchanged");
        let text = render_diff(&d, 3);
        assert!(text.contains("dma-wait"), "{text}");
        assert!(text.contains("p1"), "{text}");
        assert!(text.contains("unchanged"), "{text}");
        // Equal shares are not equal pins: p1's leaves moved.
        assert_eq!(d.changed, vec!["p1".to_owned()]);
        assert!(d.missing.is_empty() && !d.is_exact());
        assert!(text.contains("changed: p1"), "{text}");
    }

    #[test]
    fn diff_is_exact_only_on_equal_leaves_cycles_and_harts() {
        let a = attr(&[(Leaf::Retired, 80), (Leaf::Barrier, 20)]);
        let before = report(vec![("p0", a, 1, 100), ("p1", a, 1, 100)]);
        let d = diff(&before, &before).unwrap();
        assert!(d.is_exact());
        assert!(render_diff(&d, 5).contains("matches exactly"));
        // A cycle moved between leaves, the sum kept: not exact.
        let moved = attr(&[(Leaf::Retired, 79), (Leaf::Barrier, 21)]);
        let after = report(vec![("p0", moved, 1, 100), ("p1", a, 1, 100)]);
        assert_eq!(
            diff(&before, &after).unwrap().changed,
            vec!["p0".to_owned()]
        );
        // Same leaves over more harts and a shorter wall clock.
        let after = report(vec![("p0", a, 2, 50), ("p1", a, 1, 100)]);
        assert_eq!(
            diff(&before, &after).unwrap().changed,
            vec!["p0".to_owned()]
        );
        // A pinned point the report lacks; extra report points are fine.
        let after = report(vec![("p0", a, 1, 100), ("p2", a, 1, 100)]);
        let d = diff(&before, &after).unwrap();
        assert_eq!(d.missing, vec!["p1".to_owned()]);
        assert!(d.changed.is_empty() && !d.is_exact());
        assert!(render_diff(&d, 5).contains("missing: p1"));
    }

    #[test]
    fn diff_requires_shared_point_ids() {
        let a = report(vec![("only-a", attr(&[(Leaf::Retired, 10)]), 1, 10)]);
        let b = report(vec![("only-b", attr(&[(Leaf::Retired, 10)]), 1, 10)]);
        let err = diff(&a, &b).unwrap_err();
        assert!(err.contains("share no point ids"), "{err}");
    }

    #[test]
    fn checked_in_fixtures_name_the_dominant_moved_leaf() {
        // The acceptance criterion: `perf_report diff` over the two
        // checked-in fixture reports names the dominant moved leaf —
        // the after-fixture moves retired cycles into the barrier leaf.
        let before = Json::parse(FIXTURE_BEFORE).unwrap();
        let after = Json::parse(FIXTURE_AFTER).unwrap();
        let d = diff(&before, &after).unwrap();
        let (leaf, delta) = d.dominant().unwrap();
        assert_eq!(leaf, Leaf::Barrier);
        assert!(delta > 0.0);
        assert!(render_diff(&d, 5).contains("barrier"));
    }
}
