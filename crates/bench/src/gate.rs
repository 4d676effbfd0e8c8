//! The CI performance-regression gate.
//!
//! A checked-in baseline file records key metrics of the bench reports
//! (cycle counts, conflict and traffic counts, chaining speedups); the
//! `perf_gate` command diffs fresh reports against it and fails CI on
//! any drift, in *either* direction.
//!
//! The simulator is fully deterministic, so pins are exact: a report
//! value must equal its baseline value, and no tolerance band can hide
//! a model drift. An intended model shift goes through an explicit
//! baseline re-roll (`perf_gate baseline <report>`), with the
//! `perf_report diff` of the attribution trees attached to show which
//! leaves moved.
//!
//! ## Baseline format
//!
//! ```json
//! {
//!   "report": "cluster_scaling.json",
//!   "metrics": [
//!     {"point": "tiled/c4/chaining", "metric": "cycles_to_last_core_done",
//!      "value": 12345},
//!     {"metric": "speedup_c4_tiled", "value": 1.08}
//!   ]
//! }
//! ```
//!
//! Entries with a `"point"` select the report's `points[]` element with
//! that `"id"`; entries without one read a top-level report key.

use sc_mem::L2MetricSet;

use crate::json::Json;

/// The point-level metrics a generated baseline pins. The flat `l2_*`
/// keys are emitted by the L2 sweeps (`l2_ablation`,
/// `prefetch_ablation`), so capacity-pressure traffic — evictions and
/// write-back beats — and the prefetcher's issue/accuracy counts are
/// pinned alongside cycles.
const POINT_METRICS: [&str; 6] = [
    "cycles_to_last_core_done",
    "tcdm_conflicts",
    "l2_evictions",
    "l2_writeback_beats",
    "l2_prefetches_issued",
    "l2_prefetch_hits",
];

/// The metrics every `"l2"` stats object must carry, derived from
/// [`L2MetricSet`]'s visit order — the same source `l2_stats_json`
/// serializes from and the trace sampler snapshots, so the gate's
/// required-metric list can never drift from the instrumentation.
/// Absent counters mean stale instrumentation that would gate blindly
/// over cache or prefetch effects; `perf_gate check`/`baseline` refuse
/// such reports instead of silently gating less.
fn l2_required_metrics() -> Vec<&'static str> {
    L2MetricSet::metric_names()
}

/// Outcome of a gate run.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Metrics compared.
    pub checked: usize,
    /// Human-readable failure descriptions (empty = gate passed).
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether every metric equals its baseline value.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks that a parsed report is a plausibly complete bench report: a
/// non-empty object whose `points` array (when present) is non-empty,
/// with every point a non-empty object carrying at least one numeric
/// metric. Deliberately schema-agnostic — the ablation sweeps and the
/// cluster sweep serialize different metric sets.
///
/// # Errors
///
/// A description of the malformation.
pub fn check_wellformed(report: &Json) -> Result<(), String> {
    let Json::Obj(entries) = report else {
        return Err("report is not a JSON object".into());
    };
    if entries.is_empty() {
        return Err("report object is empty".into());
    }
    if let Some(points) = report.get("points") {
        let items = points
            .items()
            .ok_or_else(|| "`points` is not an array".to_string())?;
        if items.is_empty() {
            return Err("`points` is empty".into());
        }
        let l2_required = l2_required_metrics();
        for (i, p) in items.iter().enumerate() {
            let Json::Obj(fields) = p else {
                return Err(format!("points[{i}] is not an object"));
            };
            if !fields.iter().any(|(_, v)| v.as_f64().is_some()) {
                return Err(format!("points[{i}] has no numeric metric"));
            }
            // A point carrying L2 stats must carry the *cache* stats
            // (hits/misses/evictions/write-backs/MSHR merges): their
            // absence means the sweep predates the finite-L2 model and
            // would gate blindly over capacity effects.
            if let Some(l2) = p.get("l2") {
                for &key in &l2_required {
                    if l2.get(key).and_then(Json::as_f64).is_none() {
                        return Err(format!(
                            "points[{i}] has l2 stats without the cache metric `{key}` \
                             (stale pre-finite-L2 instrumentation?)"
                        ));
                    }
                }
            }
            // Physically impossible metrics are malformed, not merely
            // drifted: a compute–transfer overlap fraction above 1
            // means the busy/overlap accounting double-counted.
            if let Some(frac) = p
                .get("dma")
                .and_then(|d| d.get("overlap_fraction"))
                .and_then(Json::as_f64)
            {
                if !(0.0..=1.0).contains(&frac) {
                    return Err(format!(
                        "points[{i}] has overlap_fraction {frac} outside [0, 1]"
                    ));
                }
            }
            // A point reporting its end-to-end cycle count must carry
            // the top-down attribution section (the sweeps emitting
            // `cycles_to_last_core_done` are exactly the ones built on
            // full cluster/system summaries) — and the section must
            // partition `harts × machine_cycles` exactly. Re-checking
            // the sc-perf invariant at the gate means a serializer bug
            // or a model change that drops a leaf fails CI instead of
            // shipping a silently-wrong profile. The required-key list
            // comes from `attribution_from_json` walking `Leaf::ALL`,
            // so it can never drift from the tree itself.
            if p.get("cycles_to_last_core_done").is_some() {
                let a = p.get("attribution").ok_or_else(|| {
                    format!(
                        "points[{i}] reports cycles_to_last_core_done without an \
                         `attribution` section (pre-sc-perf instrumentation?)"
                    )
                })?;
                crate::attr::attribution_from_json(a).map_err(|e| format!("points[{i}]: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Locates the value a baseline entry refers to inside `report`.
fn lookup<'a>(report: &'a Json, point: Option<&str>, metric: &str) -> Result<&'a Json, String> {
    let holder = match point {
        None => report,
        Some(id) => report
            .get("points")
            .and_then(Json::items)
            .and_then(|pts| {
                pts.iter()
                    .find(|p| p.get("id").and_then(Json::as_str) == Some(id))
            })
            .ok_or_else(|| format!("report has no point with id `{id}`"))?,
    };
    holder.get(metric).ok_or_else(|| match point {
        Some(id) => format!("point `{id}` has no metric `{metric}`"),
        None => format!("report has no top-level metric `{metric}`"),
    })
}

/// Diffs `report` against `baseline`, returning every metric whose value
/// differs from its pin. Drift is flagged in both directions. A baseline entry the
/// report cannot satisfy — its point or metric is missing (e.g. after a
/// rename), or the value is not numeric — is recorded as a **failure**,
/// never skipped: every pinned metric is either compared or flagged, so
/// a rename cannot silently drop a metric out of the gate. All problems
/// are reported, not just the first.
///
/// # Errors
///
/// Structural problems in the *baseline document itself* (no `metrics`
/// array, entries without a name/value) that prevent the comparison
/// from running at all.
pub fn diff(baseline: &Json, report: &Json) -> Result<GateOutcome, String> {
    let metrics = baseline
        .get("metrics")
        .and_then(Json::items)
        .ok_or_else(|| "baseline has no `metrics` array".to_string())?;
    let mut outcome = GateOutcome::default();
    for (i, entry) in metrics.iter().enumerate() {
        let metric = entry
            .get("metric")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metrics[{i}] has no `metric` name"))?;
        let want = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metrics[{i}] has no numeric `value`"))?;
        let point = entry.get("point").and_then(Json::as_str);
        outcome.checked += 1;
        let got = match lookup(report, point, metric) {
            Ok(v) => match v.as_f64() {
                Some(got) => got,
                None => {
                    outcome
                        .failures
                        .push(format!("metric `{metric}` is not numeric in the report"));
                    continue;
                }
            },
            Err(e) => {
                outcome
                    .failures
                    .push(format!("{e} (baseline pins it — renamed or dropped?)"));
                continue;
            }
        };
        if got != want {
            let place = point.map_or(String::new(), |p| format!("{p} "));
            outcome
                .failures
                .push(format!("{place}{metric}: got {got}, baseline {want}"));
        }
    }
    Ok(outcome)
}

/// Generates a baseline document from a fresh report: per-point cycle
/// and conflict metrics, plus every top-level `speedup_*` ratio.
///
/// # Errors
///
/// Structural problems in the report.
pub fn baseline_from_report(report_name: &str, report: &Json) -> Result<Json, String> {
    check_wellformed(report)?;
    let mut metrics = Vec::new();
    if let Some(points) = report.get("points").and_then(Json::items) {
        for (i, p) in points.iter().enumerate() {
            let id = p
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("points[{i}] has no `id`"))?;
            // A point that carries NONE of the gated metrics would make
            // the generated baseline silently blind to it — refuse, so
            // a metric rename surfaces at regeneration time too.
            if !POINT_METRICS
                .iter()
                .any(|metric| p.get(metric).and_then(Json::as_f64).is_some())
            {
                return Err(format!(
                    "point `{id}` carries none of the gated metrics ({})",
                    POINT_METRICS.join(", ")
                ));
            }
            for metric in POINT_METRICS {
                let Some(value) = p.get(metric).and_then(Json::as_f64) else {
                    continue;
                };
                metrics.push(
                    Json::obj()
                        .set("point", id)
                        .set("metric", metric)
                        .set("value", value),
                );
            }
        }
    }
    if let Json::Obj(entries) = report {
        for (key, value) in entries {
            if key.starts_with("speedup_") || key.starts_with("efficiency_") {
                if let Some(v) = value.as_f64() {
                    metrics.push(Json::obj().set("metric", key.as_str()).set("value", v));
                }
            }
        }
    }
    if metrics.is_empty() {
        return Err("report yields no baseline metrics (no point ids?)".into());
    }
    Ok(Json::obj()
        .set("report", report_name)
        .set("metrics", Json::Arr(metrics)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed attribution section: `harts` harts retiring every
    /// one of `cycles` cycles (the invariant holds trivially).
    fn test_attr(harts: u64, cycles: u64) -> Json {
        let mut a = sc_perf::Attribution::new();
        a.record_n(sc_perf::Leaf::Retired, harts * cycles);
        crate::json::attribution_json(&a, harts, cycles)
    }

    /// Injects a valid attribution section into every point of `report`
    /// that reports `cycles_to_last_core_done` (test reports are built
    /// from JSON literals; spelling out 17 leaves inline would drown
    /// what each test is about).
    fn with_attr(mut report: Json, harts: u64) -> Json {
        if let Json::Obj(entries) = &mut report {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                for p in points.iter_mut() {
                    let Some(cycles) = p.get("cycles_to_last_core_done").and_then(Json::as_u64)
                    else {
                        continue;
                    };
                    let attr = test_attr(harts, cycles);
                    if let Json::Obj(fields) = p {
                        fields.push(("attribution".to_owned(), attr));
                    }
                }
            }
        }
        report
    }

    fn fake_report(cycles: u64) -> Json {
        Json::obj()
            .set("sweep", "cluster_scaling")
            .set("speedup_c4_tiled", 1.10)
            .set(
                "points",
                Json::Arr(vec![Json::obj()
                    .set("id", "tiled/c4/chaining")
                    .set("cycles_to_last_core_done", cycles)
                    .set("tcdm_conflicts", 1000u64)
                    .set("attribution", test_attr(4, cycles))]),
            )
    }

    #[test]
    fn identical_report_passes() {
        let report = fake_report(100_000);
        let baseline = baseline_from_report("cluster_scaling.json", &report).unwrap();
        let outcome = diff(&baseline, &report).unwrap();
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert_eq!(outcome.checked, 3);
    }

    #[test]
    fn ten_percent_cycle_regression_fails_the_gate() {
        // The acceptance criterion: an injected 10 % cycle regression in
        // a baseline metric must fail.
        let baseline = baseline_from_report("r.json", &fake_report(100_000)).unwrap();
        let outcome = diff(&baseline, &fake_report(110_000)).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("cycles_to_last_core_done"));
    }

    #[test]
    fn one_unit_drift_fails_the_gate() {
        // Pins are exact: the smallest possible cycle drift fails, in
        // either direction.
        let baseline = baseline_from_report("r.json", &fake_report(100_000)).unwrap();
        for cycles in [100_001, 99_999] {
            let outcome = diff(&baseline, &fake_report(cycles)).unwrap();
            assert!(!outcome.passed(), "{cycles} cycles passed an exact pin");
            assert!(outcome.failures[0].contains("cycles_to_last_core_done"));
        }
    }

    #[test]
    fn large_improvements_also_flag_for_rebaselining() {
        let baseline = baseline_from_report("r.json", &fake_report(100_000)).unwrap();
        let outcome = diff(&baseline, &fake_report(80_000)).unwrap();
        assert!(!outcome.passed(), "drift flags in both directions");
    }

    #[test]
    fn missing_point_fails_the_gate_loudly() {
        let baseline = Json::parse(
            r#"{"metrics":[{"point":"nope","metric":"cycles_to_last_core_done","value":1}]}"#,
        )
        .unwrap();
        let outcome = diff(&baseline, &fake_report(1)).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("no point with id"));
    }

    #[test]
    fn renamed_metric_fails_the_gate_instead_of_being_skipped() {
        // Regression for the rename hole: a baseline entry whose metric
        // no longer exists in the report (e.g. `cycles_to_last_core_done`
        // renamed) must fail the gate — and every other entry must still
        // be checked, so all problems surface in one run.
        let baseline = baseline_from_report("r.json", &fake_report(100_000)).unwrap();
        let mut renamed = fake_report(100_000);
        if let Json::Obj(entries) = &mut renamed {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                if let Json::Obj(fields) = &mut points[0] {
                    for (k, _) in fields.iter_mut() {
                        if k == "cycles_to_last_core_done" {
                            *k = "cycles_renamed".to_owned();
                        }
                    }
                }
            }
        }
        let outcome = diff(&baseline, &renamed).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("cycles_to_last_core_done"));
        assert!(outcome.failures[0].contains("renamed or dropped"));
        assert_eq!(outcome.checked, 3, "remaining metrics still compared");

        // Regenerating a baseline from a report whose points carry none
        // of the gated metrics refuses instead of pinning nothing.
        let pointless = Json::parse(r#"{"points":[{"id":"a","other":1}]}"#).unwrap();
        let err = baseline_from_report("r.json", &pointless).unwrap_err();
        assert!(err.contains("none of the gated metrics"));
    }

    #[test]
    fn l2_points_without_cache_stats_are_refused() {
        // The finite-L2 rule: a point carrying an `l2` object must carry
        // the cache metrics, or `check` and `baseline` both refuse.
        let stale = Json::parse(
            r#"{"points":[{"id":"a","cycles_to_last_core_done":10,
                "l2":{"accesses":100,"conflicts":3,"refills":7}}]}"#,
        )
        .unwrap();
        let err = check_wellformed(&stale).unwrap_err();
        assert!(err.contains("cache metric"), "{err}");
        assert!(baseline_from_report("r.json", &stale).is_err());

        // The pre-prefetch shape (cache metrics, no prefetch counters)
        // is refused too: the prefetcher's accuracy breakdown is part of
        // the required stats since the L2 learned to prefetch.
        let pre_prefetch = Json::parse(
            r#"{"points":[{"id":"a","cycles_to_last_core_done":10,
                "l2":{"accesses":100,"conflicts":3,"refills":7,"refill_stalls":1,
                      "refill_beats":112,"hits":80,"misses":20,"evictions":5,
                      "writeback_beats":160,"mshr_merges":2,"mshr_full_stalls":0,
                      "mshr_peak":3}}]}"#,
        )
        .unwrap();
        let err = check_wellformed(&pre_prefetch).unwrap_err();
        assert!(err.contains("prefetch"), "{err}");
        assert!(baseline_from_report("r.json", &pre_prefetch).is_err());

        let fresh = with_attr(
            Json::parse(
                r#"{"points":[{"id":"a","cycles_to_last_core_done":10,
                "l2":{"accesses":100,"conflicts":3,"refills":7,"refill_stalls":1,
                      "refill_beats":112,"hits":80,"misses":20,"evictions":5,
                      "writeback_beats":160,"mshr_merges":2,"mshr_full_stalls":0,
                      "mshr_peak":3,"prefetch_hints":0,"prefetches_issued":0,
                      "prefetch_hits":0,"prefetch_covered_misses":0,
                      "prefetch_evicted_unused":0,"prefetch_beats":0}}]}"#,
            )
            .unwrap(),
            8,
        );
        assert!(check_wellformed(&fresh).is_ok());
        assert!(baseline_from_report("r.json", &fresh).is_ok());
        // Points without any l2 object (single-cluster sweeps) are
        // untouched by the rule.
        assert!(check_wellformed(&fake_report(10)).is_ok());
    }

    #[test]
    fn baselines_pin_flat_prefetch_metrics() {
        // A prefetch_ablation-style point pins its issue/accuracy counts
        // like any traffic metric, and drift gates.
        let report = with_attr(
            Json::parse(
                r#"{"sweep":"prefetch_ablation","speedup_prefetch_ch1_underfit_chaining":1.31,
                "points":[{"id":"m1/under/ch1/chaining/d4D32",
                           "cycles_to_last_core_done":140000,
                           "l2_prefetches_issued":535,"l2_prefetch_hits":533}]}"#,
            )
            .unwrap(),
            8,
        );
        let baseline = baseline_from_report("prefetch_ablation.json", &report).unwrap();
        let pinned: Vec<&str> = baseline
            .get("metrics")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .filter_map(|m| m.get("metric").and_then(Json::as_str))
            .collect();
        for want in [
            "l2_prefetches_issued",
            "l2_prefetch_hits",
            "speedup_prefetch_ch1_underfit_chaining",
        ] {
            assert!(pinned.contains(&want), "{want} not pinned: {pinned:?}");
        }
        let mut drifted = report.clone();
        if let Json::Obj(entries) = &mut drifted {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                if let Json::Obj(fields) = &mut points[0] {
                    for (k, v) in fields.iter_mut() {
                        if k == "l2_prefetch_hits" {
                            *v = Json::UInt(0);
                        }
                    }
                }
            }
        }
        let outcome = diff(&baseline, &drifted).unwrap();
        assert!(!outcome.passed(), "losing all prefetch hits must gate");
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("l2_prefetch_hits")));
    }

    #[test]
    fn baselines_pin_flat_l2_traffic_and_efficiency_ratios() {
        let report = with_attr(
            Json::parse(
                r#"{"sweep":"l2_ablation","efficiency_m4":0.82,
                "points":[{"id":"cap16K/w8","cycles_to_last_core_done":5000,
                           "l2_evictions":40,"l2_writeback_beats":1280}]}"#,
            )
            .unwrap(),
            8,
        );
        let baseline = baseline_from_report("l2_ablation.json", &report).unwrap();
        let pinned: Vec<&str> = baseline
            .get("metrics")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .filter_map(|m| m.get("metric").and_then(Json::as_str))
            .collect();
        for want in [
            "cycles_to_last_core_done",
            "l2_evictions",
            "l2_writeback_beats",
            "efficiency_m4",
        ] {
            assert!(pinned.contains(&want), "{want} not pinned: {pinned:?}");
        }
        // And the pinned eviction count gates drift like any metric.
        let mut drifted = report.clone();
        if let Json::Obj(entries) = &mut drifted {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                if let Json::Obj(fields) = &mut points[0] {
                    for (k, v) in fields.iter_mut() {
                        if k == "l2_writeback_beats" {
                            *v = Json::UInt(2000);
                        }
                    }
                }
            }
        }
        let outcome = diff(&baseline, &drifted).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("l2_writeback_beats"));
    }

    #[test]
    fn overlap_fraction_above_one_is_malformed() {
        let bad = Json::parse(
            r#"{"points":[{"id":"a","cycles_to_last_core_done":10,
                "dma":{"overlap_fraction":1.25}}]}"#,
        )
        .unwrap();
        let err = check_wellformed(&bad).unwrap_err();
        assert!(err.contains("overlap_fraction"), "{err}");
        let good = with_attr(
            Json::parse(
                r#"{"points":[{"id":"a","cycles_to_last_core_done":10,
                "dma":{"overlap_fraction":0.7}}]}"#,
            )
            .unwrap(),
            4,
        );
        assert!(check_wellformed(&good).is_ok());
    }

    #[test]
    fn cycle_points_without_attribution_are_refused() {
        // The observability rule: a point reporting its end-to-end cycle
        // count must carry the top-down attribution section…
        let missing =
            Json::parse(r#"{"points":[{"id":"a","cycles_to_last_core_done":10}]}"#).unwrap();
        let err = check_wellformed(&missing).unwrap_err();
        assert!(err.contains("attribution"), "{err}");
        assert!(baseline_from_report("r.json", &missing).is_err());

        // …with every leaf present (a dropped key is stale
        // instrumentation, not a zero)…
        let mut partial = with_attr(missing.clone(), 4);
        if let Json::Obj(entries) = &mut partial {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                if let Json::Obj(fields) = &mut points[0] {
                    if let Some((_, Json::Obj(attr))) =
                        fields.iter_mut().find(|(k, _)| k == "attribution")
                    {
                        attr.retain(|(k, _)| k != "sync_park");
                    }
                }
            }
        }
        let err = check_wellformed(&partial).unwrap_err();
        assert!(err.contains("sync_park"), "{err}");

        // …and partitioning harts × machine_cycles exactly: a broken
        // serializer fails the gate, never ships a wrong profile.
        let mut corrupt = with_attr(missing, 4);
        if let Json::Obj(entries) = &mut corrupt {
            if let Some((_, Json::Arr(points))) = entries.iter_mut().find(|(k, _)| k == "points") {
                if let Json::Obj(fields) = &mut points[0] {
                    if let Some((_, Json::Obj(attr))) =
                        fields.iter_mut().find(|(k, _)| k == "attribution")
                    {
                        for (k, v) in attr.iter_mut() {
                            if k == "retired" {
                                *v = Json::UInt(39);
                            }
                        }
                    }
                }
            }
        }
        let err = check_wellformed(&corrupt).unwrap_err();
        assert!(err.contains("invariant"), "{err}");

        // Points without a cycle count (the ablation sweeps) are exempt.
        let ablation =
            Json::parse(r#"{"sweep":"ablation_banks","points":[{"banks":4,"util":0.8}]}"#).unwrap();
        assert!(check_wellformed(&ablation).is_ok());
    }

    #[test]
    fn wellformed_rejects_empty_and_pointless_reports() {
        assert!(check_wellformed(&Json::obj()).is_err());
        assert!(check_wellformed(&Json::parse("[1,2]").unwrap()).is_err());
        let no_metrics = Json::parse(r#"{"points":[{"id":"a"}]}"#).unwrap();
        assert!(check_wellformed(&no_metrics).is_err());
        let empty_points = Json::parse(r#"{"points":[]}"#).unwrap();
        assert!(check_wellformed(&empty_points).is_err());
        // An ablation-style report (no cycle metrics, other numerics) is
        // well-formed.
        let ablation =
            Json::parse(r#"{"sweep":"ablation_banks","points":[{"banks":4,"util":0.8}]}"#).unwrap();
        assert!(check_wellformed(&ablation).is_ok());
        assert!(check_wellformed(&fake_report(5)).is_ok());
    }
}
