//! Exact pins: every point's simulated cycles and traffic counts, read
//! from the repository's checked-in sweep baselines (joined on the
//! baselines' own point ids) and from the benchmark's own pin files for
//! the points no baseline covers.

use std::collections::BTreeMap;
use std::fs;

use sc_bench::Json;

/// Pin files the workloads draw from: the four sweep baselines, then
/// the benchmark's own.
const BASELINES: [&str; 4] = [
    "cluster_scaling",
    "prefetch_ablation",
    "system_scaling",
    "weak_scaling",
];
const OWN: [&str; 1] = ["fig3"];

/// Where the benchmark's own pin files live, relative to the checkout.
const OWN_DIR: &str = "hostbench/pins";

/// Pinned values by pin file, then point id, then metric name.
#[derive(Debug, Default)]
pub struct Pins {
    points: BTreeMap<(String, String), Vec<(String, f64)>>,
    totals: BTreeMap<String, Vec<(String, u64)>>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

impl Pins {
    /// Loads every pin file, relative to the checkout root.
    ///
    /// # Errors
    ///
    /// A missing or malformed pin file.
    pub fn load() -> Result<Self, String> {
        let mut pins = Pins::default();
        let files = BASELINES
            .iter()
            .map(|n| (*n, format!("baselines/{n}.json")))
            .chain(OWN.iter().map(|n| (*n, format!("{OWN_DIR}/{n}.json"))));
        for (name, path) in files {
            let json = read_json(&path)?;
            let metrics = json
                .get("metrics")
                .and_then(Json::items)
                .ok_or_else(|| format!("{path}: no `metrics` array"))?;
            for m in metrics {
                // Entries without a point pin sweep-level ratios, which
                // no single point reproduces.
                let Some(point) = m.get("point").and_then(Json::as_str) else {
                    continue;
                };
                let metric = m.get("metric").and_then(Json::as_str);
                let value = m.get("value").and_then(Json::as_f64);
                let (Some(metric), Some(value)) = (metric, value) else {
                    return Err(format!("{path}: malformed entry for `{point}`"));
                };
                pins.points
                    .entry((name.to_owned(), point.to_owned()))
                    .or_default()
                    .push((metric.to_owned(), value));
            }
        }
        let path = format!("{OWN_DIR}/totals.json");
        let json = read_json(&path)?;
        let Json::Obj(workloads) = json else {
            return Err(format!("{path}: not an object"));
        };
        for (workload, totals) in workloads {
            let Json::Obj(fields) = totals else {
                return Err(format!("{path}: `{workload}` is not an object"));
            };
            let fields = fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("{path}: `{workload}.{k}` is not a count"))
                })
                .collect::<Result<_, _>>()?;
            pins.totals.insert(workload, fields);
        }
        Ok(pins)
    }

    /// Compares a point's simulated values with its pin, exactly.
    ///
    /// # Errors
    ///
    /// A missing pin, a pinned metric the run does not produce, or any
    /// value that differs.
    pub fn check(&self, file: &str, id: &str, got: &[(&str, u64)]) -> Result<(), String> {
        let observed = || {
            got.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let pinned = self
            .points
            .get(&(file.to_owned(), id.to_owned()))
            .ok_or_else(|| format!("no pin for `{id}` in {file} (observed {})", observed()))?;
        for (metric, want) in pinned {
            match got.iter().find(|(k, _)| k == metric) {
                Some((_, v)) if *v as f64 == *want => {}
                Some((_, v)) => return Err(format!("{id}: {metric} = {v}, pinned {want}")),
                None => return Err(format!("{id}: pinned metric {metric} not produced")),
            }
        }
        Ok(())
    }

    /// Compares a workload's fixed totals with their pin, exactly.
    ///
    /// # Errors
    ///
    /// A missing pin or any total that differs.
    pub fn check_totals(&self, workload: &str, got: &[(&str, u64)]) -> Result<(), String> {
        let pinned = self
            .totals
            .get(workload)
            .ok_or_else(|| format!("no totals pinned for {workload}"))?;
        let mismatch = pinned.len() != got.len()
            || pinned
                .iter()
                .any(|(k, v)| !got.iter().any(|(gk, gv)| gk == k && gv == v));
        if mismatch {
            return Err(format!(
                "{workload} totals {got:?} differ from the pinned {pinned:?}"
            ));
        }
        Ok(())
    }
}
