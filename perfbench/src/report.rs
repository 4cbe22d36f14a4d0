//! Result records and the two output lines: a full report (host facts,
//! every metric with its sample count, notes) and the final result line.

use crate::stats;
use prim_obs::json;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Requests and operations sent in the measured phases.
    pub attempted: u64,
    /// Errors, sheds, unanswered requests and output mismatches.
    pub failed: u64,
    /// Output-check failures (any one fails the run).
    pub mismatches: Vec<String>,
    /// Extra facts for the report line (sub-counts, validity warnings).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// A percentile metric: pushed when the sample supports it (at least
    /// [`stats::MIN_BEYOND`] samples beyond), otherwise the run records
    /// why it is missing and is marked failed by [`Self::missing`].
    pub fn push_pct(&mut self, name: &str, values: &[f64], q: f64) {
        self.push_quantile(name, "ms", values, q, 1.0);
    }

    /// [`Self::push_pct`] in any unit: the percentile of `values` times
    /// `scale`.
    pub fn push_quantile(
        &mut self,
        name: &str,
        unit: &'static str,
        values: &[f64],
        q: f64,
        scale: f64,
    ) {
        match stats::percentile_of(values, q) {
            Some(v) => self.push(name, unit, v * scale, values.len()),
            None => self.mismatches.push(format!(
                "{name}: {} samples cannot support p{:.0} (needs {} beyond it)",
                values.len(),
                q * 100.0,
                stats::MIN_BEYOND
            )),
        }
    }

    /// Pushes `failed_share` (failed / attempted) and its complement
    /// `ok_share`.
    pub fn push_ok_share(&mut self) {
        let attempted = self.attempted.max(1) as f64;
        let failed = self.failed as f64 / attempted;
        self.push("ok_share", "ratio", 1.0 - failed, self.attempted as usize);
        self.push("failed_share", "ratio", failed, self.attempted as usize);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Names in `wanted` that this run did not produce.
    pub fn missing(&self, wanted: &[&str]) -> Vec<String> {
        wanted
            .iter()
            .filter(|w| self.get(w).is_none())
            .map(|w| w.to_string())
            .collect()
    }
}

/// JSON number with every digit `{}` prints (never rounded).
fn full(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The report line: host facts, metrics with sample counts, notes.
pub fn report_line(header: &[(&str, String)], r: &RunResult) -> String {
    let metrics: Vec<(&str, String)> = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                json::obj(&[
                    ("value", full(m.value)),
                    ("unit", json::str(m.unit)),
                    ("samples", json::int(m.samples as u64)),
                ]),
            )
        })
        .collect();
    let notes: Vec<(&str, String)> = r
        .notes
        .iter()
        .map(|(k, v)| (k.as_str(), json::str(v)))
        .collect();
    let mismatches: Vec<String> = r.mismatches.iter().map(|m| json::str(m)).collect();
    let mut fields: Vec<(&str, String)> = header.to_vec();
    fields.push(("metrics", json::obj(&metrics)));
    fields.push(("notes", json::obj(&notes)));
    fields.push(("mismatches", json::arr(&mismatches)));
    json::obj(&[("report", json::obj(&fields))])
}

/// The final result line, with exactly the metrics named in `names`.
pub fn result_line(r: &RunResult, names: &[(&str, &str)]) -> String {
    let metrics: Vec<(&str, String)> = names
        .iter()
        .filter_map(|(name, unit)| {
            r.get(name).map(|v| {
                (
                    *name,
                    json::obj(&[("value", full(v)), ("unit", json::str(unit))]),
                )
            })
        })
        .collect();
    json::obj(&[
        ("correct", (r.mismatches.is_empty()).to_string()),
        ("attempted", json::int(r.attempted.max(1))),
        ("failed", json::int(r.failed)),
        ("metrics", json::obj(&metrics)),
    ])
}
