//! What one run of one workload produces.

use mantle_daemon::json::Json;

use crate::spec::Metric;

/// The result of one run (`--trace 0` or `--trace 1`) of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops the run attempted.
    pub attempted: u64,
    /// Ops not completed ok (dropped, timed out, error reply, missing).
    pub failed: u64,
    /// The metrics the run's mode calls for, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// End-to-end metrics that exist on this workload only (`--trace 0`).
    pub detail: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means the outputs are correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Check `ok`, recording `what` when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for `values`, with units
/// looked up in `table`. A value that is not finite is a harness bug.
pub fn metrics_json(values: &[(&'static str, f64)], table: &[Metric]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|&(name, value)| {
                assert!(value.is_finite(), "metric {name} is not a finite number");
                let unit = table
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} is not in the table"))
                    .unit;
                (
                    name.to_string(),
                    Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The per-layer values of one traced run: every name of
/// [`crate::spec::PER_LAYER`], 0 until a layer on the workload's path
/// sets it.
#[derive(Debug, Clone, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// A value set earlier (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in table order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        crate::spec::PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}
