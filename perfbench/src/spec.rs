//! The benchmark's declared metrics (`BENCHMARK.json`, compiled in) and
//! the layer → end-to-end map: which end-to-end metric, on which
//! workload, each per-layer metric is expected to move.

use crate::stats::valid_metric_name;
use dra_core::telemetry::{parse_json, Json};

/// `BENCHMARK.json` at the repository root.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parsed declaration.
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// `field` of every entry of the array `key`.
fn column(doc: &Json, key: &str, field: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.as_obj().and_then(|o| o.get(key)) else {
        panic!("BENCHMARK.json: `{key}` is not an array");
    };
    items
        .iter()
        .map(|m| {
            m.as_obj()
                .and_then(|o| o.get(field))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
                .to_string()
        })
        .collect()
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    column(doc, key, "name")
        .into_iter()
        .zip(column(doc, key, "unit"))
        .map(|(name, unit)| MetricSpec { name, unit })
        .collect()
}

impl Spec {
    /// Parse the compiled-in declaration.
    pub fn load() -> Spec {
        let doc = parse_json(SPEC_JSON).expect("BENCHMARK.json parses");
        Spec {
            workloads: column(&doc, "workloads", "name"),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// Every name valid, and every per-layer metric mapped to the
    /// end-to-end metrics it should move.
    pub fn validate(&self) -> Result<(), String> {
        let names = self.workloads.iter().chain(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| &m.name),
        );
        if let Some(bad) = names.into_iter().find(|n| !valid_metric_name(n)) {
            return Err(format!("invalid name {bad:?}"));
        }
        match self.per_layer.iter().find(|m| moves(&m.name).is_none()) {
            Some(m) => Err(format!("{} moves no end-to-end metric", m.name)),
            None => Ok(()),
        }
    }

    /// The unit of `name` in either metric list.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

/// Per-layer metric (or its prefix, ending in `.`) → the end-to-end
/// metrics and workloads it should move. Predicted-flat pairings are in
/// `perfbench/README.md`, not here.
pub const LAYER_MAP: &[(&str, &[(&str, &str)])] = &[
    ("simulate.", &[("work_per_s", "corpus-mix")]),
    ("sim.", &[("work_per_s", "corpus-mix")]),
    (
        "remap.",
        &[("work_per_s", "paper-matrix"), ("tail_ms", "serve-open")],
    ),
    ("alloc.", &[("work_per_s", "corpus-mix")]),
    ("irc.", &[("work_per_s", "corpus-mix")]),
    ("checker.", &[("work_per_s", "corpus-mix")]),
    (
        "parse.",
        &[("work_per_s", "corpus-mix"), ("tail_ms", "serve-open")],
    ),
    (
        "validate.",
        &[("work_per_s", "corpus-mix"), ("tail_ms", "serve-open")],
    ),
    (
        "repair.",
        &[("work_per_s", "corpus-mix"), ("tail_ms", "serve-open")],
    ),
    (
        "verify.",
        &[("work_per_s", "corpus-mix"), ("tail_ms", "serve-open")],
    ),
    (
        "compile.",
        &[("work_per_s", "corpus-mix"), ("tail_ms", "serve-open")],
    ),
    (
        "batch.",
        &[("work_per_s", "corpus-mix"), ("work_per_s", "paper-matrix")],
    ),
    (
        "result_cache.",
        &[("p50_ms", "serve-open"), ("tail_ms", "serve-open")],
    ),
    ("source_cache.", &[("p50_ms", "serve-open")]),
    ("serve.hit_", &[("p50_ms", "serve-open")]),
    ("serve.miss_", &[("tail_ms", "serve-open")]),
    ("serve.peak_depth", &[("tail_ms", "serve-open")]),
    ("loadgen.", &[("tail_ms", "serve-open")]),
    (
        "swp.",
        &[("work_per_s", "loop-sweep"), ("sim_cycles", "loop-sweep")],
    ),
    (
        "workloads.",
        &[
            ("setup_s", "corpus-mix"),
            ("setup_s", "paper-matrix"),
            ("setup_s", "serve-open"),
            ("setup_s", "loop-sweep"),
        ],
    ),
    (
        "tail.",
        &[
            ("tail_ms", "corpus-mix"),
            ("tail_ms", "paper-matrix"),
            ("tail_ms", "serve-open"),
            ("tail_ms", "loop-sweep"),
        ],
    ),
    (
        "trace.",
        &[
            ("work_per_s", "corpus-mix"),
            ("work_per_s", "paper-matrix"),
            ("work_per_s", "serve-open"),
            ("work_per_s", "loop-sweep"),
        ],
    ),
];

/// The end-to-end pairings of a per-layer metric (longest matching key).
pub fn moves(layer_metric: &str) -> Option<&'static [(&'static str, &'static str)]> {
    LAYER_MAP
        .iter()
        .filter(|(key, _)| {
            layer_metric == *key
                || (key.ends_with('.') || key.ends_with('_')) && layer_metric.starts_with(key)
        })
        .max_by_key(|(key, _)| key.len())
        .map(|(_, pairs)| *pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(valid_metric_name(name), "invalid name {name:?}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_metric_moves_an_existing_end_to_end_metric() {
        let spec = Spec::load();
        for m in &spec.per_layer {
            let pairs = moves(&m.name).unwrap_or_else(|| panic!("{} maps to nothing", m.name));
            assert!(!pairs.is_empty(), "{}", m.name);
            for (e2e, workload) in pairs {
                assert!(
                    spec.end_to_end.iter().any(|e| e.name == *e2e),
                    "{} names unknown end-to-end metric {e2e}",
                    m.name
                );
                assert!(
                    spec.workloads.iter().any(|w| w == workload),
                    "{} names unknown workload {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_map_key_is_used() {
        let spec = Spec::load();
        for (key, _) in LAYER_MAP {
            assert!(
                spec.per_layer.iter().any(
                    |m| moves(&m.name).is_some() && (m.name == *key || m.name.starts_with(key))
                ),
                "map key {key} matches no declared per-layer metric"
            );
        }
    }

    #[test]
    fn longest_key_wins() {
        assert_eq!(moves("serve.hit_p50_ms").unwrap()[0].0, "p50_ms");
        assert_eq!(moves("serve.peak_depth").unwrap()[0].0, "tail_ms");
        assert!(moves("serve.unknown").is_none());
        assert!(moves("nothing.here").is_none());
    }
}
