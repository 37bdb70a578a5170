//! Metric names, units and the result line.
//!
//! Every run prints a human-readable block (the icarus-style
//! configuration and results) followed, as the last line of standard
//! output, by one JSON object: `correct`, `attempted`, `failed` and the
//! metric map. An untraced run reports exactly [`END_TO_END`], a traced
//! run exactly [`PER_LAYER`]; `BENCHMARK.json` lists the same names and
//! a unit test keeps the three in step.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; what each one measures on each workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rate", "1/s"),
    ("feasible_share", "share"),
    ("sched_latency_gm", "tu"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reports 0 (it did no work there).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.req_kib", "KiB"),
    ("proto.resp_kib", "KiB"),
    ("cache.fingerprint_us", "us"),
    ("cache.hit_ratio", "share"),
    ("cache.evictions", "count"),
    ("cache.failed_resolves", "count"),
    ("engine.service_p50_us", "us"),
    ("engine.service_p99_us", "us"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.self_us", "us"),
    ("solver.prepare_us", "us"),
    ("solver.ltf_ms", "ms"),
    ("solver.rltf_ms", "ms"),
    ("solver.ltf_contended_ms", "ms"),
    ("solver.rltf_contended_ms", "ms"),
    ("solver.calls", "count"),
    ("solver.infeasible_share", "share"),
    ("comm.route_table_us", "us"),
    ("comm.contended_slowdown", "ratio"),
    ("validate.us", "us"),
    ("search.front_ms", "ms"),
    ("search.oracle_calls", "count"),
    ("search.useful_ratio", "share"),
    ("sim.replay_us", "us"),
    ("faultlab.sample_us", "us"),
    ("faultlab.record_us", "us"),
    ("campaign.expand_ms", "ms"),
    ("campaign.merge_ms", "ms"),
    ("coord.worker_busy_share", "share"),
    ("coord.requeues", "count"),
    ("load.gen_lag_p99_ms", "ms"),
    ("load.backlog_end", "count"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The unit a metric is declared with, if it is declared at all.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One run's outcome: operation counts plus named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests sent, campaign items expected).
    pub attempted: u64,
    /// Operations that failed the reference check or got no reply.
    pub failed: u64,
    /// Reasons the run is not a valid result (lagging generator, …).
    pub invalid: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Set metric `name` (must be declared in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Whether every check passed and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The result line for the declared set `names` (missing metrics of
    /// a layer the workload never entered read 0).
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("write to string");
        for (i, (name, unit)) in names.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("illegal metric name or unit: {name} [{unit}]"));
            }
            let value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("write to string");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a sample (nearest rank; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it in a sample of `n`; `None` when `n` is too small.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_legal_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        r.set("p50_ms", 2.0);
        let line = r.json_line(END_TO_END).unwrap();
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let serde::Value::Map(top) = v else {
            panic!("not a map")
        };
        let keys: Vec<_> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let serde::Value::Map(metrics) = &top[3].1 else {
            panic!("metrics not a map")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), (want, unit)) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, want);
            assert!(valid_name(name));
            let serde::Value::Map(fields) = value else {
                panic!("metric not a map")
            };
            assert!(matches!(&fields[0], (k, serde::Value::Float(_)) if k == "value"));
            assert_eq!(
                fields[1],
                ("unit".to_string(), serde::Value::Str(unit.to_string()))
            );
        }
        assert!(line.contains("\"p50_ms\": {\"value\": 2.0,"));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut r = Report::default();
        r.set("p50_ms", f64::NAN);
        assert!(r.json_line(END_TO_END).is_err());
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let serde::Value::Map(top) = v else {
            panic!("not a map")
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            let (_, serde::Value::Seq(items)) = top.iter().find(|(k, _)| k == key).unwrap() else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let serde::Value::Map(f) = m else {
                        panic!("entry not a map")
                    };
                    let get = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, serde::Value::Str(s))) => s.clone(),
                        _ => panic!("{key} entry lacks {k}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(9), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
