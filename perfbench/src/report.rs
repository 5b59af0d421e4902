//! The metric catalogue and the result line the benchmark prints last.

use std::collections::BTreeMap;

use sram_serve::Json;

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub(crate) const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A
/// layer a workload never enters reads 0 on it (no work, no time); the
/// README maps each metric to the workload and end-to-end metric it
/// should move.
pub(crate) const PER_LAYER: [(&str, &str); 22] = [
    ("coopt.search_ms", "ms"),
    ("coopt.points_per_s", "1/s"),
    ("coopt.candidates_per_query", "count"),
    ("coopt.feasible_ratio", "ratio"),
    ("cell.characterize_ms", "ms"),
    ("coopt.rails_ms", "ms"),
    ("cell.mc_sample_ms", "ms"),
    ("spice.dc_solves_per_query", "count"),
    ("spice.newton_iters_per_solve", "count"),
    ("spice.dc_nonconvergent_per_query", "count"),
    ("spice.transient_steps_per_query", "count"),
    ("spice.dc_solve_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.engine_hit_us", "us"),
    ("serve.engine_miss_us", "us"),
    ("array.eval_us", "us"),
    ("serve.render_us", "us"),
    ("serve.wire_gap_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions_per_1k", "count"),
    ("probe.trace_overhead_ratio", "ratio"),
    ("layer.dominant_share", "ratio"),
];

/// The final line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with the metrics in catalogue order, each number with all its digits.
pub(crate) fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (
                (*name).to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str((*unit).to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in `BENCHMARK.json` must agree
    /// name for name and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = Json::parse(&text).unwrap();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} drifted from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("latency_p50_ms", 1.25);
        values.insert("setup_s", f64::INFINITY);
        let line = result_line(true, 10, 0, &END_TO_END, &values);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let p50 = metrics.get("latency_p50_ms").unwrap().get("value");
        assert_eq!(p50.and_then(Json::as_f64), Some(1.25));
    }
}
