//! The metric vocabulary and the result line the benchmark prints.

use serde::Value;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("rel_power", "ratio"),
    ("msg_latency_us", "us"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.route_build_s", "s"),
    ("sim.new_s", "s"),
    ("sim.event_loop_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_arrive", "count"),
    ("sim.events_tx_done", "count"),
    ("sim.events_credit_wake", "count"),
    ("sim.events_retry", "count"),
    ("sim.allocs_per_event", "allocs/event"),
    ("sim.peak_live_packets", "count"),
    ("sim.finalize_s", "s"),
    ("sim.p99_pkt_latency_us", "us"),
    ("controller.s", "s"),
    ("controller.decisions_per_tick", "count/tick"),
    ("controller.ns_per_decision", "ns"),
    ("controller.reconfigurations", "count"),
    ("flows.absorbed", "count"),
    ("flows.demoted", "count"),
    ("flows.fluid_share", "ratio"),
    ("flows.table_peak", "count"),
    ("workloads.next_s", "s"),
    ("workloads.messages", "count"),
    ("unattributed_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `table`, in table order. `values` must hold
/// exactly the table's names.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    assert_eq!(values.len(), table.len(), "every metric of the table, once");
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            assert!(valid_name(name), "metric name {name}");
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("value tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "run_s",
            "sim.events_tx_done",
            "flows.fluid_share",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    /// `BENCHMARK.json` declares exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    /// `manifest.json` maps every per-layer metric to the end-to-end
    /// metric it should move, names the workloads `BENCHMARK.json` lists,
    /// and holds a baseline for every end-to-end metric of each.
    #[test]
    fn manifest_covers_every_metric_and_workload() {
        let read = |file: &str| -> Value {
            let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        let manifest = read("manifest.json");
        let bench = read("../BENCHMARK.json");
        let keys = |v: &Value| -> Vec<String> {
            match v {
                Value::Map(m) => m.iter().map(|(k, _)| k.clone()).collect(),
                _ => panic!("expected an object"),
            }
        };
        let layers = keys(manifest.get("layer_map").unwrap());
        let expected: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(layers, expected);

        let whys = manifest.get("workloads").unwrap();
        let listed = bench.get("workloads").and_then(Value::as_seq).unwrap();
        let names: Vec<&str> = listed
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let known: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, known);
        for w in listed {
            let name = w.get("name").and_then(Value::as_str).unwrap();
            assert_eq!(whys.get(name), w.get("why"), "{name}");
        }

        let seed = |k| manifest.get(k).and_then(Value::as_u64).unwrap();
        assert_eq!(seed("default_seed"), crate::DEFAULT_SEED);
        assert_ne!(seed("held_out_seed"), crate::DEFAULT_SEED);

        let baseline = manifest.get("baseline").unwrap();
        assert!(baseline.get("hw_threads").and_then(Value::as_u64).is_some());
        for name in names {
            for (metric, _) in END_TO_END {
                let b = baseline
                    .get(name)
                    .and_then(|w| w.get(metric))
                    .unwrap_or_else(|| panic!("no baseline for {name} {metric}"));
                let q = |k| b.get(k).and_then(Value::as_f64).unwrap();
                assert!(
                    q("q1") <= q("median") && q("median") <= q("q3"),
                    "{name} {metric}"
                );
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("run_s", "s")], &[("run_s", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
