//! Checks the benchmark against its own contract: every metric named in
//! `BENCHMARK.json` is printed with its unit, and the exact counts repeat
//! bit-for-bit across two runs with the same seed base.

use std::process::Command;

use serde_json::Value;

/// Runs the benchmark briefly; returns the result line and the manifest.
fn run(workload: &str, trace: &str) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line");
    let manifest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# manifest "))
        .expect("a manifest line");
    let result: Value = serde_json::from_str(result).expect("the result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{result:?}"
    );
    assert_eq!(result.get("failed"), Some(&Value::U64(0)));
    (
        result,
        serde_json::from_str(manifest).expect("the manifest is JSON"),
    )
}

fn metrics(result: &Value) -> &[(String, Value)] {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want: Vec<(String, String)> = declared
            .get(section)
            .and_then(Value::as_array)
            .expect(section)
            .iter()
            .map(|m| (text_field(m, "name"), text_field(m, "unit")))
            .collect();
        let (result, _) = run("traced_burst", trace);
        let mut got: Vec<(String, String)> = metrics(&result)
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                (name.clone(), text_field(m, "unit"))
            })
            .collect();
        want.sort();
        got.sort();
        assert_eq!(
            got, want,
            "--trace {trace} must print exactly the {section} metrics"
        );
    }
}

fn text_field(m: &Value, key: &str) -> String {
    m.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("every metric has a {key}"))
        .to_string()
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    for workload in ["paper_burst", "traced_burst"] {
        for trace in ["0", "1"] {
            let (a, manifest) = run(workload, trace);
            let (b, _) = run(workload, trace);
            let exact = manifest
                .get("exact_metrics")
                .and_then(Value::as_array)
                .expect("the manifest lists the exact metrics");
            let mut checked = 0;
            for name in exact.iter().filter_map(Value::as_str) {
                let value = |r: &Value| {
                    metrics(r)
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, m)| m.get("value").cloned())
                };
                if let Some(first) = value(&a) {
                    assert_eq!(first, value(&b).flatten(), "{workload} {name}");
                    checked += 1;
                }
            }
            assert!(
                checked > 0,
                "{workload} --trace {trace} printed no exact metric"
            );
        }
    }
}
