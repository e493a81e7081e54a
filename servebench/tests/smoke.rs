//! Smoke test: every workload runs end to end and traced at a tiny size
//! through the benchmark's own command, and prints every metric
//! `BENCHMARK.json` names, with its unit.
//!
//! Builds `stencil-serve` and the benchmark in release mode (via
//! `servebench/run.sh`) on first use; takes about a minute after that.

use std::path::{Path, PathBuf};
use std::process::Command;

use stencil_serve::json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("servebench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric `section` of `BENCHMARK.json` lists.
fn named_metrics(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new("bash")
        .args([
            "servebench/run.sh",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .current_dir(repo_root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Value::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["hit_serve", "cold_viem", "routed_mixed"]);
    for workload in &workloads {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let named = named_metrics(&doc, section);
            assert_eq!(
                metrics.len(),
                named.len(),
                "{workload} trace={trace}: metric count"
            );
            for (name, unit) in &named {
                let m = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}
