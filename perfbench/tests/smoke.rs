//! Smoke test of the benchmark: every workload at tiny sizes, untraced and
//! traced, through the same code path the measured runs take. Every metric
//! `BENCHMARK.json` names must print with its unit, and every output check
//! must pass.
//!
//! Run in release mode; debug builds of the pipeline are far slower:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// `(section, name, unit)` for every metric line of `BENCHMARK.json`. The
/// file keeps one metric object per line.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{key}\"")) {
                section = key.to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    out
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload} trace {trace} exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let declared = declared_metrics();
    let count = |s: &str| declared.iter().filter(|(sec, _, _)| sec == s).count();
    assert!(count("end_to_end") >= 1 && count("per_layer") >= 1, "{declared:?}");
    for workload in ["org_ed", "media_fms_dup", "service_mixed"] {
        for trace in [0u8, 1] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{workload} trace {trace}:\n{stdout}"
            );
            let section = if trace == 0 { "end_to_end" } else { "per_layer" };
            for (_, name, unit) in declared.iter().filter(|(s, _, _)| s == section) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last.find(&key).unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let rest = &last[at + key.len()..];
                let end = rest.find(',').expect("value ends");
                let value: f64 = rest[..end]
                    .parse()
                    .unwrap_or_else(|e| panic!("{workload}: {name} is not a number: {e}"));
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            let printed = last.matches("\"value\": ").count();
            assert_eq!(printed, count(section), "{workload}: metrics beyond BENCHMARK.json");
        }
    }
}
