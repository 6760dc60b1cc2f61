//! Smoke mode of the benchmark: every workload runs briefly, untraced and
//! traced, and every metric `BENCHMARK.json` names must print with its
//! unit, with no failed job.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line there).
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

fn check(workload: &str, trace: &str, section: &str) {
    let last = run(workload, trace);
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    let wanted = metrics(section);
    assert!(!wanted.is_empty());
    for (name, unit) in wanted {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&needle)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing from {last}"));
        let rest = &last[at + needle.len()..];
        let value: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{workload}: `{name}` has no numeric value"));
        assert!(value.is_finite());
        let unit_part = rest.split('}').next().unwrap_or("");
        assert!(
            unit_part.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: `{name}` should be in {unit}: {unit_part}"
        );
        if name == "failed_share" {
            assert_eq!(value, 0.0, "{workload}: failed_share");
        }
    }
}

#[test]
fn chase_prints_every_metric() {
    check("chase", "0", "end_to_end");
    check("chase", "1", "per_layer");
}

#[test]
fn enum_prints_every_metric() {
    check("enum", "0", "end_to_end");
    check("enum", "1", "per_layer");
}

#[test]
fn serve_prints_every_metric() {
    check("serve", "0", "end_to_end");
    check("serve", "1", "per_layer");
}
