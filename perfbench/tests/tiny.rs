//! Tiny runs of every workload, untraced and traced: each must report
//! every metric `BENCHMARK.json` declares, with its unit, and no failed
//! operation.

use std::process::Command;

use genie_server::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let metrics = json.get(section).and_then(Json::as_array).expect("section");
    metrics
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny workload; returns its stdout.
fn run(workload: &str, trace: bool) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// Check the result line against the declared metrics; returns the
/// printed final weights digest.
fn check(workload: &str, trace: bool) -> String {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let number = |key| result.get(key).and_then(Json::as_f64).expect(key);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(number("failed"), 0.0, "{stdout}");
    assert!(number("attempted") >= 1.0);
    let metrics = result.get("metrics").expect("metrics");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let expected = declared(section);
    for (name, unit) in &expected {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} lacks {name}: {last}"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        let value = metric.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
    }
    let Json::Object(reported) = metrics else {
        panic!("metrics is not an object: {last}");
    };
    assert_eq!(
        reported.len(),
        expected.len(),
        "undeclared metrics in {last}"
    );
    stdout
        .lines()
        .find_map(|line| line.split("final weights_digest ").nth(1))
        .expect("the final digest is printed")
        .to_owned()
}

#[test]
fn cold_batch_reports_every_metric() {
    check("cold_batch", false);
    check("cold_batch", true);
}

#[test]
fn hot_single_reports_every_metric() {
    check("hot_single", false);
    check("hot_single", true);
}

#[test]
fn skill_reload_reports_every_metric_and_a_repeatable_digest() {
    let untraced = check("skill_reload", false);
    let traced = check("skill_reload", true);
    assert_eq!(
        untraced, traced,
        "the final weights digest differs between runs"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("start the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
