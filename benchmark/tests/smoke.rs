//! Smoke test of the benchmark itself: every workload at tiny sizes,
//! untraced and traced, with every correctness check live. The result
//! line must report success and every metric `BENCHMARK.json` names.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    Command::new(env!("CARGO_BIN_EXE_tb-perfbench"))
        .args(args)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run the benchmark binary")
}

/// The metric names of one section of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |e| e + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn check(workload: &str, trace: &str, section: &str) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} trace {trace}: {last}\n{stdout}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(
        !last.contains("null"),
        "{workload}: a metric is missing: {last}"
    );
    let expected = names(section);
    assert!(!expected.is_empty());
    for name in expected {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} trace {trace}: no {name} in {last}"
        );
    }
}

#[test]
fn every_workload_untraced() {
    for w in [
        "oocache-jacobi6",
        "incache-ops",
        "serve-mix",
        "hybrid-2rank",
    ] {
        check(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_traced() {
    for w in [
        "oocache-jacobi6",
        "incache-ops",
        "serve-mix",
        "hybrid-2rank",
    ] {
        check(w, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve-mix", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "serve-mix",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
