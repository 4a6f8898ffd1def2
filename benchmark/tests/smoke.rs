//! Every workload at `--smoke` scale, untraced and traced: the run must be
//! correct and emit exactly the metrics `BENCHMARK.json` declares, each
//! with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use uniloc_stats::json::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json")).expect("parse");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn out_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"))
}

fn run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_uniloc-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir(workload))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last =
        Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result line");
    let keys: Vec<&str> = last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert!(last.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(last.get("failed").and_then(Json::as_i64), Some(0));
    let metrics = last
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{workload} {name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    let mut got = emitted;
    want.sort();
    got.sort();
    assert_eq!(got, want, "{workload} trace={trace}");
}

#[test]
fn long_walks_smoke() {
    run("long-walks", false);
    run("long-walks", true);
    // A result set compared with itself is unchanged everywhere.
    let dir = out_dir("long-walks");
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_uniloc-benchmark"))
        .arg("compare")
        .args([&dir, &dir])
        .arg("--spec")
        .arg(spec)
        .output()
        .expect("run compare");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("long-walks    => unchanged"), "{stdout}");
}

#[test]
fn short_walks_smoke() {
    run("short-walks", false);
    run("short-walks", true);
}

#[test]
fn chaos_mix_smoke() {
    run("chaos-mix", false);
    run("chaos-mix", true);
}

#[test]
fn crash_resume_smoke() {
    run("crash-resume", false);
    run("crash-resume", true);
}
