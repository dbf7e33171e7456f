//! Toy-size run of every workload, untraced and traced: the last line
//! of output names exactly the metrics `BENCHMARK.json` lists, each with
//! its unit, and every operation's answer matched the oracle.

use std::path::{Path, PathBuf};
use std::process::Command;

use gst_bench::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one toy-size workload from a scratch directory; returns its
/// result line and the directory.
fn run(workload: &str, trace: bool) -> (Json, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--scale",
            "smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (Json::parse(last).expect("result line is JSON"), dir)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (line, dir) = run(workload, trace);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {line:?}"
            );
            assert_eq!(line.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(line
                .get("attempted")
                .and_then(Json::as_num)
                .is_some_and(|n| n >= 1.0));
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("{workload}: no metrics object in {line:?}");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m
                        .get("value")
                        .and_then(Json::as_num)
                        .is_some_and(f64::is_finite));
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, listed(&bench, key), "{workload} trace={trace}");
            if !trace {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_num).unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} reads {v}");
                }
            }
            if trace {
                let file = dir.join(format!("perfbench/out/trace-{workload}-3.json"));
                let text = std::fs::read_to_string(&file).expect("span file written");
                let doc = Json::parse(&text).expect("span file parses");
                let spans = doc
                    .get("trace")
                    .and_then(|t| t.get("spans"))
                    .and_then(Json::as_arr);
                assert!(spans.is_some_and(|s| !s.is_empty()), "{workload}: no spans");
            }
        }
    }
}

#[test]
fn point_queries_ship_nothing() {
    let (line, _) = run("point-queries", true);
    let bytes = line
        .get("metrics")
        .and_then(|m| m.get("runtime.bytes_shipped"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num);
    assert_eq!(bytes, Some(0.0));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "tc-bulk", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
