//! The metrics the benchmark prints are exactly those `BENCHMARK.json`
//! declares, with the same units.

use pp_bench::schema::{parse, Value};
use pp_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use pp_perfbench::refk::RefTimer;
use pp_perfbench::trace::Tracer;
use pp_perfbench::workloads::{Chunk, Measured, WORKLOADS};
use std::collections::BTreeMap;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn printed(values: &[metrics::Value]) -> BTreeMap<String, String> {
    let map: BTreeMap<String, String> = values
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(map.len(), values.len(), "a metric is printed twice");
    map
}

fn synthetic() -> Measured {
    let mut m = Measured {
        setup_s: vec![0.5],
        peak_rss_mb: 12.0,
        ..Measured::default()
    };
    for i in 0..100 {
        let norm_s = 0.01 + i as f64 * 1e-4;
        m.chunks.push(Chunk {
            raw_s: norm_s,
            norm_s,
            steps: 1000,
        });
        m.jobs.push(norm_s);
    }
    m
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let doc = benchmark_json();
    assert_eq!(
        printed(&metrics::end_to_end(&synthetic())),
        declared(&doc, "end_to_end")
    );
    let catalogue: BTreeMap<String, String> = END_TO_END
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(catalogue, declared(&doc, "end_to_end"));
}

#[test]
fn traced_metrics_match_the_declaration() {
    let doc = benchmark_json();
    let m = synthetic();
    let run = metrics::TracedRun {
        tr: &Tracer::new(true),
        ladder: &[],
        refs: &RefTimer::default(),
        untraced: &m,
        traced: &m,
        own_spans: 0,
        workload: WORKLOADS[0],
    };
    let values = metrics::traced(&run);
    assert_eq!(printed(&values), declared(&doc, "per_layer"));
    let catalogue: BTreeMap<String, String> = PER_LAYER
        .iter()
        .map(|(n, u, _, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(catalogue, declared(&doc, "per_layer"));
}

#[test]
fn declared_directions_match_the_catalogue() {
    let doc = benchmark_json();
    let better = |key: &str| -> BTreeMap<String, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let b = m.get("better").and_then(Value::as_str).expect("better");
                (name.to_string(), b.to_string())
            })
            .collect()
    };
    for (n, _, b) in END_TO_END {
        assert_eq!(better("end_to_end")[n], b, "{n}");
    }
    for (n, _, b, _) in PER_LAYER {
        assert_eq!(better("per_layer")[n], b, "{n}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    // Every declared workload runs; `torus-sustain` runs too but is left
    // out of the declaration (see README.md).
    assert!(
        workloads.iter().all(|w| WORKLOADS.contains(w)),
        "{workloads:?}"
    );
    assert!(workloads.len() >= 2);
}

/// The binary's last line on a real (short) run names exactly the declared
/// end-to-end metrics.
#[test]
fn binary_prints_the_declared_metrics() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pp-perfbench"))
        .args([
            "--workload",
            "torus-sustain",
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    let Some(Value::Obj(metrics)) = last.get("metrics") else {
        panic!("metrics object")
    };
    let names: BTreeMap<String, String> = metrics
        .iter()
        .map(|(n, v)| {
            (
                n.clone(),
                v.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(names, declared(&benchmark_json(), "end_to_end"));
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pp-perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
