//! Percentile, spread, normalisation and span arithmetic.

use pp_perfbench::stats::{median, normalise, quantile, reportable, samples_beyond, spread};
use pp_perfbench::trace::{covered_ns, gaps, Tracer};
use pp_perfbench::workloads::{Chunk, Measured};

#[test]
fn quantiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(median(&v), 3.0);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 5.0);
    assert_eq!(quantile(&v, 0.25), 2.0);
    assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    assert!(median(&[]).is_nan());
}

#[test]
fn spread_is_iqr_over_median() {
    let v: Vec<f64> = (1..=9).map(f64::from).collect();
    assert!((spread(&v) - 4.0 / 5.0).abs() < 1e-12);
    assert_eq!(spread(&[2.0; 7]), 0.0);
}

#[test]
fn ten_samples_beyond_p90_needs_a_hundred() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(20, 0.5), 10);
    assert_eq!(samples_beyond(0, 0.9), 0);
    assert!(reportable(100, 0.9));
    assert!(!reportable(99, 0.9));
    assert!(reportable(20, 0.5));
    assert!(!reportable(19, 0.5));
}

#[test]
fn normalisation_cancels_a_uniform_slowdown() {
    // A host running everything 1.7× slower inflates the chunk and the
    // kernel alike; the normalised time is unchanged.
    let (chunk, kernel, nominal) = (0.030, 2.0, 2.0);
    let fast = normalise(chunk, nominal / kernel);
    let slow = normalise(chunk * 1.7, nominal / (kernel * 1.7));
    assert!((fast - slow).abs() < 1e-15);
    assert_eq!(fast, 0.030);
}

#[test]
fn wall_and_rates_use_the_median_chunk() {
    let mut m = Measured::default();
    for norm_s in [1.0, 1.0, 1.0, 1.0, 9.0] {
        m.chunks.push(Chunk {
            raw_s: 2.0 * norm_s,
            norm_s,
            steps: 10,
        });
    }
    // One disturbed chunk does not move the estimate of the whole run.
    assert_eq!(m.wall_s(), 5.0);
    assert_eq!(m.raw_wall_s(), 26.0);
    assert_eq!(m.steps_per_s(), 10.0);
}

#[test]
fn union_of_child_spans_merges_overlaps() {
    let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
    assert_eq!(covered_ns(&mut v, 0, 25), 3 + 7 + 5);
}

#[test]
fn gaps_are_the_uncovered_parts() {
    let mut v = vec![(5, 10), (2, 3), (8, 12)];
    assert_eq!(gaps(&mut v, 0, 20), vec![(0, 2), (3, 5), (12, 20)]);
    assert_eq!(gaps(&mut [], 4, 9), vec![(4, 9)]);
    assert!(gaps(&mut [(0, 30)], 4, 9).is_empty());
}

#[test]
fn overlapping_requests_count_once() {
    let mut t = Tracer::new(true);
    t.set_workload("w");
    let a = t.open_detached("serve.job", 1);
    let b = t.open_detached("serve.job", 2);
    std::thread::sleep(std::time::Duration::from_millis(5));
    t.close(a, 0);
    t.close(b, 0);
    let serve = t.self_time_by_layer("w")["serve"];
    assert!((0.005..0.009).contains(&serve), "serve self time {serve}");
}

#[test]
fn off_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    let s = t.open("engine.run", 0);
    t.close(s, 10);
    t.value("x", 1.0);
    assert_eq!(t.span_count(), 0);
    assert!(t.values("", "x").is_empty());
}

#[test]
fn self_time_subtracts_children() {
    let mut t = Tracer::new(true);
    t.set_workload("w");
    let outer = t.open("perfbench.chunk", 0);
    let inner = t.open("engine.run", 0);
    std::thread::sleep(std::time::Duration::from_millis(5));
    t.close(inner, 1);
    t.close(outer, 0);
    let by_layer = t.self_time_by_layer("w");
    assert!(by_layer["engine"] >= 0.005);
    assert!(by_layer["perfbench"] < by_layer["engine"]);
    assert!(t.to_jsonl().lines().count() == 2);
}
