//! The metric catalogue (mirrored by `BENCHMARK.json`) and the arithmetic
//! that turns a measured phase and a trace into metric values.

use crate::refk::RefTimer;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Checks, Measured};

/// An end-to-end metric: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_latency_p50_s", "s", "lower"),
    ("job_latency_p90_s", "s", "lower"),
];

/// A per-layer metric: `(name, unit, better, home)`. The home is the
/// workload whose spans and values it is computed from: in that
/// workload's traced run its own traced pass, in any other traced run a
/// short probe run of the home workload. `own` marks metrics of the
/// traced workload itself.
pub const PER_LAYER: [(&str, &str, &str, &str); 44] = [
    ("graph.build_s", "s", "lower", "torus-sustain"),
    ("core.init_s", "s", "lower", "dense-converge"),
    ("core.check_s", "s", "lower", "dense-converge"),
    ("core.checks", "count", "lower", "dense-converge"),
    ("bench.build_engine_s", "s", "lower", "dense-converge"),
    ("bench.envelope_s", "s", "lower", "serve-closed"),
    ("bench.envelope_bytes", "bytes", "lower", "serve-closed"),
    ("engine.turbo.ns_per_step", "ns", "lower", "torus-sustain"),
    ("engine.vec1.ns_per_step", "ns", "lower", "torus-sustain"),
    ("engine.packed.ns_per_step", "ns", "lower", "torus-sustain"),
    (
        "engine.sharded_p1.ns_per_step",
        "ns",
        "lower",
        "torus-sustain",
    ),
    (
        "engine.sharded_p2.ns_per_step",
        "ns",
        "lower",
        "torus-sustain",
    ),
    (
        "engine.sharded.scaling_p2_p1",
        "p1_ns/p2_ns",
        "higher",
        "torus-sustain",
    ),
    (
        "engine.vec32.ns_per_replica_step",
        "ns",
        "lower",
        "ensemble-vec",
    ),
    (
        "engine.replicate.cpu_per_wall",
        "cpu_s/wall_s",
        "higher",
        "ensemble-vec",
    ),
    ("engine.class_counts_us", "us", "lower", "torus-sustain"),
    (
        "engine.class_counts_calls",
        "count",
        "lower",
        "torus-sustain",
    ),
    ("engine.snapshot_save_us", "us", "lower", "serve-closed"),
    ("engine.snapshot_restore_us", "us", "lower", "serve-closed"),
    ("dense.ns_per_leap", "ns", "lower", "dense-converge"),
    (
        "dense.leaps_per_round",
        "leaps/round",
        "lower",
        "dense-converge",
    ),
    ("dense.exact_events", "count", "lower", "dense-converge"),
    ("dense.steps_to_good", "steps", "lower", "dense-converge"),
    ("serve.parse_us", "us", "lower", "serve-closed"),
    ("serve.render_us", "us", "lower", "serve-closed"),
    (
        "serve.slices_per_job",
        "slices/job",
        "lower",
        "serve-closed",
    ),
    ("serve.service_s_p50", "s", "lower", "serve-closed"),
    ("serve.queue_wait_p90_s", "s", "lower", "serve-closed"),
    ("serve.snapshot_file_us", "us", "lower", "serve-closed"),
    ("serve.snapshot_bytes", "bytes", "lower", "serve-closed"),
    ("host.ref_alu_ms", "ms", "lower", "own"),
    ("host.ref_gather_ms", "ms", "lower", "own"),
    ("host.ref_spread", "iqr/median", "lower", "own"),
    ("host.raw_wall_s", "s", "lower", "own"),
    ("trace.self_s.graph", "s", "lower", "own"),
    ("trace.self_s.core", "s", "lower", "own"),
    ("trace.self_s.bench", "s", "lower", "own"),
    ("trace.self_s.engine", "s", "lower", "own"),
    ("trace.self_s.dense", "s", "lower", "own"),
    ("trace.self_s.serve", "s", "lower", "own"),
    ("trace.self_s.perfbench", "s", "lower", "own"),
    ("trace.overhead_s", "s", "lower", "own"),
    ("trace.overhead_share", "traced/untraced", "lower", "own"),
    ("trace.spans", "count", "lower", "own"),
];

/// A metric value ready to print: `(name, value, unit)`.
pub type Value = (&'static str, f64, &'static str);

/// The end-to-end metrics of one measured phase.
pub fn end_to_end(m: &Measured) -> Vec<Value> {
    let wall = m.wall_s();
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let v = match name {
                "setup_s" => stats::median(&m.setup_s),
                "wall_s" => wall,
                "steps_per_s" => m.steps_per_s(),
                "peak_rss_mb" => m.peak_rss_mb,
                "jobs_per_s" => m.jobs.len() as f64 / wall,
                "job_latency_p50_s" => stats::quantile(&m.jobs, 0.5),
                "job_latency_p90_s" => stats::quantile(&m.jobs, 0.9),
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            (name, v, unit)
        })
        .collect()
}

/// Spread of the chunk-paired kernel timings: the largest of the
/// kernels' (a kernel the workload never pairs with counts as steady).
pub fn host_spread(refs: &RefTimer) -> f64 {
    let s = |v: &[f64]| if v.len() < 4 { 0.0 } else { stats::spread(v) };
    s(&refs.alu_ms)
        .max(s(&refs.gather_ms))
        .max(s(&refs.lanes_ms))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// What the traced mode measured, for [`traced`].
pub struct TracedRun<'a> {
    /// Spans and values of the traced pass, the probes and the ladder.
    pub tr: &'a Tracer,
    /// The tier ladder's `(tier, ns_per_step)` rows.
    pub ladder: &'a [(&'static str, f64)],
    /// Reference kernels of the untraced pass.
    pub refs: &'a RefTimer,
    /// The untraced pass.
    pub untraced: &'a Measured,
    /// The traced pass.
    pub traced: &'a Measured,
    /// Spans the traced pass recorded (before the probes).
    pub own_spans: usize,
    /// The traced workload.
    pub workload: &'static str,
}

/// Every per-layer metric of a traced run, in catalogue order.
pub fn traced(run: &TracedRun) -> Vec<Value> {
    let tr = run.tr;
    let spans =
        |home: &str, name: &str| -> Vec<f64> { tr.spans(home, name).map(|s| s.secs()).collect() };
    let tier = |name: &str| {
        run.ladder
            .iter()
            .find(|(t, _)| *t == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let calibration = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        run.refs.calibration_ms.iter().map(pick).collect()
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _, home)| {
            let vals = |key: &str| tr.values(home, key);
            let v = match name {
                "graph.build_s" => mean(&spans(home, "graph.build")),
                "core.init_s" => mean(&spans(home, "core.init")),
                "core.check_s" => spans(home, "core.check").iter().sum(),
                "core.checks" => spans(home, "core.check").len() as f64,
                "bench.build_engine_s" => mean(&spans(home, "bench.build_engine")),
                "bench.envelope_s" => mean(&spans(home, "bench.envelope")),
                "bench.envelope_bytes" => mean(vals("bench.envelope_bytes")),
                "engine.turbo.ns_per_step" => tier("turbo"),
                "engine.vec1.ns_per_step" => tier("vec1"),
                "engine.packed.ns_per_step" => tier("packed"),
                "engine.sharded_p1.ns_per_step" => tier("sharded_p1"),
                "engine.sharded_p2.ns_per_step" => tier("sharded_p2"),
                "engine.sharded.scaling_p2_p1" => tier("sharded_p1") / tier("sharded_p2"),
                "engine.vec32.ns_per_replica_step" => {
                    let work: u64 = tr.spans(home, "engine.replicate_vec").map(|s| s.work).sum();
                    spans(home, "engine.replicate_vec").iter().sum::<f64>() * 1e9 / work as f64
                }
                "engine.replicate.cpu_per_wall" => {
                    vals("engine.replicate.cpu_s").iter().sum::<f64>()
                        / vals("engine.replicate.wall_s").iter().sum::<f64>()
                }
                "engine.class_counts_us" => mean(&spans(home, "engine.class_counts")) * 1e6,
                "engine.class_counts_calls" => spans(home, "engine.class_counts").len() as f64,
                "engine.snapshot_save_us" => mean(&spans(home, "engine.snapshot_save")) * 1e6,
                "engine.snapshot_restore_us" => mean(&spans(home, "engine.snapshot_restore")) * 1e6,
                "dense.ns_per_leap" | "dense.leaps_per_round" | "dense.exact_events" => {
                    mean(vals(name))
                }
                "dense.steps_to_good" => stats::median(vals(name)),
                "serve.parse_us" => mean(&spans(home, "serve.parse")) * 1e6,
                "serve.render_us" => mean(&spans(home, "serve.render")) * 1e6,
                "serve.slices_per_job" => mean(vals("serve.slices")),
                "serve.service_s_p50" => stats::median(vals("serve.service_s")),
                "serve.queue_wait_p90_s" => stats::quantile(vals("serve.queue_wait_s"), 0.9),
                "serve.snapshot_file_us" => mean(&spans(home, "serve.snapshot_file")) * 1e6,
                "serve.snapshot_bytes" => mean(vals("serve.snapshot_bytes")),
                "host.ref_alu_ms" => stats::median(&calibration(|c| c.0)),
                "host.ref_gather_ms" => stats::median(&calibration(|c| c.1)),
                "host.ref_spread" => host_spread(run.refs),
                "host.raw_wall_s" => run.untraced.raw_wall_s(),
                "trace.overhead_s" => run.traced.wall_s() - run.untraced.wall_s(),
                "trace.overhead_share" => run.traced.wall_s() / run.untraced.wall_s(),
                "trace.spans" => run.own_spans as f64,
                _ => match name.strip_prefix("trace.self_s.") {
                    Some(layer) => self_time(tr, run.workload, layer),
                    None => unreachable!("per-layer metric `{name}` has no definition"),
                },
            };
            (name, v, unit)
        })
        .collect()
}

/// Self time of `layer` in `workload`'s traced pass; a layer the workload
/// never entered takes its self time from the probe runs.
fn self_time(tr: &Tracer, workload: &str, layer: &str) -> f64 {
    let of = |w: &str| tr.self_time_by_layer(w).get(layer).copied();
    of(workload).unwrap_or_else(|| {
        crate::workloads::WORKLOADS
            .iter()
            .filter(|w| **w != workload)
            .filter_map(|w| of(w))
            .sum()
    })
}

/// Everything printed to standard output: one `name value unit` line per
/// metric, then the result line. A metric that could not be measured
/// (not finite) is a failed check.
pub fn finish(checks: &mut Checks, metrics: &[Value]) -> String {
    let mut out = String::new();
    for (name, value, unit) in metrics {
        checks.check(value.is_finite(), || {
            format!("metric {name} could not be measured")
        });
        out.push_str(&format!("{name:<36} {value:>18.6} {unit}\n"));
    }
    out.push_str(&result_line(
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics,
    ));
    out.push('\n');
    out
}

/// Renders the contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number with all its digits; non-finite values (a metric
/// that could not be measured) print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
