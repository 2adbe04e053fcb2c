//! `pp-perfbench`: the repository's end-to-end benchmark, as a library
//! so its arithmetic, kernels and catalogue can be tested. The binary
//! (`src/main.rs`) parses the command line and prints what [`run`]
//! returns; see `perfbench/README.md` for the workloads and metrics.

pub mod metrics;
pub mod refk;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use metrics::Value;
use std::path::PathBuf;
use trace::Tracer;
use workloads::{Checks, Ctx, Measured, WORKLOADS};

/// Length of each probe run of a non-home workload in a traced run, s.
const PROBE_SECONDS: f64 = 2.0;

/// Calibration timings of both kernels after each measured phase.
const CALIBRATIONS: usize = 11;

/// Scratch directory, relative to the working directory (the checkout).
const SCRATCH: &str = ".bench_run";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase on the reference host.
    pub seconds: f64,
    /// Whether to run the traced mode.
    pub trace: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload `{value}`; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn measure(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Measured, refk::RefTimer) {
    let mut refs = refk::RefTimer::default();
    tr.set_workload(workload);
    let scratch = PathBuf::from(SCRATCH).join(format!("{workload}-{}", std::process::id()));
    let mut ctx = Ctx {
        seed,
        seconds,
        tr,
        refs: &mut refs,
        checks,
        scratch: scratch.clone(),
    };
    let m = workloads::run(workload, &mut ctx);
    refs.calibrate(CALIBRATIONS);
    let _ = std::fs::remove_dir_all(&scratch);
    let jobs = m.jobs.len();
    checks.check(stats::reportable(jobs, 0.9), || {
        format!(
            "{workload}: {jobs} jobs leave fewer than {} samples beyond p90",
            stats::MIN_BEYOND
        )
    });
    (m, refs)
}

fn report_host(workload: &str, refs: &refk::RefTimer, m: &Measured) {
    let spread = metrics::host_spread(refs);
    eprintln!(
        "{workload}: {} chunks, {} jobs (latency samples), raw wall {:.3} s, normalised wall {:.3} s, ref alu {:.3} ms, ref gather {:.3} ms, paired-kernel spread {:.3}{}",
        m.chunks.len(),
        m.jobs.len(),
        m.raw_wall_s(),
        m.wall_s(),
        stats::median(&refs.calibration_ms.iter().map(|c| c.0).collect::<Vec<_>>()),
        stats::median(&refs.calibration_ms.iter().map(|c| c.1).collect::<Vec<_>>()),
        spread,
        if spread > stats::CONTENDED_SPREAD { " (host contended)" } else { "" },
    );
}

/// Runs the workload `args` names and returns the metrics to print and
/// the checks made: the end-to-end metrics of an untraced run, or with
/// `args.trace` the per-layer metrics of the traced mode (untraced pass,
/// traced pass, probes of the other workloads, tier ladder).
pub fn run(args: &Args) -> (Vec<Value>, Checks) {
    let mut checks = Checks::default();
    let mut untraced = Tracer::new(false);
    let (m, refs) = measure(
        args.workload,
        args.seed,
        args.seconds,
        &mut untraced,
        &mut checks,
    );
    report_host(args.workload, &refs, &m);
    if !args.trace {
        return (metrics::end_to_end(&m), checks);
    }
    let mut tr = Tracer::new(true);
    let (traced, traced_refs) =
        measure(args.workload, args.seed, args.seconds, &mut tr, &mut checks);
    report_host(args.workload, &traced_refs, &traced);
    let own_spans = tr.span_count();
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        measure(other, args.seed, PROBE_SECONDS, &mut tr, &mut checks);
    }
    tr.set_workload("ladder");
    let mut ladder_refs = refk::RefTimer::default();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: PROBE_SECONDS,
        tr: &mut tr,
        refs: &mut ladder_refs,
        checks: &mut checks,
        scratch: PathBuf::from(SCRATCH),
    };
    let ladder = workloads::torus::ladder(&mut ctx);
    for (tier, ns) in &ladder {
        eprintln!("ladder: {tier} {ns:.3} ns/step");
    }
    let path = PathBuf::from(SCRATCH).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(SCRATCH).and_then(|_| std::fs::write(&path, tr.to_jsonl()));
    checks.check(written.is_ok(), || {
        format!("could not write {}", path.display())
    });
    let run = metrics::TracedRun {
        tr: &tr,
        ladder: &ladder,
        refs: &refs,
        untraced: &m,
        traced: &traced,
        own_spans,
        workload: args.workload,
    };
    (metrics::traced(&run), checks)
}
