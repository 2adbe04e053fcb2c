//! The four workloads and the measurement plumbing they share.
//!
//! Every workload does a fixed amount of work sized from `--seconds` (so
//! two runs of one seed do identical work whatever the host speed) as a
//! sequence of short chunks. Each chunk is timed and followed by the
//! reference kernel matching its bottleneck; the chunk's normalised time
//! is its raw time scaled by `nominal / measured` kernel time.

pub mod dense;
pub mod ensemble;
pub mod serve;
pub mod torus;

use crate::refk::{splitmix64, Pairing, RefTimer};
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Names of the workloads, in report order.
pub const WORKLOADS: [&str; 4] = [
    "torus-sustain",
    "dense-converge",
    "ensemble-vec",
    "serve-closed",
];

/// Everything a workload run needs.
pub struct Ctx<'a> {
    /// Workload seed: every engine seed and request is derived from it.
    pub seed: u64,
    /// Target length of the measured phase on the reference host.
    pub seconds: f64,
    /// Span recorder (off in untraced runs).
    pub tr: &'a mut Tracer,
    /// Reference-kernel timer.
    pub refs: &'a mut RefTimer,
    /// Output checks.
    pub checks: &'a mut Checks,
    /// Scratch directory inside the checkout (serve snapshots, envelopes).
    pub scratch: PathBuf,
}

impl Ctx<'_> {
    /// The `i`-th seed derived from the workload seed for `purpose`.
    pub fn derive(&self, purpose: u64, i: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
    }

    /// How many chunks of `nominal_s` (chunk plus its reference kernel,
    /// on the reference host) fill the measured phase; at least `min`.
    pub fn chunk_count(&self, nominal_s: f64, min: usize) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(min)
    }
}

/// Output checks: each is an attempted operation, each failure a failed
/// one. Failures are reported on stderr, never dropped.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks (and jobs) attempted.
    pub attempted: u64,
    /// Checks (and jobs) that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// One timed chunk.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Raw wall time in seconds.
    pub raw_s: f64,
    /// Normalised wall time in seconds at reference-kernel speed.
    pub norm_s: f64,
    /// Simulated steps the chunk executed (replica-steps on the ensemble).
    pub steps: u64,
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Normalised set-up times, one per set-up.
    pub setup_s: Vec<f64>,
    /// Timed chunks.
    pub chunks: Vec<Chunk>,
    /// Normalised job latencies (a chunk is a job except on serve).
    pub jobs: Vec<f64>,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Times `f`, then the reference kernel of `pairing`, and records the
    /// pair as one chunk (and one job) of `steps` steps.
    pub fn chunk<R>(
        &mut self,
        refs: &mut RefTimer,
        pairing: Pairing,
        steps: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let norm_s = stats::normalise(raw_s, refs.factor(pairing));
        self.chunks.push(Chunk {
            raw_s,
            norm_s,
            steps,
        });
        self.jobs.push(norm_s);
        out
    }

    /// Times one set-up `f`, paired with the gather kernel.
    pub fn setup<R>(&mut self, refs: &mut RefTimer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.setup_s
            .push(stats::normalise(raw_s, refs.setup_factor()));
        out
    }

    /// Normalised wall time of the measured phase, estimated as chunk
    /// count times the median normalised chunk time, so that a chunk the
    /// reference kernel failed to track cannot move it.
    pub fn wall_s(&self) -> f64 {
        let norm: Vec<f64> = self.chunks.iter().map(|c| c.norm_s).collect();
        self.chunks.len() as f64 * stats::median(&norm)
    }

    /// Raw wall time of the measured phase.
    pub fn raw_wall_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.raw_s).sum()
    }

    /// Simulated steps per normalised second of the measured phase.
    pub fn steps_per_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.steps).sum::<u64>() as f64 / self.wall_s()
    }
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &mut Ctx) -> Measured {
    match name {
        "torus-sustain" => torus::run(ctx),
        "dense-converge" => dense::run(ctx),
        "ensemble-vec" => ensemble::run(ctx),
        "serve-closed" => serve::run(ctx),
        other => unreachable!("workload `{other}` is validated at argument parsing"),
    }
}

/// The weights every workload uses: `(1, 1, 2, 4)`, total 8.
pub fn weights() -> pp_core::Weights {
    pp_bench::runner::standard_weights()
}
