//! `dense-converge`: the complete graph at `n = 10⁸` on the dense tier,
//! from the single-minority start, through the full Theorem 1.3 budget.
//!
//! Each repetition builds a fresh engine the way `convergence_time_with`
//! and `pp-serve` do (materialise `10⁸` agent states, then
//! `build_engine(EngineKind::Dense, …)`), then runs the budget in observed
//! slices. τ-leap cost dominates the slices, which pair with the ALU
//! kernel; the build dominates set-up time and peak memory.

use super::{weights, Ctx, Measured};
use crate::refk::Pairing;
use pp_bench::{build_engine, EngineKind};
use pp_core::packed::config_stats_from_class_counts;
use pp_core::{init, theory, Diversification, GoodSet};
use pp_dense::DenseEngine;
use pp_engine::Engine;
use std::time::Instant;

/// Population size.
const N: usize = 100_000_000;
/// Observed slices per budget.
const SLICES: u64 = 100;
/// `E(δ)` tolerance the run must end inside.
const DELTA: f64 = 0.05;
/// One repetition (set-up, budget, kernels) on the reference host, s.
const NOMINAL_REP_S: f64 = 1.5;

pub fn run(ctx: &mut Ctx) -> Measured {
    let w = weights();
    let k = w.len();
    let good = GoodSet::new(w.clone(), DELTA);
    let budget = theory::convergence_budget(N, w.total(), 4.0);
    let slice = budget.div_ceil(SLICES);
    let reps = ctx.chunk_count(NOMINAL_REP_S, 1);
    let mut m = Measured::default();
    for rep in 0..reps as u64 {
        let seed = ctx.derive(3, rep);
        let tr = &mut *ctx.tr;
        let mut engine = m.setup(ctx.refs, || {
            let s = tr.open("core.init", rep);
            let states = init::all_dark_single_minority(N, &w);
            tr.close(s, N as u64);
            let s = tr.open("bench.build_engine", rep);
            let e = build_engine(EngineKind::Dense, &w, states, seed);
            tr.close(s, 1);
            e
        });
        let start = ctx.tr.is_on().then(|| engine.save_snapshot());

        let mut entered = None;
        let mut done = 0u64;
        let mut last = Vec::new();
        while done < budget {
            let steps = slice.min(budget - done);
            let tr = &mut *ctx.tr;
            let (counts, inside) = m.chunk(ctx.refs, Pairing::Alu, steps, || {
                let root = tr.open("perfbench.chunk", rep);
                let s = tr.open("dense.run", rep);
                engine.run(steps);
                tr.close(s, steps);
                let s = tr.open("dense.class_counts", rep);
                let counts = engine.class_counts();
                tr.close(s, 1);
                let s = tr.open("core.check", rep);
                let inside = good.contains(&config_stats_from_class_counts(&counts, k));
                tr.close(s, 1);
                tr.close(root, steps);
                (counts, inside)
            });
            done += steps;
            let total: u64 = counts.iter().sum();
            ctx.checks.check(total == N as u64, || {
                format!("dense-converge rep {rep}: class counts sum to {total}, not {N}")
            });
            if inside && entered.is_none() {
                entered = Some(done);
            }
            last = counts;
        }
        let stats = config_stats_from_class_counts(&last, k);
        ctx.checks
            .check(entered.is_some() && good.contains(&stats), || {
                format!("dense-converge rep {rep}: not inside E({DELTA}) at the end of the budget")
            });
        ctx.checks.check(stats.all_colours_alive(), || {
            format!("dense-converge rep {rep}: a colour is extinct")
        });
        if let Some(steps) = entered {
            ctx.tr.value("dense.steps_to_good", steps as f64);
        }
        drop(engine);
        if let Some(start) = start.filter(|_| rep == 0) {
            replay_typed(ctx, &start, budget, slice, &last);
        }
    }
    m.peak_rss_mb = crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN);
    m
}

/// Replays the first repetition's trajectory on a typed dense engine (the
/// one `build_engine` boxes) restored from its starting snapshot, so the
/// leap and exact-event counters can be read; it must end on the same
/// class counts (`expected`). Traced runs only.
fn replay_typed(
    ctx: &mut Ctx,
    start: &pp_engine::EngineSnapshot,
    budget: u64,
    slice: u64,
    expected: &[u64],
) {
    let w = weights();
    let mut e =
        DenseEngine::all_dark_balanced(Diversification::new(w.clone()), N as u64, w.len(), 0);
    if let Err(err) = e.restore_snapshot(start) {
        ctx.checks
            .check(false, || format!("dense replay: snapshot rejected: {err}"));
        return;
    }
    let (leaps0, exact0) = (e.simulator().leap_batches(), e.simulator().exact_events());
    let s = ctx.tr.open("dense.replay", 0);
    let t = Instant::now();
    let mut done = 0;
    while done < budget {
        let steps = slice.min(budget - done);
        e.run(steps);
        done += steps;
    }
    let raw_s = t.elapsed().as_secs_f64();
    ctx.tr.close(s, budget);
    let factor = ctx.refs.factor(Pairing::Alu);
    let leaps = e.simulator().leap_batches() - leaps0;
    let exact = e.simulator().exact_events() - exact0;
    ctx.tr.value(
        "dense.ns_per_leap",
        raw_s * factor * 1e9 / leaps.max(1) as f64,
    );
    ctx.tr.value(
        "dense.leaps_per_round",
        leaps as f64 / (budget as f64 / N as f64),
    );
    ctx.tr.value("dense.exact_events", exact as f64);
    ctx.checks.check(e.class_counts() == expected, || {
        "dense replay: the typed engine left the boxed engine's trajectory".into()
    });
}
