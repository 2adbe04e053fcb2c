//! `torus-sustain`: one long turbo trajectory on the 1000×1000 torus.
//!
//! Nearly all the time goes to the per-agent step loop (schedule draw,
//! partner sample, gather, transition, write-back) over a 1 MB `u8` state
//! array; the class counts are read every two rounds. Chunks pair with
//! the gather kernel.

use super::{weights, Ctx, Measured};
use crate::refk::Pairing;
use crate::stats;
use pp_bench::{build_graph_engine, EngineKind};
use pp_core::packed::config_stats_from_class_counts;
use pp_core::{init, Diversification, GoodSet};
use pp_engine::ShardedSimulator;
use pp_graph::Torus2d;

/// Torus side: `n = 10⁶`.
const SIDE: usize = 1000;
/// Steps per chunk: two rounds, then one observation.
const CHUNK_STEPS: u64 = 2 * (SIDE * SIDE) as u64;
/// Chunk plus gather kernel on the reference host, seconds.
const NOMINAL_CHUNK_S: f64 = 0.04;
/// Set-ups per run (the last one's engine runs the trajectory).
const SETUPS: u64 = 15;
/// `E(δ)` tolerance of the per-observation membership check.
const DELTA: f64 = 0.05;

pub fn run(ctx: &mut Ctx) -> Measured {
    let w = weights();
    let k = w.len();
    let n = SIDE * SIDE;
    let good = GoodSet::new(w.clone(), DELTA);
    let mut m = Measured::default();
    let mut engine = None;
    for i in 0..SETUPS {
        let seed = ctx.derive(1, i);
        drop(engine.take());
        let tr = &mut *ctx.tr;
        engine = Some(m.setup(ctx.refs, || {
            let s = tr.open("graph.build", i);
            let topology = Torus2d::new(SIDE, SIDE);
            tr.close(s, 1);
            let s = tr.open("core.init", i);
            let states = init::all_dark_balanced(n, &w);
            tr.close(s, n as u64);
            let s = tr.open("bench.build_engine", i);
            let e = build_graph_engine(EngineKind::Turbo, &w, topology, states, seed);
            tr.close(s, 1);
            e
        }));
    }
    let mut engine = engine.expect("at least one set-up");

    let chunks = ctx.chunk_count(NOMINAL_CHUNK_S, 100);
    let mut last = Vec::new();
    for c in 0..chunks as u64 {
        let tr = &mut *ctx.tr;
        let (counts, alive) = m.chunk(ctx.refs, Pairing::Gather, CHUNK_STEPS, || {
            let root = tr.open("perfbench.chunk", c);
            let s = tr.open("engine.run", c);
            engine.run(CHUNK_STEPS);
            tr.close(s, CHUNK_STEPS);
            let s = tr.open("engine.class_counts", c);
            let counts = engine.class_counts();
            tr.close(s, 1);
            let s = tr.open("core.check", c);
            let stats = config_stats_from_class_counts(&counts, k);
            let alive = stats.all_colours_alive();
            std::hint::black_box(good.contains(&stats));
            tr.close(s, 1);
            tr.close(root, CHUNK_STEPS);
            (counts, alive)
        });
        let total: u64 = counts.iter().sum();
        ctx.checks.check(total == n as u64, || {
            format!("torus-sustain chunk {c}: class counts sum to {total}, not {n}")
        });
        ctx.checks
            .check(alive, || format!("torus-sustain chunk {c}: a colour died"));
        last = counts;
    }
    let stats = config_stats_from_class_counts(&last, k);
    ctx.checks.check(stats.all_colours_alive(), || {
        "torus-sustain: a colour is extinct at the end".into()
    });
    m.peak_rss_mb = crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN);
    m
}

/// The tier ladder on the torus-sustain input: ns per step of every
/// per-agent tier, normalised by the gather kernel, median over
/// interleaved repetitions. Returns `(tier, ns_per_step)` pairs.
pub fn ladder(ctx: &mut Ctx) -> Vec<(&'static str, f64)> {
    const REPS: u64 = 5;
    const STEPS: u64 = 2 * (SIDE * SIDE) as u64;
    let w = weights();
    let n = SIDE * SIDE;
    let states = init::all_dark_balanced(n, &w);
    let tiers = ["turbo", "vec1", "packed", "sharded_p1", "sharded_p2"];
    let mut per_tier: Vec<Vec<f64>> = vec![Vec::new(); tiers.len()];
    for rep in 0..REPS {
        for (t, &tier) in tiers.iter().enumerate() {
            let seed = ctx.derive(2, rep * 8 + t as u64);
            let topology = Torus2d::new(SIDE, SIDE);
            let mut probe = Measured::default();
            match tier {
                "sharded_p1" | "sharded_p2" => {
                    let threads = if tier == "sharded_p1" { 1 } else { 2 };
                    let mut sim = ShardedSimulator::<_, _, u8>::new(
                        Diversification::new(w.clone()),
                        topology,
                        &states,
                        seed,
                    );
                    sim.run_with_threads(STEPS / 2, threads);
                    let tr = &mut *ctx.tr;
                    probe.chunk(ctx.refs, Pairing::Gather, STEPS, || {
                        let s = tr.open("engine.ladder", rep);
                        sim.run_with_threads(STEPS, threads);
                        tr.close(s, STEPS);
                    });
                }
                _ => {
                    let kind = match tier {
                        "turbo" => EngineKind::Turbo,
                        "vec1" => EngineKind::Vec,
                        _ => EngineKind::Packed,
                    };
                    let mut e = build_graph_engine(kind, &w, topology, states.clone(), seed);
                    e.run(STEPS / 2);
                    let tr = &mut *ctx.tr;
                    probe.chunk(ctx.refs, Pairing::Gather, STEPS, || {
                        let s = tr.open("engine.ladder", rep);
                        e.run(STEPS);
                        tr.close(s, STEPS);
                    });
                }
            }
            per_tier[t].push(probe.chunks[0].norm_s * 1e9 / STEPS as f64);
        }
    }
    tiers
        .iter()
        .zip(per_tier)
        .map(|(&t, v)| (t, stats::median(&v)))
        .collect()
}
