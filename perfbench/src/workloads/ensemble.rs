//! `ensemble-vec`: 64-seed ensembles on the 316×316 torus through
//! `replicate_vec` at 32 lanes — two lane groups, one per core.
//!
//! Each job runs a fresh ensemble from the balanced all-dark start for
//! one round. The lane-major gather and the shared pool do the work, so
//! chunks pair with the lane-major kernel run on both cores at once. One
//! seed of the first job is rerun at one lane and must match its 32-lane
//! result byte for byte.

use super::{weights, Ctx, Measured};
use crate::refk::Pairing;
use pp_core::packed::config_stats_from_packed;
use pp_core::{init, Diversification};
use pp_engine::replicate_vec;
use pp_graph::Torus2d;

/// Torus side: `n = 99 856`.
const SIDE: usize = 316;
/// Replicas per job: two groups of 32 lanes.
const SEEDS: usize = 64;
/// Steps per replica per job: one round.
const STEPS: u64 = (SIDE * SIDE) as u64;
/// One job plus its gather kernel on the reference host, seconds.
const NOMINAL_JOB_S: f64 = 0.042;
/// Set-ups per run.
const SETUPS: u64 = 21;

/// What a replica reports: its configuration, and its full state words
/// when it is the seed picked for the one-lane rerun.
type Extract = (pp_core::ConfigStats, Option<Vec<u32>>);

pub fn run(ctx: &mut Ctx) -> Measured {
    let w = weights();
    let k = w.len();
    let n = SIDE * SIDE;
    let protocol = Diversification::new(w.clone());
    let mut m = Measured::default();
    let mut input = None;
    for i in 0..SETUPS {
        let tr = &mut *ctx.tr;
        input = Some(m.setup(ctx.refs, || {
            let s = tr.open("graph.build", i);
            let topology = Torus2d::new(SIDE, SIDE);
            tr.close(s, 1);
            let s = tr.open("core.init", i);
            let states = init::all_dark_balanced(n, &w);
            tr.close(s, n as u64);
            (topology, states)
        }));
    }
    let (topology, states) = input.expect("at least one set-up");

    let jobs = ctx.chunk_count(NOMINAL_JOB_S, 100);
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    for j in 0..jobs as u64 {
        let master = ctx.derive(4, j);
        let seeds: Vec<u64> = (0..SEEDS as u64)
            .map(|l| ctx.derive(5, j * 64 + l))
            .collect();
        let keep = (j == 0).then_some(seeds[0]);
        let extract = |seed: u64, words: &[u32]| -> Extract {
            (
                config_stats_from_packed(words, k),
                (Some(seed) == keep).then(|| words.to_vec()),
            )
        };
        let tr = &mut *ctx.tr;
        let (out, job_wall_s, job_cpu_s) =
            m.chunk(ctx.refs, Pairing::Lanes2, STEPS * SEEDS as u64, || {
                let s = tr.open("engine.replicate_vec", j);
                let cpu0 = crate::sys::cpu_seconds();
                let t = std::time::Instant::now();
                let out = replicate_vec::<_, _, u8, 32, _>(
                    &protocol, &topology, &states, master, &seeds, STEPS, extract,
                );
                let wall = t.elapsed().as_secs_f64();
                let cpu = crate::sys::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
                tr.close(s, STEPS * SEEDS as u64);
                (out, wall, cpu)
            });
        wall_s += job_wall_s;
        cpu_s += job_cpu_s.unwrap_or(f64::NAN);
        ctx.checks.check(out.len() == SEEDS, || {
            format!(
                "ensemble-vec job {j}: {} results for {SEEDS} seeds",
                out.len()
            )
        });
        for (l, (stats, _)) in out.iter().enumerate() {
            ctx.checks.check(stats.population() == n, || {
                format!(
                    "ensemble-vec job {j} lane {l}: population {} != {n}",
                    stats.population()
                )
            });
            ctx.checks.check(stats.all_colours_alive(), || {
                format!("ensemble-vec job {j} lane {l}: a colour is extinct")
            });
        }
        if let Some(seed) = keep {
            let single = replicate_vec::<_, _, u8, 1, _>(
                &protocol,
                &topology,
                &states,
                master,
                &[seed],
                STEPS,
                |_, words| words.to_vec(),
            );
            let wide = out[0].1.as_deref();
            ctx.checks
                .check(wide == single.first().map(Vec::as_slice), || {
                    format!("ensemble-vec: seed {seed} at one lane differs from its 32-lane run")
                });
        }
    }
    ctx.tr.value("engine.replicate.cpu_s", cpu_s);
    ctx.tr.value("engine.replicate.wall_s", wall_s);
    m.peak_rss_mb = crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN);
    m
}
