//! Snapshot round-trip gate for the versioned snapshot surface
//! (`Engine::save_snapshot` / `restore_snapshot`): on **every** tier, a
//! run interrupted by save → fresh engine → restore must produce
//! bit-exact final states vs the same run without the interruption —
//! the contract `pp serve` leans on to move jobs across process
//! restarts. Also the fail-closed side: a tampered snapshot is
//! rejected with the engine left untouched, never silently resumed.
//!
//! The baseline deliberately replays the *same run-call slicing* as the
//! interrupted run (`run(c); run(T − c)`): the sequential, turbo, vec,
//! and sharded tiers are slicing-invariant, but the dense tier's τ-leap
//! batch sizing keys off each `run` call's remaining budget, so equal
//! slicing is what isolates the save/restore boundary as the only
//! difference under test.

use pp_core::{init, AgentState, Diversification, Weights};
use pp_dense::DenseEngine;
use pp_engine::{
    Engine, PackedSimulator, ShardedSimulator, Simulator, SnapshotError, TurboSimulator,
    VecSimulator,
};
use pp_graph::{Complete, Cycle, Torus2d};

type DynEngine = Box<dyn Engine<State = AgentState>>;

const K: usize = 3;

fn weights() -> Weights {
    Weights::new(vec![1.0, 1.0, 2.0]).unwrap()
}

type TierBuilder = Box<dyn Fn() -> DynEngine>;

/// A constructor per tier, callable repeatedly to simulate "a fresh
/// process rebuilds the engine from the job spec, then restores".
/// Mixed topologies on purpose: snapshots must work off the complete
/// graph too (cycle for packed, torus for turbo).
fn tier_builders(n: usize, seed: u64) -> Vec<(&'static str, TierBuilder)> {
    let w = weights();
    let states = init::all_dark_single_minority(n, &w);
    let rows = 4;
    let cols = n / rows;
    assert_eq!(rows * cols, n, "pick n divisible by {rows} for the torus");
    let mk = move |f: Box<dyn Fn(Diversification, Vec<AgentState>, u64) -> DynEngine>| {
        let w = w.clone();
        let states = states.clone();
        Box::new(move || f(Diversification::new(w.clone()), states.clone(), seed))
            as Box<dyn Fn() -> DynEngine>
    };
    vec![
        (
            "agent",
            mk(Box::new(move |p, s, seed| {
                Box::new(Simulator::new(p, Complete::new(s.len()), s, seed))
            })),
        ),
        (
            "packed",
            mk(Box::new(move |p, s, seed| {
                Box::new(PackedSimulator::new(p, Cycle::new(s.len()), &s, seed))
            })),
        ),
        (
            "turbo",
            mk(Box::new(move |p, s, seed| {
                Box::new(TurboSimulator::<_, _, u8>::new(
                    p,
                    Torus2d::new(rows, s.len() / rows),
                    &s,
                    seed,
                ))
            })),
        ),
        (
            "sharded",
            mk(Box::new(move |p, s, seed| {
                Box::new(
                    ShardedSimulator::<_, _, u32>::new(p, Complete::new(s.len()), &s, seed)
                        .with_layout(2, 64),
                )
            })),
        ),
        (
            "vec",
            mk(Box::new(move |p, s, seed| {
                Box::new(VecSimulator::<_, _, u8, 4>::from_seed(
                    p,
                    Cycle::new(s.len()),
                    &s,
                    seed,
                ))
            })),
        ),
        (
            "dense",
            mk(Box::new(move |p, s, seed| {
                Box::new(DenseEngine::from_states(p, &s, K, seed))
            })),
        ),
    ]
}

/// Full decoded population — the bit-exactness currency (class counts
/// would already follow from it).
fn fingerprint(e: &DynEngine) -> (u64, Vec<AgentState>, Vec<u64>) {
    (e.step_count(), e.snapshot(), e.class_counts())
}

#[test]
fn save_restore_is_invisible_on_every_tier() {
    let n = 48;
    let total = 4_000u64;
    for seed in [1u64, 7, 23] {
        for (name, build) in tier_builders(n, seed) {
            // Interrupted run: save mid-run (at a clock the tier picks —
            // sharded drains to its block boundary), restore into a
            // freshly built engine, finish.
            let mut first = build();
            first.run(total / 3);
            let snap = first.save_snapshot();
            let c = snap.clock;
            assert!(c >= total / 3, "{name}: clock went backwards");
            let mut resumed = build();
            resumed
                .restore_snapshot(&snap)
                .unwrap_or_else(|e| panic!("{name}: restore rejected a genuine snapshot: {e}"));
            assert_eq!(resumed.step_count(), c, "{name}: clock not restored");
            resumed.run(total - c);

            // Uninterrupted twin with the same run-call slicing.
            let mut baseline = build();
            baseline.run(c);
            baseline.run(total - c);

            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&baseline),
                "{name} seed {seed}: save/restore perturbed the trajectory"
            );
        }
    }
}

#[test]
fn double_resume_from_one_snapshot_is_deterministic() {
    // A snapshot is a value: restoring it twice must yield identical
    // continuations (the serve layer may retry a resume after a crash).
    for (name, build) in tier_builders(48, 11) {
        let mut e = build();
        e.run(500);
        let snap = e.save_snapshot();
        let run_tail = || {
            let mut r = build();
            r.restore_snapshot(&snap).unwrap();
            r.run(700);
            fingerprint(&r)
        };
        assert_eq!(run_tail(), run_tail(), "{name}: resume not a pure function");
    }
}

#[test]
fn tampered_snapshots_are_rejected_not_resumed() {
    for (name, build) in tier_builders(48, 3) {
        let mut e = build();
        e.run(256);
        let snap = e.save_snapshot();
        let mut target = build();
        let before = fingerprint(&target);

        // Wrong tier tag.
        let mut wrong = snap.clone();
        wrong.engine = if name == "turbo" { "agent" } else { "turbo" }.into();
        assert!(
            matches!(
                target.restore_snapshot(&wrong),
                Err(SnapshotError::EngineMismatch { .. })
            ),
            "{name}: foreign tier tag accepted"
        );

        // Wrong protocol.
        let mut wrong = snap.clone();
        wrong.protocol = "voter".into();
        assert!(
            matches!(
                target.restore_snapshot(&wrong),
                Err(SnapshotError::ProtocolMismatch { .. })
            ),
            "{name}: foreign protocol accepted"
        );

        // Truncated aux payload (dense always has aux; for the turbo
        // tier — whose aux is legitimately empty — grow it instead).
        let mut wrong = snap.clone();
        if wrong.aux.is_empty() {
            wrong.aux.push(0);
        } else {
            wrong.aux.pop();
        }
        assert!(
            matches!(
                target.restore_snapshot(&wrong),
                Err(SnapshotError::BadPayload(_))
            ),
            "{name}: corrupted aux accepted"
        );

        // Header population size out of sync with the engine.
        let mut wrong = snap.clone();
        wrong.n += 1;
        assert!(
            matches!(
                target.restore_snapshot(&wrong),
                Err(SnapshotError::SizeMismatch { .. })
            ),
            "{name}: population mismatch accepted"
        );

        // A states array one word short (the dense tier carries none).
        if name != "dense" {
            let mut wrong = snap.clone();
            wrong.states.pop();
            assert!(
                matches!(
                    target.restore_snapshot(&wrong),
                    Err(SnapshotError::BadPayload(_))
                ),
                "{name}: short states array accepted"
            );
        }

        // A state word past the storage width of the u8-storage tiers.
        if matches!(name, "turbo" | "vec") {
            let mut wrong = snap.clone();
            wrong.states[0] = 256;
            assert!(
                matches!(
                    target.restore_snapshot(&wrong),
                    Err(SnapshotError::BadPayload(_))
                ),
                "{name}: state word overflowing u8 storage accepted"
            );
        }

        // Every rejection left the engine untouched.
        assert_eq!(
            fingerprint(&target),
            before,
            "{name}: a rejected restore mutated the engine"
        );
    }
}

#[test]
fn sharded_snapshot_sits_on_the_block_grid_and_rejects_off_grid_clocks() {
    let w = weights();
    let states = init::all_dark_balanced(64, &w);
    let mut e = ShardedSimulator::<_, _, u32>::new(
        Diversification::new(w.clone()),
        Complete::new(64),
        &states,
        9,
    )
    .with_layout(2, 64);
    e.run(100); // mid-block
    let snap = Engine::save_snapshot(&mut e);
    assert_eq!(snap.clock, 128, "drain must land on the next boundary");
    assert_eq!(
        snap.aux,
        vec![2, 64, pp_engine::ReadMode::Snapshot.aux_word()],
        "layout and read mode must ride in aux"
    );

    let mut off = snap.clone();
    off.clock += 1;
    assert!(
        matches!(
            Engine::restore_snapshot(&mut e, &off),
            Err(SnapshotError::BadPayload(_))
        ),
        "an off-grid clock is the signature of a corrupt sharded snapshot"
    );
}

#[test]
fn vec_snapshot_restores_every_lane() {
    // The Engine surface observes lane 0 only; the snapshot must still
    // carry lanes 1..L or the resumed ensemble would silently fork.
    let w = weights();
    let states = init::all_dark_balanced(32, &w);
    let build = || {
        VecSimulator::<_, _, u8, 4>::from_seed(
            Diversification::new(w.clone()),
            Cycle::new(32),
            &states,
            5,
        )
    };
    let mut first = build();
    VecSimulator::run(&mut first, 400);
    let snap = Engine::save_snapshot(&mut first);
    assert_eq!(snap.states.len(), 32 * 4, "all lanes must be captured");
    let mut resumed = build();
    Engine::restore_snapshot(&mut resumed, &snap).unwrap();
    VecSimulator::run(&mut resumed, 300);
    VecSimulator::run(&mut first, 300);
    for lane in 0..4 {
        assert_eq!(
            resumed.lane_states_packed(lane),
            first.lane_states_packed(lane),
            "lane {lane} diverged after resume"
        );
    }
}
