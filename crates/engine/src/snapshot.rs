//! The versioned engine snapshot surface.
//!
//! A [`EngineSnapshot`] captures everything a tier needs to continue a
//! run bit-exactly in another process: the packed population, the clock
//! (step count), the construction seed, and a small tier-private `aux`
//! word vector (documented per tier below). Together with the
//! deterministic trajectory contract — every tier is a pure function of
//! `(protocol, topology, initial states, seed)` plus its private
//! generator state — a save/restore boundary is invisible to the
//! simulation: `run(a); save; restore; run(b)` produces the same states
//! as `run(a); run(b)` on every tier (verified by
//! `tests/engine_snapshot.rs`).
//!
//! The struct is deliberately *not* a serialization format: it is the
//! in-memory exchange currency between an engine and whatever persists
//! it. The `pp-serve` crate defines the `pp-snapshot-v1` JSON document
//! (schema-checked, checksummed, unknown fields rejected) on top of it.
//!
//! # Per-tier `aux` layout
//!
//! | tier | `states` | `aux` |
//! |------|----------|-------|
//! | `agent` | packed words, agent order | xoshiro256++ state `[s0, s1, s2, s3]` |
//! | `packed` | packed words, agent order | xoshiro256++ state `[s0, s1, s2, s3]` |
//! | `turbo` | packed words, agent order | empty (stream fully keyed by `(seed, clock)`) |
//! | `sharded` | packed words, agent order | `[shards, block, read_mode]` (layout is part of the trajectory) |
//! | `vec` | lane-major words, `n·L` entries | `[L, lane_seed_0, …, lane_seed_{L−1}]` |
//! | `dense` | empty | `[classes, count_0, …, count_{classes−1}, s0, s1, s2, s3, epsilon_bits]` |
//!
//! The sharded tier's [`save_snapshot`](crate::Engine::save_snapshot)
//! first **drains to the next block boundary** (runs up to `block − 1`
//! extra steps): between boundaries shards hold deferred cross-shard
//! interactions that only the boundary merge resolves, so the boundary is
//! the tier's quiescent point. The returned snapshot's `clock` reflects
//! the drain; a snapshot whose `clock` is not a block multiple is
//! rejected on restore as corrupt.

use std::fmt;

/// A point-in-time capture of one engine's complete simulation state.
///
/// Produced by [`Engine::save_snapshot`](crate::Engine::save_snapshot),
/// consumed by [`Engine::restore_snapshot`](crate::Engine::restore_snapshot).
/// The identity fields (`engine`, `protocol`, `topology`, `n`) make a
/// snapshot self-describing: restore validates all four against the
/// receiving engine and fails closed on any mismatch rather than
/// resuming a different process than the one saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Tier tag: `agent`, `packed`, `turbo`, `sharded`, `vec`, or `dense`
    /// (the `EngineKind` names of the bench dispatch layer).
    pub engine: String,
    /// Protocol display name (e.g. `diversification`).
    pub protocol: String,
    /// Topology display name (e.g. `complete`, `torus-8x8`).
    pub topology: String,
    /// Number of agents.
    pub n: u64,
    /// Time-steps executed when the snapshot was taken.
    pub clock: u64,
    /// The construction seed — the key of every counter-based stream, so
    /// restoring it is what keeps *future* turbo/sharded/vec blocks on
    /// the saved trajectory.
    pub seed: u64,
    /// Packed per-agent words; layout is tier-specific (see module docs).
    pub states: Vec<u32>,
    /// Tier-private resume words; layout is tier-specific (see module docs).
    pub aux: Vec<u64>,
}

/// Why a snapshot could not be restored. Every variant is a fail-closed
/// rejection: the receiving engine is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was taken on a different engine tier.
    EngineMismatch {
        /// The receiving engine's tier tag.
        expected: String,
        /// The snapshot's tier tag.
        got: String,
    },
    /// The snapshot was taken under a different protocol.
    ProtocolMismatch {
        /// The receiving engine's protocol name.
        expected: String,
        /// The snapshot's protocol name.
        got: String,
    },
    /// The snapshot was taken on a different topology.
    TopologyMismatch {
        /// The receiving engine's topology display name.
        expected: String,
        /// The snapshot's topology display name.
        got: String,
    },
    /// The snapshot's population size differs from the receiving engine's.
    SizeMismatch {
        /// The receiving engine's agent count.
        expected: u64,
        /// The snapshot's agent count.
        got: u64,
    },
    /// The payload is internally inconsistent (wrong `aux` arity, state
    /// words overflowing the tier's storage width, a clock off the
    /// sharded block grid, …) — the signature of a corrupted or
    /// hand-edited snapshot.
    BadPayload(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::EngineMismatch { expected, got } => {
                write!(f, "snapshot is for engine `{got}`, not `{expected}`")
            }
            SnapshotError::ProtocolMismatch { expected, got } => {
                write!(f, "snapshot is for protocol `{got}`, not `{expected}`")
            }
            SnapshotError::TopologyMismatch { expected, got } => {
                write!(f, "snapshot is for topology `{got}`, not `{expected}`")
            }
            SnapshotError::SizeMismatch { expected, got } => {
                write!(f, "snapshot holds {got} agents, engine has {expected}")
            }
            SnapshotError::BadPayload(why) => write!(f, "corrupt snapshot payload: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl EngineSnapshot {
    /// Validates the identity header against the receiving engine.
    ///
    /// Restore implementations call this first; payload-shape checks are
    /// tier-specific and come after.
    pub fn check_identity(
        &self,
        engine: &str,
        protocol: &str,
        topology: &str,
        n: u64,
    ) -> Result<(), SnapshotError> {
        if self.engine != engine {
            return Err(SnapshotError::EngineMismatch {
                expected: engine.to_string(),
                got: self.engine.clone(),
            });
        }
        if self.protocol != protocol {
            return Err(SnapshotError::ProtocolMismatch {
                expected: protocol.to_string(),
                got: self.protocol.clone(),
            });
        }
        if self.topology != topology {
            return Err(SnapshotError::TopologyMismatch {
                expected: topology.to_string(),
                got: self.topology.clone(),
            });
        }
        if self.n != n {
            return Err(SnapshotError::SizeMismatch {
                expected: n,
                got: self.n,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> EngineSnapshot {
        EngineSnapshot {
            engine: "turbo".into(),
            protocol: "copy".into(),
            topology: "complete".into(),
            n: 8,
            clock: 100,
            seed: 7,
            states: vec![0; 8],
            aux: Vec::new(),
        }
    }

    #[test]
    fn identity_check_accepts_match_and_names_the_mismatch() {
        let s = snap();
        assert!(s.check_identity("turbo", "copy", "complete", 8).is_ok());
        assert!(matches!(
            s.check_identity("agent", "copy", "complete", 8),
            Err(SnapshotError::EngineMismatch { .. })
        ));
        assert!(matches!(
            s.check_identity("turbo", "voter", "complete", 8),
            Err(SnapshotError::ProtocolMismatch { .. })
        ));
        assert!(matches!(
            s.check_identity("turbo", "copy", "cycle", 8),
            Err(SnapshotError::TopologyMismatch { .. })
        ));
        assert!(matches!(
            s.check_identity("turbo", "copy", "complete", 9),
            Err(SnapshotError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn errors_render_the_offending_values() {
        let s = snap();
        let e = s
            .check_identity("agent", "copy", "complete", 8)
            .unwrap_err();
        assert!(e.to_string().contains("turbo") && e.to_string().contains("agent"));
        let b = SnapshotError::BadPayload("aux arity".into());
        assert!(b.to_string().contains("aux arity"));
    }
}
