//! The sequential uniform random scheduler.

use crate::engine::{resize_topology, sequential_rng_state, PackedTier};
use crate::{EngineSnapshot, PackedProtocol, Population, Protocol, SnapshotError};
use pp_graph::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Observation counts up to this bound are gathered into fixed stack
/// buffers; beyond it the engine falls back to heap allocation (no protocol
/// in the workspace observes more than 2 partners).
const STACK_OBSERVATIONS: usize = 8;

/// Drives a [`Protocol`] on a [`Population`] over a [`Topology`] with the
/// paper's scheduler: each time-step activates one uniformly random agent,
/// which observes uniformly random neighbour(s) and updates its own state.
///
/// A run is fully determined by `(protocol, topology, initial states, seed)`;
/// experiments record seeds so every reported number is reproducible.
///
/// # Examples
///
/// ```
/// use pp_engine::{Protocol, Simulator};
/// use pp_graph::Complete;
/// use rand::Rng;
///
/// #[derive(Debug)]
/// struct Noop;
/// impl Protocol for Noop {
///     type State = u8;
///     fn transition(&self, me: &u8, _observed: &[&u8], _rng: &mut dyn Rng) -> u8 {
///         *me
///     }
///     fn name(&self) -> String {
///         "noop".into()
///     }
/// }
///
/// let mut sim = Simulator::new(Noop, Complete::new(3), vec![1, 2, 3], 0);
/// sim.run(100);
/// assert_eq!(sim.step_count(), 100);
/// assert_eq!(sim.population().states(), &[1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct Simulator<P: Protocol, T: Topology> {
    protocol: P,
    topology: T,
    population: Population<P::State>,
    rng: StdRng,
    step: u64,
    seed: u64,
}

impl<P: Protocol, T: Topology> Simulator<P, T> {
    /// Creates a simulator at time-step 0.
    ///
    /// # Panics
    ///
    /// Panics if the number of initial states does not match the topology
    /// size, the population is smaller than 2, or the protocol requests
    /// zero observations.
    pub fn new(protocol: P, topology: T, initial_states: Vec<P::State>, seed: u64) -> Self {
        assert_eq!(
            initial_states.len(),
            topology.len(),
            "population size {} != topology size {}",
            initial_states.len(),
            topology.len()
        );
        assert!(
            initial_states.len() >= 2,
            "population needs at least 2 agents"
        );
        assert!(
            protocol.observations() >= 1,
            "protocol must observe at least one agent"
        );
        Simulator {
            protocol,
            topology,
            population: Population::new(initial_states),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            seed,
        }
    }

    /// Executes one time-step: schedule, observe, transition.
    pub fn step(&mut self) {
        let n = self.population.len();
        debug_assert_eq!(
            n,
            self.topology.len(),
            "population and topology sizes diverged; did an adversary forget set_topology?"
        );
        let u = self.rng.random_range(0..n);
        let m = self.protocol.observations();
        let next = match m {
            1 => {
                let v = self.topology.sample_partner(u, &mut self.rng);
                self.protocol.transition(
                    self.population.state(u),
                    &[self.population.state(v)],
                    &mut self.rng,
                )
            }
            2 => {
                let v = self.topology.sample_partner(u, &mut self.rng);
                let w = self.topology.sample_partner(u, &mut self.rng);
                self.protocol.transition(
                    self.population.state(u),
                    &[self.population.state(v), self.population.state(w)],
                    &mut self.rng,
                )
            }
            m if m <= STACK_OBSERVATIONS => {
                // Fixed stack buffers: no per-step heap allocation on the
                // multi-observation path. RNG draw order matches the former
                // Vec-collecting code exactly (all partners first).
                let mut partners = [0usize; STACK_OBSERVATIONS];
                for p in partners.iter_mut().take(m) {
                    *p = self.topology.sample_partner(u, &mut self.rng);
                }
                let me = self.population.state(u);
                let mut refs: [&P::State; STACK_OBSERVATIONS] = [me; STACK_OBSERVATIONS];
                for (r, &v) in refs.iter_mut().zip(partners.iter().take(m)) {
                    *r = self.population.state(v);
                }
                self.protocol.transition(me, &refs[..m], &mut self.rng)
            }
            _ => {
                let partners: Vec<usize> = (0..m)
                    .map(|_| self.topology.sample_partner(u, &mut self.rng))
                    .collect();
                let refs: Vec<&P::State> =
                    partners.iter().map(|&v| self.population.state(v)).collect();
                self.protocol
                    .transition(self.population.state(u), &refs, &mut self.rng)
            }
        };
        self.population.set_state(u, next);
        self.step += 1;
    }

    /// Runs `steps` time-steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until `pred(population, step)` holds, checking every
    /// `check_every` steps (and once before the first step), for at most
    /// `max_steps` steps. Returns the step count at which the predicate
    /// first held, or `None` on timeout.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_until(
        &mut self,
        max_steps: u64,
        check_every: u64,
        mut pred: impl FnMut(&Population<P::State>, u64) -> bool,
    ) -> Option<u64> {
        assert!(check_every > 0, "check_every must be positive");
        let deadline = self.step + max_steps;
        if pred(&self.population, self.step) {
            return Some(self.step);
        }
        while self.step < deadline {
            let burst = check_every.min(deadline - self.step);
            self.run(burst);
            if pred(&self.population, self.step) {
                return Some(self.step);
            }
        }
        None
    }

    /// Runs `steps` time-steps, invoking `observer(step, population)` before
    /// the first step and after every `every`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn run_observed(
        &mut self,
        steps: u64,
        every: u64,
        mut observer: impl FnMut(u64, &Population<P::State>),
    ) {
        assert!(every > 0, "observation interval must be positive");
        observer(self.step, &self.population);
        let deadline = self.step + steps;
        while self.step < deadline {
            let burst = every.min(deadline - self.step);
            self.run(burst);
            observer(self.step, &self.population);
        }
    }

    /// Number of time-steps executed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current population (read-only).
    pub fn population(&self) -> &Population<P::State> {
        &self.population
    }

    /// Mutable access to the population — the hook the adversary crate uses
    /// to apply structural changes between time-steps.
    ///
    /// When agents are added or removed the topology must be updated too;
    /// see [`set_topology`](Self::set_topology).
    pub fn population_mut(&mut self) -> &mut Population<P::State> {
        &mut self.population
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Replaces the topology (e.g. after the adversary added agents).
    ///
    /// # Panics
    ///
    /// Panics if the new topology size does not match the population.
    pub fn set_topology(&mut self, topology: T) {
        assert_eq!(
            topology.len(),
            self.population.len(),
            "new topology size {} != population size {}",
            topology.len(),
            self.population.len()
        );
        self.topology = topology;
    }

    /// Consumes the simulator, returning the final population.
    pub fn into_population(self) -> Population<P::State> {
        self.population
    }
}

/// The reference tier on the shared [`Engine`](crate::Engine) surface:
/// words are the protocol's packing of each decoded state.
impl<P, T> PackedTier for Simulator<P, T>
where
    P: Protocol + PackedProtocol<State = <P as Protocol>::State>,
    <P as Protocol>::State: Send + Sync,
    T: Topology,
{
    type Protocol = P;
    type Topology = T;
    type Aux = [u64; 4];

    const TAG: &'static str = "agent";

    fn protocol(&self) -> &P {
        &self.protocol
    }

    fn topology(&self) -> &T {
        &self.topology
    }

    fn len(&self) -> usize {
        self.population.len()
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&mut self, steps: u64) {
        Simulator::run(self, steps);
    }

    fn word(&self, u: usize) -> u32 {
        self.protocol.pack(self.population.state(u))
    }

    fn set_word(&mut self, u: usize, word: u32) {
        self.population.set_state(u, self.protocol.unpack(word));
    }

    fn words(&self) -> impl Iterator<Item = u32> + '_ {
        self.population
            .states()
            .iter()
            .map(|s| self.protocol.pack(s))
    }

    fn replace_words(&mut self, words: Vec<u32>, resized: Option<T>) {
        let states = words.into_iter().map(|w| self.protocol.unpack(w));
        self.population = Population::new(states.collect());
        if let Some(topology) = resized {
            self.topology = topology;
        }
    }

    fn push_word(&mut self, word: u32) {
        let topology = resize_topology(&self.topology, self.population.len() + 1);
        self.population.push(self.protocol.unpack(word));
        self.topology = topology;
    }

    fn swap_remove_word(&mut self, u: usize) {
        let n = self.population.len();
        assert!(n > 2, "removal would leave fewer than 2 agents");
        let topology = resize_topology(&self.topology, n - 1);
        self.population.swap_remove(u);
        self.topology = topology;
    }

    fn save_aux(&mut self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn parse_aux(snapshot: &EngineSnapshot) -> Result<[u64; 4], SnapshotError> {
        sequential_rng_state(snapshot)
    }

    fn restore(&mut self, snapshot: &EngineSnapshot, rng_state: [u64; 4]) {
        self.replace_words(snapshot.states.clone(), None);
        self.step = snapshot.clock;
        self.seed = snapshot.seed;
        self.rng = StdRng::from_state(rng_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::Complete;
    use rand::Rng;

    /// Voter dynamics: copy the observed state.
    #[derive(Debug)]
    struct Copy1;

    impl Protocol for Copy1 {
        type State = u8;

        fn transition(&self, _me: &u8, observed: &[&u8], _rng: &mut dyn Rng) -> u8 {
            *observed[0]
        }

        fn name(&self) -> String {
            "copy".into()
        }
    }

    /// Counts how many observations arrive per activation.
    #[derive(Debug)]
    struct CountObs(usize);

    impl Protocol for CountObs {
        type State = usize;

        fn observations(&self) -> usize {
            self.0
        }

        fn transition(&self, _me: &usize, observed: &[&usize], _rng: &mut dyn Rng) -> usize {
            observed.len()
        }

        fn name(&self) -> String {
            "count-obs".into()
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mk = || {
            Simulator::new(
                Copy1,
                Complete::new(16),
                (0..16).map(|i| i as u8).collect(),
                5,
            )
        };
        let mut a = mk();
        let mut b = mk();
        a.run(500);
        b.run(500);
        assert_eq!(a.population().states(), b.population().states());
    }

    #[test]
    fn different_seed_differs() {
        let states: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let mut a = Simulator::new(Copy1, Complete::new(32), states.clone(), 1);
        let mut b = Simulator::new(Copy1, Complete::new(32), states, 2);
        a.run(200);
        b.run(200);
        assert_ne!(a.population().states(), b.population().states());
    }

    #[test]
    fn observation_arity_respected() {
        // 3 and 5 hit the stack-buffer arm, 12 the heap fallback.
        for m in [1, 2, 3, 5, 12] {
            let mut sim = Simulator::new(CountObs(m), Complete::new(8), vec![0; 8], 3);
            sim.run(50);
            // Any agent that was activated now stores m.
            assert!(sim.population().states().iter().all(|&s| s == 0 || s == m));
            assert!(sim.population().states().contains(&m));
        }
    }

    #[test]
    fn run_until_finds_consensus() {
        let mut sim = Simulator::new(Copy1, Complete::new(8), vec![0, 1, 1, 1, 1, 1, 1, 1], 7);
        let hit = sim.run_until(100_000, 8, |pop, _| {
            pop.count_matching(|&s| s == pop[0]) == pop.len()
        });
        assert!(hit.is_some());
    }

    #[test]
    fn run_until_timeout_returns_none() {
        #[derive(Debug)]
        struct Never;
        impl Protocol for Never {
            type State = u8;
            fn transition(&self, me: &u8, _o: &[&u8], _rng: &mut dyn Rng) -> u8 {
                *me
            }
            fn name(&self) -> String {
                "never".into()
            }
        }
        let mut sim = Simulator::new(Never, Complete::new(4), vec![0, 1, 2, 3], 1);
        assert_eq!(sim.run_until(100, 10, |_, _| false), None);
        assert_eq!(sim.step_count(), 100);
    }

    #[test]
    fn run_observed_cadence() {
        let mut sim = Simulator::new(Copy1, Complete::new(4), vec![0, 1, 2, 3], 1);
        let mut seen = Vec::new();
        sim.run_observed(10, 4, |t, _| seen.push(t));
        assert_eq!(seen, vec![0, 4, 8, 10]);
    }

    #[test]
    fn step_counter_advances() {
        let mut sim = Simulator::new(Copy1, Complete::new(4), vec![0, 0, 0, 0], 1);
        sim.run(7);
        assert_eq!(sim.step_count(), 7);
        assert_eq!(sim.seed(), 1);
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn rejects_size_mismatch() {
        Simulator::new(Copy1, Complete::new(4), vec![0u8; 3], 0);
    }
}
