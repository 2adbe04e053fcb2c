//! Reference kernels: fixed, deterministic work owned by the benchmark,
//! timed next to every measured chunk so that drift in host speed cancels
//! out of the reported ratios.
//!
//! On a shared host, code of different kinds slows down by different
//! amounts (a contended SMT sibling hits FP throughput, a neighbour's
//! cache traffic hits L2 misses), so a kernel only cancels drift for work
//! that runs the same kind of instructions over the same kind of data.
//! Each kernel is therefore a small, frozen imitation of one workload
//! family's hot loop. Frozen matters: the kernels never call the
//! repository's crates, so a change to the simulator moves the measured
//! chunks and not the kernels.
//!
//! * [`alu`] — a τ-leap over the counts of a 4-colour Diversification
//!   population: channel rates, the τ estimate, and one binomial draw per
//!   channel (Box–Muller or geometric skips) from a xoshiro256++ stream,
//!   like the dense tier. Compute-bound.
//! * [`gather`] — agent steps on a 1024×1024 torus of `u8` states (1 MiB,
//!   the size of the 10⁶-agent state array): counter-based schedule draw,
//!   one random neighbour, branch-free transition, write-back, like the
//!   turbo tier. Bound by L2 latency and memory-level parallelism.
//! * [`lanes`] — the same step with 32 lane-major replicas per agent on a
//!   320×320 torus (3.2 MiB), like the 32-lane ensemble tier.
//!
//! Each returns a checksum that depends on every iteration, so the
//! compiler cannot drop the work and tests can pin it.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Leaps per [`alu`] call (about 1.5 ms on a 2-vCPU Sapphire Rapids
/// guest).
pub const ALU_ITERS: u64 = 500;

/// Agent steps per [`gather`] call (about 2 ms on the same host).
pub const GATHER_ITERS: u64 = 1 << 16;

/// Side of the [`gather`] torus.
pub const GATHER_SIDE: usize = 1024;

/// Agent steps per [`lanes`] call (about 2 ms on the same host).
pub const LANES_ITERS: u64 = 1 << 11;

/// Side of the [`lanes`] torus.
pub const LANES_SIDE: usize = 320;

/// Replicas per agent in [`lanes`].
pub const LANES: usize = 32;

/// Time of one [`alu`] call on the reference host, in milliseconds. The
/// normalised timings are expressed in seconds *at this kernel speed*.
pub const ALU_NOMINAL_MS: f64 = 1.5;

/// Time of one [`gather`] call on the reference host, in milliseconds.
pub const GATHER_NOMINAL_MS: f64 = 2.0;

/// Time of two concurrent [`lanes`] calls on two threads on the
/// reference host, in milliseconds.
pub const LANES2_NOMINAL_MS: f64 = 2.2;

/// Which reference kernel a measured chunk is paired with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// The dense tier: [`alu`].
    Alu,
    /// Per-agent work on one core (turbo, vec, packed, sharded):
    /// [`gather`].
    Gather,
    /// The 32-lane ensemble on both cores: two [`lanes`] kernels at once.
    Lanes2,
    /// Mixed work on both cores (the serve workload): the geometric mean
    /// of the [`alu`] and two-core [`lanes`] factors.
    Both,
}

/// SplitMix64 output function, the generator used for every derived seed
/// in the benchmark.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Colour weights of every workload, `(1, 1, 2, 4)`.
const WEIGHTS: [f64; 4] = [1.0, 1.0, 2.0, 4.0];

/// xoshiro256++, the generator behind the dense tier's draws.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn new(seed: u64) -> Xoshiro {
        Xoshiro([1, 2, 3, 4].map(|i| splitmix64(seed ^ i)))
    }

    fn unit(&mut self) -> f64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        (out >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn binomial(&mut self, trials: u64, p: f64) -> u64 {
        let mean = trials as f64 * p;
        if trials == 0 || p <= 0.0 {
            0
        } else if mean < 64.0 {
            let c = (1.0 - p).ln();
            let (mut successes, mut position) = (0u64, 0.0f64);
            loop {
                let u = self.unit().max(f64::MIN_POSITIVE);
                position += (u.ln() / c).floor() + 1.0;
                if position > trials as f64 {
                    return successes;
                }
                successes += 1;
            }
        } else {
            let (u1, u2) = (self.unit().max(f64::MIN_POSITIVE), self.unit());
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let sd = (mean * (1.0 - p)).sqrt();
            (mean + sd * normal).round().clamp(0.0, trials as f64) as u64
        }
    }
}

/// The compute-bound reference kernel: `leaps` τ-leaps of the
/// Diversification count process at `n = 10⁶`, from the balanced all-dark
/// configuration, with a fixed seed. Classes `0..4` are dark colours,
/// `4..8` light ones; 16 adoption channels (light `j` meets dark `i`) and
/// 4 softening channels (dark `i` meets dark `i`, w.p. `1/w_i`).
pub fn alu(leaps: u64) -> f64 {
    const N: f64 = 1e6;
    let mut counts = [250_000u64, 250_000, 250_000, 250_000, 0, 0, 0, 0];
    let channels: Vec<(usize, usize)> = (0..4)
        .flat_map(|j| (0..4).map(move |i| (4 + j, i)))
        .chain((0..4).map(|i| (i, 4 + i)))
        .collect();
    let mut rng = Xoshiro::new(black_box(0x5EED_0001));
    let mut rates = [0.0f64; 20];
    let mut flow = [0.0f64; 8];
    let mut steps = 0u64;
    for _ in 0..leaps {
        for (c, &(src, dst)) in channels.iter().enumerate() {
            let (a, b) = if c < 16 { (src, dst) } else { (src, src) };
            let weight = if c < 16 { 1.0 } else { 1.0 / WEIGHTS[src] };
            rates[c] = counts[a] as f64 * counts[b] as f64 / (N * N) * weight;
        }
        flow.fill(0.0);
        for (c, &(src, dst)) in channels.iter().enumerate() {
            flow[src] += rates[c];
            flow[dst] += rates[c];
        }
        let mut tau = f64::INFINITY;
        for (class, &f) in flow.iter().enumerate() {
            if f > 0.0 {
                tau = tau.min(0.03 * (counts[class] as f64).max(16.0) / f);
            }
        }
        let tau = (tau.floor() as u64).clamp(1, 1 << 24);
        for (c, &(src, dst)) in channels.iter().enumerate() {
            let fired = rng
                .binomial(tau, rates[c].min(1.0))
                .min(counts[src].saturating_sub(1));
            counts[src] -= fired;
            counts[dst] += fired;
        }
        steps += tau;
    }
    let mixed = counts.iter().fold(steps, |h, &c| splitmix64(h ^ c));
    black_box(mixed as f64)
}

/// One branch-free Diversification step on packed `u8` words (bit 0 set
/// = dark, colour in bits 1..): light adopts an observed dark word; a
/// dark pair of one colour softens when `aux` falls under the colour's
/// threshold `⌊2³²/w_i⌋`.
#[inline(always)]
fn transition(me: u8, v: u8, aux: u64, thresholds: &[u64; 4]) -> u8 {
    let soften = (aux & 0xFFFF_FFFF) < thresholds[usize::from(me >> 1) & 3];
    let mask = (((me & 1) ^ 1) & (v & 1)).wrapping_neg();
    let r1 = (v & mask) | (me & !mask);
    let s2 = (me & 1) & u8::from(v == me) & u8::from(soften);
    r1 & !s2
}

fn thresholds() -> [u64; 4] {
    WEIGHTS.map(|w| ((1u64 << 32) as f64 / w) as u64)
}

/// The `dir`-th (0..4) torus neighbour of node `u` on a `side × side`
/// torus.
#[inline(always)]
fn neighbour(u: usize, dir: u64, side: usize) -> usize {
    let (r, c) = (u / side, u % side);
    match dir {
        0 => ((r + side - 1) % side) * side + c,
        1 => ((r + 1) % side) * side + c,
        2 => r * side + (c + side - 1) % side,
        _ => r * side + (c + 1) % side,
    }
}

/// The balanced all-dark start: node `i` holds dark colour `i mod 4`.
fn reset(buf: &mut [u8], lanes: usize) {
    for (i, s) in buf.iter_mut().enumerate() {
        *s = ((((i / lanes) % 4) as u8) << 1) | 1;
    }
}

/// The per-agent memory-bound reference kernel: `steps` agent steps on a
/// [`GATHER_SIDE`]² torus held in `buf` (reset first, so the checksum
/// depends only on `steps`).
pub fn gather(buf: &mut [u8], steps: u64) -> u64 {
    let side = GATHER_SIDE;
    let n = side * side;
    assert_eq!(buf.len(), n, "gather buffer must hold the torus");
    reset(buf, 1);
    let thr = thresholds();
    let mut pos = black_box(0x5EED_0002u64);
    for _ in 0..steps {
        pos = pos.wrapping_add(GOLDEN);
        let u = ((splitmix64(pos) as u128 * n as u128) >> 64) as usize;
        pos = pos.wrapping_add(GOLDEN);
        let last = splitmix64(pos);
        let v = neighbour(u, last >> 62, side);
        buf[u] = transition(buf[u], buf[v], last, &thr);
    }
    checksum(buf)
}

/// The ensemble reference kernel: `steps` steps of [`LANES`] lane-major
/// replicas on a [`LANES_SIDE`]² torus held in `buf` (reset first): one
/// shared schedule draw per step, one neighbour and one transition per
/// lane.
pub fn lanes(buf: &mut [u8], steps: u64) -> u64 {
    let side = LANES_SIDE;
    let n = side * side;
    assert_eq!(buf.len(), n * LANES, "lanes buffer must hold the torus");
    reset(buf, LANES);
    let thr = thresholds();
    let bases: [u64; LANES] = std::array::from_fn(|l| splitmix64(l as u64 ^ 0x5EED_0003));
    let mut pos = black_box(0x5EED_0004u64);
    let mut me = [0u8; LANES];
    let mut aux = [0u64; LANES];
    for _ in 0..steps {
        pos = pos.wrapping_add(GOLDEN);
        let u = ((splitmix64(pos) as u128 * n as u128) >> 64) as usize;
        me.copy_from_slice(&buf[u * LANES..(u + 1) * LANES]);
        for (a, b) in aux.iter_mut().zip(&bases) {
            *a = splitmix64(b.wrapping_add(pos));
        }
        for l in 0..LANES {
            let v = neighbour(u, aux[l] >> 62, side);
            me[l] = transition(me[l], buf[v * LANES + l], aux[l], &thr);
        }
        buf[u * LANES..(u + 1) * LANES].copy_from_slice(&me);
    }
    checksum(buf)
}

fn checksum(buf: &[u8]) -> u64 {
    let mut sum = 0u64;
    for chunk in buf.chunks(8) {
        sum = sum.rotate_left(5) ^ chunk.iter().fold(0u64, |s, &v| (s << 8) | u64::from(v));
    }
    black_box(sum)
}

/// The second thread of the two-core [`lanes`] kernel: runs one kernel
/// on its own buffer per message on `go`, and answers on `done`.
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<()>,
    handle: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut buf = lanes_buffer();
            while go_rx.recv().is_ok() {
                lanes(&mut buf, LANES_ITERS);
                if done_tx.send(()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go: Some(go),
            done,
            handle: Some(handle),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.go.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A zeroed buffer for [`gather`].
pub fn gather_buffer() -> Vec<u8> {
    vec![0u8; GATHER_SIDE * GATHER_SIDE]
}

/// A zeroed buffer for [`lanes`].
pub fn lanes_buffer() -> Vec<u8> {
    vec![0u8; LANES_SIDE * LANES_SIDE * LANES]
}

fn time_ms<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Times the reference kernels. Owns their buffers (and the second
/// thread of the two-core kernel) so repeated timings allocate nothing.
#[derive(Default)]
pub struct RefTimer {
    gather_buf: Vec<u8>,
    lanes_buf: Vec<u8>,
    helper: Option<Helper>,
    /// Every [`alu`] timing paired with a chunk, in milliseconds.
    pub alu_ms: Vec<f64>,
    /// Every [`gather`] timing paired with a chunk, in milliseconds.
    pub gather_ms: Vec<f64>,
    /// Every two-core [`lanes`] timing paired with a chunk, in
    /// milliseconds.
    pub lanes_ms: Vec<f64>,
    /// Every [`gather`] timing paired with a set-up, in milliseconds.
    pub setup_ms: Vec<f64>,
    /// Calibration timings `(alu, gather)`, in milliseconds.
    pub calibration_ms: Vec<(f64, f64)>,
}

impl RefTimer {
    fn alu_once(&mut self) -> f64 {
        time_ms(|| alu(ALU_ITERS))
    }

    fn gather_once(&mut self) -> f64 {
        if self.gather_buf.is_empty() {
            self.gather_buf = gather_buffer();
        }
        let buf = &mut self.gather_buf;
        time_ms(|| gather(buf, GATHER_ITERS))
    }

    /// Two [`lanes`] kernels at once, one on this thread and one on the
    /// helper, each on its own buffer.
    fn lanes2_once(&mut self) -> f64 {
        if self.lanes_buf.is_empty() {
            self.lanes_buf = lanes_buffer();
        }
        let helper = self.helper.get_or_insert_with(Helper::spawn);
        let buf = &mut self.lanes_buf;
        time_ms(|| {
            let sent = helper.go.as_ref().is_some_and(|go| go.send(()).is_ok());
            lanes(buf, LANES_ITERS);
            if sent {
                // A helper that died has panicked; its join in `drop`
                // reports it.
                let _ = helper.done.recv();
            }
        })
    }

    /// Times the kernel(s) of `pairing`, records the timing, and returns
    /// the factor that turns a raw time measured next to it into a
    /// normalised one.
    pub fn factor(&mut self, pairing: Pairing) -> f64 {
        let mut alu = || {
            let ms = self.alu_once();
            self.alu_ms.push(ms);
            ALU_NOMINAL_MS / ms
        };
        match pairing {
            Pairing::Alu => alu(),
            Pairing::Gather => {
                let ms = self.gather_once();
                self.gather_ms.push(ms);
                GATHER_NOMINAL_MS / ms
            }
            Pairing::Lanes2 => {
                let ms = self.lanes2_once();
                self.lanes_ms.push(ms);
                LANES2_NOMINAL_MS / ms
            }
            Pairing::Both => {
                let a = alu();
                let ms = self.lanes2_once();
                self.lanes_ms.push(ms);
                (a * LANES2_NOMINAL_MS / ms).sqrt()
            }
        }
    }

    /// The normalisation factor for a set-up (allocation and
    /// initialisation, memory-bound): one [`gather`] kernel, recorded
    /// apart from the chunk pairings.
    pub fn setup_factor(&mut self) -> f64 {
        let ms = self.gather_once();
        self.setup_ms.push(ms);
        GATHER_NOMINAL_MS / ms
    }

    /// Times [`alu`] and [`gather`] `times` times each, apart from any
    /// pairing: the host diagnostics read these, whatever the workload
    /// pairs with.
    pub fn calibrate(&mut self, times: usize) {
        for _ in 0..times {
            let a = self.alu_once();
            let g = self.gather_once();
            self.calibration_ms.push((a, g));
        }
    }
}
