//! `serve-closed`: the `pp-serve` event loop in a child process, fed a
//! generated request stream in a closed loop.
//!
//! Four tenants each keep one job in flight and submit the next when the
//! previous one's `done` event arrives. The bulk tenant runs a long turbo
//! and a long sharded torus job per epoch; the interactive tenants run short dense
//! (complete, `n = 10⁶`), vec (cycle) and packed (torus) jobs, and one of
//! every three vec and packed jobs is snapshotted with `stop` and resumed
//! from its file. Work comes in epochs: every tenant runs a fixed job
//! list, then the server sits idle while both reference kernels are
//! timed, and the epoch's latencies are normalised by them.
//!
//! Latency runs from writing the submit line to reading the `done` line.

use super::{weights, Chunk, Ctx, Measured};
use crate::refk::Pairing;
use crate::stats;
use crate::trace::Open;
use pp_bench::schema::{parse, Value};
use pp_bench::{build_graph_engine, DivEngine, EngineKind};
use pp_core::init;
use pp_graph::{Cycle, Torus2d};
use pp_serve::wire::{Event, InitKind, JobSpec, Request, TopologySpec};
use pp_serve::SnapshotFile;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Command-line flag that turns the benchmark binary into the server.
pub const CHILD_FLAG: &str = "--serve-child";

/// The server: exactly the `pp-serve` binary's `main`.
pub fn child_main() -> ! {
    pp_obs::init_from_env();
    let code = pp_serve::server::run(
        BufReader::new(std::io::stdin()),
        &mut std::io::stdout().lock(),
        pp_serve::server::Config::from_env(),
    );
    pp_obs::flush_to_stderr();
    std::process::exit(code);
}

/// Tenants, in submission order.
const TENANTS: [&str; 4] = ["bulk", "dense", "vec", "packed"];
/// One epoch plus its kernels on the reference host, seconds.
const NOMINAL_EPOCH_S: f64 = 0.35;
/// Epochs per run at least: 9 jobs each, so at least 108 jobs.
const MIN_EPOCHS: usize = 12;
/// Server start-ups timed per run.
const SETUPS: u64 = 9;

/// One planned job.
#[derive(Debug, Clone)]
struct Plan {
    tenant: &'static str,
    name: String,
    /// Span job identifier.
    id: u64,
    kind: &'static str,
    spec: JobSpec,
    /// Clock at which a `stop` snapshot is requested.
    snapshot_at: Option<u64>,
}

impl Plan {
    fn submit_line(&self) -> String {
        format!(
            "{{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"{}\",\"job\":\"{}\",\"spec\":{}}}",
            self.tenant,
            self.name,
            self.spec.to_json()
        )
    }
}

fn spec(engine: EngineKind, topology: TopologySpec, n: usize, steps: u64, seed: u64) -> JobSpec {
    JobSpec {
        weights: weights().as_slice().to_vec(),
        topology,
        n,
        engine,
        // Request numbers travel as JSON numbers: keep them exact in f64.
        seed: seed >> 11,
        steps,
        observe_every: steps / 4,
        init: InitKind::Balanced,
        shock: None,
    }
}

/// The job lists of epoch `e`, one per tenant in [`TENANTS`] order.
fn epoch_plan(ctx: &Ctx, e: u64) -> Vec<Vec<Plan>> {
    let seed = |i: u64| ctx.derive(6, e * 16 + i);
    let name = |i: u64| format!("e{e}j{i}");
    let bulk = [
        ("bulk-turbo", EngineKind::Turbo),
        ("bulk-sharded", EngineKind::Sharded),
    ]
    .into_iter()
    .zip(0..)
    .map(|((kind, engine), i)| Plan {
        tenant: "bulk",
        name: name(i),
        id: e * 16 + i,
        kind,
        spec: spec(
            engine,
            TopologySpec::Torus {
                rows: 200,
                cols: 200,
            },
            40_000,
            4_000_000,
            seed(i),
        ),
        snapshot_at: None,
    })
    .collect();
    let dense = vec![Plan {
        tenant: "dense",
        name: name(2),
        id: e * 16 + 2,
        kind: "dense",
        spec: spec(
            EngineKind::Dense,
            TopologySpec::Complete,
            1_000_000,
            4_000_000,
            seed(2),
        ),
        snapshot_at: None,
    }];
    let small = |tenant: &'static str, engine, topology: TopologySpec, n, base: u64| -> Vec<Plan> {
        (0..3)
            .map(|i| {
                let steps = 400_000;
                let snap = i == 1;
                Plan {
                    tenant,
                    name: name(base + i),
                    id: e * 16 + base + i,
                    kind: match (tenant, snap) {
                        ("vec", false) => "vec",
                        ("vec", true) => "vec-snap",
                        (_, false) => "packed",
                        (_, true) => "packed-snap",
                    },
                    spec: spec(engine, topology.clone(), n, steps, seed(base + i)),
                    snapshot_at: snap.then_some(steps / 2),
                }
            })
            .collect()
    };
    vec![
        bulk,
        dense,
        small("vec", EngineKind::Vec, TopologySpec::Cycle, 4096, 3),
        small(
            "packed",
            EngineKind::Packed,
            TopologySpec::Torus { rows: 64, cols: 64 },
            4096,
            6,
        ),
    ]
}

/// A running server child.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(scratch: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(CHILD_FLAG)
            .env("PP_BENCH_DIR", scratch.join("envelopes"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, line: &str) -> bool {
        match self.stdin.as_mut() {
            Some(w) => writeln!(w, "{line}").and_then(|_| w.flush()).is_ok(),
            None => false,
        }
    }

    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    /// Sends `shutdown`, drains the event stream and waits for the exit
    /// code.
    fn shutdown(mut self) -> Option<i32> {
        self.send("{\"schema_version\":1,\"op\":\"shutdown\"}");
        drop(self.stdin.take());
        while self.recv().is_some() {}
        self.child.wait().ok().and_then(|s| s.code())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn field_str<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("")
}

fn field_u64(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_f64).map_or(0, |x| x as u64)
}

fn field_counts(doc: &Value) -> Vec<u64> {
    doc.get("class_counts")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_f64)
                .map(|x| x as u64)
                .collect()
        })
        .unwrap_or_default()
}

/// A job in flight.
struct InFlight {
    plan: Plan,
    submitted: Instant,
    span: Open,
}

/// What the session learned about one finished job.
struct Finished {
    plan: Plan,
    raw_latency_s: f64,
    counts: Vec<u64>,
    snapshot_clock: Option<u64>,
}

/// Drives the closed loop for one epoch's job lists. Returns the finished
/// jobs, or `None` when the server failed (error event or closed stream);
/// unfinished jobs are then counted as failed.
fn run_epoch(ctx: &mut Ctx, server: &mut Server, lists: Vec<Vec<Plan>>) -> Option<Vec<Finished>> {
    let mut queues: Vec<VecDeque<Plan>> = lists.into_iter().map(VecDeque::from).collect();
    let mut inflight: BTreeMap<(String, String), InFlight> = BTreeMap::new();
    let mut snap_clock: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut finished = Vec::new();
    let total: usize = queues.iter().map(VecDeque::len).sum();
    for q in queues.iter_mut() {
        if let Some(plan) = q.pop_front() {
            submit(ctx, server, plan, &mut inflight);
        }
    }
    while finished.len() < total {
        let Some(line) = server.recv() else {
            ctx.checks.check(false, || {
                "serve-closed: server closed its event stream".into()
            });
            break;
        };
        let doc = match parse(&line) {
            Ok(d) => d,
            Err(e) => {
                ctx.checks.check(false, || {
                    format!("serve-closed: unparsable event `{line}`: {e}")
                });
                break;
            }
        };
        let key = (
            field_str(&doc, "tenant").to_string(),
            field_str(&doc, "job").to_string(),
        );
        match field_str(&doc, "event") {
            "snapshot" => {
                let path = field_str(&doc, "path").to_string();
                let id = inflight.get(&key).map_or(0, |j| j.plan.id);
                snap_clock.insert(key, field_u64(&doc, "clock"));
                if ctx.tr.is_on() {
                    probe_snapshot_file(ctx, &path, id);
                }
                let resume = format!(
                    "{{\"schema_version\":1,\"op\":\"resume\",\"path\":{}}}",
                    json_string(&path)
                );
                traced_parse(ctx, &resume, id);
                server.send(&resume);
            }
            "done" => {
                let Some(job) = inflight.remove(&key) else {
                    ctx.checks.check(false, || {
                        format!("serve-closed: done for unknown job {key:?}")
                    });
                    continue;
                };
                let raw_latency_s = job.submitted.elapsed().as_secs_f64();
                ctx.tr.close(job.span, job.plan.spec.steps);
                let counts = field_counts(&doc);
                let sum: u64 = counts.iter().sum();
                let n = job.plan.spec.n as u64;
                ctx.checks.check(sum == n, || {
                    format!("serve-closed: job {key:?} done with counts summing to {sum}, not {n}")
                });
                ctx.checks
                    .check(field_u64(&doc, "clock") >= job.plan.spec.steps, || {
                        format!("serve-closed: job {key:?} done before its target clock")
                    });
                if ctx.tr.is_on() {
                    probe_done(ctx, &doc, &line, &job.plan, raw_latency_s);
                }
                let tenant = TENANTS
                    .iter()
                    .position(|t| *t == job.plan.tenant)
                    .expect("known tenant");
                if let Some(next) = queues[tenant].pop_front() {
                    submit(ctx, server, next, &mut inflight);
                }
                finished.push(Finished {
                    snapshot_clock: snap_clock.remove(&key),
                    plan: job.plan,
                    raw_latency_s,
                    counts,
                });
            }
            "error" => {
                ctx.checks
                    .check(false, || format!("serve-closed: request rejected: {line}"));
                break;
            }
            _ => {}
        }
    }
    let missing = total - finished.len();
    for _ in 0..missing {
        ctx.checks
            .check(false, || "serve-closed: a job never reached done".into());
    }
    (missing == 0).then_some(finished)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn submit(
    ctx: &mut Ctx,
    server: &mut Server,
    plan: Plan,
    inflight: &mut BTreeMap<(String, String), InFlight>,
) {
    let line = plan.submit_line();
    traced_parse(ctx, &line, plan.id);
    let snapshot = plan.snapshot_at.map(|at| {
        let path = ctx.scratch.join(format!("{}-{}.ppsnap", plan.tenant, plan.name));
        format!(
            "{{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"{}\",\"job\":\"{}\",\"path\":{},\"at\":{at},\"stop\":true}}",
            plan.tenant,
            plan.name,
            json_string(&path.display().to_string())
        )
    });
    let span = ctx.tr.open_detached("serve.job", plan.id);
    let submitted = Instant::now();
    let mut ok = server.send(&line);
    if let Some(snap) = &snapshot {
        traced_parse(ctx, snap, plan.id);
        ok &= server.send(snap);
    }
    ctx.checks.check(ok, || {
        format!(
            "serve-closed: could not submit {}/{}",
            plan.tenant, plan.name
        )
    });
    inflight.insert(
        (plan.tenant.to_string(), plan.name.clone()),
        InFlight {
            plan,
            submitted,
            span,
        },
    );
}

/// Times `Request::parse_line` on a request the benchmark is about to
/// send (traced runs), and checks the request is valid.
fn traced_parse(ctx: &mut Ctx, line: &str, id: u64) {
    if !ctx.tr.is_on() {
        return;
    }
    let s = ctx.tr.open("serve.parse", id);
    let parsed = Request::parse_line(line);
    ctx.tr.close(s, 1);
    ctx.checks.check(parsed.is_ok(), || {
        format!("serve-closed: generated request rejected: {line}")
    });
}

/// Times the snapshot file's parse and re-render, and checks that the
/// round trip is exact.
fn probe_snapshot_file(ctx: &mut Ctx, path: &str, id: u64) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let s = ctx.tr.open("serve.snapshot_file", id);
    let round = SnapshotFile::parse(&text).map(|f| f.render());
    ctx.tr.close(s, text.len() as u64);
    ctx.tr.value("serve.snapshot_bytes", text.len() as f64);
    ctx.checks.check(round.as_deref() == Ok(text.as_str()), || {
        format!("serve-closed: snapshot file {path} does not round-trip")
    });
}

/// Times the `done` event's render and the job's result envelope
/// (`result_json_v1`, `validate_json`, write), the way the server does
/// them, and checks the render reproduces the line read.
fn probe_done(ctx: &mut Ctx, doc: &Value, line: &str, plan: &Plan, raw_latency_s: f64) {
    let event = Event::Done {
        tenant: field_str(doc, "tenant").to_string(),
        job: field_str(doc, "job").to_string(),
        clock: field_u64(doc, "clock"),
        class_counts: field_counts(doc),
        tenant_steps: field_u64(doc, "tenant_steps"),
        total_steps: field_u64(doc, "total_steps"),
        bench: doc.get("bench").and_then(Value::as_str).map(str::to_string),
    };
    let s = ctx.tr.open("serve.render", plan.id);
    let rendered = event.render();
    ctx.tr.close(s, 1);
    ctx.checks.check(rendered == line, || {
        format!("serve-closed: done event does not re-render: {line}")
    });

    let s = ctx.tr.open("bench.envelope", plan.id);
    let mut table = pp_stats::Table::new(["class", "count"]);
    for (word, count) in field_counts(doc).iter().enumerate() {
        table.row([word.to_string(), count.to_string()]);
    }
    let mut report = pp_bench::experiments::Report::new(
        format!("pp serve {}/{}: final class counts", plan.tenant, plan.name),
        table,
    );
    report.set_engine(plan.spec.engine.name());
    report.param("tenant", plan.tenant);
    report.param("job", &plan.name);
    report.param("n", plan.spec.n);
    report.param("seed", plan.spec.seed);
    report.param("steps", plan.spec.steps);
    report.set_steps_per_sec(plan.spec.steps as f64 / raw_latency_s);
    let name = format!("perfbench_{}_{}", plan.tenant, plan.name);
    let json = pp_bench::output::result_json_v1(&name, &report, "serve", raw_latency_s * 1e3, None);
    let valid = pp_bench::output::validate_json(&json);
    let written = pp_bench::output::write_json_to(&ctx.scratch.join("envelopes"), &name, &json);
    ctx.tr.close(s, json.len() as u64);
    ctx.tr.value("bench.envelope_bytes", json.len() as f64);
    ctx.checks.check(valid.is_ok() && written.is_ok(), || {
        format!("serve-closed: envelope for {name} invalid or unwritable")
    });
}

/// Builds, in process, the engine the server builds for `spec`.
fn build_like_server(spec: &JobSpec) -> DivEngine {
    let w = weights();
    let states = init::all_dark_balanced(spec.n, &w);
    match spec.topology {
        TopologySpec::Cycle => {
            build_graph_engine(spec.engine, &w, Cycle::new(spec.n), states, spec.seed)
        }
        TopologySpec::Torus { rows, cols } => {
            build_graph_engine(spec.engine, &w, Torus2d::new(rows, cols), states, spec.seed)
        }
        TopologySpec::Complete => pp_bench::build_engine(spec.engine, &w, states, spec.seed),
    }
}

/// The uninterrupted control of a snapshot→stop→resume job: must end on
/// the resumed job's class counts exactly (vec and packed are
/// slicing-invariant). Also times an in-process save and restore at the
/// server's snapshot clock.
fn control(ctx: &mut Ctx, job: &Finished, clock: u64) {
    let spec = &job.plan.spec;
    let mut a = build_like_server(spec);
    a.run(clock);
    let s = ctx.tr.open("engine.snapshot_save", job.plan.id);
    let snap = a.save_snapshot();
    ctx.tr.close(s, 1);
    a.run(spec.steps - a.step_count());
    let mut b = build_like_server(spec);
    let s = ctx.tr.open("engine.snapshot_restore", job.plan.id);
    let restored = b.restore_snapshot(&snap);
    ctx.tr.close(s, 1);
    let control = a.class_counts();
    ctx.checks.check(control == job.counts, || {
        format!(
            "serve-closed: resumed job {}/{} ended on {:?}, its uninterrupted control on {control:?}",
            job.plan.tenant, job.plan.name, job.counts
        )
    });
    if restored.is_ok() {
        b.run(spec.steps - b.step_count());
    }
    ctx.checks
        .check(restored.is_ok() && b.class_counts() == control, || {
            format!(
                "serve-closed: in-process restore of {}/{} diverged",
                job.plan.tenant, job.plan.name
            )
        });
}

fn start_server(ctx: &mut Ctx, m: &mut Measured, i: u64) -> Option<Server> {
    let probe = Plan {
        tenant: "setup",
        name: format!("s{i}"),
        id: i,
        kind: "setup",
        spec: spec(
            EngineKind::Packed,
            TopologySpec::Cycle,
            64,
            1000,
            ctx.derive(7, i),
        ),
        snapshot_at: None,
    };
    let scratch = ctx.scratch.clone();
    let mut server = m.setup(ctx.refs, || {
        let mut server = Server::spawn(&scratch).ok()?;
        server.send(&probe.submit_line());
        while let Some(line) = server.recv() {
            if line.contains("\"event\":\"accepted\"") {
                return Some(server);
            }
        }
        None
    });
    // Let the probe job finish so the session starts on an idle server.
    if let Some(s) = server.as_mut() {
        while let Some(line) = s.recv() {
            if line.contains("\"event\":\"done\"") {
                break;
            }
        }
    }
    ctx.checks.check(server.is_some(), || {
        "serve-closed: server did not start".into()
    });
    server
}

pub fn run(ctx: &mut Ctx) -> Measured {
    let mut m = Measured::default();
    let _ = std::fs::create_dir_all(&ctx.scratch);
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(old) = server.take() {
            let code = Server::shutdown(old);
            ctx.checks.check(code == Some(0), || {
                format!("serve-closed: set-up server exited with {code:?}")
            });
        }
        server = start_server(ctx, &mut m, i);
    }
    let Some(mut server) = server else { return m };

    let epochs = ctx.chunk_count(NOMINAL_EPOCH_S, MIN_EPOCHS);
    let mut finished: Vec<(Finished, f64)> = Vec::new();
    // Warm both kernels before the first epoch is paired with them.
    ctx.refs.factor(Pairing::Both);
    for e in 0..epochs as u64 {
        let lists = epoch_plan(ctx, e);
        let steps: u64 = lists.iter().flatten().map(|p| p.spec.steps).sum();
        let root = ctx.tr.open("perfbench.epoch", e);
        let t = Instant::now();
        let done = run_epoch(ctx, &mut server, lists);
        let raw_s = t.elapsed().as_secs_f64();
        ctx.tr.close(root, steps);
        let factor = ctx.refs.factor(Pairing::Both);
        m.chunks.push(Chunk {
            raw_s,
            norm_s: stats::normalise(raw_s, factor),
            steps,
        });
        let Some(done) = done else { break };
        for job in done {
            m.jobs.push(stats::normalise(job.raw_latency_s, factor));
            finished.push((job, factor));
        }
    }
    m.peak_rss_mb = crate::sys::peak_rss_mb(&server.child.id().to_string()).unwrap_or(f64::NAN);
    if ctx.tr.is_on() {
        solo_pass(ctx, &mut server, &finished);
    }
    let code = server.shutdown();
    ctx.checks.check(code == Some(0), || {
        format!("serve-closed: server exited with {code:?}")
    });

    for (job, _) in &finished {
        if let Some(clock) = job.snapshot_clock {
            control(ctx, job, clock);
        } else {
            ctx.checks.check(job.plan.snapshot_at.is_none(), || {
                format!(
                    "serve-closed: {}/{} finished without its snapshot",
                    job.plan.tenant, job.plan.name
                )
            });
        }
    }
    let quantum = pp_serve::server::DEFAULT_QUANTUM;
    for (job, _) in &finished {
        ctx.tr
            .value("serve.slices", job.plan.spec.steps.div_ceil(quantum) as f64);
    }
    m
}

/// Traced runs: runs the first two epochs' jobs again, one at a time, to
/// get each job kind's solo service time, and records every session
/// job's queue wait (its latency minus its kind's solo time).
fn solo_pass(ctx: &mut Ctx, server: &mut Server, finished: &[(Finished, f64)]) {
    let mut solo: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let plans: Vec<Plan> = (0..2).flat_map(|e| epoch_plan(ctx, e)).flatten().collect();
    let mut raw = Vec::new();
    for mut plan in plans {
        plan.name = format!("solo-{}", plan.name);
        plan.id += 1 << 32;
        let kind = plan.kind;
        let mut lists = vec![Vec::new(); TENANTS.len()];
        let tenant = TENANTS
            .iter()
            .position(|t| *t == plan.tenant)
            .expect("known tenant");
        lists[tenant].push(plan);
        let Some(done) = run_epoch(ctx, server, lists) else {
            return;
        };
        raw.push((kind, done[0].raw_latency_s));
    }
    let factor = ctx.refs.factor(Pairing::Both);
    for (kind, r) in raw {
        let s = stats::normalise(r, factor);
        solo.entry(kind).or_default().push(s);
        ctx.tr.value("serve.service_s", s);
    }
    for (job, f) in finished {
        if let Some(times) = solo.get(job.plan.kind) {
            let wait = stats::normalise(job.raw_latency_s, *f) - stats::median(times);
            ctx.tr.value("serve.queue_wait_s", wait);
        }
    }
}
