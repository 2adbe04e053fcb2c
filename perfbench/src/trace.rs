//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each crate's public functions; the layer is the span name's prefix up
//! to the first `.` (`engine.run` belongs to `engine`). Nothing is
//! recorded when the tracer is off, so untraced runs pay one branch per
//! span site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Workload whose run recorded the span.
    pub workload: &'static str,
    /// Request identifier: spans of one job (or chunk) share it.
    pub job: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span did (steps, bytes, calls), 0 if none.
    pub work: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
    values: BTreeMap<(&'static str, &'static str), Vec<f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            workload: "",
            spans: Vec::new(),
            stack: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span recorded from now on with `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, job: u64) -> Open {
        let open = self.open_detached(name, job);
        if let Open(Some(i)) = open {
            self.stack.push(i);
        }
        open
    }

    /// Opens a span that overlaps its siblings (a request in flight): its
    /// parent is the innermost open span, but later spans do not nest in
    /// it.
    pub fn open_detached(&mut self, name: &'static str, job: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            job,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            work: 0,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span, recording `work` units done inside it.
    pub fn close(&mut self, open: Open, work: u64) {
        let Open(Some(i)) = open else { return };
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].work = work;
        if self.stack.last() == Some(&i) {
            self.stack.pop();
        }
    }

    /// Records a measured value under `name` for the current workload.
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.values
                .entry((self.workload, name))
                .or_default()
                .push(v);
        }
    }

    /// Every value recorded under `name` by `workload`.
    pub fn values(&self, workload: &str, name: &str) -> &[f64] {
        self.values
            .iter()
            .find(|((w, n), _)| *w == workload && *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Every span named `name` recorded by `workload`.
    pub fn spans<'a>(&'a self, workload: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.workload == workload && s.name == name)
    }

    /// Self time per layer over `workload`'s spans: the time during which
    /// some span of the layer was open and none of its children was. A
    /// span's children are merged first, and so are a layer's
    /// overlapping spans (requests in flight at once count once).
    pub fn self_time_by_layer(&self, workload: &str) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut segments: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.workload == workload {
                segments.entry(s.layer()).or_default().extend(gaps(
                    &mut children[i],
                    s.start_ns,
                    s.end_ns,
                ));
            }
        }
        segments
            .into_iter()
            .map(|(layer, mut segs)| (layer, covered_ns(&mut segs, 0, u64::MAX) as f64 * 1e-9))
            .collect()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines (name, workload, job, start, end, parent,
    /// work).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"work\":{}}}",
                s.name, s.workload, s.job, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

/// The parts of `[lo, hi]` that no interval of `intervals` covers.
pub fn gaps(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out = Vec::new();
    let mut at = lo;
    for &(a, b) in intervals.iter() {
        if a > at {
            out.push((at, a.min(hi)));
        }
        at = at.max(b);
        if at >= hi {
            return out;
        }
    }
    if at < hi {
        out.push((at, hi));
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
