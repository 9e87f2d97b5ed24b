//! Spans the benchmark records around its calls into each crate.
//!
//! A span has a name whose prefix before the first `.` is its layer
//! (`wire`, `server`, `db`, `query`, `core`, `lrp`, `bench`), a start and
//! an end relative to the run's origin, the span that caused it, and the
//! id of the operation it belongs to. Spans are kept in memory and written
//! out once, when the run ends. Recording is single-threaded: spans are
//! taken only on the thread that drives the traced operations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::json_str;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Label of each operation, by id − 1.
    labels: Vec<&'static str>,
}

pub struct Tracer {
    enabled: bool,
    on: Cell<bool>,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            enabled: on,
            on: Cell::new(on),
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes (`true`) recording in a traced run, so
    /// untraced operations can be timed beside traced ones.
    pub fn record(&self, on: bool) {
        self.on.set(self.enabled && on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation, labelled with what it does: later spans
    /// carry its id until the next call.
    pub fn begin_op(&self, label: &'static str) {
        let mut st = self.state.borrow_mut();
        st.labels.push(label);
        st.op = st.labels.len() as u64;
    }

    /// Runs `f` inside a span named `name` when recording is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let idx = st.spans.len();
            let parent = st.open.last().copied();
            let op = st.op;
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            st.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        st.spans[idx].start_ns = start;
        st.spans[idx].end_ns = end;
        out
    }

    /// Durations, in µs, of every span named `name`, keyed by operation.
    pub fn durations_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let st = self.state.borrow();
        let mut out = BTreeMap::new();
        for s in st.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// Durations, in µs, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations_by_op(name).into_values().collect()
    }

    /// Self time per layer, in µs per traced operation: each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_time_per_layer(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ops: std::collections::BTreeSet<u64> = st.spans.iter().map(|s| s.op).collect();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, child) in st.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e3;
        }
        let n = ops.len().max(1) as f64;
        out.values_mut().for_each(|v| *v /= n);
        out
    }

    /// Writes every span as one JSON line, followed by `extra` lines.
    pub fn write(&self, path: &str, extra: &[String]) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let st = self.state.borrow();
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let label = st
                .labels
                .get((s.op as usize).wrapping_sub(1))
                .unwrap_or(&"");
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"op_label\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.op,
                json_str(label)
            )?;
        }
        for line in extra {
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}
