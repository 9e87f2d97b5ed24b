//! Span-tree tracing of algebra execution.
//!
//! A [`TraceSink`] attached to an [`ExecContext`](crate::ExecContext) (via
//! [`ExecContext::traced`](crate::ExecContext::traced)) records one
//! [`Span`] per relation-level operator invocation — kind, tuples in/out,
//! candidate pairs, pruned tuples, simplified atoms, the largest common
//! period seen, and wall time — arranged as a tree: a span opened while
//! another is still open becomes its child. Higher layers (the query
//! evaluator) can interleave their own *node* spans via
//! [`ExecContext::node_span`](crate::ExecContext::node_span), so an
//! EXPLAIN ANALYZE tree shows each plan node with the operator calls it
//! issued underneath.
//!
//! # Determinism
//!
//! Span ids are assigned from a context-local counter in *begin order*.
//! Every span begins on the thread driving the evaluation (parallelism
//! lives *inside* an operator, behind [`std::thread::scope`], which joins
//! before the operator returns), so the tree shape and ids are identical
//! at any thread budget — only the recorded wall times differ. Strip them
//! with [`Trace::without_timing`] to compare traces across runs.
//!
//! # Exactness
//!
//! Per-span operator counters are *deltas* of the context's aggregate
//! counters between span begin and end. Same-kind operator spans never
//! nest (an operator does not re-enter itself), so
//! [`Trace::op_totals`] reproduces the context's
//! [`StatsSnapshot`] exactly — including wall time, which is measured
//! once per call and written to both.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::exec::{OpKind, OpSnapshot, StatsSnapshot};

/// What a span stands for: an algebra operator call, or a node label
/// supplied by a higher layer (a query plan node, a REPL phase, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanLabel {
    /// One relation-level `*_in` operator invocation.
    Op(OpKind),
    /// A caller-labelled region (see
    /// [`ExecContext::node_span`](crate::ExecContext::node_span)).
    Node(String),
}

impl SpanLabel {
    /// Display name: the operator's stable name, or the node label.
    pub fn name(&self) -> &str {
        match self {
            SpanLabel::Op(kind) => kind.name(),
            SpanLabel::Node(label) => label,
        }
    }

    /// Whether this is an operator span.
    pub fn is_op(&self) -> bool {
        matches!(self, SpanLabel::Op(_))
    }
}

/// One recorded region of work. Ids are dense: span `i` is `spans()[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic id (begin order, starting at 0).
    pub id: u64,
    /// Id of the innermost span still open when this one began.
    pub parent: Option<u64>,
    /// Number of ancestors (roots have depth 0).
    pub depth: u32,
    /// Operator kind or node label.
    pub label: SpanLabel,
    /// Stable id of the query-plan node this span executes, if the caller
    /// supplied one (see
    /// [`ExecContext::plan_span`](crate::ExecContext::plan_span)). Lets
    /// EXPLAIN ANALYZE join plan and trace by id instead of by label text.
    pub plan_node: Option<u64>,
    /// Generalized tuples consumed during this span (operator spans only).
    pub tuples_in: u64,
    /// Generalized tuples produced.
    pub tuples_out: u64,
    /// Candidate pairs / refinement combinations examined.
    pub pairs: u64,
    /// Candidates dropped as empty or unsatisfiable.
    pub empties_pruned: u64,
    /// Candidate pairs examined after residue-index filtering.
    pub index_probes: u64,
    /// Candidate pairs skipped outright by the residue index.
    pub index_pruned: u64,
    /// Constraint atoms rewritten.
    pub atoms_simplified: u64,
    /// Tuples dropped by compaction as subsumed by another tuple.
    pub tuples_subsumed: u64,
    /// Tuples eliminated by coalescing residue-class groups.
    pub coalesce_merges: u64,
    /// Largest common period `k` encountered inside the span.
    pub max_period: u64,
    /// Begin time, nanoseconds since the sink was created.
    pub start_nanos: u64,
    /// Wall time, in nanoseconds (0 until the span ends).
    pub nanos: u64,
}

impl Span {
    /// Wall time as a [`Duration`].
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.nanos)
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    /// Open spans, outermost first.
    stack: Vec<u64>,
    spans: Vec<Span>,
}

/// Collects spans for one [`ExecContext`](crate::ExecContext).
///
/// Created by [`ExecContext::traced`](crate::ExecContext::traced); read
/// back as a [`Trace`] via
/// [`ExecContext::take_trace`](crate::ExecContext::take_trace). All
/// methods are internal — operators and the query layer drive the sink
/// through the context.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    pub(crate) fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            inner: Mutex::new(SinkInner::default()),
        }
    }

    /// Opens a span under the innermost open span; returns its id.
    pub(crate) fn begin(&self, label: SpanLabel, plan_node: Option<u64>) -> u64 {
        let start_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        let id = inner.spans.len() as u64;
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len() as u32;
        inner.stack.push(id);
        inner.spans.push(Span {
            id,
            parent,
            depth,
            label,
            plan_node,
            tuples_in: 0,
            tuples_out: 0,
            pairs: 0,
            empties_pruned: 0,
            index_probes: 0,
            index_pruned: 0,
            atoms_simplified: 0,
            tuples_subsumed: 0,
            coalesce_merges: 0,
            max_period: 0,
            start_nanos,
            nanos: 0,
        });
        id
    }

    /// Closes span `id`, applying `fill` to write its final counters.
    pub(crate) fn end(&self, id: u64, fill: impl FnOnce(&mut Span)) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        inner.stack.retain(|open| *open != id);
        if let Some(span) = inner.spans.get_mut(id as usize) {
            fill(span);
        }
    }

    /// Mutates an open span in place (e.g. a node span's output count).
    pub(crate) fn update(&self, id: u64, f: impl FnOnce(&mut Span)) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        if let Some(span) = inner.spans.get_mut(id as usize) {
            f(span);
        }
    }

    /// Records a common period `k` against the innermost open span of
    /// `kind`. Periods are observed mid-operator (sometimes from worker
    /// threads), and `max` does not survive the begin/end delta trick, so
    /// they are routed here directly.
    pub(crate) fn record_period(&self, kind: OpKind, k: i64) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        let open = inner
            .stack
            .iter()
            .rev()
            .copied()
            .find(|id| inner.spans[*id as usize].label == SpanLabel::Op(kind));
        if let Some(id) = open {
            let span = &mut inner.spans[id as usize];
            span.max_period = span.max_period.max(k.max(0) as u64);
        }
    }

    /// Drains the recorded spans (ids stay dense and start at 0 again for
    /// spans recorded afterwards).
    pub(crate) fn take(&self) -> Trace {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        inner.stack.clear();
        Trace {
            spans: std::mem::take(&mut inner.spans),
        }
    }
}

/// RAII guard for a caller-labelled span; see
/// [`ExecContext::node_span`](crate::ExecContext::node_span).
///
/// The span opens when the guard is created and closes when it drops. On
/// an untraced context the guard is inert.
#[derive(Debug)]
pub struct NodeSpan<'a> {
    sink: Option<(&'a TraceSink, u64)>,
    start: Instant,
}

impl<'a> NodeSpan<'a> {
    pub(crate) fn new(
        sink: Option<&'a TraceSink>,
        label: impl FnOnce() -> String,
        plan_node: Option<u64>,
    ) -> NodeSpan<'a> {
        NodeSpan {
            sink: sink.map(|s| (s, s.begin(SpanLabel::Node(label()), plan_node))),
            start: Instant::now(),
        }
    }

    /// Records how many tuples this region produced.
    pub fn set_tuples_out(&self, n: u64) {
        if let Some((sink, id)) = self.sink {
            sink.update(id, |span| span.tuples_out = n);
        }
    }
}

impl Drop for NodeSpan<'_> {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.sink.take() {
            let nanos = self.start.elapsed().as_nanos() as u64;
            sink.end(id, |span| span.nanos = nanos);
        }
    }
}

/// An immutable span tree drained from a [`TraceSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// All spans in begin order; `spans()[i].id == i`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Top-level spans (no parent), in begin order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Direct children of span `id`, in begin order.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The first span recorded for plan node `id` (see
    /// [`ExecContext::plan_span`](crate::ExecContext::plan_span)), if any.
    pub fn span_for_plan_node(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.plan_node == Some(id))
    }

    /// Sums the operator counters attributed to plan node `id`: every
    /// operator span whose *nearest* enclosing node span carries that plan
    /// id. Work issued by a node's children is charged to the children,
    /// not rolled up — this is the "actual" column of EXPLAIN ANALYZE.
    pub fn op_totals_for_plan_node(&self, id: u64) -> StatsSnapshot {
        let mut ops = [OpSnapshot::default(); OpKind::ALL.len()];
        for span in &self.spans {
            let SpanLabel::Op(kind) = span.label else {
                continue;
            };
            // Climb to the nearest ancestor that is a node span.
            let mut at = span.parent;
            let owner = loop {
                match at {
                    Some(p) => {
                        let parent = &self.spans[p as usize];
                        if parent.label.is_op() {
                            at = parent.parent;
                        } else {
                            break Some(parent);
                        }
                    }
                    None => break None,
                }
            };
            if owner.and_then(|s| s.plan_node) == Some(id) {
                let op = &mut ops[kind.index()];
                op.calls += 1;
                op.tuples_in += span.tuples_in;
                op.tuples_out += span.tuples_out;
                op.pairs += span.pairs;
                op.empties_pruned += span.empties_pruned;
                op.index_probes += span.index_probes;
                op.index_pruned += span.index_pruned;
                op.atoms_simplified += span.atoms_simplified;
                op.tuples_subsumed += span.tuples_subsumed;
                op.coalesce_merges += span.coalesce_merges;
                op.max_period = op.max_period.max(span.max_period);
                op.nanos += span.nanos;
            }
        }
        StatsSnapshot { ops }
    }

    /// A copy with `start_nanos`/`nanos` zeroed on every span — the
    /// timing-independent tree shape, suitable for equality comparison
    /// across runs and thread counts.
    pub fn without_timing(&self) -> Trace {
        Trace {
            spans: self
                .spans
                .iter()
                .map(|s| Span {
                    start_nanos: 0,
                    nanos: 0,
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// Sums the operator spans back into a [`StatsSnapshot`].
    ///
    /// For a trace drained from a fresh context this equals the context's
    /// own aggregate [`stats`](crate::ExecContext::stats) exactly, wall
    /// time included — the acceptance check that no operator work escapes
    /// the span tree. Node spans contribute nothing.
    pub fn op_totals(&self) -> StatsSnapshot {
        let mut ops = [OpSnapshot::default(); OpKind::ALL.len()];
        for span in &self.spans {
            if let SpanLabel::Op(kind) = span.label {
                let op = &mut ops[kind.index()];
                op.calls += 1;
                op.tuples_in += span.tuples_in;
                op.tuples_out += span.tuples_out;
                op.pairs += span.pairs;
                op.empties_pruned += span.empties_pruned;
                op.index_probes += span.index_probes;
                op.index_pruned += span.index_pruned;
                op.atoms_simplified += span.atoms_simplified;
                op.tuples_subsumed += span.tuples_subsumed;
                op.coalesce_merges += span.coalesce_merges;
                op.max_period = op.max_period.max(span.max_period);
                op.nanos += span.nanos;
            }
        }
        StatsSnapshot { ops }
    }

    /// Folds the span tree into flamegraph *collapsed stack* lines — one
    /// `frame;frame;frame self_nanos` line per distinct root-to-span
    /// path with nonzero self time, merged and sorted lexicographically
    /// (the format `inferno` / `flamegraph.pl` consume).
    ///
    /// Self time is a span's wall time minus its direct children's, so
    /// the lines sum back to the roots' total wall time. Frame names are
    /// the span labels with `;` (the stack separator) and newlines
    /// replaced; spaces are legal because the sample value follows the
    /// *last* space.
    pub fn to_folded(&self) -> String {
        fn frame(span: &Span) -> String {
            span.label
                .name()
                .chars()
                .map(|c| match c {
                    ';' => ':',
                    '\n' | '\r' => ' ',
                    c => c,
                })
                .collect()
        }
        let mut stacks: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for span in &self.spans {
            let children: u64 = self.children(span.id).map(|c| c.nanos).sum();
            let self_nanos = span.nanos.saturating_sub(children);
            if self_nanos == 0 {
                continue;
            }
            let mut frames = vec![frame(span)];
            let mut at = span.parent;
            while let Some(p) = at {
                let parent = &self.spans[p as usize];
                frames.push(frame(parent));
                at = parent.parent;
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_insert(0) += self_nanos;
        }
        let mut out = String::new();
        for (stack, nanos) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the span tree as indented text (the `\trace` REPL view and
    /// the EXPLAIN ANALYZE annotation).
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let roots: Vec<&Span> = self.roots().collect();
        for (i, root) in roots.iter().enumerate() {
            self.render_node(&mut out, root, "", i + 1 == roots.len(), true);
        }
        out
    }

    fn render_node(&self, out: &mut String, span: &Span, prefix: &str, last: bool, root: bool) {
        let (branch, next_prefix) = if root {
            ("", String::new())
        } else if last {
            ("└─ ", format!("{prefix}   "))
        } else {
            ("├─ ", format!("{prefix}│  "))
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&describe(span));
        out.push('\n');
        let children: Vec<&Span> = self.children(span.id).collect();
        for (i, child) in children.iter().enumerate() {
            self.render_node(out, child, &next_prefix, i + 1 == children.len(), false);
        }
    }

    /// Exports one JSON object per span, newline-separated (`.jsonl`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            span_json(&mut out, span);
            out.push('\n');
        }
        out
    }

    /// Exports the Chrome trace-event format (a JSON array of complete
    /// `"ph": "X"` events, timestamps in microseconds) — loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\":");
            escape_json(span.label.name(), &mut out);
            out.push_str(&format!(
                ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{},\"parent\":{},\"plan_node\":{},\"tuples_in\":{},\
                 \"tuples_out\":{},\
                 \"pairs\":{},\"empties_pruned\":{},\"index_probes\":{},\"index_pruned\":{},\
                 \"atoms_simplified\":{},\"tuples_subsumed\":{},\"coalesce_merges\":{},\
                 \"max_period\":{}}}}}",
                if span.label.is_op() { "op" } else { "node" },
                span.start_nanos as f64 / 1_000.0,
                span.nanos as f64 / 1_000.0,
                span.id,
                span.parent.map_or("null".into(), |p| p.to_string()),
                span.plan_node.map_or("null".into(), |p| p.to_string()),
                span.tuples_in,
                span.tuples_out,
                span.pairs,
                span.empties_pruned,
                span.index_probes,
                span.index_pruned,
                span.atoms_simplified,
                span.tuples_subsumed,
                span.coalesce_merges,
                span.max_period,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// One-line description of a span for the tree rendering.
fn describe(span: &Span) -> String {
    let mut line = match &span.label {
        SpanLabel::Op(kind) => format!(
            "{}: in={} out={}",
            kind.name(),
            span.tuples_in,
            span.tuples_out
        ),
        SpanLabel::Node(label) => format!("{label} → {} tuple(s)", span.tuples_out),
    };
    if span.pairs > 0 {
        line.push_str(&format!(" pairs={}", span.pairs));
    }
    if span.empties_pruned > 0 {
        line.push_str(&format!(" pruned={}", span.empties_pruned));
    }
    if span.index_probes > 0 || span.index_pruned > 0 {
        line.push_str(&format!(
            " probes={} skipped={}",
            span.index_probes, span.index_pruned
        ));
    }
    if span.atoms_simplified > 0 {
        line.push_str(&format!(" atoms={}", span.atoms_simplified));
    }
    if span.tuples_subsumed > 0 {
        line.push_str(&format!(" subsumed={}", span.tuples_subsumed));
    }
    if span.coalesce_merges > 0 {
        line.push_str(&format!(" merged={}", span.coalesce_merges));
    }
    if span.max_period > 0 {
        line.push_str(&format!(" k={}", span.max_period));
    }
    line.push_str(&format!(" [{:.1?}]", span.wall_time()));
    line
}

fn span_json(out: &mut String, span: &Span) {
    out.push_str(&format!("{{\"id\":{},\"parent\":", span.id));
    match span.parent {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(&format!(
        ",\"depth\":{},\"kind\":\"{}\",\"plan_node\":{},\"name\":",
        span.depth,
        if span.label.is_op() { "op" } else { "node" },
        span.plan_node.map_or("null".to_string(), |p| p.to_string()),
    ));
    escape_json(span.label.name(), out);
    out.push_str(&format!(
        ",\"tuples_in\":{},\"tuples_out\":{},\"pairs\":{},\"empties_pruned\":{},\
         \"index_probes\":{},\"index_pruned\":{},\"atoms_simplified\":{},\
         \"tuples_subsumed\":{},\"coalesce_merges\":{},\"max_period\":{},\
         \"start_ns\":{},\"dur_ns\":{}}}",
        span.tuples_in,
        span.tuples_out,
        span.pairs,
        span.empties_pruned,
        span.index_probes,
        span.index_pruned,
        span.atoms_simplified,
        span.tuples_subsumed,
        span.coalesce_merges,
        span.max_period,
        span.start_nanos,
        span.nanos,
    ));
}

/// Writes `s` as a JSON string literal (quotes included).
pub(crate) fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_tree())
    }
}

impl StatsSnapshot {
    /// Renders the counters in the Prometheus text exposition format
    /// (`\metrics` in the REPL). Counter metrics are suffixed `_total`;
    /// `max_period` is exposed as a gauge. Every operator kind is emitted
    /// for every metric so scrape series stay stable.
    pub fn to_prometheus(&self) -> String {
        type Metric = (&'static str, &'static str, fn(&OpSnapshot) -> u64);
        let mut out = String::new();
        let counters: [Metric; 10] = [
            ("calls", "Algebra operator invocations.", |o| o.calls),
            ("tuples_in", "Generalized tuples consumed.", |o| o.tuples_in),
            ("tuples_out", "Generalized tuples produced.", |o| {
                o.tuples_out
            }),
            ("pairs", "Candidate tuple pairs examined.", |o| o.pairs),
            ("empties_pruned", "Candidates dropped as empty.", |o| {
                o.empties_pruned
            }),
            (
                "index_probes",
                "Candidate pairs probed after index filtering.",
                |o| o.index_probes,
            ),
            (
                "index_pruned",
                "Candidate pairs skipped by the residue index.",
                |o| o.index_pruned,
            ),
            ("atoms_simplified", "Constraint atoms rewritten.", |o| {
                o.atoms_simplified
            }),
            (
                "tuples_subsumed",
                "Tuples dropped by compaction as subsumed.",
                |o| o.tuples_subsumed,
            ),
            (
                "coalesce_merges",
                "Tuples eliminated by coalescing residue classes.",
                |o| o.coalesce_merges,
            ),
        ];
        for (metric, help, get) in counters {
            out.push_str(&format!("# HELP itd_op_{metric}_total {help}\n"));
            out.push_str(&format!("# TYPE itd_op_{metric}_total counter\n"));
            for (kind, op) in self.iter() {
                out.push_str(&format!(
                    "itd_op_{metric}_total{{op=\"{}\"}} {}\n",
                    kind.name(),
                    get(op)
                ));
            }
        }
        out.push_str("# HELP itd_op_max_period Largest common period k encountered.\n");
        out.push_str("# TYPE itd_op_max_period gauge\n");
        for (kind, op) in self.iter() {
            out.push_str(&format!(
                "itd_op_max_period{{op=\"{}\"}} {}\n",
                kind.name(),
                op.max_period
            ));
        }
        out.push_str("# HELP itd_op_wall_seconds_total Accumulated operator wall time.\n");
        out.push_str("# TYPE itd_op_wall_seconds_total counter\n");
        for (kind, op) in self.iter() {
            out.push_str(&format!(
                "itd_op_wall_seconds_total{{op=\"{}\"}} {:.9}\n",
                kind.name(),
                op.nanos as f64 / 1e9
            ));
        }
        out
    }

    /// Serializes every counter as one JSON object (`\stats json` in the
    /// REPL).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ops\":{");
        for (i, (kind, op)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"tuples_in\":{},\"tuples_out\":{},\"pairs\":{},\
                 \"empties_pruned\":{},\"index_probes\":{},\"index_pruned\":{},\
                 \"atoms_simplified\":{},\"tuples_subsumed\":{},\"coalesce_merges\":{},\
                 \"max_period\":{},\"nanos\":{}}}",
                kind.name(),
                op.calls,
                op.tuples_in,
                op.tuples_out,
                op.pairs,
                op.empties_pruned,
                op.index_probes,
                op.index_pruned,
                op.atoms_simplified,
                op.tuples_subsumed,
                op.coalesce_merges,
                op.max_period,
                op.nanos,
            ));
        }
        out.push_str(&format!(
            "}},\"total_calls\":{},\"total_wall_ns\":{}}}",
            self.total_calls(),
            self.total_wall_time().as_nanos(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let sink = TraceSink::new();
        let root = sink.begin(SpanLabel::Node("and \"x\"".into()), Some(7));
        let a = sink.begin(SpanLabel::Op(OpKind::Join), None);
        sink.record_period(OpKind::Join, 6);
        sink.end(a, |s| {
            s.tuples_in = 4;
            s.tuples_out = 2;
            s.pairs = 4;
            s.nanos = 1_500;
        });
        let b = sink.begin(SpanLabel::Op(OpKind::Project), None);
        sink.end(b, |s| {
            s.tuples_in = 2;
            s.tuples_out = 2;
            s.nanos = 500;
        });
        sink.update(root, |s| s.tuples_out = 2);
        sink.end(root, |s| s.nanos = 3_000);
        sink.take()
    }

    #[test]
    fn tree_shape_and_ids() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.roots().count(), 1);
        assert_eq!(t.spans()[0].label, SpanLabel::Node("and \"x\"".into()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[1].depth, 1);
        assert_eq!(t.children(0).count(), 2);
        assert_eq!(t.spans()[1].max_period, 6);
    }

    #[test]
    fn op_totals_sum_operator_spans() {
        let t = sample();
        let totals = t.op_totals();
        assert_eq!(totals.op(OpKind::Join).calls, 1);
        assert_eq!(totals.op(OpKind::Join).pairs, 4);
        assert_eq!(totals.op(OpKind::Join).max_period, 6);
        assert_eq!(totals.op(OpKind::Project).tuples_out, 2);
        // Node spans do not contribute.
        assert_eq!(totals.total_calls(), 2);
        assert_eq!(totals.total_wall_time(), Duration::from_nanos(2_000));
    }

    #[test]
    fn without_timing_is_stable() {
        let a = sample().without_timing();
        let b = sample().without_timing();
        assert_eq!(a, b);
        assert!(a.spans().iter().all(|s| s.nanos == 0 && s.start_nanos == 0));
    }

    #[test]
    fn render_tree_shows_counters() {
        let text = sample().render_tree();
        assert!(text.contains("and \"x\" → 2 tuple(s)"), "{text}");
        assert!(text.contains("├─ join: in=4 out=2 pairs=4 k=6"), "{text}");
        assert!(text.contains("└─ project: in=2 out=2"), "{text}");
    }

    #[test]
    fn json_lines_escape_and_shape() {
        let text = sample().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"and \\\"x\\\"\""), "{text}");
        assert!(lines[0].contains("\"parent\":null"), "{text}");
        assert!(lines[1].contains("\"kind\":\"op\""), "{text}");
        assert!(lines[1].contains("\"max_period\":6"), "{text}");
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let text = sample().to_chrome_trace();
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        assert!(text.contains("\"ts\":"), "{text}");
        assert!(text.contains("\"dur\":1.500"), "{text}");
    }

    #[test]
    fn prometheus_text_format() {
        let stats = sample().op_totals();
        let text = stats.to_prometheus();
        assert!(text.contains("# TYPE itd_op_calls_total counter"), "{text}");
        assert!(text.contains("itd_op_calls_total{op=\"join\"} 1"), "{text}");
        assert!(text.contains("itd_op_max_period{op=\"join\"} 6"), "{text}");
        assert!(
            text.contains("itd_op_calls_total{op=\"union\"} 0"),
            "series must be stable even at zero: {text}"
        );
    }

    #[test]
    fn stats_json_includes_every_op() {
        let stats = sample().op_totals();
        let text = stats.to_json();
        assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
        assert!(text.contains("\"join\":{\"calls\":1"), "{text}");
        assert!(text.contains("\"total_calls\":2"), "{text}");
        for kind in OpKind::ALL {
            assert!(text.contains(&format!("\"{}\":", kind.name())), "{text}");
        }
    }

    #[test]
    fn compaction_counters_render_and_export() {
        let sink = TraceSink::new();
        let a = sink.begin(SpanLabel::Op(OpKind::Compact), None);
        sink.end(a, |s| {
            s.tuples_in = 10;
            s.tuples_out = 6;
            s.tuples_subsumed = 3;
            s.coalesce_merges = 1;
            s.nanos = 700;
        });
        let b = sink.begin(SpanLabel::Op(OpKind::Intersect), None);
        sink.end(b, |s| {
            s.pairs = 9;
            s.nanos = 300;
        });
        let t = sink.take();
        let text = t.render_tree();
        assert!(
            text.contains("compact: in=10 out=6 subsumed=3 merged=1"),
            "{text}"
        );
        assert!(text.contains("intersect: in=0 out=0 pairs=9"), "{text}");
        let totals = t.op_totals();
        assert_eq!(totals.op(OpKind::Compact).tuples_subsumed, 3);
        assert_eq!(totals.op(OpKind::Compact).coalesce_merges, 1);
        assert_eq!(totals.op(OpKind::Intersect).pairs, 9);
        let prom = totals.to_prometheus();
        assert!(
            prom.contains("itd_op_tuples_subsumed_total{op=\"compact\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("itd_op_pairs_total{op=\"intersect\"} 9"),
            "{prom}"
        );
        let json = totals.to_json();
        assert!(json.contains("\"coalesce_merges\":1"), "{json}");
        let jsonl = t.to_json_lines();
        assert!(jsonl.contains("\"tuples_subsumed\":3"), "{jsonl}");
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"pairs\":9"), "{chrome}");
    }

    #[test]
    fn record_period_targets_innermost_open_span_of_kind() {
        let sink = TraceSink::new();
        let outer = sink.begin(SpanLabel::Op(OpKind::Normalize), None);
        let inner = sink.begin(SpanLabel::Op(OpKind::Select), None);
        // Recorded against the open Normalize span even though Select is
        // innermost overall.
        sink.record_period(OpKind::Normalize, 12);
        // No open Complement span: silently dropped.
        sink.record_period(OpKind::Complement, 99);
        sink.end(inner, |_| {});
        sink.end(outer, |_| {});
        let t = sink.take();
        assert_eq!(t.spans()[0].max_period, 12);
        assert_eq!(t.spans()[1].max_period, 0);
    }
}
