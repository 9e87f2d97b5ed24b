//! Instrumented, optionally parallel execution of the algebra.
//!
//! An [`ExecContext`] carries two things through the relation-level
//! operators ([`GenRelation::intersect_in`] and friends):
//!
//! * a **thread budget** — the embarrassingly-parallel pairwise tuple work
//!   of intersection, difference, product, join, projection and
//!   normalization is fanned out over [`std::thread::scope`] workers.
//!   Work is split into *contiguous chunks of the outer tuple index
//!   space* and the per-chunk outputs are concatenated in chunk order, so
//!   the result is **bit-identical at any thread count** (and identical
//!   to the serial path);
//! * **per-operator counters** ([`OpStats`]) — tuples in/out, candidate
//!   pairs examined, empty tuples pruned, constraint atoms rewritten,
//!   the largest common period encountered, and wall time. A cheap,
//!   clonable [`StatsSnapshot`] can be taken at any moment; the query
//!   layer surfaces it as `QueryResult::stats` and the REPL as `\stats`.
//!
//! The pre-existing operator methods (`intersect`, `difference`, …) are
//! thin wrappers over the `*_in` variants with a fresh serial context, so
//! their behavior is unchanged.
//!
//! [`GenRelation::intersect_in`]: crate::GenRelation::intersect_in

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::trace::{NodeSpan, SpanLabel, Trace, TraceSink};
use crate::Result;

/// The relation-level operators distinguished by [`OpStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Union (§3.1).
    Union,
    /// Intersection (§3.2).
    Intersect,
    /// Difference (§3.3).
    Difference,
    /// Complement within `Z^m` (Appendix A.6).
    Complement,
    /// Cross product (§3.6).
    Product,
    /// Equi-join (§3.7).
    Join,
    /// Projection (§3.4).
    Project,
    /// Temporal / data selection (§3.5).
    Select,
    /// Column translation for successor terms.
    Shift,
    /// Normalization (Theorem 3.2).
    Normalize,
    /// Adaptive intermediate compaction (subsumption pruning plus
    /// residue-class coalescing between plan nodes).
    Compact,
    /// Incremental refresh of a registered materialized view (signed-delta
    /// propagation through its cached plan outputs).
    ViewRefresh,
}

impl OpKind {
    /// Every operator kind, in display order.
    pub const ALL: [OpKind; 12] = [
        OpKind::Union,
        OpKind::Intersect,
        OpKind::Difference,
        OpKind::Complement,
        OpKind::Product,
        OpKind::Join,
        OpKind::Project,
        OpKind::Select,
        OpKind::Shift,
        OpKind::Normalize,
        OpKind::Compact,
        OpKind::ViewRefresh,
    ];

    /// Stable lower-case name (used by the REPL and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Union => "union",
            OpKind::Intersect => "intersect",
            OpKind::Difference => "difference",
            OpKind::Complement => "complement",
            OpKind::Product => "product",
            OpKind::Join => "join",
            OpKind::Project => "project",
            OpKind::Select => "select",
            OpKind::Shift => "shift",
            OpKind::Normalize => "normalize",
            OpKind::Compact => "compact",
            OpKind::ViewRefresh => "view_refresh",
        }
    }

    pub(crate) fn index(self) -> usize {
        OpKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("OpKind::ALL is exhaustive")
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Live (atomic) counters for one operator kind.
///
/// All updates are `Relaxed`: the counters are monotone tallies with no
/// ordering relationship to the data they describe, and readers only see
/// them through [`OpStats::snapshot`] after the operators have returned.
#[derive(Debug, Default)]
pub struct OpCounters {
    calls: AtomicU64,
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
    pairs: AtomicU64,
    empties_pruned: AtomicU64,
    index_probes: AtomicU64,
    index_pruned: AtomicU64,
    atoms_simplified: AtomicU64,
    tuples_subsumed: AtomicU64,
    coalesce_merges: AtomicU64,
    max_period: AtomicU64,
    nanos: AtomicU64,
}

impl OpCounters {
    pub(crate) fn add_in(&self, n: usize) {
        self.tuples_in.fetch_add(n as u64, Relaxed);
    }

    pub(crate) fn add_out(&self, n: usize) {
        self.tuples_out.fetch_add(n as u64, Relaxed);
    }

    pub(crate) fn add_pairs(&self, n: u64) {
        self.pairs.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_pruned(&self, n: u64) {
        self.empties_pruned.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_index_pruned(&self, n: u64) {
        self.index_pruned.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_atoms(&self, n: u64) {
        self.atoms_simplified.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_subsumed(&self, n: u64) {
        self.tuples_subsumed.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_merges(&self, n: u64) {
        self.coalesce_merges.fetch_add(n, Relaxed);
    }

    pub(crate) fn record_period(&self, k: i64) {
        self.max_period.fetch_max(k.max(0) as u64, Relaxed);
    }

    fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            calls: self.calls.load(Relaxed),
            tuples_in: self.tuples_in.load(Relaxed),
            tuples_out: self.tuples_out.load(Relaxed),
            pairs: self.pairs.load(Relaxed),
            empties_pruned: self.empties_pruned.load(Relaxed),
            index_probes: self.index_probes.load(Relaxed),
            index_pruned: self.index_pruned.load(Relaxed),
            atoms_simplified: self.atoms_simplified.load(Relaxed),
            tuples_subsumed: self.tuples_subsumed.load(Relaxed),
            coalesce_merges: self.coalesce_merges.load(Relaxed),
            max_period: self.max_period.load(Relaxed),
            nanos: self.nanos.load(Relaxed),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.tuples_in.store(0, Relaxed);
        self.tuples_out.store(0, Relaxed);
        self.pairs.store(0, Relaxed);
        self.empties_pruned.store(0, Relaxed);
        self.index_probes.store(0, Relaxed);
        self.index_pruned.store(0, Relaxed);
        self.atoms_simplified.store(0, Relaxed);
        self.tuples_subsumed.store(0, Relaxed);
        self.coalesce_merges.store(0, Relaxed);
        self.max_period.store(0, Relaxed);
        self.nanos.store(0, Relaxed);
    }
}

/// Per-operator counters for a whole context; see [`OpCounters`].
#[derive(Debug, Default)]
pub struct OpStats {
    ops: [OpCounters; OpKind::ALL.len()],
}

impl OpStats {
    pub(crate) fn op(&self, kind: OpKind) -> &OpCounters {
        &self.ops[kind.index()]
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            ops: OpKind::ALL.map(|k| self.op(k).snapshot()),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in &self.ops {
            c.reset();
        }
    }
}

/// Plain-data copy of one operator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Operator invocations.
    pub calls: u64,
    /// Generalized tuples consumed (both operands).
    pub tuples_in: u64,
    /// Generalized tuples produced.
    pub tuples_out: u64,
    /// Candidate tuple pairs / refinement combinations examined.
    pub pairs: u64,
    /// Candidates dropped as empty or unsatisfiable (including pairs the
    /// residue index proved empty without examining them).
    pub empties_pruned: u64,
    /// Candidate pairs actually examined after residue-index filtering
    /// (zero when the operator ran without an index).
    pub index_probes: u64,
    /// Candidate pairs skipped by the residue index (data-hash or residue
    /// incompatibility); `index_probes + index_pruned == pairs` whenever an
    /// index was consulted.
    pub index_pruned: u64,
    /// Constraint atoms rewritten (added, conjoined, or grid-rounded).
    pub atoms_simplified: u64,
    /// Tuples dropped by compaction because another tuple's denotation
    /// contains theirs; `tuples_subsumed + coalesce_merges + tuples_out ==
    /// tuples_in` for every compact call.
    pub tuples_subsumed: u64,
    /// Tuples eliminated by coalescing complete residue-class groups into
    /// one coarser tuple (a group of `s` tuples contributes `s − 1`).
    pub coalesce_merges: u64,
    /// Largest common period `k` encountered.
    pub max_period: u64,
    /// Accumulated wall time, in nanoseconds.
    pub nanos: u64,
}

impl OpSnapshot {
    /// Accumulated wall time.
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.nanos)
    }

    /// Whether the operator was never invoked.
    pub fn is_zero(&self) -> bool {
        self.calls == 0
    }
}

/// Plain-data copy of a context's [`OpStats`], cheap to clone and safe to
/// hold after the context is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub(crate) ops: [OpSnapshot; OpKind::ALL.len()],
}

impl StatsSnapshot {
    /// The counters of one operator.
    pub fn op(&self, kind: OpKind) -> &OpSnapshot {
        &self.ops[kind.index()]
    }

    /// Iterates over `(kind, counters)` in display order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, &OpSnapshot)> {
        OpKind::ALL.iter().map(move |k| (*k, self.op(*k)))
    }

    /// Total operator invocations across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total wall time across all kinds.
    pub fn total_wall_time(&self) -> Duration {
        Duration::from_nanos(self.ops.iter().map(|o| o.nanos).sum())
    }

    /// Total candidate pairs / refinement combinations examined across
    /// all kinds — the optimizer's figure of merit.
    pub fn total_pairs(&self) -> u64 {
        self.ops.iter().map(|o| o.pairs).sum()
    }

    /// Whether no operator was invoked at all.
    pub fn is_zero(&self) -> bool {
        self.total_calls() == 0
    }

    /// Adds every counter of `other` into `self` (`max_period` takes the
    /// maximum); used to aggregate across evaluations.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (mine, theirs) in self.ops.iter_mut().zip(&other.ops) {
            mine.calls += theirs.calls;
            mine.tuples_in += theirs.tuples_in;
            mine.tuples_out += theirs.tuples_out;
            mine.pairs += theirs.pairs;
            mine.empties_pruned += theirs.empties_pruned;
            mine.index_probes += theirs.index_probes;
            mine.index_pruned += theirs.index_pruned;
            mine.atoms_simplified += theirs.atoms_simplified;
            mine.tuples_subsumed += theirs.tuples_subsumed;
            mine.coalesce_merges += theirs.coalesce_merges;
            mine.max_period = mine.max_period.max(theirs.max_period);
            mine.nanos += theirs.nanos;
        }
    }

    /// The counters this snapshot added on top of `before` (saturating,
    /// field by field) — what one evaluation contributed to a shared
    /// context. `max_period` keeps `self`'s value: maxima do not
    /// difference.
    pub fn delta_since(&self, before: &StatsSnapshot) -> StatsSnapshot {
        let mut out = self.clone();
        for (mine, prior) in out.ops.iter_mut().zip(&before.ops) {
            mine.calls = mine.calls.saturating_sub(prior.calls);
            mine.tuples_in = mine.tuples_in.saturating_sub(prior.tuples_in);
            mine.tuples_out = mine.tuples_out.saturating_sub(prior.tuples_out);
            mine.pairs = mine.pairs.saturating_sub(prior.pairs);
            mine.empties_pruned = mine.empties_pruned.saturating_sub(prior.empties_pruned);
            mine.index_probes = mine.index_probes.saturating_sub(prior.index_probes);
            mine.index_pruned = mine.index_pruned.saturating_sub(prior.index_pruned);
            mine.atoms_simplified = mine.atoms_simplified.saturating_sub(prior.atoms_simplified);
            mine.tuples_subsumed = mine.tuples_subsumed.saturating_sub(prior.tuples_subsumed);
            mine.coalesce_merges = mine.coalesce_merges.saturating_sub(prior.coalesce_merges);
            mine.nanos = mine.nanos.saturating_sub(prior.nanos);
        }
        out
    }

    /// A copy with every wall-time field zeroed — the only counters that
    /// vary run to run — for replay-determinism comparisons.
    pub fn without_timing(&self) -> StatsSnapshot {
        let mut out = self.clone();
        for op in out.ops.iter_mut() {
            op.nanos = 0;
        }
        out
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return writeln!(f, "no algebra operations recorded");
        }
        writeln!(
            f,
            "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7} {:>9} {:>7} {:>7} {:>12}",
            "op",
            "calls",
            "in",
            "out",
            "pairs",
            "pruned",
            "probes",
            "skipped",
            "atoms",
            "subsumed",
            "merged",
            "max_k",
            "time"
        )?;
        for (kind, op) in self.iter() {
            if op.is_zero() {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7} {:>9} {:>7} {:>7} {:>12}",
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
                format!("{:.1?}", op.wall_time()),
            )?;
        }
        write!(
            f,
            "{:<12} {:>6} {:>96} {:>12}",
            "total",
            self.total_calls(),
            "",
            format!("{:.1?}", self.total_wall_time()),
        )
    }
}

/// Times one operator invocation; counts the call on construction and the
/// elapsed wall time on drop. Dereferences to the operator's counters.
///
/// When the context is traced, the timer also owns a [`Span`]: per-span
/// counters are computed on drop as the *delta* of the shared counters
/// between construction and drop (exact because same-kind operators never
/// nest and worker threads join before the operator returns), and the
/// elapsed wall time is measured once and written to both the shared
/// counters and the span.
///
/// [`Span`]: crate::trace::Span
pub(crate) struct OpTimer<'a> {
    counters: &'a OpCounters,
    kind: OpKind,
    span: Option<(&'a TraceSink, u64, OpSnapshot)>,
    start: Instant,
}

impl OpTimer<'_> {
    /// Records a common period `k` into the shared counters and, when
    /// traced, the timer's span. Shadows [`OpCounters::record_period`]
    /// behind the `Deref` so period reports are never lost to the delta
    /// trick (`fetch_max` deltas do not compose).
    pub(crate) fn record_period(&self, k: i64) {
        self.counters.record_period(k);
        if let Some((sink, _, _)) = &self.span {
            sink.record_period(self.kind, k);
        }
    }
}

impl Deref for OpTimer<'_> {
    type Target = OpCounters;

    fn deref(&self) -> &OpCounters {
        self.counters
    }
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.counters.nanos.fetch_add(nanos, Relaxed);
        if let Some((sink, id, before)) = self.span.take() {
            let after = self.counters.snapshot();
            sink.end(id, |span| {
                span.tuples_in = after.tuples_in.saturating_sub(before.tuples_in);
                span.tuples_out = after.tuples_out.saturating_sub(before.tuples_out);
                span.pairs = after.pairs.saturating_sub(before.pairs);
                span.empties_pruned = after.empties_pruned.saturating_sub(before.empties_pruned);
                span.index_probes = after.index_probes.saturating_sub(before.index_probes);
                span.index_pruned = after.index_pruned.saturating_sub(before.index_pruned);
                span.atoms_simplified = after
                    .atoms_simplified
                    .saturating_sub(before.atoms_simplified);
                span.tuples_subsumed = after.tuples_subsumed.saturating_sub(before.tuples_subsumed);
                span.coalesce_merges = after.coalesce_merges.saturating_sub(before.coalesce_merges);
                span.nanos = nanos;
            });
        }
    }
}

/// Cooperative cancellation token, checked at chunk boundaries of the
/// parallel executor.
///
/// A token is either triggered explicitly ([`CancelToken::cancel`]) or
/// implicitly by an attached deadline. Deadline expiry is latched into the
/// atomic flag on first observation, so repeated [`is_cancelled`] polls
/// after expiry cost one relaxed load, not a clock read.
///
/// Cancellation is *cooperative*: work already in flight finishes its
/// current item, the executor returns [`CoreError::Cancelled`], and no
/// partial results are published (the algebra only hands back fully
/// constructed relations).
///
/// # Examples
/// ```
/// use itd_core::CancelToken;
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
///
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](CancelToken::cancel) is
    /// called.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        })
    }

    /// A token that additionally cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Arc<CancelToken> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        })
    }

    /// A token that cancels `timeout` from now.
    pub fn after(timeout: Duration) -> Arc<CancelToken> {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Triggers the token; all subsequent polls observe cancellation.
    pub fn cancel(&self) {
        self.cancelled.store(true, Relaxed);
    }

    /// Whether the token has been triggered or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.cancelled.store(true, Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Execution context: a thread budget plus live per-operator statistics.
///
/// Contexts are cheap to create; the query evaluator makes one per
/// top-level evaluation and reads the counters back afterwards.
///
/// # Examples
/// ```
/// use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, OpKind, Schema};
/// let evens = GenRelation::builder(Schema::new(1, 0))
///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 2)?).build()?)
///     .build()?;
/// let fives = GenRelation::builder(Schema::new(1, 0))
///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 5)?).build()?)
///     .build()?;
/// let ctx = ExecContext::with_threads(2);
/// let tens = evens.intersect_in(&fives, &ctx)?;
/// assert!(tens.contains(&[10], &[]));
/// let stats = ctx.stats();
/// assert_eq!(stats.op(OpKind::Intersect).calls, 1);
/// assert_eq!(stats.op(OpKind::Intersect).pairs, 1);
/// # Ok::<(), itd_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ExecContext {
    threads: usize,
    stats: OpStats,
    trace: Option<TraceSink>,
    cancel: Option<Arc<CancelToken>>,
}

impl Default for ExecContext {
    fn default() -> ExecContext {
        ExecContext::new()
    }
}

impl ExecContext {
    /// A context sized to the machine: `available_parallelism`, capped at 8
    /// (the pairwise loops stop scaling long before that on typical
    /// relation sizes).
    pub fn new() -> ExecContext {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        ExecContext::with_threads(threads.min(8))
    }

    /// A single-threaded context (the behavior of the plain operator
    /// methods).
    pub fn serial() -> ExecContext {
        ExecContext::with_threads(1)
    }

    /// A context with an explicit thread budget (`0` is treated as `1`).
    /// Results do not depend on the budget — only wall time does.
    pub fn with_threads(threads: usize) -> ExecContext {
        ExecContext {
            threads: threads.max(1),
            stats: OpStats::default(),
            trace: None,
            cancel: None,
        }
    }

    /// Attaches a [`CancelToken`]: the parallel executor polls it at chunk
    /// boundaries (once per item) and aborts the evaluation with
    /// [`CoreError::Cancelled`] when it trips. Used by the query service to
    /// enforce per-request deadlines without poisoning caches — the abort
    /// happens before any result is published.
    ///
    /// # Examples
    /// ```
    /// use itd_core::{CancelToken, ExecContext};
    /// let token = CancelToken::new();
    /// let ctx = ExecContext::serial().cancellable(token.clone());
    /// assert!(ctx.check_cancelled().is_ok());
    /// token.cancel();
    /// assert!(ctx.check_cancelled().is_err());
    /// ```
    ///
    /// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
    pub fn cancellable(mut self, token: Arc<CancelToken>) -> ExecContext {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&Arc<CancelToken>> {
        self.cancel.as_ref()
    }

    /// Errs with [`CoreError::Cancelled`] if the attached token (if any)
    /// has tripped. Cheap when no token is attached.
    ///
    /// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
    pub fn check_cancelled(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(crate::CoreError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Attaches a [`TraceSink`]: every operator invocation is recorded as
    /// a [`Span`](crate::trace::Span) until the trace is drained with
    /// [`take_trace`](ExecContext::take_trace).
    ///
    /// Span ids come from a context-local counter in begin order, so the
    /// recorded tree is identical at any thread budget (see the
    /// [`trace`](crate::trace) module docs).
    ///
    /// # Examples
    /// ```
    /// use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, Schema};
    /// let evens = GenRelation::builder(Schema::new(1, 0))
    ///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 2)?).build()?)
    ///     .build()?;
    /// let ctx = ExecContext::serial().traced();
    /// let _ = evens.intersect_in(&evens, &ctx)?;
    /// let trace = ctx.take_trace().expect("tracing is on");
    /// assert_eq!(trace.len(), 1);
    /// assert_eq!(trace.op_totals(), ctx.stats());
    /// # Ok::<(), itd_core::CoreError>(())
    /// ```
    pub fn traced(mut self) -> ExecContext {
        self.trace = Some(TraceSink::new());
        self
    }

    /// Whether a trace sink is attached.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the recorded spans, or `None` if the context is untraced.
    /// The sink stays attached and continues recording (with fresh span
    /// ids), so one traced context can serve many queries.
    pub fn take_trace(&self) -> Option<Trace> {
        self.trace.as_ref().map(TraceSink::take)
    }

    /// Opens a caller-labelled span (a query plan node, say) that closes
    /// when the returned guard drops; operator spans begun in between
    /// become its children. On an untraced context the guard is inert and
    /// `label` is never called.
    pub fn node_span(&self, label: impl FnOnce() -> String) -> NodeSpan<'_> {
        NodeSpan::new(self.trace.as_ref(), label, None)
    }

    /// Like [`node_span`](ExecContext::node_span), but stamps the span
    /// with the stable id of the query-plan node it executes, so EXPLAIN
    /// ANALYZE can join plan and trace by id instead of by label text.
    pub fn plan_span(&self, plan_node: u64, label: impl FnOnce() -> String) -> NodeSpan<'_> {
        NodeSpan::new(self.trace.as_ref(), label, Some(plan_node))
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A point-in-time copy of the per-operator counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the counters (the thread budget is unchanged).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    pub(crate) fn op(&self, kind: OpKind) -> &OpCounters {
        self.stats.op(kind)
    }

    /// Records a common period against `kind`'s shared counters and, when
    /// traced, against the innermost open span of that kind. For call
    /// sites that hold the context rather than an [`OpTimer`] (the
    /// complement worker loop).
    pub(crate) fn record_period(&self, kind: OpKind, k: i64) {
        self.stats.op(kind).record_period(k);
        if let Some(sink) = &self.trace {
            sink.record_period(kind, k);
        }
    }

    /// Opens a [`OpKind::ViewRefresh`] timing scope: one registered-view
    /// maintenance pass. The guard counts the call on construction and the
    /// elapsed wall time on drop (into a span too, when traced); the caller
    /// reports the delta rows consumed and the result rows produced.
    pub fn view_refresh_scope(&self) -> ViewRefreshScope<'_> {
        ViewRefreshScope {
            timer: self.timed(OpKind::ViewRefresh),
        }
    }

    pub(crate) fn timed(&self, kind: OpKind) -> OpTimer<'_> {
        let counters = self.stats.op(kind);
        counters.calls.fetch_add(1, Relaxed);
        let span = self.trace.as_ref().map(|sink| {
            (
                sink,
                sink.begin(SpanLabel::Op(kind), None),
                counters.snapshot(),
            )
        });
        OpTimer {
            counters,
            kind,
            span,
            start: Instant::now(),
        }
    }
}

/// Public guard over one [`OpKind::ViewRefresh`] invocation, handed out by
/// [`ExecContext::view_refresh_scope`] so crates outside the core can time
/// view maintenance through the same counter/span machinery as the algebra
/// operators without exposing the internal per-op timer.
pub struct ViewRefreshScope<'a> {
    timer: OpTimer<'a>,
}

impl ViewRefreshScope<'_> {
    /// Counts signed delta rows consumed by this refresh.
    pub fn add_delta_rows(&self, n: usize) {
        self.timer.add_in(n);
    }

    /// Counts result rows the refreshed view now holds.
    pub fn add_result_rows(&self, n: usize) {
        self.timer.add_out(n);
    }
}

/// Applies `f` to every item, concatenating the outputs **in item order**,
/// fanning the work over up to `threads` scoped workers.
///
/// Determinism: items are split into contiguous chunks, each worker
/// processes its chunk left to right, and chunk outputs are concatenated
/// in chunk order — exactly the serial output, at any thread count. On
/// failure the reported error is the one a serial run would hit first
/// (first failing item of the first failing chunk; earlier chunks hold
/// earlier items, and within its chunk a worker stops at its first error).
/// [`run_chunked`] over the row indices `0..n`: chunk boundaries depend
/// only on the length and thread count, so a columnar caller that never
/// materializes rows splits work (and concatenates outputs) exactly like
/// a row-slice caller of the same length — the bit-identity argument
/// carries over unchanged.
pub(crate) fn run_chunked_range<U, F>(ctx: &ExecContext, n: usize, f: F) -> Result<Vec<U>>
where
    U: Send,
    F: Fn(usize) -> Result<Vec<U>> + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    run_chunked(ctx, &indices, |&i| f(i))
}

pub(crate) fn run_chunked<T, U, F>(ctx: &ExecContext, items: &[T], f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Result<Vec<U>> + Sync,
{
    let cancel = ctx.cancel.as_deref();
    let check = |token: Option<&CancelToken>| -> Result<()> {
        match token {
            Some(t) if t.is_cancelled() => Err(crate::CoreError::Cancelled),
            _ => Ok(()),
        }
    };
    let workers = ctx.threads.min(items.len());
    if workers <= 1 {
        let mut out = Vec::new();
        for item in items {
            check(cancel)?;
            out.extend(f(item)?);
        }
        return Ok(out);
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    let check = &check;
    let per_chunk: Vec<Result<Vec<U>>> = thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for item in chunk {
                        check(cancel)?;
                        out.extend(f(item)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("algebra worker panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for r in per_chunk {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_matches_serial_order_at_any_thread_count() {
        let items: Vec<i64> = (0..103).collect();
        let f = |x: &i64| Ok(vec![*x * 2, *x * 2 + 1]);
        let serial = run_chunked(&ExecContext::serial(), &items, f).unwrap();
        for threads in [2, 3, 8, 200] {
            let ctx = ExecContext::with_threads(threads);
            assert_eq!(run_chunked(&ctx, &items, f).unwrap(), serial);
        }
        assert_eq!(serial.len(), 206);
        assert!(serial.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_reports_first_error() {
        let items: Vec<i64> = (0..40).collect();
        let f = |x: &i64| {
            if *x >= 17 {
                Err(crate::CoreError::Numth(itd_numth::NumthError::Overflow))
            } else {
                Ok(vec![*x])
            }
        };
        for threads in [1, 4, 64] {
            let ctx = ExecContext::with_threads(threads);
            let err = run_chunked(&ctx, &items, f).unwrap_err();
            assert!(matches!(err, crate::CoreError::Numth(_)));
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_at_any_thread_count() {
        let items: Vec<i64> = (0..50).collect();
        let f = |x: &i64| Ok(vec![*x]);
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            token.cancel();
            let ctx = ExecContext::with_threads(threads).cancellable(token);
            let err = run_chunked(&ctx, &items, f).unwrap_err();
            assert_eq!(err, crate::CoreError::Cancelled);
        }
    }

    #[test]
    fn mid_run_cancellation_stops_the_loop() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<i64> = (0..1000).collect();
        let token = CancelToken::new();
        let seen = AtomicUsize::new(0);
        let trip = token.clone();
        let f = move |x: &i64| {
            seen.fetch_add(1, Relaxed);
            if *x == 3 {
                trip.cancel();
            }
            Ok(vec![*x])
        };
        let ctx = ExecContext::serial().cancellable(token);
        let err = run_chunked(&ctx, &items, f).unwrap_err();
        assert_eq!(err, crate::CoreError::Cancelled);
    }

    #[test]
    fn deadline_token_latches_expiry() {
        let token = CancelToken::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "latched after first observation");
        assert!(token.deadline().is_some());
        let far = CancelToken::after(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        let ctx = ExecContext::serial();
        assert!(ctx.cancel_token().is_none());
        assert!(ctx.check_cancelled().is_ok());
    }

    #[test]
    fn snapshot_merge_and_display() {
        let ctx = ExecContext::with_threads(3);
        assert_eq!(ctx.threads(), 3);
        {
            let t = ctx.timed(OpKind::Intersect);
            t.add_in(4);
            t.add_out(2);
            t.add_pairs(4);
            t.add_pruned(2);
            t.record_period(6);
        }
        {
            let t = ctx.timed(OpKind::Compact);
            t.add_in(8);
            t.add_out(5);
            t.add_subsumed(2);
            t.add_merges(1);
        }
        let mut snap = ctx.stats();
        assert_eq!(snap.op(OpKind::Intersect).calls, 1);
        assert_eq!(snap.op(OpKind::Intersect).tuples_in, 4);
        assert_eq!(snap.op(OpKind::Intersect).max_period, 6);
        assert_eq!(snap.op(OpKind::Compact).tuples_subsumed, 2);
        assert_eq!(snap.op(OpKind::Compact).coalesce_merges, 1);
        assert!(!snap.is_zero());
        snap.merge(&ctx.stats());
        assert_eq!(snap.op(OpKind::Intersect).calls, 2);
        assert_eq!(snap.op(OpKind::Intersect).max_period, 6);
        assert_eq!(snap.op(OpKind::Compact).tuples_subsumed, 4);
        assert_eq!(snap.op(OpKind::Compact).coalesce_merges, 2);
        let text = snap.to_string();
        assert!(text.contains("intersect"), "{text}");
        assert!(text.contains("total"), "{text}");
        ctx.reset_stats();
        assert!(ctx.stats().is_zero());
        assert!(ctx.stats().to_string().contains("no algebra"));
    }

    #[test]
    fn thread_budget_is_clamped() {
        assert_eq!(ExecContext::with_threads(0).threads(), 1);
        assert!(ExecContext::new().threads() >= 1);
        assert_eq!(ExecContext::serial().threads(), 1);
    }
}
