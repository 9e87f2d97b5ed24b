//! Columnar batch kernels for the pairwise algebra operators.
//!
//! `intersect_in`, `difference_in` and `join_on_in` are served here,
//! straight off the store's flat columns (the naive nested-loop oracles
//! `*_unindexed_in` in `relation.rs` are what they are tested against):
//!
//! 1. **Probe** candidates through the persistent residue index (gated
//!    by [`INDEX_MIN_PAIRS`] and a discriminating key), feeding the index
//!    the probe row's `(offset, period)` pairs and interned
//!    [`ValueId`]s — no row materialization.
//! 2. **Batch pre-filter** every candidate pair over the contiguous
//!    `t_offsets`/`t_periods` arrays and `ValueId` columns: a pair dies
//!    when some relevant data column's ids differ (ids are canonical, so
//!    this is exact data inequality) or some relevant temporal column
//!    fails the gcd-congruence solvability test
//!    `o₁ ≡ o₂ (mod gcd(k₁, k₂))` (§3.2.1) — **exactly** the condition
//!    under which [`Lrp::intersect`](itd_lrp::Lrp::intersect) is empty,
//!    so a rejected pair is precisely a pair the per-pair derivation
//!    would turn into nothing. The rejection is pure integer arithmetic
//!    over slices: no locks, no allocation, no `GenTuple`/`RowRef`.
//! 3. **Derive survivors** through the process-wide pairwise outcome
//!    cache (`crate::store`): the two temporal parts are globally
//!    hash-consed, so `(part, part, op)` outcomes survive across
//!    operator calls *and* queries. Misses fall into the per-pair
//!    derivation (`crate::ops`). Outcome-cache hit totals are
//!    process-history dependent, so they are reported through
//!    [`storage_stats`](crate::store), never through the per-op counters.
//!
//! # Counters and determinism
//!
//! For intersect and join, `pairs` is `|left| · |right|`; every pair
//! skipped by the index, rejected by the batch filter, or derived to
//! nothing adds one to `empties_pruned`. When the index runs, each outer
//! row adds its candidate count to `index_probes` and the rest to
//! `index_pruned`, so `index_probes + index_pruned == pairs`. All of
//! these, and the result, equal what the nested-loop oracle records
//! (the oracle never touches `index_probes`/`index_pruned`).
//!
//! Difference adds one `pair` per fold member per executed step and
//! counts grid-empty or duplicate step results in `empties_pruned`. A
//! batch-rejected subtrahend `t2` is columnwise disjoint from `t1` (or
//! differs in data); every fold member is a columnwise subset of `t1`
//! carrying `t1`'s data, so the step is a no-op: the kernel adds the
//! `acc.len()` pairs the step would have counted and skips the
//! derivation. An index-skipped subtrahend is skipped without counting
//! pairs, so difference counts at most the oracle's `pairs`. The
//! fold-initial member `t1` itself is the one member that might be
//! grid-empty (a no-op step still prunes it): the unindexed arm runs the
//! oracle's first step literally, the indexed arm drops it upfront as
//! one pruned result — the oracle's count too unless its first
//! subtrahend overlaps `t1` and splits it into several grid-empty
//! pieces.
//!
//! Chunked execution over row indices
//! ([`run_chunked_range`](crate::exec)) concatenates per-row outputs in
//! row order, so results and counters are identical at any thread count.

use std::sync::Arc;

use itd_numth::gcd;

use crate::exec::{self, ExecContext, OpTimer};
use crate::index::{RelationIndex, INDEX_MIN_PAIRS};
use crate::intern::{Interner, INTERN_MIN_PAIRS};
use crate::ops;
use crate::store::{
    outcome_cache_empty, outcome_cache_pair, outcome_lookup_empty, outcome_lookup_pair, PairOpKey,
    RelStore, TemporalPartId, ValueId,
};
use crate::tuple::GenTuple;
use crate::Result;

/// Is the columnwise meet of `c1 + k1·Z` and `c2 + k2·Z` empty?
///
/// Exact (§3.2.1 solvability): for `g = gcd(k1, k2) > 0` the meet is
/// nonempty iff `c1 ≡ c2 (mod g)`; `gcd(0, k) = k` makes a point's
/// offset binding, and two points meet iff equal (`g = 0`). The offset
/// difference is widened to `i128` so extreme offsets cannot overflow.
#[inline]
fn lrp_disjoint(o1: i64, k1: i64, o2: i64, k2: i64) -> bool {
    let g = gcd(k1, k2);
    if g == 0 {
        return o1 != o2;
    }
    (o1 as i128 - o2 as i128).rem_euclid(g as i128) != 0
}

/// The batched residue pre-filter over one candidate pair `(i, j)`:
/// `true` when the pair is provably dead — some paired data column's ids
/// differ, or some paired temporal column is congruence-disjoint.
///
/// `tpairs`/`dpairs` name (left column, right column) pairs; intersect
/// and difference pass the identity pairing over all columns.
#[inline]
fn pair_rejected(
    left: &RelStore,
    right: &RelStore,
    i: usize,
    j: usize,
    tpairs: &[(usize, usize)],
    dpairs: &[(usize, usize)],
) -> bool {
    for &(dc1, dc2) in dpairs {
        if left.data_columns()[dc1][i] != right.data_columns()[dc2][j] {
            return true;
        }
    }
    for &(tc1, tc2) in tpairs {
        if lrp_disjoint(
            left.t_offsets(tc1)[i],
            left.t_periods(tc1)[i],
            right.t_offsets(tc2)[j],
            right.t_periods(tc2)[j],
        ) {
            return true;
        }
    }
    false
}

/// One row rebuilt from its hash-consed part and resolved data — the
/// only materialization the kernels do, and only for batch survivors
/// (never through the store's `OnceLock` row cache).
fn row_tuple(store: &RelStore, row: usize) -> GenTuple {
    GenTuple::from_part(Arc::clone(store.part(row)), store.resolve_row_data(row))
}

/// The probe arguments of row `i` for [`RelationIndex::probe_cols`]:
/// per-column `(offset, period)` pairs and interned data ids.
fn probe_args(
    store: &RelStore,
    row: usize,
    tcols: &[usize],
    dcols: &[usize],
) -> (Vec<(i64, i64)>, Vec<ValueId>) {
    let lrps = tcols
        .iter()
        .map(|&c| (store.t_offsets(c)[row], store.t_periods(c)[row]))
        .collect();
    let ids = dcols
        .iter()
        .map(|&c| store.data_columns()[c][row])
        .collect();
    (lrps, ids)
}

/// Grid-emptiness of an interned part through the global verdict cache.
fn part_is_empty(id: TemporalPartId, t: &GenTuple) -> Result<bool> {
    if let Some(empty) = outcome_lookup_empty(id) {
        return Ok(empty);
    }
    let empty = t.is_empty()?;
    outcome_cache_empty(id, empty);
    Ok(empty)
}

/// The persistent index over `right`, gated by pair count at
/// [`INDEX_MIN_PAIRS`] and a discriminating key.
fn gated_index(
    right: &RelStore,
    pairs: usize,
    tcols: &[usize],
    dcols: &[usize],
) -> Option<Arc<RelationIndex>> {
    (pairs >= INDEX_MIN_PAIRS)
        .then(|| right.index_for(tcols, dcols))
        .filter(|idx| idx.is_discriminating())
}

/// Batched intersection: returns the output tuples of `left ∩ right`
/// (counters as in the module docs).
pub(crate) fn intersect(
    left: &RelStore,
    right: &RelStore,
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let (n, m) = (left.len(), right.len());
    timer.add_in(n + m);
    timer.add_pairs(n as u64 * m as u64);
    let schema = left.schema();
    let tcols: Vec<usize> = (0..schema.temporal()).collect();
    let dcols: Vec<usize> = (0..schema.data()).collect();
    let tpairs: Vec<(usize, usize)> = tcols.iter().map(|&c| (c, c)).collect();
    let dpairs: Vec<(usize, usize)> = dcols.iter().map(|&c| (c, c)).collect();
    let index = gated_index(right, n * m, &tcols, &dcols);
    let use_cache = n * m >= INTERN_MIN_PAIRS;
    exec::run_chunked_range(ctx, n, |i| {
        let mut out = Vec::new();
        // The left row is rebuilt at most once per outer row, and only
        // if some candidate survives the batch filter.
        let mut t1: Option<GenTuple> = None;
        let mut visit = |j: usize, out: &mut Vec<GenTuple>| -> Result<()> {
            if pair_rejected(left, right, i, j, &tpairs, &dpairs) {
                // Exactly the pairs the derivation turns into `None`.
                timer.add_pruned(1);
                return Ok(());
            }
            let t1 = t1.get_or_insert_with(|| row_tuple(left, i));
            let key = (left.part_ids()[i], right.part_ids()[j]);
            if use_cache {
                if let Some(outcome) = outcome_lookup_pair(key.0, key.1, &PairOpKey::Intersect) {
                    match outcome {
                        Some(part) => out.push(GenTuple::from_part(part, t1.data().to_vec())),
                        None => timer.add_pruned(1),
                    }
                    return Ok(());
                }
            }
            // Data ids matched, so the values are equal: reuse `t1`'s
            // resolved data for the right side instead of resolving it.
            let t2 = GenTuple::from_part(Arc::clone(right.part(j)), t1.data().to_vec());
            let res = ops::intersect_tuples(t1, &t2)?;
            if use_cache {
                outcome_cache_pair(
                    key.0,
                    key.1,
                    PairOpKey::Intersect,
                    res.as_ref().map(|t| Arc::clone(t.part_arc())),
                );
            }
            match res {
                Some(t) => out.push(t),
                None => timer.add_pruned(1),
            }
            Ok(())
        };
        match &index {
            Some(idx) => {
                let (lrps, ids) = probe_args(left, i, &tcols, &dcols);
                let cands = idx.probe_cols(&ids, &lrps);
                let skipped = (m - cands.len()) as u64;
                timer.add_probes(cands.len() as u64);
                timer.add_index_pruned(skipped);
                timer.add_pruned(skipped);
                for &j in &cands {
                    visit(j, &mut out)?;
                }
            }
            None => {
                for j in 0..m {
                    visit(j, &mut out)?;
                }
            }
        }
        Ok(out)
    })
}

/// Batched equi-join on the given column pairs: returns the output
/// tuples (counters as in the module docs). Pair validation is the
/// caller's job (`relation.rs` checks before dispatching).
pub(crate) fn join_on(
    left: &RelStore,
    right: &RelStore,
    temporal_pairs: &[(usize, usize)],
    data_pairs: &[(usize, usize)],
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let (n, m) = (left.len(), right.len());
    timer.add_in(n + m);
    timer.add_pairs(n as u64 * m as u64);
    let left_t: Vec<usize> = temporal_pairs.iter().map(|&(i, _)| i).collect();
    let right_t: Vec<usize> = temporal_pairs.iter().map(|&(_, j)| j).collect();
    let left_d: Vec<usize> = data_pairs.iter().map(|&(i, _)| i).collect();
    let right_d: Vec<usize> = data_pairs.iter().map(|&(_, j)| j).collect();
    let index = gated_index(right, n * m, &right_t, &right_d);
    let use_cache = n * m >= INTERN_MIN_PAIRS;
    // With the join columns fixed for the whole invocation, the temporal
    // outcome of a pair depends only on the two parts and the temporal
    // pairing; the output data is always the concatenation.
    let op_key = PairOpKey::Join(temporal_pairs.to_vec().into_boxed_slice());
    // Right-side data is shared by every outer row: resolve each right
    // row once up front (ids only; the row cache is never populated).
    let rdata: Vec<Vec<crate::Value>> = (0..m).map(|j| right.resolve_row_data(j)).collect();
    exec::run_chunked_range(ctx, n, |i| {
        let mut out = Vec::new();
        let mut t1: Option<GenTuple> = None;
        let mut visit = |j: usize, out: &mut Vec<GenTuple>| -> Result<()> {
            if pair_rejected(left, right, i, j, temporal_pairs, data_pairs) {
                timer.add_pruned(1);
                return Ok(());
            }
            let t1 = t1.get_or_insert_with(|| row_tuple(left, i));
            let key = (left.part_ids()[i], right.part_ids()[j]);
            if use_cache {
                if let Some(outcome) = outcome_lookup_pair(key.0, key.1, &op_key) {
                    match outcome {
                        Some(part) => {
                            let mut data = t1.data().to_vec();
                            data.extend_from_slice(&rdata[j]);
                            out.push(GenTuple::from_part(part, data));
                        }
                        None => timer.add_pruned(1),
                    }
                    return Ok(());
                }
            }
            let t2 = GenTuple::from_part(Arc::clone(right.part(j)), rdata[j].clone());
            let res = ops::join_tuples(t1, &t2, temporal_pairs, data_pairs)?;
            if use_cache {
                outcome_cache_pair(
                    key.0,
                    key.1,
                    op_key.clone(),
                    res.as_ref().map(|t| Arc::clone(t.part_arc())),
                );
            }
            match res {
                Some(t) => out.push(t),
                None => timer.add_pruned(1),
            }
            Ok(())
        };
        match &index {
            Some(idx) => {
                let (lrps, ids) = probe_args(left, i, &left_t, &left_d);
                let cands = idx.probe_cols(&ids, &lrps);
                let skipped = (m - cands.len()) as u64;
                timer.add_probes(cands.len() as u64);
                timer.add_index_pruned(skipped);
                timer.add_pruned(skipped);
                for &j in &cands {
                    visit(j, &mut out)?;
                }
            }
            None => {
                for j in 0..m {
                    visit(j, &mut out)?;
                }
            }
        }
        Ok(out)
    })
}

/// Batched difference fold: returns the output tuples (see the module
/// docs for why skipping a batch-rejected subtrahend is counter-neutral).
pub(crate) fn difference(
    left: &RelStore,
    right: &RelStore,
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let (n, m) = (left.len(), right.len());
    timer.add_in(n + m);
    let schema = left.schema();
    let tcols: Vec<usize> = (0..schema.temporal()).collect();
    let dcols: Vec<usize> = (0..schema.data()).collect();
    let tpairs: Vec<(usize, usize)> = tcols.iter().map(|&c| (c, c)).collect();
    let dpairs: Vec<(usize, usize)> = dcols.iter().map(|&c| (c, c)).collect();
    let index = gated_index(right, n * m, &tcols, &dcols);
    // Fold intermediates are ephemeral (never interned globally), so
    // their emptiness verdicts go through a per-invocation memo. The
    // fold-initial parts are interned, so those verdicts use the global
    // cache (`part_is_empty`).
    let interner = (n * m >= INTERN_MIN_PAIRS).then(Interner::new);
    let member_is_empty = |t: &GenTuple| -> Result<bool> {
        let Some(int) = &interner else {
            return t.is_empty();
        };
        let id = int.intern(t.lrps(), t.constraints());
        if let Some(empty) = int.cached_empty(id) {
            return Ok(empty);
        }
        let empty = t.is_empty()?;
        int.cache_empty(id, empty);
        Ok(empty)
    };
    exec::run_chunked_range(ctx, n, |i| {
        let t1 = row_tuple(left, i);
        // One fold step, as in the oracle: subtract `t2` from every
        // member, prune grid-empty results, deduplicate.
        let step = |acc: Vec<GenTuple>, t2: &GenTuple| -> Result<Vec<GenTuple>> {
            let mut next = Vec::new();
            for t in &acc {
                timer.add_pairs(1);
                next.extend(ops::difference_tuples(t, t2)?);
            }
            let candidates = next.len();
            let mut pruned: Vec<GenTuple> = Vec::with_capacity(next.len());
            for t in next {
                if !member_is_empty(&t)? && !pruned.contains(&t) {
                    pruned.push(t);
                }
            }
            timer.add_pruned((candidates - pruned.len()) as u64);
            Ok(pruned)
        };
        // Rebuild a subtrahend only when a step actually runs; data ids
        // matched, so `t1`'s resolved data doubles for the right side.
        let subtrahend =
            |j: usize| GenTuple::from_part(Arc::clone(right.part(j)), t1.data().to_vec());
        match &index {
            Some(idx) => {
                let (lrps, ids) = probe_args(left, i, &tcols, &dcols);
                let cands = idx.probe_cols(&ids, &lrps);
                timer.add_probes(cands.len() as u64);
                timer.add_index_pruned((m - cands.len()) as u64);
                // A grid-empty `t1` is dropped upfront and counted as
                // one pruned result (`right` is nonempty whenever the
                // index gate passed).
                if part_is_empty(left.part_ids()[i], &t1)? {
                    timer.add_pruned(1);
                    return Ok(vec![]);
                }
                let mut acc = vec![t1.clone()];
                for &j in &cands {
                    if pair_rejected(left, right, i, j, &tpairs, &dpairs) {
                        // No-op step: every member would pass through
                        // unchanged and survive the prune (members are
                        // prune-survivors, hence non-grid-empty).
                        timer.add_pairs(acc.len() as u64);
                        continue;
                    }
                    acc = step(acc, &subtrahend(j))?;
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            None => {
                // Unindexed arm: the batch filter may only skip steps
                // whose members are known non-grid-empty. That holds
                // after any executed step (members are prune-survivors)
                // — and from the start iff `t1` itself is non-empty.
                // For a grid-empty `t1` the oracle's first step prunes
                // it no matter what `t2` is; run that first step
                // literally to reproduce its exact pair/prune counts.
                let mut literal_first = m > 0 && part_is_empty(left.part_ids()[i], &t1)?;
                let mut acc = vec![t1.clone()];
                for j in 0..m {
                    if literal_first {
                        // Grid-empty initial member: execute the step
                        // verbatim, with the subtrahend's own data (the
                        // filter has not vouched for equality). It
                        // prunes every member, so the loop ends here.
                        acc = step(acc, &row_tuple(right, j))?;
                        literal_first = false;
                    } else if pair_rejected(left, right, i, j, &tpairs, &dpairs) {
                        timer.add_pairs(acc.len() as u64);
                        continue;
                    } else {
                        acc = step(acc, &subtrahend(j))?;
                    }
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
        }
    })
}
