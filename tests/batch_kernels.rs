//! The columnar batch kernels behind `intersect_in` / `difference_in` /
//! `join_on_in`: equality with the naive nested-loop oracles
//! (`*_unindexed_in`), results and counters, at 1/2/8 threads, and the
//! global pairwise-outcome cache's warm-run transparency.

use std::sync::{Mutex, MutexGuard};

use itd_core::{storage_stats, ExecContext, GenRelation, OpKind, OpSnapshot, StatsSnapshot};
use itd_workload::{random_relation, RelationSpec};
use proptest::prelude::*;

fn spec(tuples: usize, period: i64, data_arity: usize) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity: 2,
        period,
        data_arity,
        constraint_density: 0.5,
        bound_steps: 4,
    }
}

/// Runs `op` under a fresh context; returns the result and every counter
/// of every op except wall time (never deterministic).
fn run_counted<F>(threads: usize, op: F) -> (GenRelation, StatsSnapshot)
where
    F: FnOnce(&ExecContext) -> GenRelation,
{
    let ctx = ExecContext::with_threads(threads);
    let out = op(&ctx);
    (out, ctx.stats().without_timing())
}

/// The counters kernel and oracle must agree on for every op.
fn shared_counters(op: &OpSnapshot) -> [u64; 8] {
    [
        op.calls,
        op.tuples_in,
        op.tuples_out,
        op.empties_pruned,
        op.atoms_simplified,
        op.tuples_subsumed,
        op.coalesce_merges,
        op.max_period,
    ]
}

/// The outcome-cache counters in `storage_stats()` are process-global.
/// Every test in this file runs kernels (cache traffic) or reads those
/// counters' deltas, so each holds this lock while it does: a sibling
/// test's misses can then never land inside another test's window.
static OUTCOME_CACHE: Mutex<()> = Mutex::new(());

fn outcome_cache_lock() -> MutexGuard<'static, ()> {
    OUTCOME_CACHE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

type Op = fn(&GenRelation, &GenRelation, &ExecContext) -> GenRelation;

/// The three pairwise operators, each as (kernel, naive oracle).
fn op_pairs() -> Vec<(OpKind, Op, Op)> {
    vec![
        (
            OpKind::Intersect,
            |x, y, ctx| x.intersect_in(y, ctx).unwrap(),
            |x, y, ctx| x.intersect_unindexed_in(y, ctx).unwrap(),
        ),
        (
            OpKind::Difference,
            |x, y, ctx| x.difference_in(y, ctx).unwrap(),
            |x, y, ctx| x.difference_unindexed_in(y, ctx).unwrap(),
        ),
        (
            OpKind::Join,
            |x, y, ctx| x.join_on_in(y, &[(0, 0)], &[], ctx).unwrap(),
            |x, y, ctx| x.join_on_unindexed_in(y, &[(0, 0)], &[], ctx).unwrap(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel ≡ oracle for all three ops at 1/2/8 threads — across the
    /// index gate (`n*m` from 4 to 81 spans `INDEX_MIN_PAIRS = 32`) and
    /// with data columns engaged. Results are equal; the kernel's
    /// counters are identical at every thread count. Against the oracle:
    /// every counter but `pairs` and the index counters is equal; for
    /// intersect and join `pairs` is equal too (and partitioned by the
    /// index whenever it ran), while the difference kernel, which skips
    /// index-pruned subtrahends without stepping through them, never
    /// counts more `pairs` than the oracle's full fold.
    #[test]
    fn kernel_matches_oracle(
        seed in 0u64..300,
        n in 2usize..10,
        data_arity in 0usize..3,
    ) {
        let _cache = outcome_cache_lock();
        let a = random_relation(&spec(n, 6, data_arity), seed);
        let b = random_relation(&spec(n, 4, data_arity), seed.wrapping_add(1));
        for (kind, kernel, oracle) in op_pairs() {
            let name = kind.name();
            let (want, oracle_stats) = run_counted(1, |ctx| oracle(&a, &b, ctx));
            let (serial_out, serial_stats) = run_counted(1, |ctx| kernel(&a, &b, ctx));
            prop_assert_eq!(
                &serial_out, &want,
                "{} kernel result diverged from the oracle", name
            );
            for threads in [2usize, 8] {
                let (out, stats) = run_counted(threads, |ctx| kernel(&a, &b, ctx));
                prop_assert_eq!(
                    &out, &want,
                    "{} kernel result diverged at {} threads", name, threads
                );
                prop_assert_eq!(
                    &stats, &serial_stats,
                    "{} kernel counters diverged at {} threads", name, threads
                );
            }
            let k = *serial_stats.op(kind);
            let o = *oracle_stats.op(kind);
            prop_assert_eq!(
                shared_counters(&k), shared_counters(&o),
                "{} kernel vs oracle counters: {:?} vs {:?}", name, k, o
            );
            prop_assert_eq!(
                (o.index_probes, o.index_pruned), (0, 0),
                "{} oracle used an index", name
            );
            if kind == OpKind::Difference {
                prop_assert!(
                    k.pairs <= o.pairs,
                    "{} pairs: kernel {} > oracle {}", name, k.pairs, o.pairs
                );
            } else {
                prop_assert_eq!(k.pairs, o.pairs, "{} pairs", name);
                if k.index_probes + k.index_pruned > 0 {
                    prop_assert_eq!(
                        k.index_probes + k.index_pruned, k.pairs,
                        "{} probes + index-pruned must partition the pairs", name
                    );
                }
            }
        }
    }

    /// Self-intersection keeps the diagonal alive through the batch
    /// filter, so a repeat run must be answered from the global outcome
    /// cache — with results and counters identical to the first run.
    #[test]
    fn warm_outcome_cache_is_transparent(seed in 0u64..100) {
        let _cache = outcome_cache_lock();
        let a = random_relation(&spec(8, 6, 1), seed);
        let b = a.clone();
        let (cold_out, cold_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
        let before = storage_stats();
        let (warm_out, warm_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
        let delta = storage_stats().delta_since(&before);
        prop_assert_eq!(&warm_out, &cold_out, "warm outcome cache changed the result");
        prop_assert_eq!(&warm_stats, &cold_stats, "warm outcome cache changed counters");
        // Every diagonal pair survives the filter (identical offsets and
        // data ids), was cached by the cold run, and must now hit.
        prop_assert!(
            delta.outcome_hits >= 8,
            "expected >= 8 outcome-cache hits on the warm run, got {} ({} misses)",
            delta.outcome_hits,
            delta.outcome_misses
        );
    }
}

/// The outcome cache only ever short-circuits derivations it has seen:
/// a fresh pair of relations (no shared temporal parts with earlier
/// runs in this process would be unusual, but misses are the general
/// case) records misses, never wrong outcomes.
#[test]
fn outcome_cache_counts_misses_then_hits() {
    let _cache = outcome_cache_lock();
    let a = random_relation(&spec(12, 30, 0), 20_260_807);
    let b = random_relation(&spec(12, 30, 0), 20_260_808);
    let before = storage_stats();
    let (first, _) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
    let mid = storage_stats();
    let (second, _) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
    let after = storage_stats();
    assert_eq!(first, second);
    let d1 = mid.delta_since(&before);
    let d2 = after.delta_since(&mid);
    // Whatever survived the batch filter was derived (missed) once and
    // served from cache afterwards: the warm run hits at least what the
    // cold run missed.
    assert!(
        d2.outcome_hits >= d1.outcome_misses,
        "warm run should hit every pair the cold run derived: {d1:?} then {d2:?}"
    );
}
