//! The process-wide prepared-plan cache.
//!
//! Preparing a query — parsing, sort-checking, lowering to a [`Plan`] and
//! running the fixpoint optimizer — is pure work over the formula text and
//! the catalog's *schema and statistics*, repeated verbatim by every
//! [`run`](crate::run) of the same query. This module memoizes the
//! prepared `(formula, plan)` pair keyed by
//!
//! * the catalog's **plan token** ([`Catalog::plan_token`](crate::Catalog)):
//!   an opaque version stamp that catalogs rotate on every mutation, so a
//!   schema change can never resurrect a stale preparation;
//! * the query **text** (the formula rendering, or the raw source for
//!   [`run_src`](crate::run_src), which then skips the parser too);
//! * the [`QueryOpts`](crate::QueryOpts) knobs that shape the plan
//!   (`optimize`, `compact`, `trace`).
//!
//! Correctness note: a cached plan is *logical* — execution re-reads the
//! named relations and recomputes the active domain per run, so cached
//! hits observe current data. The token only needs to change when the
//! preparation inputs (schemas, statistics) may have; catalogs that cannot
//! track this return `None` and opt out entirely.
//!
//! The cache is bounded ([`PLAN_CACHE_CAP`]) with FIFO eviction, and
//! mutating catalogs call [`plan_cache_invalidate`] with their outgoing
//! token so dead entries leave immediately instead of aging out.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ast::Formula;
use crate::plan::Plan;

/// Maximum number of prepared plans retained; the oldest insertion is
/// evicted first.
pub const PLAN_CACHE_CAP: usize = 256;

/// One prepared query: the sort-checked formula, the plan that
/// [`run`](crate::run) would execute for it under the keyed options, and
/// the cost model's whole-plan total-pairs estimate at preparation time
/// (the admission-control input — statistics as of the keyed plan token).
#[derive(Debug)]
pub(crate) struct PreparedPlan {
    pub(crate) formula: Formula,
    pub(crate) plan: Plan,
    pub(crate) est_total_pairs: f64,
}

/// Cache key: catalog version × query text × plan-shaping knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    token: u64,
    text: String,
    optimize: bool,
    compact: bool,
    trace: bool,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Arc<PreparedPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
    stats: PlanCacheStats,
}

/// Cumulative counters of the process-wide plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups against the cache (cacheable runs only).
    pub lookups: u64,
    /// Lookups answered by a prepared entry (parse + sortcheck +
    /// optimize skipped).
    pub hits: u64,
    /// Lookups that fell through to full preparation.
    pub misses: u64,
    /// Entries inserted after a miss.
    pub insertions: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Entries dropped by [`plan_cache_invalidate`].
    pub invalidations: u64,
    /// Runs that skipped the cache entirely because the catalog returned
    /// `plan_token() == None`. A nonzero count makes the silent opt-out
    /// observable: such catalogs re-prepare every query.
    pub bypasses: u64,
}

/// A bounded FIFO cache of prepared plans with its cumulative counters.
/// The process-wide instance ([`global`]) backs the `plan_cache_*`
/// functions; tests drive private instances so sibling tests cannot
/// perturb their counts.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Inner>,
}

impl PlanCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    /// The prepared plan for a key, counting the lookup as a hit or miss.
    pub(crate) fn lookup(
        &self,
        token: u64,
        text: &str,
        optimize: bool,
        compact: bool,
        trace: bool,
    ) -> Option<Arc<PreparedPlan>> {
        let key = Key {
            token,
            text: text.to_owned(),
            optimize,
            compact,
            trace,
        };
        let mut inner = self.lock();
        inner.stats.lookups += 1;
        let found = inner.map.get(&key).cloned();
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Inserts a prepared plan, evicting the oldest entries beyond
    /// [`PLAN_CACHE_CAP`].
    pub(crate) fn insert(
        &self,
        token: u64,
        text: String,
        optimize: bool,
        compact: bool,
        trace: bool,
        entry: Arc<PreparedPlan>,
    ) {
        let key = Key {
            token,
            text,
            optimize,
            compact,
            trace,
        };
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            // A racing preparation of the same query got here first; keep
            // it (both are equivalent) so `order` holds each key at most
            // once.
            return;
        }
        while inner.map.len() >= PLAN_CACHE_CAP {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if inner.map.remove(&oldest).is_some() {
                inner.stats.evictions += 1;
            }
        }
        inner.map.insert(key.clone(), entry);
        inner.order.push_back(key);
        inner.stats.insertions += 1;
    }

    /// Counts one run that could not consult the cache because the
    /// catalog opted out of plan tokens.
    pub(crate) fn count_bypass(&self) {
        self.lock().stats.bypasses += 1;
    }

    /// Drops every entry prepared under `token`, returning how many were
    /// removed.
    pub(crate) fn invalidate(&self, token: u64) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|k, _| k.token != token);
        inner.order.retain(|k| k.token != token);
        let removed = before - inner.map.len();
        inner.stats.invalidations += removed as u64;
        removed
    }

    /// A snapshot of the cumulative counters.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Number of prepared plans currently retained.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Drops every entry without counting evictions or invalidations.
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }
}

/// The process-wide plan cache that [`run`](crate::run) consults.
pub(crate) fn global() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::default)
}

/// A fresh, never-before-issued plan token. Catalogs take one at
/// construction and again on every mutation.
pub fn next_plan_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Drops every entry prepared under `token`, returning how many were
/// removed. Catalogs call this with their outgoing token when they mutate.
pub fn plan_cache_invalidate(token: u64) -> usize {
    global().invalidate(token)
}

/// A snapshot of the cumulative cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    global().stats()
}

/// Number of prepared plans currently retained.
pub fn plan_cache_len() -> usize {
    global().len()
}

/// Empties the cache (counters are preserved; the drops are *not*
/// counted as evictions or invalidations). Mainly for tests and
/// benchmarks that need a cold start.
pub fn plan_cache_clear() {
    global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn entry(src: &str) -> Arc<PreparedPlan> {
        let formula = parse(src).unwrap();
        let plan = Plan::of(&formula);
        Arc::new(PreparedPlan {
            formula,
            plan,
            est_total_pairs: 0.0,
        })
    }

    #[test]
    fn lookup_insert_invalidate_roundtrip() {
        let cache = PlanCache::default();
        let token = next_plan_token();
        assert!(cache.lookup(token, "p(t)", true, true, false).is_none());
        cache.insert(token, "p(t)".into(), true, true, false, entry("p(t)"));
        assert!(cache.lookup(token, "p(t)", true, true, false).is_some());
        // Every key component discriminates.
        assert!(cache.lookup(token, "p(t)", false, true, false).is_none());
        assert!(cache.lookup(token, "p(t)", true, false, false).is_none());
        assert!(cache.lookup(token, "p(t)", true, true, true).is_none());
        assert!(cache
            .lookup(next_plan_token(), "p(t)", true, true, false)
            .is_none());
        assert_eq!(cache.invalidate(token), 1);
        assert!(cache.lookup(token, "p(t)", true, true, false).is_none());
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (7, 1, 6));
        assert_eq!((stats.insertions, stats.invalidations), (1, 1));
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = PlanCache::default();
        let token = next_plan_token();
        for i in 0..PLAN_CACHE_CAP + 8 {
            let text = format!("p(t + {i})");
            cache.insert(token, text, true, true, false, entry("p(t)"));
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, (PLAN_CACHE_CAP + 8) as u64);
        assert_eq!(stats.evictions, 8);
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        // The eight oldest entries went first.
        assert!(cache.lookup(token, "p(t + 7)", true, true, false).is_none());
        assert!(cache.lookup(token, "p(t + 8)", true, true, false).is_some());
    }
}
