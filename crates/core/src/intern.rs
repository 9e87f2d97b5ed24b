//! Hash-consing of temporal tuple parts for one operator invocation.
//!
//! The difference kernel's fold re-derives emptiness (a normalization)
//! for many intermediate tuples that share one temporal part. Those fold
//! intermediates are ephemeral, so they are never interned in the global
//! store arenas; an [`Interner`] instead canonicalizes each distinct
//! `(lrps, constraints)` part to a small integer id for the length of one
//! invocation and memoizes its emptiness verdict, so each distinct part
//! is normalized once.
//!
//! # Determinism
//!
//! The interner is shared across worker threads behind a [`Mutex`].
//! Which worker inserts a key first is scheduling-dependent, but a
//! verdict is a pure function of the part, and the memo records no
//! execution counters of its own (the caller records pairs / pruning
//! exactly as without it), so every counter stays bit-identical at 1, 2
//! and 8 threads.

use std::collections::HashMap;
use std::sync::Mutex;

use itd_constraint::ConstraintSystem;
use itd_lrp::Lrp;

/// The temporal part of a generalized tuple: its lrp vector and its
/// constraint system, with the data columns stripped.
type TemporalParts = (Vec<Lrp>, ConstraintSystem);

/// Id assigned to one distinct temporal part within one interner.
type TemporalId = u32;

/// Minimum pair count (`|left| * |right|`) before a pairwise kernel
/// bothers to memoize: below this the bookkeeping costs more than the
/// duplicate work it absorbs. Mirrors the index gate
/// [`crate::index::INDEX_MIN_PAIRS`].
pub(crate) const INTERN_MIN_PAIRS: usize = 32;

#[derive(Debug, Default)]
struct InternerInner {
    /// Reverse map from parts to id.
    ids: HashMap<TemporalParts, TemporalId>,
    /// Memoized per-part emptiness (denotation has no solutions).
    empties: HashMap<TemporalId, bool>,
}

/// A per-operation hash-consing arena for temporal tuple parts.
///
/// Created fresh for each operator invocation (so ids never depend on
/// what ran before) and shared by reference across the invocation's
/// worker threads.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    inner: Mutex<InternerInner>,
}

impl Interner {
    pub(crate) fn new() -> Interner {
        Interner::default()
    }

    /// Canonicalizes a temporal part, returning its id.
    pub(crate) fn intern(&self, lrps: &[Lrp], cons: &ConstraintSystem) -> TemporalId {
        let key: TemporalParts = (lrps.to_vec(), cons.clone());
        let mut inner = self.inner.lock().expect("interner poisoned");
        let next = inner.ids.len() as TemporalId;
        *inner.ids.entry(key).or_insert(next)
    }

    /// Looks up the memoized emptiness verdict for an id.
    pub(crate) fn cached_empty(&self, id: TemporalId) -> Option<bool> {
        let inner = self.inner.lock().expect("interner poisoned");
        inner.empties.get(&id).copied()
    }

    /// Records the emptiness verdict for an id.
    pub(crate) fn cache_empty(&self, id: TemporalId, empty: bool) {
        let mut inner = self.inner.lock().expect("interner poisoned");
        inner.empties.entry(id).or_insert(empty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_constraint::Atom;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn duplicate_parts_share_one_id() {
        let int = Interner::new();
        let cons = ConstraintSystem::from_atoms(1, &[Atom::ge(0, 0)]).unwrap();
        let a = int.intern(&[lrp(1, 3)], &cons);
        let b = int.intern(&[lrp(1, 3)], &cons);
        let c = int.intern(&[lrp(2, 3)], &cons);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn emptiness_memo_hits_only_after_insert() {
        let int = Interner::new();
        let id = int.intern(&[lrp(0, 3)], &ConstraintSystem::unconstrained(1));
        assert_eq!(int.cached_empty(id), None);
        int.cache_empty(id, false);
        assert_eq!(int.cached_empty(id), Some(false));
        // The first verdict recorded for an id is the one kept.
        int.cache_empty(id, true);
        assert_eq!(int.cached_empty(id), Some(false));
    }
}
