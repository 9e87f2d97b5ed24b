//! Per-layer measurements shared by the workloads: counters over the
//! engine's public statistics, and small timings of single calls into
//! `itd_query` and `itd_core`.

use itd_core::{storage_stats, ExecContext, OpKind, StatsSnapshot, StorageStats};
use itd_db::{Database, QueryOpts};
use itd_lrp::{crt_cache_stats, CrtCacheStats};
use itd_query::{plan_cache_stats, PlanCacheStats};

use crate::util::{median, per_call_ns, ratio, timed, us, Report};

/// Process-wide counters at the start of a measured stretch; `finish`
/// turns their growth into per-layer metrics.
pub struct Counters {
    storage: StorageStats,
    plans: PlanCacheStats,
    crt: CrtCacheStats,
    /// Merged per-query operator counters of the queries in the stretch.
    ops: StatsSnapshot,
    /// Sum of the optimizer's total-pairs estimates of those queries.
    est_pairs: f64,
    queries: u64,
}

impl Counters {
    pub fn open() -> Counters {
        Counters {
            storage: storage_stats(),
            plans: plan_cache_stats(),
            crt: crt_cache_stats(),
            ops: StatsSnapshot::default(),
            est_pairs: 0.0,
            queries: 0,
        }
    }

    pub fn add_query(&mut self, out: &itd_db::QueryOutput) {
        self.ops.merge(out.result.stats());
        self.est_pairs += out.est_total_pairs;
        self.queries += 1;
    }

    /// Records the stretch's counter metrics. `live_rows` is the number of
    /// rows stored in the catalog at the end of the stretch.
    pub fn finish(&self, rep: &mut Report, live_rows: usize) {
        let st = storage_stats().delta_since(&self.storage);
        let now = plan_cache_stats();
        let lookups = now.lookups - self.plans.lookups;
        let hits = now.hits - self.plans.hits;
        rep.metric(
            "query.plan_cache_hit_ratio",
            ratio(hits as f64, lookups as f64),
            "ratio",
        );
        rep.metric(
            "query.plan_cache_invalidations",
            (now.invalidations - self.plans.invalidations) as f64,
            "count",
        );
        let pairs = self.ops.total_pairs() as f64;
        rep.metric(
            "query.est_over_actual_pairs",
            ratio(self.est_pairs, pairs),
            "ratio",
        );
        rep.metric(
            "core.pairs_per_query",
            ratio(pairs, self.queries as f64),
            "count",
        );
        let (mut pruned, mut out_pairwise, mut pairs_pairwise) = (0u64, 0u64, 0u64);
        for (kind, op) in self.ops.iter() {
            pruned += op.index_pruned;
            if matches!(kind, OpKind::Intersect | OpKind::Join | OpKind::Difference) {
                out_pairwise += op.tuples_out;
                pairs_pairwise += op.pairs;
            }
        }
        rep.metric(
            "core.index_prune_ratio",
            ratio(pruned as f64, pairs),
            "ratio",
        );
        rep.metric(
            "core.useful_pair_ratio",
            ratio(out_pairwise as f64, pairs_pairwise as f64),
            "ratio",
        );
        rep.metric(
            "core.outcome_hit_ratio",
            ratio(
                st.outcome_hits as f64,
                (st.outcome_hits + st.outcome_misses) as f64,
            ),
            "ratio",
        );
        rep.metric(
            "core.index_reuse_ratio",
            ratio(
                st.index_reuses as f64,
                (st.index_reuses + st.index_builds) as f64,
            ),
            "ratio",
        );
        rep.metric(
            "core.part_hit_ratio",
            ratio(st.part_hits as f64, st.part_lookups as f64),
            "ratio",
        );
        rep.metric(
            "core.value_hit_ratio",
            ratio(st.value_hits as f64, st.value_lookups as f64),
            "ratio",
        );
        rep.metric(
            "core.arena_bytes_growth",
            (st.value_bytes + st.part_bytes) as f64,
            "B",
        );
        let total = storage_stats();
        rep.metric(
            "core.arena_bytes_per_live_row",
            ratio(
                (total.value_bytes + total.part_bytes) as f64,
                live_rows as f64,
            ),
            "B",
        );
        let crt = crt_cache_stats();
        let (h, m) = (crt.hits - self.crt.hits, crt.misses - self.crt.misses);
        // The CRT memo is thread-local: this is the calling thread's share
        // only, not the worker threads' the executor fans out to.
        rep.metric(
            "lrp.crt_hit_ratio",
            ratio(h as f64, (h + m) as f64),
            "ratio",
        );
    }
}

/// `ExecContext::new()` construction time, in µs.
pub fn exec_ctx_new_us() -> f64 {
    per_call_ns(31, 50, || {
        std::hint::black_box(ExecContext::new());
    }) / 1e3
}

/// Mean over `srcs` of the median parse time, in µs.
pub fn parse_us(srcs: &[&str], reps: usize) -> f64 {
    let per: Vec<f64> = srcs
        .iter()
        .map(|src| {
            per_call_ns(reps, 10, || {
                std::hint::black_box(itd_query::parse(src).expect("template parses"));
            }) / 1e3
        })
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Mean over `srcs` of the median `Database::estimate` time right after a
/// plan-token rotation, in µs: the full preparation a cache miss pays.
/// `rotate` must mutate `db` so that its plan token changes.
pub fn prepare_us(
    db: &mut Database,
    srcs: &[&str],
    reps: usize,
    mut rotate: impl FnMut(&mut Database),
) -> f64 {
    let per: Vec<f64> = srcs
        .iter()
        .map(|src| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    rotate(db);
                    let (d, est) = timed(|| db.estimate(src, QueryOpts::new()));
                    est.expect("template prepares");
                    us(d)
                })
                .collect();
            median(&samples)
        })
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Mean over `srcs` of the median difference, in µs, between a warm `run`
/// under the default context and one under `ExecContext::serial()`,
/// measured alternately.
pub fn fanout_overhead_us(db: &Database, srcs: &[&str], reps: usize) -> f64 {
    let per: Vec<f64> = srcs
        .iter()
        .map(|src| {
            let mut fanned = Vec::with_capacity(reps);
            let mut serial = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (d, out) = timed(|| db.run(src, QueryOpts::new()));
                out.expect("template runs");
                fanned.push(us(d));
                let ctx = ExecContext::serial();
                let (d, out) = timed(|| db.run(src, QueryOpts::new().ctx(&ctx)));
                out.expect("template runs");
                serial.push(us(d));
            }
            median(&fanned) - median(&serial)
        })
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Records the self time per layer that the tracer's spans give.
pub fn self_times(rep: &mut Report, tr: &crate::trace::Tracer) {
    for (layer, v) in tr.self_time_per_layer() {
        let name = format!("layer.{layer}.self_us");
        if crate::PER_LAYER.iter().any(|(n, _)| *n == name) {
            rep.metric(&name, v, "us");
        }
    }
}
