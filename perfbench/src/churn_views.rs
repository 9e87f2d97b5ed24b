//! `churn_views`: the write path with registered views, writes beside
//! reads. One thread applies a fixed number of single-row transactions to
//! `cv_ev` under three maintained views — a join with a 64-row static
//! table, an ∃ projection, and an `and not` — each insert bringing fresh
//! temporal bounds and each retract removing the oldest row once 64 are
//! live. One transaction in 16 brings a data value never seen before,
//! which grows the active domain and forces every view's full-recompute
//! fallback. After each transaction come one ad-hoc query, which misses
//! the plan cache because every commit rotates the plan token, and a read
//! of each view's snapshot.
//!
//! The run length is a fixed number of transactions, not a time window:
//! the part arena grows with every fresh row, so a time window would let a
//! faster build grow it further and read as a memory regression.

use std::collections::VecDeque;
use std::time::Instant;

use itd_db::{Database, QueryOpts, TupleSpec, Txn, ViewId};

use crate::algebra_mix::set_equal;
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::util::{
    median, p99, percentile, ratio, timed, us, Args, Report, Rng, StealWindows, P99_BLOCK,
};

/// Transactions in a run.
const TXNS: usize = 6000;
/// Rows of `cv_ev` kept live.
const LIVE: usize = 64;
/// One transaction in this many brings a fresh data value.
const FRESH_EVERY: usize = 16;
/// Transactions applied during set-up, before the first timed one.
const WARM_TXNS: usize = LIVE;
const SETUPS: usize = 7;
/// A sampled ad-hoc answer is checked against an unoptimized evaluation
/// every this many transactions.
const CHECK_EVERY: usize = 50;
/// Transactions per steal window (about 150 ms): a multiple of both the
/// ad-hoc query cycle and the fresh-value period, so every window does the
/// same work.
const STEAL_WINDOW: usize = 48;
/// Transactions the figures are taken over at least: two p99 blocks.
const MIN_KEEP: usize = 2 * P99_BLOCK;

const VIEWS: [(&str, &str); 3] = [
    ("joined", "cv_ev(t; k) and cv_static(t; k)"),
    ("active", "exists k. cv_ev(t; k)"),
    ("unmasked", "cv_ev(t; k) and not cv_mask(t)"),
];

const ADHOC: [&str; 3] = [
    "exists t. cv_ev(t; k) and cv_static(t; k)",
    "cv_ev(t; k) and cv_mask(t)",
    "exists k. cv_ev(t; k) and cv_static(t; k)",
];

/// The seeded transaction stream: what row each transaction inserts.
struct Stream {
    rng: Rng,
    issued: usize,
}

impl Stream {
    fn row(&mut self) -> TupleSpec {
        let i = self.issued as i64;
        self.issued += 1;
        // Fresh bounds every time: a new interned part per row.
        let lo = 8 * i + self.rng.range(0, 8);
        let k = if self.issued.is_multiple_of(FRESH_EVERY) {
            1000 + i
        } else {
            self.rng.range(1, 9)
        };
        TupleSpec::new()
            .lrp("t", self.rng.range(0, 12), 12)
            .ge("t", lo)
            .le("t", lo + 12 * self.rng.range(4, 40))
            .datum("k", k)
    }
}

struct Stand {
    db: Database,
    ids: Vec<ViewId>,
    live: VecDeque<TupleSpec>,
    stream: Stream,
}

fn set_up(seed: u64) -> Stand {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    db.create_table("cv_ev", &["t"], &["k"])
        .expect("fresh table");
    db.create_table("cv_static", &["t"], &["k"])
        .expect("fresh table");
    db.create_table("cv_mask", &["t"], &[])
        .expect("fresh table");
    let mut txn = Txn::new();
    for _ in 0..64 {
        let spec = TupleSpec::new()
            .lrp("t", rng.range(0, 12), 12)
            .datum("k", rng.range(1, 9));
        txn = txn.insert("cv_static", spec);
    }
    for _ in 0..3 {
        txn = txn.insert("cv_mask", TupleSpec::new().lrp("t", rng.range(0, 12), 12));
    }
    db.apply(txn).expect("static tables");
    let ids = VIEWS
        .iter()
        .map(|(name, src)| db.register_view(name, src).expect("view registers"))
        .collect();
    let mut stand = Stand {
        db,
        ids,
        live: VecDeque::new(),
        stream: Stream { rng, issued: 0 },
    };
    for _ in 0..WARM_TXNS {
        let txn = next_txn(&mut stand);
        stand.db.apply(txn).expect("warm-up transaction");
    }
    stand
}

fn next_txn(stand: &mut Stand) -> Txn {
    let spec = stand.stream.row();
    let mut txn = Txn::new().insert("cv_ev", spec.clone());
    if stand.live.len() == LIVE {
        txn = txn.retract("cv_ev", stand.live.pop_front().expect("live row"));
    }
    stand.live.push_back(spec);
    txn
}

pub fn run(args: &Args, tr: &Tracer, rep: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stand = None;
    for _ in 0..SETUPS {
        let (d, s) = timed(|| set_up(args.seed));
        setups.push(d.as_secs_f64());
        stand = Some(s);
    }
    let mut stand = stand.expect("set up");
    let before = stand.db.metrics().snapshot();
    let mut counters = Counters::open();

    let (mut writes, mut reads, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut view_ns = Vec::new();
    let mut windows = StealWindows::new(STEAL_WINDOW);
    let (mut inserted, mut retracted, mut refreshed, mut recomputed) = (0, 0, 0, 0);
    let (mut traced_us, mut plain_us) = (0.0, 0.0);
    for i in 0..TXNS {
        let traced = i % 2 == 0;
        tr.record(traced);
        if traced {
            tr.begin_op(ADHOC[i % ADHOC.len()]);
        }
        let retracting = stand.live.len() == LIVE;
        let txn = next_txn(&mut stand);
        let src = ADHOC[i % ADHOC.len()];
        let op0 = Instant::now();
        let (w, r, v) = tr.span("bench.op", || {
            let (w, summary) = timed(|| tr.span("db.apply", || stand.db.apply(txn)));
            match summary {
                Ok(s) => {
                    inserted += s.inserted;
                    retracted += s.retracted;
                    refreshed += s.views_refreshed;
                    recomputed += s.views_recomputed;
                    rep.op((s.retracted != usize::from(retracting)).then_some("mismatch"));
                }
                Err(_) => rep.op(Some("write_error")),
            }
            if tr.enabled() && traced {
                tr.span("query.parse", || itd_query::parse(src).expect("parses"));
                // A distinct cache key, so the run below still prepares.
                let key = format!("{src} ");
                tr.span("query.prepare", || {
                    stand
                        .db
                        .estimate(&key, QueryOpts::new())
                        .expect("estimates")
                });
            }
            let (r, out) = timed(|| tr.span("db.run", || stand.db.run(src, QueryOpts::new())));
            match out {
                Ok(out) => {
                    if traced {
                        counters.add_query(&out);
                    }
                    rep.op(None);
                    if i % CHECK_EVERY == 0 {
                        let reference = stand
                            .db
                            .run(src, QueryOpts::new().optimize(false))
                            .expect("reference runs");
                        if !set_equal(&out.result.relation, &reference.result.relation) {
                            rep.fail("mismatch");
                        }
                    }
                }
                Err(_) => rep.op(Some("query_error")),
            }
            let mut v = 0.0;
            for id in &stand.ids {
                let (d, snap) = timed(|| tr.span("db.view_read", || stand.db.view(*id)));
                view_ns.push(d.as_nanos() as f64);
                v += us(d);
                rep.op(snap.is_none().then_some("view_missing"));
            }
            (w, r, v)
        });
        let d = us(op0.elapsed());
        if traced {
            traced_us += d;
        } else {
            plain_us += d;
        }
        writes.push(us(w));
        reads.push(us(r));
        // The operations' own time: the sampled answer checks are left out.
        busy.push(us(w) + us(r) + v);
        windows.after(writes.len());
    }
    tr.record(true);
    windows.note(rep, "txn", MIN_KEEP);

    // The maintained views equal a from-scratch evaluation of their
    // sources, and the transaction summaries add up.
    for ((_, src), id) in VIEWS.iter().zip(&stand.ids) {
        let view = stand.db.view(*id).expect("registered");
        let fresh = stand.db.run(src, QueryOpts::new()).expect("source runs");
        rep.op((!set_equal(&view.relation, &fresh.result.relation)).then_some("mismatch"));
    }
    // Set-up fills the table to `LIVE` rows, so every timed transaction
    // retracts one.
    let sums_ok = inserted == TXNS
        && retracted == TXNS
        && refreshed == VIEWS.len() * TXNS
        && recomputed <= refreshed;
    rep.op((!sums_ok).then_some("summary_mismatch"));

    let full_share = ratio(recomputed as f64, refreshed as f64);
    rep.note("transactions", TXNS.to_string());
    rep.note("fresh_value_share", format!("{}", 1.0 / FRESH_EVERY as f64));
    rep.note("view_full_refresh_share", format!("{full_share}"));

    if tr.enabled() {
        let after = stand.db.metrics().snapshot();
        rep.metric("query.view_full_refresh_ratio", full_share, "ratio");
        rep.metric(
            "query.view_delta_rows",
            (after.view_delta_rows - before.view_delta_rows) as f64,
            "count",
        );
        rep.metric("db.view_read_ns_p50", median(&view_ns), "ns");
        rep.metric("db.run_us_p50", median(&tr.durations("db.run")), "us");
        rep.metric(
            "query.parse_us_p50",
            median(&tr.durations("query.parse")),
            "us",
        );
        rep.metric(
            "query.prepare_us_p50",
            median(&tr.durations("query.prepare")),
            "us",
        );
        rep.metric("bench.trace_overhead_ratio", traced_us / plain_us, "ratio");
        layers::self_times(rep, tr);
        counters.finish(rep, stand.db.table("cv_ev").expect("table").len() + 67);
        rep.metric("core.exec_ctx_new_us", layers::exec_ctx_new_us(), "us");
        rep.metric(
            "core.fanout_overhead_us",
            layers::fanout_overhead_us(&stand.db, &ADHOC, 51),
            "us",
        );
    } else {
        rep.metric("setup_s", median(&setups), "s");
        let quiet = windows.pick(&reads, MIN_KEEP);
        rep.metric("read_p50_us", percentile(&quiet, 0.5), "us");
        rep.metric("read_p99_us", p99(&quiet), "us");
        let quiet = windows.pick(&writes, MIN_KEEP);
        rep.metric("write_p50_us", percentile(&quiet, 0.5), "us");
        rep.metric("write_p99_us", p99(&quiet), "us");
        // Each transaction is followed by one ad-hoc query and one read of
        // each view.
        let quiet = windows.pick(&busy, MIN_KEEP);
        let ops = quiet.len() * (2 + VIEWS.len());
        rep.metric(
            "ops_per_s",
            ops as f64 * 1e6 / quiet.iter().sum::<f64>(),
            "1/s",
        );
    }
}
