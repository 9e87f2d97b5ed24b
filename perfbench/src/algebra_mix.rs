//! `algebra_mix`: the algebra kernels, with no server in the way. One
//! caller thread cycles a seeded sequence of the paper's Table 2 classes —
//! ∪, ∩, ⋈, `and not`, ∃ — plus one Theorem 4.1 yes/no query over
//! generated relations (N = 128 tuples, m = 2 temporal columns, period
//! k = 6), under default query options, so the engine fans out to every
//! core. Plans come from the warm plan cache: what moves here is kernel,
//! index, compaction, complement, and memo work, not the front end.
//!
//! The classes run over several independently generated table pairs, so a
//! run's cost does not hang on how hard one random pair happens to be.
//! Between passes over the queries, bursts of 16-row insert/retract
//! transactions on a private copy of the catalog set the write latencies:
//! the write path with no views, sampled over the whole run without
//! touching the tables the queries read.

use itd_core::{ExecContext, GenRelation};
use itd_db::{Database, QueryOpts, TupleSpec, Txn};
use itd_workload::{random_relation, RelationSpec};

use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::util::{
    json_str, median, p99, percentile, timed, us, Args, Report, Rng, StealWindows, P99_BLOCK,
};

const SPEC: RelationSpec = RelationSpec {
    tuples: 128,
    temporal_arity: 2,
    period: 6,
    data_arity: 0,
    constraint_density: 0.4,
    bound_steps: 8,
};

/// Generated table pairs `ra<p>`/`rb<p>`.
const PAIRS: usize = 8;

/// `(class, source over tables A and B, asked for its truth value)`.
const CLASSES: [(&str, &str, bool); 6] = [
    ("union", "A(x, y) or B(x, y)", false),
    ("intersect", "A(x, y) and B(x, y)", false),
    ("join", "A(x, y) and B(y, z)", false),
    ("and_not", "A(x, y) and not B(x, y)", false),
    ("exists", "exists y. A(x, y)", false),
    ("truth", "exists x. exists y. A(x, y) and B(y, x)", true),
];

/// Samples the figures are taken over at least: two p99 blocks.
const MIN_KEEP: usize = 2 * P99_BLOCK;
/// Reads taken at least, whatever `--seconds` says.
const MIN_READS: usize = 4 * P99_BLOCK;
/// Reads per steal window: one pass over every query (about 200 ms).
const READ_WINDOW: usize = PAIRS * CLASSES.len();
/// Writes after each pass over the queries (about 10 ms); one steal window.
const WRITE_BURST: usize = 100;
/// Rows each write inserts, or retracts again. A one-row transaction
/// takes about 20 us, and the machine's interrupts hit a few percent of
/// them: their p99 then sits on the edge of that stretch of the tail and
/// jumps with how busy the machine's neighbours are.
const WRITE_ROWS: i64 = 16;
/// Untimed writes, at set-up.
const WRITE_WARM: usize = 1000;
/// Untimed writes at the start of each burst: the queries before it have
/// filled the caches with their own data, and the first writes of a burst
/// would time that refill, not the write path.
const WRITE_REWARM: usize = 20;
const SETUPS: usize = 9;

struct Query {
    class: &'static str,
    src: String,
    truth: bool,
}

fn queries() -> Vec<Query> {
    (0..PAIRS)
        .flat_map(|p| {
            CLASSES.iter().map(move |(class, src, truth)| Query {
                class,
                src: src
                    .replace('A', &format!("ra{p}"))
                    .replace('B', &format!("rb{p}")),
                truth: *truth,
            })
        })
        .collect()
}

/// Catalog build: the generated relations as tables.
fn catalog(seed: u64) -> Database {
    let mut db = Database::new();
    for p in 0..PAIRS {
        for (i, name) in [format!("ra{p}"), format!("rb{p}")].iter().enumerate() {
            let n = (2 * p + i) as u64;
            let rel = random_relation(&SPEC, seed.wrapping_mul(2 * PAIRS as u64).wrapping_add(n));
            db.create_table(name, &["x", "y"], &[])
                .expect("fresh table");
            db.table_mut(name)
                .expect("table")
                .set_relation(rel)
                .expect("schema matches");
        }
    }
    db
}

fn set_up(seed: u64, qs: &[Query]) -> Database {
    let db = catalog(seed);
    for q in qs {
        db.run(&q.src, QueryOpts::new()).expect("warm-up");
    }
    db
}

/// A query's answer: the relation, and the truth value when asked for.
struct Answer {
    relation: GenRelation,
    truth: Option<bool>,
}

fn answer(db: &Database, q: &Query, opts: QueryOpts<'_>) -> Answer {
    let out = db.run(&q.src, opts).expect("query runs");
    Answer {
        truth: q.truth.then(|| out.truth().expect("truth")),
        relation: out.result.relation,
    }
}

/// Set equality: both differences denote the empty set.
pub fn set_equal(a: &GenRelation, b: &GenRelation) -> bool {
    let ctx = ExecContext::new();
    let empty = |x: &GenRelation, y: &GenRelation| {
        x.difference_in(y, &ctx)
            .and_then(|d| d.denotes_empty())
            .unwrap_or(false)
    };
    empty(a, b) && empty(b, a)
}

/// Checks answers against the unoptimized evaluation. A structurally
/// identical answer is accepted cheaply; any other answer is compared by
/// denotation.
struct Checker {
    reference: Vec<Answer>,
}

impl Checker {
    fn new(db: &Database, qs: &[Query]) -> Checker {
        let reference = qs
            .iter()
            .map(|q| answer(db, q, QueryOpts::new().optimize(false)))
            .collect();
        Checker { reference }
    }

    fn ok(&mut self, q: usize, got: &Answer) -> bool {
        let want = &self.reference[q];
        if got.truth != want.truth {
            return false;
        }
        if got.relation == want.relation {
            return true;
        }
        if set_equal(&got.relation, &want.relation) {
            // Keep the optimized rendering, so later answers take the
            // cheap path.
            self.reference[q].relation = got.relation.clone();
            return true;
        }
        false
    }
}

pub fn run(args: &Args, tr: &Tracer, rep: &mut Report) -> Vec<String> {
    let qs = queries();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut db = None;
    for _ in 0..SETUPS {
        let (d, built) = timed(|| set_up(args.seed, &qs));
        setups.push(d.as_secs_f64());
        db = Some(built);
    }
    let mut db = db.expect("set up");
    let mut checker = Checker::new(&db, &qs);
    let mut rng = Rng::new(args.seed ^ 0x5A5A);
    let mut seq = Vec::new();
    while seq.len() < 1 << 16 {
        seq.extend(rng.permutation(qs.len()));
    }

    if tr.enabled() {
        return traced(&mut db, &qs, &mut checker, &seq, tr, rep);
    }

    // The private copy takes its first write now: that rotates the plan
    // token the two copies shared, so the queries are prepared again
    // before the clock starts.
    let mut writer = Writer::new(&db);
    writer.burst(WRITE_WARM, None, rep);
    for q in &qs {
        db.run(&q.src, QueryOpts::new()).expect("warm-up");
    }

    let budget = std::time::Duration::from_secs_f64(args.seconds);
    let mut lat = Vec::new();
    let mut windows = StealWindows::new(READ_WINDOW);
    let (mut writes, mut write_windows) = (Vec::new(), StealWindows::new(WRITE_BURST));
    let t0 = std::time::Instant::now();
    while lat.len() < MIN_READS || t0.elapsed() < budget {
        let q = seq[lat.len() % seq.len()];
        let (d, got) = timed(|| answer(&db, &qs[q], QueryOpts::new()));
        lat.push(us(d));
        windows.after(lat.len());
        rep.op((!checker.ok(q, &got)).then_some("mismatch"));
        if lat.len().is_multiple_of(READ_WINDOW) {
            writer.burst(WRITE_REWARM, None, rep);
            writer.burst(WRITE_BURST, Some((&mut writes, &mut write_windows)), rep);
        }
    }
    let quiet = windows.pick(&lat, MIN_KEEP);
    windows.note(rep, "read", MIN_KEEP);
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("read_p50_us", percentile(&quiet, 0.5), "us");
    rep.metric("read_p99_us", p99(&quiet), "us");
    // Queries per second of query time: the answer checks between queries
    // are not counted.
    rep.metric(
        "ops_per_s",
        quiet.len() as f64 * 1e6 / quiet.iter().sum::<f64>(),
        "1/s",
    );
    rep.note("reads", lat.len().to_string());

    let quiet = write_windows.pick(&writes, MIN_KEEP);
    write_windows.note(rep, "write", MIN_KEEP);
    rep.metric("write_p50_us", percentile(&quiet, 0.5), "us");
    rep.metric("write_p99_us", p99(&quiet), "us");
    Vec::new()
}

/// The write stream: [`WRITE_ROWS`] fresh rows inserted into `ra0` of a
/// private copy of the catalog, then retracted again, over and over.
struct Writer {
    db: Database,
    issued: i64,
    last: Option<Vec<TupleSpec>>,
}

impl Writer {
    fn new(db: &Database) -> Writer {
        Writer {
            db: db.clone(),
            issued: 0,
            last: None,
        }
    }

    /// Applies `n` transactions, timing each into `into` when given.
    fn burst(
        &mut self,
        n: usize,
        mut into: Option<(&mut Vec<f64>, &mut StealWindows)>,
        rep: &mut Report,
    ) {
        for _ in 0..n {
            let i = self.issued;
            self.issued += 1;
            let (txn, inserting) = match self.last.take() {
                None => {
                    // Rows cycle through 432 distinct values, so the part
                    // arena stops growing.
                    let specs: Vec<TupleSpec> = (WRITE_ROWS * i..WRITE_ROWS * (i + 1))
                        .map(|r| {
                            TupleSpec::new()
                                .lrp("x", r % 6, 6)
                                .lrp("y", (r / 6) % 6, 6)
                                .ge("x", 1000 + (r / 36) % 12)
                        })
                        .collect();
                    let txn = specs
                        .iter()
                        .fold(Txn::new(), |t, spec| t.insert("ra0", spec.clone()));
                    self.last = Some(specs);
                    (txn, true)
                }
                Some(specs) => (
                    specs
                        .into_iter()
                        .fold(Txn::new(), |t, spec| t.retract("ra0", spec)),
                    false,
                ),
            };
            let (d, res) = timed(|| self.db.apply(txn));
            if let Some((lat, windows)) = into.as_mut() {
                lat.push(us(d));
                windows.after(lat.len());
            }
            rep.op(match res {
                Ok(s)
                    if s.inserted == WRITE_ROWS as usize * usize::from(inserting)
                        && s.retracted == WRITE_ROWS as usize * usize::from(!inserting) =>
                {
                    None
                }
                Ok(_) => Some("mismatch"),
                Err(_) => Some("write_error"),
            });
        }
    }
}

/// The traced run: direct operator calls, then queries alternating
/// between traced (benchmark spans plus the engine's own span tree) and
/// untraced, then single-call timings.
fn traced(
    db: &mut Database,
    qs: &[Query],
    checker: &mut Checker,
    seq: &[usize],
    tr: &Tracer,
    rep: &mut Report,
) -> Vec<String> {
    let ra = db.table("ra0").expect("table").relation().clone();
    let rb = db.table("rb0").expect("table").relation().clone();
    type Op<'a> = Box<dyn Fn(&ExecContext) -> itd_core::Result<GenRelation> + 'a>;
    let ops: [(&str, Op); 6] = [
        ("core.union_us_p50", Box::new(|c| ra.union_in(&rb, c))),
        (
            "core.intersect_us_p50",
            Box::new(|c| ra.intersect_in(&rb, c)),
        ),
        (
            "core.join_us_p50",
            Box::new(|c| ra.join_on_in(&rb, &[(1, 0)], &[], c)),
        ),
        (
            "core.difference_us_p50",
            Box::new(|c| ra.difference_in(&rb, c)),
        ),
        (
            "core.project_us_p50",
            Box::new(|c| ra.project_in(&[0], &[], c)),
        ),
        (
            "core.complement_us_p50",
            Box::new(|c| rb.complement_temporal_in(c)),
        ),
    ];
    for (name, op) in &ops {
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let ctx = ExecContext::new();
                let (d, out) = timed(|| op(&ctx));
                out.expect("operator runs");
                us(d)
            })
            .collect();
        rep.metric(name, median(&samples), "us");
    }

    let mut counters = Counters::open();
    let mut folded = Vec::new();
    let (mut traced_us, mut plain_us) = (0.0, 0.0);
    for i in 0..2 * 4 * qs.len() {
        let q = seq[i / 2];
        let query = &qs[q];
        let src = query.src.as_str();
        let traced = i % 2 == 0;
        tr.record(traced);
        if traced {
            tr.begin_op(query.class);
        }
        let t0 = std::time::Instant::now();
        let got = tr.span("bench.op", || {
            tr.span("query.parse", || itd_query::parse(src).expect("parses"));
            tr.span("query.estimate", || {
                db.estimate(src, QueryOpts::new()).expect("estimates")
            });
            let out = tr.span("db.run", || {
                db.run(src, QueryOpts::new().trace(traced)).expect("runs")
            });
            let truth = query
                .truth
                .then(|| tr.span("core.truth", || out.truth().expect("truth")));
            if traced {
                counters.add_query(&out);
                if let Some(t) = &out.trace {
                    folded.push(format!(
                        "{{\"engine_folded\": {}, \"op_label\": {}}}",
                        json_str(&t.to_folded()),
                        json_str(query.class)
                    ));
                }
            }
            Answer {
                relation: out.result.relation,
                truth,
            }
        });
        let d = us(t0.elapsed());
        if traced {
            traced_us += d;
        } else {
            plain_us += d;
        }
        rep.op((!checker.ok(q, &got)).then_some("mismatch"));
    }
    tr.record(true);
    rep.metric("bench.trace_overhead_ratio", traced_us / plain_us, "ratio");
    rep.metric("db.run_us_p50", median(&tr.durations("db.run")), "us");
    layers::self_times(rep, tr);
    counters.finish(rep, 2 * PAIRS * SPEC.tuples);

    let srcs: Vec<&str> = qs[..CLASSES.len()].iter().map(|q| q.src.as_str()).collect();
    rep.metric("core.exec_ctx_new_us", layers::exec_ctx_new_us(), "us");
    rep.metric("query.parse_us_p50", layers::parse_us(&srcs, 21), "us");
    rep.metric(
        "core.fanout_overhead_us",
        layers::fanout_overhead_us(db, &srcs, 7),
        "us",
    );
    let prepare = layers::prepare_us(db, &srcs, 11, |db| {
        db.table_mut("ra0").expect("table");
    });
    rep.metric("query.prepare_us_p50", prepare, "us");
    folded
}
