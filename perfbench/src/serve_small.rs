//! `serve_small`: the query service's front end on a catalog small enough
//! that every program cache holds it, so fixed per-request costs (context
//! set-up, thread hand-offs, the codec) dominate what a client sees.
//!
//! Phase A is an open loop at a fixed rate over one pipelined connection
//! and sets the read latencies, timed from each request's scheduled send.
//! Phase B is a closed loop of blocking clients and sets `ops_per_s`.
//! Phase C, which runs first, applies 16-row insert/retract transactions
//! through `Server::apply` to a table no template reads, and sets the
//! write latencies.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itd_core::ExecContext;
use itd_db::{Database, QueryOpts, TupleSpec, Txn};
use itd_server::{wire, Client, Server, ServerConfig};

use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::util::{
    median, p99, per_call_ns, percentile, timed, us, Args, Report, Rng, StealWindows, P99_BLOCK,
};

/// Open-loop request rate of phase A, per second: about a sixth of the
/// service's single-client capacity on a 2-core machine, so the queue
/// stays short and latency shows per-request cost, not backlog.
const RATE: f64 = 2000.0;
/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.6;
/// Phase C runs in short bursts of transactions (about 20 ms each, one
/// steal window), with a pause between bursts, so its figures sample the
/// machine over ten seconds: the cost of these sub-millisecond
/// transactions drifts from one fraction of a second to the next.
const WRITE_BURSTS: usize = 100;
const WRITE_BURST: usize = 200;
const WRITE_PAUSE: Duration = Duration::from_millis(100);
/// Untimed phase C transactions that come first.
const WRITE_WARM: usize = 1000;
/// Untimed transactions at the start of each burst: after a pause the
/// caches hold whatever the machine's other tenants left there, and the
/// first transactions of a burst would time that, not the write path.
const WRITE_REWARM: usize = 20;
/// Rows each transaction inserts, and retracts once the table is full. A
/// one-row transaction takes about 25 us, and the machine's interrupts
/// hit about 2% of them: their p99 then sits on the edge of that stretch
/// of the tail and jumps with how busy the machine's neighbours are. A
/// transaction of this size spends its tail in the write path's own work.
const WRITE_ROWS: usize = 16;
/// Rows kept live in the written table.
const WRITE_LIVE: usize = 2 * WRITE_ROWS;
/// Set-up repetitions. A set-up takes a few ms, and whether the service's
/// polling accept loop picks up the first connection at once or one poll
/// later splits the times into two modes, so one set-up's time is no
/// steady figure: `setup_s` is the median over groups of
/// [`SETUP_GROUP`] consecutive set-ups of the group's mean.
const SETUPS: usize = 64;
const SETUP_GROUP: usize = 4;
/// Phase A responses per steal window (an eighth of a second at the
/// fixed rate): a quarter of a p99 block, short enough that a run the
/// hypervisor disturbs every few hundred ms still has quiet windows to
/// keep. Not shorter: the receiver reads the steal counter once a window,
/// and that read delays the next answer it times, which must stay well
/// under 1% of the answers.
const LAT_WINDOW: usize = P99_BLOCK / 4;
/// Share of phase A's windows kept. Far fewer than half: the queue of an
/// open loop turns every stall into many late answers, so one stolen
/// window moves p99 more than machine drift does.
const LAT_KEEP_SHARE: f64 = 1.0 / 6.0;
/// Time slice over which phase B's throughput is read.
const SLICE: Duration = Duration::from_millis(100);
/// Latency samples the figures are taken over at least: two p99 blocks.
const MIN_KEEP: usize = 2 * P99_BLOCK;

/// The query templates: scans, ∩, `and not`, ∃, a join, and one closed
/// ∀ formula asked for its truth value. Answers hold 1 to 16 tuples.
const TEMPLATES: [(&str, bool); 12] = [
    ("s_even(t)", false),
    ("s_tick(t)", false),
    ("s_tag(t; k)", false),
    ("s_even(t) and s_fives(t)", false),
    ("s_tick(t) and s_even(t)", false),
    ("s_tag(t; k) and s_even(t)", false),
    ("s_even(t) and not s_fives(t)", false),
    ("s_tick(t) and not s_even(t)", false),
    ("exists k. s_tag(t; k)", false),
    ("exists b. s_pair(a, b)", false),
    ("s_pair(a, b) and s_even(b)", false),
    ("forall t. s_fives(t) implies s_fives(t + 5)", true),
];

fn catalog(seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    let tables: [(&str, &[&str], &[&str]); 6] = [
        ("s_even", &["t"], &[]),
        ("s_fives", &["t"], &[]),
        ("s_tick", &["t"], &[]),
        ("s_tag", &["t"], &["k"]),
        ("s_pair", &["a", "b"], &[]),
        ("s_log", &["t"], &[]),
    ];
    for (name, temporal, data) in tables {
        db.create_table(name, temporal, data).expect("fresh table");
    }
    let insert = |db: &mut Database, table: &str, spec: TupleSpec| {
        db.table_mut(table)
            .expect("table")
            .insert(spec)
            .expect("row");
    };
    insert(&mut db, "s_even", TupleSpec::new().lrp("t", 0, 2));
    insert(&mut db, "s_fives", TupleSpec::new().lrp("t", 0, 5));
    for _ in 0..16 {
        let spec = TupleSpec::new()
            .lrp("t", rng.range(0, 32), 32)
            .ge("t", rng.range(-64, 0));
        insert(&mut db, "s_tick", spec);
    }
    for _ in 0..16 {
        let spec = TupleSpec::new()
            .lrp("t", rng.range(0, 12), 12)
            .datum("k", rng.range(1, 7));
        insert(&mut db, "s_tag", spec);
    }
    for _ in 0..8 {
        let spec = TupleSpec::new()
            .lrp("a", rng.range(0, 6), 6)
            .lrp("b", rng.range(0, 6), 6)
            .diff_le("a", "b", 6 * rng.range(0, 4));
        insert(&mut db, "s_pair", spec);
    }
    db
}

/// What a correct wire answer to each template renders as.
struct Expected {
    result: String,
    truth: Option<bool>,
}

fn expected(db: &Database) -> Vec<Expected> {
    TEMPLATES
        .iter()
        .map(|(src, truth)| {
            let out = db.run(src, QueryOpts::new()).expect("template runs");
            Expected {
                result: out.result.relation.to_string(),
                truth: truth.then(|| out.truth().expect("truth")),
            }
        })
        .collect()
}

/// Classifies one wire response against its reference: `None` when the
/// answer is right, otherwise the failure kind.
fn check(resp: &wire::Response, want: &Expected) -> Option<String> {
    match &resp.payload {
        Ok(res) if res.result == want.result && res.truth == want.truth => None,
        Ok(_) => Some("mismatch".into()),
        Err(e) => Some(e.kind.clone()),
    }
}

fn frame(id: u64, template: usize) -> String {
    let (src, truth) = TEMPLATES[template];
    let mut line = wire::render_request(&wire::Request {
        id,
        query: src.to_owned(),
        deadline_ms: None,
        truth,
    });
    line.push('\n');
    line
}

/// A running service plus the pipelined connection phase A drives.
struct Stand {
    server: Server,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Catalog build, server start, and warm-up: one request per template over
/// the pipelined connection.
fn set_up(seed: u64) -> Stand {
    let db = catalog(seed);
    let server = Server::start(
        db,
        ServerConfig {
            workers: crate::util::nproc(),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone socket"));
    let mut line = String::new();
    for t in 0..TEMPLATES.len() {
        (&conn)
            .write_all(frame(t as u64 + 1, t).as_bytes())
            .expect("send");
        line.clear();
        reader.read_line(&mut line).expect("warm-up answer");
    }
    Stand {
        server,
        conn,
        reader,
    }
}

/// The seeded template sequence: consecutive seeded permutations, so
/// every window of the run sees the same mix.
fn sequence(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut seq = Vec::with_capacity(n + TEMPLATES.len());
    while seq.len() < n {
        seq.extend(rng.permutation(TEMPLATES.len()));
    }
    seq.truncate(n);
    seq
}

pub fn run(args: &Args, tr: &Tracer, rep: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stand = None;
    for i in 0..SETUPS {
        let (d, s) = timed(|| set_up(args.seed));
        setups.push(d.as_secs_f64());
        if i + 1 < SETUPS {
            drop(s.reader);
            drop(s.conn);
            s.server.shutdown();
        } else {
            stand = Some(s);
        }
    }
    let Stand {
        server,
        conn,
        reader,
    } = stand.expect("one set-up kept");

    // Phase C: writes to a table no template reads. It comes first, so
    // every run times it in the same state of the process, right after
    // set-up, whatever the reads would have left behind.
    let (writes, write_windows) = write_phase(&server, rep);

    // The writes rotated the plan token; computing the reference answers
    // prepares the templates' plans again before the clock starts.
    let want = Arc::new(expected(&server.snapshot()));
    let mut rng = Rng::new(args.seed ^ 0xA5A5);
    let registry = server.registry();
    let before = registry.snapshot();

    // Phase A: open loop.
    let n_a = ((args.seconds * PHASE_A_SHARE * RATE) as usize).max(4 * P99_BLOCK);
    let seq = Arc::new(sequence(&mut rng, n_a));
    let (lat, lat_windows, late) = open_loop(conn, reader, &seq, &want, rep);
    rep.note("open_loop_rate_per_s", format!("{RATE}"));
    rep.note("open_loop_requests", n_a.to_string());

    // Phase B: closed loop.
    let b_secs = args.seconds * (1.0 - PHASE_A_SHARE);
    let (slices, slice_windows) = closed_loop(&server, b_secs, &mut rng, &want, rep);

    let after = registry.snapshot();
    let snap = server.snapshot();
    let live_rows: usize = snap
        .table_names()
        .iter()
        .map(|t| snap.table(t).expect("table").len())
        .sum();

    let late_p50 = percentile(&late, 0.5);
    let late_p99 = percentile(&late, 0.99);
    rep.note("gen_late_us_p50", format!("{late_p50}"));
    rep.note("gen_late_us_p99", format!("{late_p99}"));
    // The generator fell behind when a typical send ran later than one
    // inter-arrival gap, or when it ended more than ten gaps behind its
    // schedule: the offered rate was then lower than stated.
    let gap_us = 1e6 / RATE;
    let behind = late_p50 > gap_us || late.last().is_some_and(|&l| l > 10.0 * gap_us);
    rep.note("open_loop_kept_up", (!behind).to_string());
    if behind {
        eprintln!(
            "serve_small: the open-loop generator fell behind its schedule \
             (late p50 {late_p50:.0} us, p99 {late_p99:.0} us); this run's latencies \
             do not reflect the stated rate"
        );
    }
    lat_windows.note(rep, "read", MIN_KEEP);
    slice_windows.note(rep, "closed_loop", 1);
    write_windows.note(rep, "write", MIN_KEEP);

    if tr.enabled() {
        rep.metric("bench.gen_late_us_p99", late_p99, "us");
        server_counters(rep, &before, &after);
        traced_probe(&server, &want, &seq, tr, rep, live_rows);
        layer_timings(args.seed, &snap, rep);
    } else {
        let groups: Vec<f64> = setups
            .chunks_exact(SETUP_GROUP)
            .map(|g| g.iter().sum::<f64>() / SETUP_GROUP as f64)
            .collect();
        rep.metric("setup_s", median(&groups), "s");
        let quiet = lat_windows.pick(&lat, MIN_KEEP);
        rep.metric("read_p50_us", percentile(&quiet, 0.5), "us");
        rep.metric("read_p99_us", p99(&quiet), "us");
        let quiet = write_windows.pick(&writes, MIN_KEEP);
        rep.metric("write_p50_us", percentile(&quiet, 0.5), "us");
        rep.metric("write_p99_us", p99(&quiet), "us");
        let quiet = slice_windows.pick(&slices, 1);
        rep.metric(
            "ops_per_s",
            quiet.iter().sum::<f64>() / quiet.len() as f64,
            "1/s",
        );
    }

    let end = registry.snapshot();
    if end.server_requests != end.server_admitted {
        rep.fail("admission_mismatch");
    }
    server.shutdown();
}

/// Phase A: a sender thread writes frames on a fixed schedule while a
/// receiver thread matches responses by id. Returns the latency of each
/// answered request from its scheduled send, in arrival order, with the
/// windows it falls in, and the sender's lateness.
fn open_loop(
    conn: TcpStream,
    mut reader: BufReader<TcpStream>,
    seq: &Arc<Vec<usize>>,
    want: &Arc<Vec<Expected>>,
    rep: &mut Report,
) -> (Vec<f64>, StealWindows, Vec<f64>) {
    let n = seq.len();
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| t0 + gap * i as u32;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let seq2 = Arc::clone(seq);
    let sender = std::thread::spawn(move || {
        let mut conn = conn;
        let mut late = Vec::with_capacity(n);
        for (i, &t) in seq2.iter().enumerate() {
            let line = frame(i as u64 + 1, t);
            let at = due(i);
            // A plain sleep, not a spin: with two cores, spinning would
            // take a core from the service under test.
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late.push(us(Instant::now().saturating_duration_since(at)));
            conn.write_all(line.as_bytes()).expect("send");
        }
        (late, conn)
    });
    let seq3 = Arc::clone(seq);
    let want2 = Arc::clone(want);
    let receiver = std::thread::spawn(move || {
        let mut lat = Vec::with_capacity(n);
        let mut windows = StealWindows::new(LAT_WINDOW).keeping(LAT_KEEP_SHARE);
        let mut failures: Vec<String> = Vec::new();
        let mut line = String::new();
        for _ in 0..n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            let resp = match wire::parse_response(line.trim()) {
                Ok(r) => r,
                Err(_) => {
                    failures.push("protocol".into());
                    continue;
                }
            };
            let Some(i) = (resp.id as usize).checked_sub(1).filter(|&i| i < n) else {
                failures.push("protocol".into());
                continue;
            };
            lat.push(us(now - due(i)));
            windows.after(lat.len());
            if let Some(kind) = check(&resp, &want2[seq3[i]]) {
                failures.push(kind);
            }
        }
        (lat, windows, failures)
    });
    let (late, conn) = sender.join().expect("sender thread");
    let (lat, mut windows, failures) = receiver.join().expect("receiver thread");
    // How late the sender ran counts as interference too: a late sender
    // means this process was kept off the CPU, which the coarse steal
    // counter can miss.
    windows.add_interference(
        late.chunks(LAT_WINDOW)
            .map(|c| percentile(c, 0.99) / 1e3)
            .collect(),
    );
    drop(conn);
    for _ in 0..n {
        rep.op(None);
    }
    for _ in lat.len()..n {
        rep.fail("no_response");
    }
    for kind in &failures {
        rep.fail(kind);
    }
    (lat, windows, late)
}

/// Phase B: one blocking client per core, each sending its next request
/// when the previous answer arrives. Returns the completed requests per
/// second of each time slice, with the windows they fall in.
fn closed_loop(
    server: &Server,
    secs: f64,
    rng: &mut Rng,
    want: &Arc<Vec<Expected>>,
    rep: &mut Report,
) -> (Vec<f64>, StealWindows) {
    let clients = crate::util::nproc();
    let seqs: Vec<Vec<usize>> = (0..clients).map(|_| sequence(rng, 4096)).collect();
    let mut conns: Vec<Client> = (0..clients)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for c in &mut conns {
        for (src, truth) in TEMPLATES {
            c.query_opts(src, None, truth).expect("warm-up");
        }
    }
    let done = Arc::new(AtomicU64::new(0));
    let start = Instant::now() + Duration::from_millis(5);
    let stop = start + Duration::from_secs_f64(secs);
    let handles: Vec<_> = conns
        .into_iter()
        .zip(seqs)
        .map(|(mut client, seq)| {
            let want = Arc::clone(want);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                let mut failures = Vec::new();
                let mut i = 0;
                while Instant::now() < stop {
                    let t = seq[i % seq.len()];
                    i += 1;
                    let (src, truth) = TEMPLATES[t];
                    match client.query_opts(src, None, truth) {
                        Ok(res) if res.result == want[t].result && res.truth == want[t].truth => {}
                        Ok(_) => failures.push("mismatch".to_owned()),
                        Err(e) => failures.push(e.kind().to_owned()),
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                failures
            })
        })
        .collect();
    // Throughput per time slice, read off the clients' shared count while
    // they run.
    let mut slices = Vec::new();
    let mut windows = StealWindows::new(1);
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let (mut at, mut count) = (Instant::now(), done.load(Ordering::Relaxed));
    while at + SLICE <= stop {
        std::thread::sleep((at + SLICE).saturating_duration_since(Instant::now()));
        let (now, c) = (Instant::now(), done.load(Ordering::Relaxed));
        slices.push((c - count) as f64 / (now - at).as_secs_f64());
        windows.after(slices.len());
        (at, count) = (now, c);
    }
    for h in handles {
        let failures = h.join().expect("client thread");
        for kind in failures {
            rep.fail(&kind);
        }
    }
    for _ in 0..done.load(Ordering::Relaxed) {
        rep.op(None);
    }
    (slices, windows)
}

/// Phase C: insert/retract transactions of [`WRITE_ROWS`] rows each
/// through the service's write path. Returns each transaction's latency,
/// in µs, with the windows they fall in.
fn write_phase(server: &Server, rep: &mut Report) -> (Vec<f64>, StealWindows) {
    let mut live: VecDeque<TupleSpec> = VecDeque::new();
    let mut lat = Vec::with_capacity(WRITE_BURSTS * WRITE_BURST);
    let mut windows = StealWindows::new(WRITE_BURST);
    let mut i: i64 = 0;
    let mut write = |timed_at: Option<(&mut Vec<f64>, &mut StealWindows)>, rep: &mut Report| {
        let mut txn = Txn::new();
        let mut retracted = 0;
        for _ in 0..WRITE_ROWS {
            // Rows cycle through 448 distinct values, so the part arena
            // stops growing.
            let spec = TupleSpec::new().lrp("t", i % 7, 7).ge("t", (i / 7) % 64);
            i += 1;
            txn = txn.insert("s_log", spec.clone());
            if live.len() == WRITE_LIVE {
                txn = txn.retract("s_log", live.pop_front().expect("live row"));
                retracted += 1;
            }
            live.push_back(spec);
        }
        let (d, res) = timed(|| server.apply(txn));
        if let Some((lat, windows)) = timed_at {
            lat.push(us(d));
            windows.after(lat.len());
        }
        rep.op(match res {
            Ok(s) if s.inserted == WRITE_ROWS && s.retracted == retracted => None,
            Ok(_) => Some("mismatch"),
            Err(_) => Some("write_error"),
        });
    };
    // The first pass over the row values interns them; it is not timed.
    for _ in 0..WRITE_WARM {
        write(None, rep);
    }
    for burst in 0..WRITE_BURSTS {
        if burst > 0 {
            std::thread::sleep(WRITE_PAUSE);
        }
        for _ in 0..WRITE_REWARM {
            write(None, rep);
        }
        for _ in 0..WRITE_BURST {
            write(Some((&mut lat, &mut windows)), rep);
        }
    }
    (lat, windows)
}

fn server_counters(
    rep: &mut Report,
    before: &itd_core::RegistrySnapshot,
    after: &itd_core::RegistrySnapshot,
) {
    let batches = after.server_batches - before.server_batches;
    let carried = after.server_batch_queries - before.server_batch_queries;
    rep.metric(
        "server.batch_avg",
        crate::util::ratio(carried as f64, batches as f64),
        "count",
    );
    rep.metric(
        "server.queue_depth_max",
        after.server_queue_depth_max as f64,
        "count",
    );
    let rejected = (after.server_rejected_over_budget + after.server_rejected_queue_full)
        - (before.server_rejected_over_budget + before.server_rejected_queue_full);
    rep.metric("server.rejected", rejected as f64, "count");
    rep.metric(
        "server.timeouts",
        (after.server_timeouts - before.server_timeouts) as f64,
        "count",
    );
}

/// Traced requests over a fresh connection, alternating with untraced
/// ones of the same template: each traced request records the codec calls,
/// the socket exchange, and an in-process `run` plus rendering of the same
/// template on the server's snapshot, back to back.
fn traced_probe(
    server: &Server,
    want: &[Expected],
    seq: &[usize],
    tr: &Tracer,
    rep: &mut Report,
    live_rows: usize,
) {
    let snap = server.snapshot();
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone socket"));
    let mut counters = Counters::open();
    let (mut traced_us, mut plain_us) = (Vec::new(), Vec::new());
    let mut line = String::new();
    let ops = 2 * seq.len().min(3000);
    for i in 0..ops {
        let t = seq[(i / 2) % seq.len()];
        let (src, truth) = TEMPLATES[t];
        let traced = i % 2 == 0;
        tr.record(traced);
        if traced {
            tr.begin_op(src);
        }
        let t0 = Instant::now();
        let ok = tr.span("bench.op", || {
            let req = wire::Request {
                id: i as u64 + 1,
                query: src.to_owned(),
                deadline_ms: None,
                truth,
            };
            let mut frame = tr.span("wire.encode_request", || wire::render_request(&req));
            frame.push('\n');
            tr.span("server.exchange", || {
                conn.write_all(frame.as_bytes()).expect("send");
                line.clear();
                reader.read_line(&mut line).expect("answer");
            });
            let resp = tr.span("wire.decode_response", || {
                wire::parse_response(line.trim()).expect("well-formed response")
            });
            let ctx = ExecContext::with_threads(1);
            let out = tr.span("db.run", || {
                snap.run(src, QueryOpts::new().ctx(&ctx))
                    .expect("template runs")
            });
            let text = tr.span("db.render", || out.result.relation.to_string());
            if traced {
                counters.add_query(&out);
            }
            check(&resp, &want[t]).is_none() && text == want[t].result
        });
        let d = us(t0.elapsed());
        if traced {
            traced_us.push(d);
        } else {
            plain_us.push(d);
        }
        rep.op((!ok).then_some("mismatch"));
    }
    tr.record(true);
    let wire_us: Vec<f64> = {
        let enc = tr.durations_by_op("wire.encode_request");
        let ex = tr.durations_by_op("server.exchange");
        let dec = tr.durations_by_op("wire.decode_response");
        let run = tr.durations_by_op("db.run");
        let render = tr.durations_by_op("db.render");
        ex.iter()
            .map(|(op, x)| x + enc[op] + dec[op] - run[op] - render[op])
            .collect()
    };
    rep.metric("server.overhead_us_p50", median(&wire_us), "us");
    rep.metric("db.run_us_p50", median(&tr.durations("db.run")), "us");
    rep.metric("db.render_us_p50", median(&tr.durations("db.render")), "us");
    rep.metric(
        "bench.trace_overhead_ratio",
        median(&traced_us) / median(&plain_us),
        "ratio",
    );
    layers::self_times(rep, tr);
    counters.finish(rep, live_rows);
}

/// Single-call timings: the wire codec on this workload's frames, context
/// construction, parsing, preparation after a token rotation, and the
/// thread fan-out cost of a default context.
fn layer_timings(seed: u64, snap: &Database, rep: &mut Report) {
    let srcs: Vec<&str> = TEMPLATES.iter().map(|(s, _)| *s).collect();
    let reqs: Vec<wire::Request> = TEMPLATES
        .iter()
        .enumerate()
        .map(|(i, (src, truth))| wire::Request {
            id: i as u64 + 1,
            query: (*src).to_owned(),
            deadline_ms: None,
            truth: *truth,
        })
        .collect();
    let req_lines: Vec<String> = reqs.iter().map(wire::render_request).collect();
    let resps: Vec<wire::Response> = reqs
        .iter()
        .map(|req| {
            let out = snap
                .run(&req.query, QueryOpts::new())
                .expect("template runs");
            wire::Response {
                id: req.id,
                payload: Ok(wire::WireResult {
                    cached: out.plan_cached,
                    est_pairs: out.est_total_pairs,
                    temporal_vars: out.result.temporal_vars.clone(),
                    data_vars: out.result.data_vars.clone(),
                    result: out.result.relation.to_string(),
                    truth: None,
                }),
            }
        })
        .collect();
    let resp_lines: Vec<String> = resps.iter().map(wire::render_response).collect();
    let codec = |f: &mut dyn FnMut(usize)| {
        let per: Vec<f64> = (0..TEMPLATES.len())
            .map(|i| per_call_ns(21, 50, || f(i)))
            .collect();
        median(&per)
    };
    let enc_req = codec(&mut |i| {
        std::hint::black_box(wire::render_request(&reqs[i]));
    });
    let dec_req = codec(&mut |i| {
        std::hint::black_box(wire::parse_request(&req_lines[i]).expect("parses"));
    });
    let enc_resp = codec(&mut |i| {
        std::hint::black_box(wire::render_response(&resps[i]));
    });
    let dec_resp = codec(&mut |i| {
        std::hint::black_box(wire::parse_response(&resp_lines[i]).expect("parses"));
    });
    rep.metric("server.wire_encode_request_ns", enc_req, "ns");
    rep.metric("server.wire_decode_request_ns", dec_req, "ns");
    rep.metric("server.wire_encode_response_ns", enc_resp, "ns");
    rep.metric("server.wire_decode_response_ns", dec_resp, "ns");
    rep.metric("core.exec_ctx_new_us", layers::exec_ctx_new_us(), "us");
    rep.metric("query.parse_us_p50", layers::parse_us(&srcs, 21), "us");
    rep.metric(
        "core.fanout_overhead_us",
        layers::fanout_overhead_us(snap, &srcs, 101),
        "us",
    );
    // A private copy of the catalog, so rotating its plan token leaves
    // the served database's cached plans alone.
    let mut own = catalog(seed);
    let prepare = layers::prepare_us(&mut own, &srcs, 21, |db| {
        db.table_mut("s_log").expect("table");
    });
    rep.metric("query.prepare_us_p50", prepare, "us");
}
