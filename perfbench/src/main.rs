//! The repository's benchmark: one workload per run, in a fresh process
//! (the engine's arenas and plan cache are process-wide).
//!
//! ```text
//! itd-perfbench --workload <serve_small|algebra_mix|churn_views> --seed <n>
//!               --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed`, and the metrics — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The line before
//! it records the run's validity: failure kinds, the failed share, core
//! count, build profile, source id, and workload-specific facts such as
//! how late the open-loop generator ran.

mod algebra_mix;
mod churn_views;
mod layers;
mod serve_small;
mod trace;
mod util;

use trace::Tracer;
use util::{json_str, Args, Report};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A workload that does
/// not exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("server.overhead_us_p50", "us"),
    ("server.batch_avg", "count"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("server.timeouts", "count"),
    ("server.wire_encode_request_ns", "ns"),
    ("server.wire_decode_request_ns", "ns"),
    ("server.wire_encode_response_ns", "ns"),
    ("server.wire_decode_response_ns", "ns"),
    ("db.run_us_p50", "us"),
    ("db.render_us_p50", "us"),
    ("db.view_read_ns_p50", "ns"),
    ("query.parse_us_p50", "us"),
    ("query.prepare_us_p50", "us"),
    ("query.plan_cache_hit_ratio", "ratio"),
    ("query.plan_cache_invalidations", "count"),
    ("query.est_over_actual_pairs", "ratio"),
    ("query.view_full_refresh_ratio", "ratio"),
    ("query.view_delta_rows", "count"),
    ("core.exec_ctx_new_us", "us"),
    ("core.fanout_overhead_us", "us"),
    ("core.union_us_p50", "us"),
    ("core.intersect_us_p50", "us"),
    ("core.join_us_p50", "us"),
    ("core.difference_us_p50", "us"),
    ("core.project_us_p50", "us"),
    ("core.complement_us_p50", "us"),
    ("core.pairs_per_query", "count"),
    ("core.index_prune_ratio", "ratio"),
    ("core.useful_pair_ratio", "ratio"),
    ("core.outcome_hit_ratio", "ratio"),
    ("core.index_reuse_ratio", "ratio"),
    ("core.arena_bytes_growth", "B"),
    ("core.arena_bytes_per_live_row", "B"),
    ("core.part_hit_ratio", "ratio"),
    ("core.value_hit_ratio", "ratio"),
    ("lrp.crt_hit_ratio", "ratio"),
    ("bench.gen_late_us_p99", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("layer.bench.self_us", "us"),
    ("layer.wire.self_us", "us"),
    ("layer.server.self_us", "us"),
    ("layer.db.self_us", "us"),
    ("layer.query.self_us", "us"),
    ("layer.core.self_us", "us"),
    ("layer.lrp.self_us", "us"),
];

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("itd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let steal0 = util::cpu_steal_ms();
    let mut rep = Report::default();
    let extra = match args.workload.as_str() {
        "serve_small" => {
            serve_small::run(&args, &tracer, &mut rep);
            Vec::new()
        }
        "algebra_mix" => algebra_mix::run(&args, &tracer, &mut rep),
        "churn_views" => {
            churn_views::run(&args, &tracer, &mut rep);
            Vec::new()
        }
        other => {
            eprintln!("itd-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        rep.metric("peak_rss_mb", util::peak_rss_mib(), "MiB");
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let found = rep.metrics.iter().find(|(n, _, _)| n == name);
        match found {
            Some((_, v, u)) => {
                assert_eq!(u, unit, "unit of {name}");
                metrics.push((name.to_string(), *v, *u));
            }
            None if args.trace => metrics.push((name.to_string(), 0.0, *unit)),
            None => panic!("workload {} did not measure {name}", args.workload),
        }
    }
    rep.metrics = metrics;

    rep.note("workload", json_str(&args.workload));
    rep.note("seed", args.seed.to_string());
    rep.note("nproc", util::nproc().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    rep.note("build_profile", json_str(profile));
    let source = std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into());
    rep.note("source", json_str(&source));
    rep.note("trace", args.trace.to_string());
    rep.note("cpu_steal_ms", format!("{}", util::cpu_steal_ms() - steal0));
    rep.note("kept_windows_quiet", (!rep.disturbed).to_string());
    if rep.disturbed {
        eprintln!(
            "itd-perfbench: the hypervisor took CPU time even in the quietest windows \
             of this run; its figures include that interference"
        );
    }

    if let (true, Some(path)) = (args.trace, &args.trace_file) {
        if let Err(e) = tracer.write(path, &extra) {
            eprintln!("itd-perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", rep.validity_json());
    println!("{}", rep.result_json());
}
