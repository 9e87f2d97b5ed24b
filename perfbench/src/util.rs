//! Shared pieces: command-line arguments, the seeded generator, sample
//! statistics, process gauges, and the result report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Parsed command line of one benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_file: Option<String>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut trace_file = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => trace = value()? == "1",
                "--trace-file" => trace_file = Some(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            trace_file,
        })
    }
}

/// SplitMix64: a small deterministic generator, so every input the engine
/// sees is a function of `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples in one block of [`p99`].
pub const P99_BLOCK: usize = 1000;

/// The 99th percentile as the median over consecutive blocks of
/// [`P99_BLOCK`] samples of each block's nearest-rank p99, so each block
/// has ten samples beyond its p99. One rare stall moves one block's figure,
/// not the run's. With fewer than two blocks, the plain p99.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.len() < 2 * P99_BLOCK {
        return percentile(samples, 0.99);
    }
    let per: Vec<f64> = samples
        .chunks_exact(P99_BLOCK)
        .map(|c| percentile(c, 0.99))
        .collect();
    median(&per)
}

/// Cuts a run's samples into windows of consecutive samples and tags each
/// window with the CPU time the hypervisor stole while it was taken.
///
/// On a shared virtual machine, neighbours take the CPUs away for
/// milliseconds at a time, and how often they do changes from minute to
/// minute. Those stalls land in the latency tail and in throughput, so a
/// figure over the whole run measures the neighbours as much as the
/// program. The figures are therefore taken over the quietest windows
/// only, ranked by stolen time — a counter the program under test cannot
/// move — never by the measured values themselves. Among windows of equal
/// stolen time, the kept ones are spread evenly over the run.
pub struct StealWindows {
    size: usize,
    keep_share: f64,
    last: f64,
    steal: Vec<f64>,
    /// Other interference per window, in ms, ranked together with the
    /// stolen time; empty when unused.
    extra: Vec<f64>,
}

impl StealWindows {
    /// Windows of `size` samples, keeping the quietest half: keeping many
    /// windows spreads the figures over the run, since the machine's speed
    /// also drifts in ways the steal counter does not show.
    pub fn new(size: usize) -> StealWindows {
        StealWindows {
            size,
            keep_share: 0.5,
            last: cpu_steal_ms(),
            steal: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Call after the `n`-th sample (counting from 1) was taken.
    pub fn after(&mut self, n: usize) {
        if n.is_multiple_of(self.size) {
            let now = cpu_steal_ms();
            self.steal.push(now - self.last);
            self.last = now;
        }
    }

    /// Keeps the quietest `share` of the windows instead of half.
    pub fn keeping(mut self, share: f64) -> StealWindows {
        self.keep_share = share;
        self
    }

    /// Adds to each window's stolen time another measure of interference
    /// in ms, taken outside the program under test, before ranking.
    pub fn add_interference(&mut self, ms: Vec<f64>) {
        self.extra = ms;
    }

    /// Indices of the kept windows, in time order: the quietest share,
    /// extended until they hold at least `min_samples`.
    fn kept(&self, min_samples: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.steal.len()).collect();
        // Golden-ratio spacing: the first k windows in this order are
        // close to evenly spread over the run, for every k.
        let spread = |w: usize| (w as f64 * 0.618_033_988_749_895).fract();
        let lost = |w: usize| self.steal[w] + self.extra.get(w).copied().unwrap_or(0.0);
        order.sort_by(|&a, &b| {
            lost(a)
                .total_cmp(&lost(b))
                .then(spread(a).total_cmp(&spread(b)))
        });
        let want = ((order.len() as f64 * self.keep_share).ceil() as usize)
            .max(min_samples.div_ceil(self.size))
            .min(order.len());
        let mut kept = order[..want].to_vec();
        kept.sort_unstable();
        kept
    }

    /// The samples of the kept windows. `samples` holds the run's samples
    /// in the order `after` counted them; with no complete window yet, all
    /// of them are returned.
    pub fn pick(&self, samples: &[f64], min_samples: usize) -> Vec<f64> {
        if self.steal.is_empty() {
            return samples.to_vec();
        }
        self.kept(min_samples)
            .into_iter()
            .flat_map(|w| &samples[w * self.size..(w + 1) * self.size])
            .copied()
            .collect()
    }

    /// Records the stolen time over all windows and over the kept ones.
    pub fn note(&self, rep: &mut Report, what: &str, min_samples: usize) {
        let all: f64 = self.steal.iter().sum();
        let kept: f64 = self.kept(min_samples).iter().map(|&w| self.steal[w]).sum();
        rep.note(
            &format!("{what}_windows"),
            format!(
                "{{\"windows\": {}, \"kept\": {}, \"steal_ms\": {all}, \"kept_steal_ms\": {kept}}}",
                self.steal.len(),
                self.kept(min_samples).len()
            ),
        );
        rep.disturbed |= kept > 0.0;
    }
}

/// Times `f` once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Median per-call time, in nanoseconds, of `f` over `reps` batches of
/// `inner` calls each.
pub fn per_call_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / inner as f64
        })
        .collect();
    median(&samples)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, in ms, that the hypervisor gave to other guests while this
/// machine's CPUs wanted to run (`steal` in `/proc/stat`, all CPUs).
/// Reported so a run disturbed by its neighbours can be recognized.
pub fn cpu_steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on Linux.
    ticks * 10.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ratio that reads 0 instead of NaN when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything one run reports: operation counts, failure kinds, metrics,
/// and the facts a reader needs to judge whether the run was valid.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures by kind: engine errors, refusals, and wrong answers.
    pub failures: BTreeMap<String, u64>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra run-validity facts, as `(key, JSON value)`.
    pub validity: Vec<(String, String)>,
    /// Whether some kept windows still lost CPU time to the hypervisor.
    pub disturbed: bool,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one attempted operation and, when `failure` names a kind,
    /// its failure.
    pub fn op(&mut self, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(kind) = failure {
            self.fail(kind);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, kind: &str) {
        self.failed += 1;
        *self.failures.entry(kind.to_owned()).or_default() += 1;
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.validity.push((key.to_owned(), json_value));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`. A run
    /// is correct when every operation succeeded and every check held.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run-validity line printed before the result.
    pub fn validity_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let mut fields = vec![
            format!("\"failures\": {{{}}}", failures.join(", ")),
            format!(
                "\"failed_ratio\": {}",
                json_num(ratio(self.failed as f64, self.attempted as f64))
            ),
        ];
        fields.extend(
            self.validity
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k))),
        );
        format!("{{\"validity\": {{{}}}}}", fields.join(", "))
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
