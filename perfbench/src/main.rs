//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_extract|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up three times (the median is `setup_s`) and then
//! drives all phases through the public entry points (`Engine::analyze`,
//! `Engine::analyze_sweep`, `Server::submit`) in interleaved rounds, so
//! each metric samples the whole run rather than one stretch of it. A
//! round is one cold request, three warm blocks, two warm sweeps, a
//! `nominal` serving slice and an `overload` slice;
//! the named workload doubles its phase's share (`cold_extract` the cold
//! requests, `serve_mixed` the `overload` slices). One untimed warm-up
//! round of the warm, sweep and serving phases comes first. Rounds go on
//! until `--seconds` have passed and every phase has its minimum sample
//! count. Outputs are checked as they come; any wrong output fails the
//! run.
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run (spans written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`). The last line of
//! standard output is the result object; the line before it records the
//! run's context (seed, CPUs, threads, frozen rates and limit, sample
//! counts, the counts that must repeat exactly, and any failures).

mod check;
mod cold;
mod fixture;
mod serve;
mod stats;
mod sweep;
mod trace;
mod traced;
mod warm;

use stats::{goodput, median, percentile};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Minimum samples per run: p90 needs 100 warm requests and p95 200
/// completed `nominal` requests (ten beyond the percentile).
const MIN_WARM_REQUESTS: usize = 104;
const MIN_SWEEPS: usize = 10;
const MIN_NOMINAL: usize = 250;
const MIN_OVERLOAD: usize = 800;
/// Per-round shares (the named workload doubles its own). Every run
/// gets the same `nominal` share: its p95 needs ~700 samples to be steady.
const WARM_BLOCKS: usize = 3;
const SWEEPS: usize = 2;
const NOMINAL_SLICE: usize = 80;
const OVERLOAD_SLICE: usize = 200;
/// Warm traced repetitions per design.
const TRACED_WARM_REPS: usize = 8;
/// How far a traced request's accounted layer time may stray from its
/// untraced wall time (as a share of the wall time).
const COVERAGE_BOUND: f64 = 0.15;

/// SplitMix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Cold,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "cold_extract" => Workload::Cold,
            "serve_mixed" => Workload::Serve,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold_extract",
            Workload::Serve => "serve_mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics of one run, in report order.
#[derive(Default)]
struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    deterministic: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_owned(), value, unit));
    }

    /// A count that must repeat exactly on every run and seed.
    fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit);
        self.deterministic.push(name.to_owned());
    }
}

fn ms(d: Duration) -> f64 {
    1e3 * d.as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A percentile, or a failure when too few samples back it.
fn tail(samples: &[f64], q: f64, what: &str, failures: &mut Vec<String>) -> f64 {
    percentile(samples, q).unwrap_or_else(|| {
        failures.push(format!(
            "{what}: {} samples cannot back p{}",
            samples.len(),
            q * 100.0
        ));
        f64::NAN
    })
}

/// Input streams per phase, so one phase's draws never shift another's.
fn phase_rng(seed: u64, phase: u64) -> Rng {
    Rng::new(seed ^ phase.wrapping_mul(0xa076_1d64_78bd_642f))
}

struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failures: Vec<String>,
    samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    fn setup_failed(e: String) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            attempted: 1,
            failures: vec![format!("set-up: {e}")],
            samples: Vec::new(),
        }
    }
}

fn timed_run(args: &Args) -> Outcome {
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous fixture first so set-ups never overlap.
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(fixture::setup());
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut fx = match fixture.expect("set up at least once") {
        Ok(fx) => fx,
        Err(e) => return Outcome::setup_failed(e),
    };

    let (cold_share, overload_share) = match args.workload {
        Workload::Cold => (2, 1),
        Workload::Serve => (1, 2),
    };
    let mut cold = cold::ColdRunner::new(phase_rng(args.seed, 1).below(fixture::LIBRARY.len()));
    let mut mix = warm::Mix::new(phase_rng(args.seed, 2).below(warm::CYCLE.len()));
    let mut warm = Vec::new();
    let mut sweeps = Vec::new();
    let mut session = serve::Session::start(&fx, phase_rng(args.seed, 4));
    // Warm-up: fills the serving workers' model caches and settles the
    // allocator before anything is timed; its samples are dropped but
    // its outputs are checked.
    warm::block(&fx, &mut mix, &mut Vec::new(), &mut failures);
    let _ = sweep::once(&mut fx, &mut failures);
    session.warm_up(&fx, &mut failures);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    loop {
        let enough = cold.pass_done()
            && warm.len() >= MIN_WARM_REQUESTS
            && sweeps.len() >= MIN_SWEEPS
            && session.nominal.submitted >= MIN_NOMINAL
            && session.overload.submitted >= MIN_OVERLOAD;
        if enough && Instant::now() >= deadline {
            break;
        }
        for _ in 0..cold_share {
            cold.request(&fx, &mut failures);
        }
        for _ in 0..WARM_BLOCKS {
            warm::block(&fx, &mut mix, &mut warm, &mut failures);
        }
        for _ in 0..SWEEPS {
            sweeps.extend(sweep::once(&mut fx, &mut failures));
        }
        session.nominal(&fx, NOMINAL_SLICE, &mut failures);
        for _ in 0..overload_share {
            session.overload(&fx, OVERLOAD_SLICE, &mut failures);
        }
        round += 1;
        if !failures.is_empty() && round > 1 {
            break;
        }
    }
    let served = session.finish(&fx, &mut failures);
    let check_direct = args.workload == Workload::Cold;
    let (mean_err, sigma_err) = cold.finish(&fx, check_direct, &mut failures);

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("cold_library_s", cold.library_seconds(), "s");
    let counts = cold.counts();
    m.count(
        "model_edge_ratio",
        counts.model_edges as f64 / counts.original_edges as f64,
        "ratio",
    );
    m.count("model_mean_err", mean_err, "ratio");
    m.count("model_sigma_err", sigma_err, "ratio");
    let warm_ms: Vec<f64> = warm.iter().map(|s| 1e3 * s).collect();
    m.put(
        "warm_p50_ms",
        tail(&warm_ms, 0.5, "warm", &mut failures),
        "ms",
    );
    m.put(
        "warm_p90_ms",
        tail(&warm_ms, 0.9, "warm", &mut failures),
        "ms",
    );
    // Corners over seconds of all warm sweeps, not a median of per-sweep
    // rates: the host's speed changes in spells of seconds, and a median
    // of sweeps from fast and slow spells would jump between the two.
    let corners: usize = sweeps.iter().map(|s| s.corners).sum();
    let seconds: f64 = sweeps.iter().map(|s| s.seconds).sum();
    m.put("sweep_corners_per_s", corners as f64 / seconds, "corners/s");
    let lat = &served.nominal.latencies_ms;
    m.put(
        "serve_p50_ms",
        tail(lat, 0.5, "serve nominal", &mut failures),
        "ms",
    );
    m.put(
        "serve_p95_ms",
        tail(lat, 0.95, "serve nominal", &mut failures),
        "ms",
    );
    m.put(
        "serve_goodput_rps",
        goodput(
            &served.overload.served,
            serve::LIMIT,
            Duration::from_secs_f64(served.overload.window),
        ),
        "1/s",
    );
    Outcome {
        metrics: m,
        attempted: cold.requests()
            + warm.len()
            + sweeps.len()
            + served.nominal.submitted
            + served.overload.submitted,
        failures,
        samples: vec![
            ("setups", setups.len()),
            ("rounds", round),
            ("cold_requests", cold.requests()),
            ("warm_requests", warm.len()),
            ("sweeps", sweeps.len()),
            ("serve_nominal", served.nominal.submitted),
            ("serve_overload", served.overload.submitted),
        ],
    }
}

/// Per-request pipeline split: `(wall, stats)` pairs of one phase.
fn pipeline_metrics(m: &mut Metrics, runs: &[(f64, ssta_engine::RunStats)], exact: bool) {
    let plan: Vec<f64> = runs
        .iter()
        .map(|(wall, s)| 1e3 * (wall - s.resolve_seconds - s.assembly_seconds))
        .collect();
    let resolve: Vec<f64> = runs.iter().map(|(_, s)| 1e3 * s.resolve_seconds).collect();
    let assembly: Vec<f64> = runs.iter().map(|(_, s)| 1e3 * s.assembly_seconds).collect();
    m.put("pipeline.plan_ms", median(&plan), "ms");
    m.put("pipeline.resolve_ms", median(&resolve), "ms");
    m.put("pipeline.assembly_ms", median(&assembly), "ms");
    let n = runs.len() as f64;
    let extractions = runs.iter().map(|(_, s)| s.extractions).sum::<usize>() as f64 / n;
    let memory_hits = runs.iter().map(|(_, s)| s.memory_hits).sum::<usize>() as f64 / n;
    if exact {
        m.count("pipeline.extractions", extractions, "count");
        m.count("pipeline.memory_hits", memory_hits, "count");
    } else {
        m.put("pipeline.extractions", extractions, "count");
        m.put("pipeline.memory_hits", memory_hits, "count");
    }
}

fn traced_run(args: &Args) -> Outcome {
    let mut failures = Vec::new();
    let mut fx = match fixture::setup() {
        Ok(fx) => fx,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut tracer = trace::Tracer::new();
    let mut next_request = 0u64;
    let mut rng = phase_rng(args.seed, 1);

    // Cold: one pass over the library from a seeded start.
    let n = fx.library.len();
    let start = rng.below(n);
    let mut cold = Vec::new();
    for k in 0..n {
        next_request += 1;
        match traced::cold(&fx, &mut tracer, next_request, (start + k) % n) {
            Ok(t) => cold.push(t),
            Err(e) => failures.push(e),
        }
    }
    // Warm: each design TRACED_WARM_REPS times in seeded order.
    let mut rng = phase_rng(args.seed, 2);
    let mut order: Vec<usize> = (0..TRACED_WARM_REPS)
        .flat_map(|_| 0..fx.designs.len())
        .collect();
    rng.shuffle(&mut order);
    let mut warm = Vec::new();
    // Each design runs untraced first on half its repetitions, so the
    // advantage of running second in a pair cancels in the sums below.
    let mut reps = vec![0usize; fx.designs.len()];
    for design in order {
        next_request += 1;
        reps[design] += 1;
        match traced::warm(
            &fx,
            &mut tracer,
            next_request,
            design,
            reps[design] % 2 == 0,
        ) {
            Ok(t) => warm.push((design, t)),
            Err(e) => failures.push(e),
        }
    }
    let sweeps: Vec<_> = (0..MIN_SWEEPS)
        .filter_map(|_| sweep::once(&mut fx, &mut failures))
        .collect();
    let mut session = serve::Session::start(&fx, phase_rng(args.seed, 4));
    while session.nominal.submitted < MIN_NOMINAL {
        session.nominal(&fx, NOMINAL_SLICE, &mut failures);
    }
    while session.overload.submitted < MIN_OVERLOAD {
        session.overload(&fx, OVERLOAD_SLICE, &mut failures);
    }
    let served = session.finish(&fx, &mut failures);

    let out = Path::new("perfbench/out").join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_jsonl(&out) {
        failures.push(format!("writing {}: {e}", out.display()));
    }

    let mut m = Metrics::default();
    let t = &tracer;
    // Cold layers, per pass over the library.
    let sum = |reqs: &[traced::Traced], f: &dyn Fn(u64) -> Duration| -> f64 {
        ms(reqs.iter().map(|r| f(r.request)).sum())
    };
    // Criticality ran twice per request (see `traced::cold`).
    let crit = sum(&cold, &|r| t.total(r, "criticality")) / 2.0;
    let extract = sum(&cold, &|r| t.total(r, "extract"));
    let encode = sum(&cold, &|r| t.total(r, "codec.encode"));
    m.put(
        "characterize.busy_ms",
        sum(&cold, &|r| t.self_total(r, "characterize")),
        "ms",
    );
    m.put("criticality.busy_ms", crit, "ms");
    m.put("criticality.share_of_extract", crit / extract, "ratio");
    m.put("extract.busy_ms", extract - crit, "ms");
    m.put("codec.encode_ms", encode, "ms");
    m.put(
        "store.put_ms",
        sum(&cold, &|r| t.total(r, "store.save")) - encode,
        "ms",
    );
    let counts = cold::ExtractCounts::over(cold.iter().filter_map(|c| c.model.as_deref()));
    m.count("extract.edges_pruned", counts.edges_pruned as f64, "count");
    m.count(
        "extract.restored_paths",
        counts.restored_paths as f64,
        "count",
    );
    m.count(
        "extract.repaired_pairs",
        counts.repaired_pairs as f64,
        "count",
    );
    m.count("extract.merge_rounds", counts.merge_rounds as f64, "count");
    m.count("extract.merges", counts.merges as f64, "count");
    m.count("extract.model_edges", counts.model_edges as f64, "count");

    // Warm layers, per request on the Fig. 7 design; kernels on c432×64.
    let on = |design: usize| -> Vec<&traced::Traced> {
        warm.iter()
            .filter(|(d, _)| *d == design)
            .map(|(_, t)| t)
            .collect()
    };
    let per = |reqs: &[&traced::Traced], f: &dyn Fn(u64) -> Duration| -> f64 {
        let v: Vec<f64> = reqs.iter().map(|r| ms(f(r.request))).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let fig7 = on(fixture::FIG7);
    let big = on(fixture::C432X64);
    let decode = per(&fig7, &|r| t.total(r, "codec.decode"));
    m.put(
        "store.get_ms",
        per(&fig7, &|r| t.total(r, "store.load")) - decode,
        "ms",
    );
    m.put("codec.decode_ms", decode, "ms");
    if let Some(r) = fig7.first() {
        m.count("codec.model_bytes", r.model_bytes as f64, "bytes");
        m.count("store.bytes_read", r.store_bytes as f64, "bytes");
    }
    let lookups: usize = warm.iter().map(|(_, t)| t.stats.distinct_modules).sum();
    let hits: usize = warm.iter().map(|(_, t)| t.stats.store_hits).sum();
    m.count(
        "store.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    for (name, span) in [
        ("hier.partition_ms", "hier.partition"),
        ("hier.covariance_ms", "hier.covariance"),
        ("hier.eigen_ms", "hier.eigen"),
        ("hier.replace_ms", "hier.replace"),
        ("hier.schedule_ms", "hier.schedule"),
        ("hier.propagate_ms", "hier.propagate"),
    ] {
        m.put(name, per(&big, &|r| t.total(r, span)), "ms");
    }
    if let Some(r) = big.first() {
        m.count("hier.local_components", r.local_components as f64, "count");
        m.count("hier.graph_edges", r.graph_edges as f64, "count");
        m.count("hier.levels", r.levels as f64, "count");
    }

    // Pipeline split on the named workload's requests.
    match args.workload {
        Workload::Cold => {
            let runs: Vec<_> = cold
                .iter()
                .map(|r| (r.untraced.as_secs_f64(), r.stats.clone()))
                .collect();
            pipeline_metrics(&mut m, &runs, true);
        }
        Workload::Serve => {
            let mut runs = served.nominal.runs.clone();
            runs.extend(served.overload.runs.iter().cloned());
            pipeline_metrics(&mut m, &runs, false);
        }
    }

    // Sweep planner.
    let plan: Vec<f64> = sweeps
        .iter()
        .map(|s| 1e3 * (s.seconds - s.phase_seconds))
        .collect();
    let share: Vec<f64> = sweeps
        .iter()
        .map(|s| s.basis_seconds / s.phase_seconds)
        .collect();
    m.put("sweep.plan_ms", median(&plan), "ms");
    if let Some(s) = sweeps.first() {
        m.count("sweep.groups", s.groups as f64, "count");
        m.count("sweep.analyses", s.analyses as f64, "count");
        m.count(
            "sweep.corners_per_analysis",
            s.corners as f64 / s.analyses as f64,
            "ratio",
        );
    }
    m.put("sweep.basis_share", median(&share), "ratio");

    // Serving.
    let nominal = &served.nominal;
    m.put(
        "serve.queue_wait_p50_ms",
        tail(&nominal.queue_wait_ms, 0.5, "queue wait", &mut failures),
        "ms",
    );
    m.put(
        "serve.queue_wait_p95_ms",
        tail(&nominal.queue_wait_ms, 0.95, "queue wait", &mut failures),
        "ms",
    );
    m.put(
        "serve.service_p50_ms",
        tail(&nominal.service_ms, 0.5, "service", &mut failures),
        "ms",
    );
    m.put(
        "serve.service_p95_ms",
        tail(&nominal.service_ms, 0.95, "service", &mut failures),
        "ms",
    );
    m.put("serve.extractions", served.extractions as f64, "count");
    m.put("serve.coalesced", served.coalesced as f64, "count");
    let resolved = (served.extractions + served.coalesced).max(1) as f64;
    m.put(
        "serve.coalesce_ratio",
        served.coalesced as f64 / resolved,
        "ratio",
    );
    m.put("serve.rejected", served.overload.rejected as f64, "count");
    m.put("serve.shed", served.overload.shed as f64, "count");
    m.put(
        "serve.gen_late_max_ms",
        nominal.gen_late_max_ms.max(served.overload.gen_late_max_ms),
        "ms",
    );

    // Tracing accounting and overhead over all traced requests.
    let coverage = |reqs: &[&traced::Traced], names: &[&str]| -> (f64, f64) {
        let accounted: Duration = reqs
            .iter()
            .map(|r| traced::accounted(t, r.request, names))
            .sum();
        let untraced: Duration = reqs.iter().map(|r| r.untraced).sum();
        let traced: Duration = reqs.iter().map(|r| t.total(r.request, "request")).sum();
        (
            accounted.as_secs_f64() / untraced.as_secs_f64(),
            (ms(traced) - ms(untraced)) / reqs.len() as f64,
        )
    };
    let cold_refs: Vec<&traced::Traced> = cold.iter().collect();
    let warm_refs: Vec<&traced::Traced> = warm.iter().map(|(_, t)| t).collect();
    let (cold_cov, cold_over) = coverage(&cold_refs, &traced::COLD_ACCOUNTED);
    let (warm_cov, warm_over) = coverage(&warm_refs, &traced::WARM_ACCOUNTED);
    for (what, cov) in [("cold", cold_cov), ("warm", warm_cov)] {
        if (cov - 1.0).abs() > COVERAGE_BOUND {
            failures.push(format!(
                "{what} layer times cover {:.1} % of the untraced wall time",
                100.0 * cov
            ));
        }
    }
    m.put("trace.cold_coverage", cold_cov, "ratio");
    m.put("trace.warm_coverage", warm_cov, "ratio");
    m.put("trace.cold_overhead_ms", cold_over, "ms");
    m.put("trace.warm_overhead_ms", warm_over, "ms");

    Outcome {
        metrics: m,
        attempted: cold.len()
            + warm.len()
            + sweeps.len()
            + nominal.submitted
            + served.overload.submitted,
        failures,
        samples: vec![
            ("cold_requests", cold.len()),
            ("warm_requests", warm.len()),
            ("sweeps", sweeps.len()),
            ("serve_nominal", nominal.submitted),
            ("serve_overload", served.overload.submitted),
        ],
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_extract|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let mut failures = outcome.failures;
    for (name, value, _) in &outcome.metrics.values {
        if !value.is_finite() {
            failures.push(format!("metric {name} has no value"));
        }
    }
    for f in &failures {
        eprintln!("perfbench: FAILED: {f}");
    }

    // Cold-path criticality runs one thread per CPU; the sweep inherits
    // the engine's thread count, and serving workers run single-threaded
    // criticality.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let list = |items: &mut dyn Iterator<Item = String>| items.collect::<Vec<_>>().join(",");
    let context = format!(
        "{{\"context\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"effective_threads\":{},\"criticality_threads\":{},\"sweep_workers\":{},\"serve_workers\":{},\
         \"nominal_rps\":{},\"overload_rps\":{},\"limit_ms\":{},\"budget_ms\":{},\"samples\":{{{}}},\
         \"deterministic\":[{}],\"failures\":[{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc,
        fixture::ENGINE_THREADS,
        nproc,
        fixture::ENGINE_THREADS,
        serve::WORKERS,
        json_num(serve::NOMINAL_RPS),
        json_num(serve::OVERLOAD_RPS),
        json_num(ms(serve::LIMIT)),
        json_num(ms(serve::BUDGET)),
        list(
            &mut outcome
                .samples
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
        ),
        list(&mut outcome.metrics.deterministic.iter().map(|k| json_str(k))),
        list(&mut failures.iter().map(|f| json_str(f))),
    );
    println!("{context}");
    let metrics = list(
        &mut outcome.metrics.values.iter().map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        }),
    );
    let correct = failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        failures.len().min(outcome.attempted.max(1)),
    );
    std::process::exit(if correct { 0 } else { 1 });
}
