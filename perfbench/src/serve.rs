//! `serve_mixed`: an open loop into a two-worker `Server` over a copy of
//! the warm store. One load thread sends requests on a seeded schedule
//! at two fixed rates, in slices that interleave with the other
//! phases; latency counts from each request's due time.

use crate::check::timing_digest;
use crate::fixture::{engine_options, Fixture, C432X16, FIG7};
use crate::stats::{open_loop_latency, Served};
use crate::Rng;
use ssta_core::{CorrelationMode, ExtractOptions, ScenarioOverlay, SstaConfig};
use ssta_engine::{
    Engine, EngineOptions, MemoryBackend, RunStats, Scenario, ScenarioSet, StorageBackend,
};
use ssta_serve::{AnalyzeRequest, Outcome, Rejection, ServeOptions, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rate of the `nominal` step, requests per second.
pub const NOMINAL_RPS: f64 = 40.0;
/// Arrival rate of the `overload` step, requests per second.
pub const OVERLOAD_RPS: f64 = 400.0;
/// The latency limit: goodput counts `overload` requests completed
/// within it.
pub const LIMIT: Duration = Duration::from_millis(100);
/// The deadline each `overload` request carries: half the limit. The
/// server sheds a request when its *queue wait* alone is expected to
/// outlast the deadline, so a client that must hear back within
/// [`LIMIT`] leaves the other half for service. With the whole limit as
/// deadline, admitted requests would queue right up to it and most then
/// finish just past it, and goodput would swing with every small change
/// in service time.
pub const BUDGET: Duration = Duration::from_millis(50);
/// Serving workers. Each worker's engine, criticality included, runs one
/// thread, so the pool never asks for more CPUs than `nproc`.
pub const WORKERS: usize = 2;
/// One block of 20 arrivals, shuffled per block: 9 c432×16, 9 Fig. 7 and
/// 2 cold variants (`None`, a never-seen sigma scale each). The first
/// cold variant of a block is sent twice at the same due time, so the
/// copy can coalesce onto the original while it is in flight. Fixed
/// counts keep the mix, and so the load, the same for every seed.
const MIX: [Option<usize>; 20] = [
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(C432X16),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    Some(FIG7),
    None,
    None,
];

#[derive(Clone, Copy)]
enum Kind {
    Warm(usize),
    Cold(f64),
}

struct Planned {
    due: Duration,
    kind: Kind,
}

/// A seeded fixed-rate schedule of `count` arrivals at `rate`: due times
/// are evenly spaced with ±25 % seeded jitter (bursts of Poisson arrivals
/// would make the tail measure arrival clumping more than the server),
/// and the mix comes in shuffled blocks of [`MIX`].
fn plan(rng: &mut Rng, rate: f64, count: usize) -> Vec<Planned> {
    let gap = 1.0 / rate;
    let mut out = Vec::with_capacity(count + count / 16);
    let mut block = MIX;
    for i in 0..count {
        let at = i % MIX.len();
        if at == 0 {
            block = MIX;
            rng.shuffle(&mut block);
        }
        let due = Duration::from_secs_f64(gap * (i as f64 + 0.25 + 0.5 * rng.unit()));
        match block[at] {
            Some(design) => out.push(Planned {
                due,
                kind: Kind::Warm(design),
            }),
            None => {
                let kind = Kind::Cold(0.9 + 0.2 * rng.unit());
                out.push(Planned { due, kind });
                if block[..at].iter().all(Option::is_some) {
                    out.push(Planned { due, kind });
                }
            }
        }
    }
    out
}

/// What one fixed-rate step measured.
#[derive(Default)]
pub struct StepOutcome {
    /// Seconds from the step's start to its last due time.
    pub window: f64,
    pub submitted: usize,
    pub served: Vec<Served>,
    /// Latency from due time of each completed request, ms.
    pub latencies_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub rejected: usize,
    pub shed: usize,
    pub gen_late_max_ms: f64,
    /// Service seconds and engine accounting of each completed request.
    pub runs: Vec<(f64, RunStats)>,
}

/// What the serve phase measured.
pub struct ServeOutcome {
    pub nominal: StepOutcome,
    pub overload: StepOutcome,
    pub extractions: u64,
    pub coalesced: u64,
}

/// Sends one slice of `plan` and waits for it to drain, adding what it
/// measured to `out`.
fn slice(
    server: &Server,
    fx: &Fixture,
    plan: &[Planned],
    deadline: Option<Duration>,
    out: &mut StepOutcome,
    cold_results: &mut BTreeMap<u64, Vec<u64>>,
    failures: &mut Vec<String>,
) {
    let origin = Instant::now();
    let mut pending = Vec::with_capacity(plan.len());
    for p in plan {
        let now = origin.elapsed();
        if p.due > now {
            std::thread::sleep(p.due - now);
        }
        let sent = origin.elapsed();
        let request = match p.kind {
            Kind::Warm(d) => {
                AnalyzeRequest::new(Arc::clone(&fx.designs[d].spec), ScenarioSet::baseline())
            }
            Kind::Cold(scale) => AnalyzeRequest::new(
                Arc::clone(&fx.designs[C432X16].spec),
                ScenarioSet::new().with(Scenario::new("variant").with_sigma_scale(scale)),
            ),
        };
        let request = match deadline {
            Some(budget) => request.with_deadline(budget),
            None => request,
        };
        pending.push((server.submit(request), sent));
    }
    out.window += plan.last().map_or(0.0, |p| p.due.as_secs_f64());
    out.submitted += plan.len();
    for ((ticket, sent), p) in pending.into_iter().zip(plan) {
        out.gen_late_max_ms = out
            .gen_late_max_ms
            .max(1e3 * sent.saturating_sub(p.due).as_secs_f64());
        let response = ticket.wait();
        let run = match &response.outcome {
            Outcome::Completed(run) => run,
            other => {
                out.served.push(Served::Refused);
                match other {
                    Outcome::Rejected(Rejection::QueueFull { .. }) => out.rejected += 1,
                    Outcome::Rejected(Rejection::Shed { .. }) => out.shed += 1,
                    // Its deadline passed in the queue: a miss, like a refusal.
                    Outcome::Cancelled => {}
                    Outcome::Failed(e) => failures.push(format!("serve: request failed: {e}")),
                    _ => failures.push(format!("serve: unexpected outcome {}", other.label())),
                }
                continue;
            }
        };
        let (queue_wait, service) = (response.stats.queue_wait, response.stats.service_time);
        let latency = open_loop_latency(p.due, sent, queue_wait, service);
        out.served.push(Served::Completed(latency));
        out.latencies_ms.push(1e3 * latency.as_secs_f64());
        out.queue_wait_ms.push(1e3 * queue_wait.as_secs_f64());
        out.service_ms.push(1e3 * service.as_secs_f64());
        let Some(scenario) = run.scenarios.first() else {
            failures.push("serve: completed run without a scenario".into());
            continue;
        };
        let digest = timing_digest(&scenario.timing);
        match p.kind {
            Kind::Warm(d) if digest != fx.designs[d].digest => failures.push(format!(
                "serve {}: result differs from a direct analysis",
                fx.designs[d].layout.name
            )),
            Kind::Warm(_) => {}
            Kind::Cold(scale) => cold_results
                .entry(scale.to_bits())
                .or_default()
                .push(digest),
        }
        out.runs
            .push((service.as_secs_f64(), scenario.stats.clone()));
    }
}

/// Engine options of a serving worker: single-threaded criticality too.
/// Thread counts are not part of a model's cache key, so the workers
/// still hit the warm store.
fn worker_options() -> EngineOptions {
    let mut options = engine_options();
    options.extract.criticality.threads = 1;
    options
}

/// A serving session: one server for the whole run, fed in slices.
pub struct Session {
    server: Server,
    rng: Rng,
    pub nominal: StepOutcome,
    pub overload: StepOutcome,
    /// Result digests of completed cold variants, by sigma scale bits.
    cold_results: BTreeMap<u64, Vec<u64>>,
}

impl Session {
    /// Starts a [`WORKERS`]-worker server over a copy of the warm store.
    pub fn start(fx: &Fixture, rng: Rng) -> Self {
        let store = Arc::new(MemoryBackend::new());
        for key in fx.store.list_keys().unwrap_or_default() {
            if let Ok(Some(bytes)) = fx.store.get(&key) {
                let _ = store.put(&key, &bytes);
            }
        }
        let server = Server::start(
            SstaConfig::paper(),
            store,
            ServeOptions {
                workers: WORKERS,
                engine: worker_options(),
                ..ServeOptions::default()
            },
        );
        Session {
            server,
            rng,
            nominal: StepOutcome::default(),
            overload: StepOutcome::default(),
            cold_results: BTreeMap::new(),
        }
    }

    /// A `nominal` slice of `count` requests without deadline: every one
    /// must complete.
    pub fn nominal(&mut self, fx: &Fixture, count: usize, failures: &mut Vec<String>) {
        let plan = plan(&mut self.rng, NOMINAL_RPS, count);
        let refused_before = self.nominal.served.len() - self.nominal.latencies_ms.len();
        slice(
            &self.server,
            fx,
            &plan,
            None,
            &mut self.nominal,
            &mut self.cold_results,
            failures,
        );
        let refused = self.nominal.served.len() - self.nominal.latencies_ms.len() - refused_before;
        if refused > 0 {
            failures.push(format!(
                "serve nominal: {refused} requests did not complete"
            ));
        }
    }

    /// One untimed slice at each rate, checked like any other but
    /// dropped from both steps' measurements.
    pub fn warm_up(&mut self, fx: &Fixture, failures: &mut Vec<String>) {
        for (rate, count, deadline) in [(NOMINAL_RPS, 20, None), (OVERLOAD_RPS, 80, Some(BUDGET))] {
            let plan = plan(&mut self.rng, rate, count);
            let mut dropped = StepOutcome::default();
            slice(
                &self.server,
                fx,
                &plan,
                deadline,
                &mut dropped,
                &mut self.cold_results,
                failures,
            );
        }
    }

    /// An `overload` slice of `count` requests carrying [`BUDGET`] as
    /// their deadline.
    pub fn overload(&mut self, fx: &Fixture, count: usize, failures: &mut Vec<String>) {
        let plan = plan(&mut self.rng, OVERLOAD_RPS, count);
        slice(
            &self.server,
            fx,
            &plan,
            Some(BUDGET),
            &mut self.overload,
            &mut self.cold_results,
            failures,
        );
    }

    /// Shuts the server down, checks that no request was lost and that
    /// every cold variant's result equals a direct `Engine::analyze`
    /// under the same sigma scale.
    pub fn finish(self, fx: &Fixture, failures: &mut Vec<String>) -> ServeOutcome {
        let snapshot = self.server.shutdown();
        if snapshot.lost() != 0 {
            failures.push(format!("serve: {} requests lost", snapshot.lost()));
        }
        let spec = &fx.designs[C432X16].spec;
        for (bits, digests) in &self.cold_results {
            let overlay = ScenarioOverlay::new().with_sigma_scale(f64::from_bits(*bits));
            let (config, _, _) = overlay.resolve(
                &SstaConfig::paper(),
                &ExtractOptions::default(),
                CorrelationMode::Proposed,
            );
            match Engine::with_options(config, engine_options()).analyze(spec) {
                Ok(run) if digests.iter().all(|&d| d == timing_digest(&run.timing)) => {}
                Ok(_) => failures.push("serve: cold variant differs from a direct analysis".into()),
                Err(e) => failures.push(format!("serve reference: {e}")),
            }
        }
        ServeOutcome {
            nominal: self.nominal,
            overload: self.overload,
            extractions: snapshot.extractions,
            coalesced: snapshot.coalesced,
        }
    }
}
