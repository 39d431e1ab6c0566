//! Warm designs (a phase of every run): one closed-loop client; every
//! request runs on a fresh engine over the store warmed in set-up, so it
//! pays store get → decode → assemble and extracts nothing.

use crate::check::timing_digest;
use crate::fixture::{engine, Fixture, C1908X16, C432X16, C432X64, FIG7};
use std::sync::Arc;
use std::time::Instant;

/// The design mix: one cycle of eight requests, repeated in this fixed
/// order from a seeded starting point. Sorted by warm latency the designs
/// run c432×16 < Fig. 7 < c1908×16 < c432×64, so this mix puts the median
/// inside the Fig. 7 requests (25–62.5 %) and p90 inside the c432×64
/// requests (75–100 %). The order is fixed because a request's time
/// depends on the one before it: a c432×64 request that follows another
/// reuses the memory it freed and runs ~30 % faster, so with a shuffled
/// order p90 would depend on how often the shuffle put the two side by
/// side. No design follows itself here.
pub const CYCLE: [usize; 8] = [
    C432X16, FIG7, C432X64, FIG7, C1908X16, C432X16, FIG7, C432X64,
];

/// Position in [`CYCLE`] of the next warm request.
pub struct Mix {
    next: usize,
}

impl Mix {
    pub fn new(start: usize) -> Self {
        Mix {
            next: start % CYCLE.len(),
        }
    }
}

/// Runs one cycle's worth of requests, pushing each request's wall
/// seconds onto `seconds`. Each result must be bit-identical to the
/// design's cold result from set-up, with no extraction.
pub fn block(fx: &Fixture, mix: &mut Mix, seconds: &mut Vec<f64>, failures: &mut Vec<String>) {
    for _ in 0..CYCLE.len() {
        let design = CYCLE[mix.next];
        mix.next = (mix.next + 1) % CYCLE.len();
        let d = &fx.designs[design];
        let mut engine = engine().with_backend(Arc::clone(&fx.store));
        let started = Instant::now();
        let run = engine.analyze(&d.spec);
        let elapsed = started.elapsed().as_secs_f64();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                failures.push(format!("warm {}: {e}", d.layout.name));
                continue;
            }
        };
        seconds.push(elapsed);
        if run.stats.extractions != 0 || run.stats.store_hits != 1 {
            failures.push(format!(
                "warm {}: {} extractions and {} store hits, expected 0 and 1",
                d.layout.name, run.stats.extractions, run.stats.store_hits
            ));
        }
        if timing_digest(&run.timing) != d.digest {
            failures.push(format!("warm {}: result differs from cold", d.layout.name));
        }
    }
}
