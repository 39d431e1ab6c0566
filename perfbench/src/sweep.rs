//! Warm corner sweeps: the 2048-corner c432×4 grid re-run through
//! `analyze_sweep` on the engine that ran the cold sweep in set-up.

use crate::check::record_digest;
use crate::fixture::{sweep_options, Fixture};
use std::time::Instant;

/// What one warm sweep measured.
pub struct SweepRun {
    pub seconds: f64,
    pub corners: usize,
    pub groups: usize,
    pub analyses: usize,
    /// Sum of the analysis phase times the sweep reported.
    pub phase_seconds: f64,
    /// Covariance + eigen share of those phase times.
    pub basis_seconds: f64,
}

/// Runs one warm sweep. It must extract nothing and reproduce the cold
/// sweep's per-corner records bit for bit.
pub fn once(fx: &mut Fixture, failures: &mut Vec<String>) -> Option<SweepRun> {
    let started = Instant::now();
    let summary = fx
        .sweep_engine
        .analyze_sweep(&fx.sweep_spec, &fx.grid, &sweep_options());
    let seconds = started.elapsed().as_secs_f64();
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("warm sweep: {e}"));
            return None;
        }
    };
    if summary.extractions != 0 {
        failures.push(format!("warm sweep extracted {}", summary.extractions));
    }
    if record_digest(&summary.records) != fx.sweep_digest {
        failures.push("warm sweep records differ from the cold sweep".into());
    }
    Some(SweepRun {
        seconds,
        corners: summary.scenarios,
        groups: summary.groups,
        analyses: summary.analyses,
        phase_seconds: summary.phases.total_seconds(),
        basis_seconds: summary.phases.covariance_seconds + summary.phases.eigen_seconds,
    })
}
