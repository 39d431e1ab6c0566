//! `cold_extract`: one closed-loop client; every request is two chained
//! instances of one library circuit on a fresh engine over an empty
//! store, so it pays characterize → criticality → prune/repair/merge →
//! store put → assemble.

use crate::check::{model_digest, model_errors, timing_digest};
use crate::fixture::{engine, Fixture, LIBRARY};
use ssta_core::{ExtractOptions, ModuleContext, SstaConfig, TimingModel};
use ssta_engine::{MemoryBackend, ModelSource};
use std::sync::Arc;
use std::time::Instant;

/// Largest relative mean and σ error a model may show against its
/// module: the accuracy-repair tolerance of the default extraction.
pub const MODEL_TOLERANCE: f64 = 0.02;

/// Extraction work counted over one pass over the library.
#[derive(Debug, Default)]
pub struct ExtractCounts {
    pub original_edges: usize,
    pub edges_pruned: usize,
    pub restored_paths: usize,
    pub repaired_pairs: usize,
    pub merge_rounds: usize,
    pub merges: usize,
    pub model_edges: usize,
}

impl ExtractCounts {
    /// Sums the extraction counts of `models`.
    pub fn over<'a>(models: impl IntoIterator<Item = &'a TimingModel>) -> Self {
        let mut t = ExtractCounts::default();
        for m in models {
            let s = m.stats();
            t.original_edges += s.original_edges;
            t.edges_pruned += s.edges_pruned;
            t.restored_paths += s.restored_paths;
            t.repaired_pairs += s.repaired_pairs;
            t.merge_rounds += s.merge_rounds;
            t.merges += s.serial_merges + s.parallel_merges;
            t.model_edges += s.model_edges;
        }
        t
    }
}

/// Cold requests, issued one at a time through the library in a cycle
/// from a seeded start.
pub struct ColdRunner {
    next: usize,
    /// Request seconds per circuit.
    seconds: Vec<Vec<f64>>,
    /// The model each circuit's first request extracted.
    models: Vec<Option<Arc<TimingModel>>>,
    digests: Vec<Option<u64>>,
}

impl ColdRunner {
    pub fn new(start: usize) -> Self {
        let n = LIBRARY.len();
        ColdRunner {
            next: start % n,
            seconds: vec![Vec::new(); n],
            models: vec![None; n],
            digests: vec![None; n],
        }
    }

    /// Requests made so far.
    pub fn requests(&self) -> usize {
        self.seconds.iter().map(Vec::len).sum()
    }

    /// Whether every circuit has been requested at least once.
    pub fn pass_done(&self) -> bool {
        self.seconds.iter().all(|s| !s.is_empty())
    }

    /// Seconds per pass over the library: the sum over circuits of each
    /// circuit's mean request time (a circuit has two or three requests
    /// in a run, too few for a median to damp anything a mean does not).
    pub fn library_seconds(&self) -> f64 {
        self.seconds
            .iter()
            .map(|s| s.iter().sum::<f64>() / s.len() as f64)
            .sum()
    }

    /// Extraction counts over one pass over the library.
    pub fn counts(&self) -> ExtractCounts {
        ExtractCounts::over(self.models.iter().flatten().map(|m| &**m))
    }

    /// Runs the next circuit's request. Checks that it extracts exactly
    /// once and that the circuit's result is bit-identical on every pass.
    pub fn request(&mut self, fx: &Fixture, failures: &mut Vec<String>) {
        let circuit = self.next;
        self.next = (self.next + 1) % LIBRARY.len();
        let case = &fx.library[circuit];
        let mut engine = engine().with_backend(MemoryBackend::new());
        let started = Instant::now();
        let run = engine.analyze(&case.spec);
        let seconds = started.elapsed().as_secs_f64();
        let name = LIBRARY[circuit];
        let run = match run {
            Ok(run) => run,
            Err(e) => return failures.push(format!("cold {name}: {e}")),
        };
        self.seconds[circuit].push(seconds);
        if run.stats.extractions != 1 {
            failures.push(format!(
                "cold {name}: {} extractions, expected 1",
                run.stats.extractions
            ));
        }
        let digest = timing_digest(&run.timing);
        if *self.digests[circuit].get_or_insert(digest) != digest {
            failures.push(format!("cold {name}: result changed between passes"));
        }
        if self.models[circuit].is_none() {
            match engine.model_for(&case.layout.netlist) {
                Ok((model, ModelSource::Memory)) => self.models[circuit] = Some(model),
                Ok((_, source)) => failures.push(format!(
                    "cold {name}: model came from {source:?}, not the session"
                )),
                Err(e) => failures.push(format!("cold {name}: {e}")),
            }
        }
    }

    /// Checks each circuit's model: within [`MODEL_TOLERANCE`] of its
    /// module and, with `check_direct`, bit-identical to a direct
    /// `extract_model`. Returns the largest mean and σ errors.
    pub fn finish(
        &self,
        fx: &Fixture,
        check_direct: bool,
        failures: &mut Vec<String>,
    ) -> (f64, f64) {
        let (mut mean_err, mut sigma_err) = (0.0f64, 0.0f64);
        for (case, model) in fx.library.iter().zip(&self.models) {
            let Some(model) = model else { continue };
            let netlist = case.layout.netlist.clone();
            let ctx = match ModuleContext::characterize(netlist, &SstaConfig::paper()) {
                Ok(ctx) => ctx,
                Err(e) => {
                    failures.push(format!("characterize {}: {e}", model.name()));
                    continue;
                }
            };
            if check_direct {
                match ctx.extract_model(&ExtractOptions::default()) {
                    Ok(direct) if model_digest(&direct) == model_digest(model) => {}
                    Ok(_) => failures.push(format!(
                        "cold {}: engine model differs from a direct extraction",
                        model.name()
                    )),
                    Err(e) => failures.push(format!("extract {}: {e}", model.name())),
                }
            }
            match model_errors(&ctx, model) {
                Ok((m, s)) => {
                    mean_err = mean_err.max(m);
                    sigma_err = sigma_err.max(s);
                }
                Err(e) => failures.push(e),
            }
        }
        if mean_err > MODEL_TOLERANCE || sigma_err > MODEL_TOLERANCE {
            failures.push(format!(
                "model error beyond {MODEL_TOLERANCE}: mean {mean_err:.4}, sigma {sigma_err:.4}"
            ));
        }
        (mean_err, sigma_err)
    }
}
