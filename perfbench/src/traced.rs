//! The traced run's request decompositions.
//!
//! Each traced request is preceded by the same request untraced (its
//! wall time is the reference), then replayed as the sequence of public
//! layer calls the engine makes internally, each inside a span:
//!
//! * cold: `module_fingerprint_from_digest` (the plan step) → `ModuleContext::characterize` →
//!   `criticality::edge_criticalities` → `extract_model` → (criticality
//!   again) →
//!   `codec::encode_model` → `ModelStore::save_traced` → assembly →
//!   `Engine::analyze` over the store just written;
//! * warm: `module_fingerprint_from_digest` → `ModelStore::load_traced` →
//!   `codec::decode_model` → assembly;
//! * assembly: `Layout::design` → `assemble_design_graph` (its partition,
//!   covariance, eigen and replace phases become derived child spans) →
//!   `LevelSchedule::build` → `propagate_assembled`.
//!
//! Standalone `criticality`, `codec.encode`, `codec.decode` and the final
//! `engine.analyze` are probes: they repeat work done inside another
//! call, so they are left out of the accounted time that is compared
//! with the untraced wall time.

use crate::check::{model_digest, timing_digest};
use crate::fixture::{engine, engine_options, Fixture, Layout};
use crate::trace::{TimedBackend, Tracer};
use ssta_core::criticality::edge_criticalities;
use ssta_core::{
    assemble_design_graph, codec, module_fingerprint_from_digest, propagate_assembled,
    AnalyzeOptions, CorrelationMode, DesignTiming, ExtractOptions, LevelSchedule, ModuleContext,
    SstaConfig, TimingModel,
};
use ssta_engine::{DesignSpec, MemoryBackend, ModelSource, ModelStore, RunStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names whose durations make up a cold request.
pub const COLD_ACCOUNTED: [&str; 8] = [
    "pipeline.plan",
    "characterize",
    "extract",
    "store.save",
    "design.build",
    "hier.assemble",
    "hier.schedule",
    "hier.propagate",
];

/// Span names whose durations make up a warm request.
pub const WARM_ACCOUNTED: [&str; 6] = [
    "pipeline.plan",
    "store.load",
    "design.build",
    "hier.assemble",
    "hier.schedule",
    "hier.propagate",
];

/// Facts of one traced request beyond its spans.
pub struct Traced {
    /// The request id its spans carry.
    pub request: u64,
    /// Wall time of the same request untraced.
    pub untraced: Duration,
    /// Engine accounting of the untraced request.
    pub stats: RunStats,
    pub graph_edges: usize,
    pub levels: usize,
    pub local_components: usize,
    /// Store artifact bytes read (warm) or written (cold).
    pub store_bytes: usize,
    /// Binary payload bytes of the model.
    pub model_bytes: usize,
    /// The model a cold request extracted.
    pub model: Option<Arc<TimingModel>>,
}

struct Assembly {
    timing: DesignTiming,
    graph_edges: usize,
    levels: usize,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The plan step: the store key of the spec's one module, from the
/// structural digest the spec computed when it was built (as the
/// engine's planner does).
fn plan_key(spec: &DesignSpec) -> String {
    let options = engine_options();
    module_fingerprint_from_digest(
        spec.modules()[0].structural_digest(),
        &SstaConfig::paper(),
        &options.extract,
    )
    .to_hex()
}

/// Direct assembly of `layout` over `model`, one span per layer call.
fn assemble(
    tracer: &mut Tracer,
    request: u64,
    parent: usize,
    layout: &Layout,
    model: &Arc<TimingModel>,
) -> Result<Assembly, String> {
    let design = tracer
        .span(request, Some(parent), "design.build", |_, _| {
            layout.design(model)
        })
        .map_err(|e| err("design", e))?;
    let options = AnalyzeOptions { threads: 1 };
    let assembled = tracer
        .span(request, Some(parent), "hier.assemble", |t, id| {
            let out = assemble_design_graph(&design, CorrelationMode::Proposed, &options);
            if let Ok(a) = &out {
                // The phases run in this order; lay them out back to back
                // from the span's start.
                let mut at = t.get(id).start;
                for (name, seconds) in [
                    ("hier.partition", a.phases.partition_seconds),
                    ("hier.covariance", a.phases.covariance_seconds),
                    ("hier.eigen", a.phases.eigen_seconds),
                    ("hier.replace", a.phases.replace_seconds),
                ] {
                    let end = at + Duration::from_secs_f64(seconds);
                    t.add(request, Some(id), name, at, end, true);
                    at = end;
                }
            }
            out
        })
        .map_err(|e| err("assemble", e))?;
    let schedule = tracer
        .span(request, Some(parent), "hier.schedule", |_, _| {
            LevelSchedule::build(&assembled.graph)
        })
        .map_err(|e| err("schedule", e))?;
    let timing = tracer
        .span(request, Some(parent), "hier.propagate", |_, _| {
            propagate_assembled(&assembled, &schedule, 1)
        })
        .map_err(|e| err("propagate", e))?;
    Ok(Assembly {
        timing,
        graph_edges: assembled.graph.n_edges(),
        levels: schedule.n_levels(),
    })
}

/// One cold request of library circuit `circuit`, untraced then traced.
pub fn cold(
    fx: &Fixture,
    tracer: &mut Tracer,
    request: u64,
    circuit: usize,
) -> Result<Traced, String> {
    let case = &fx.library[circuit];
    let mut untraced_engine = engine().with_backend(MemoryBackend::new());
    let started = Instant::now();
    let run = untraced_engine
        .analyze(&case.spec)
        .map_err(|e| err("cold", e))?;
    let untraced = started.elapsed();
    let (engine_model, source) = untraced_engine
        .model_for(&case.layout.netlist)
        .map_err(|e| err("model_for", e))?;
    if source != ModelSource::Memory {
        return Err(format!("{}: engine model not in session", case.layout.name));
    }

    let backend = TimedBackend::new(Arc::new(MemoryBackend::new()), tracer.epoch());
    let store = ModelStore::with_backend(backend.clone());
    let config = SstaConfig::paper();
    let options = ExtractOptions::default();
    let netlist = &case.layout.netlist;
    let traced = tracer.span(request, None, "request", |t, root| {
        let key = t.span(request, Some(root), "pipeline.plan", |_, _| {
            plan_key(&case.spec)
        });
        let ctx = t
            .span(request, Some(root), "characterize", |_, _| {
                ModuleContext::characterize(netlist.clone(), &config)
            })
            .map_err(|e| err("characterize", e))?;
        // Criticality is timed once before and once after the extraction
        // that contains it, so neither side of `extract - criticality`
        // is favoured by running on a warmer cache or allocator.
        let criticality = |t: &mut Tracer| {
            t.span(request, Some(root), "criticality", |_, _| {
                edge_criticalities(ctx.graph(), &ctx.zero(), &options.criticality)
            })
            .map_err(|e| err("criticality", e))
        };
        criticality(t)?;
        let model = Arc::new(
            t.span(request, Some(root), "extract", |_, _| {
                ctx.extract_model(&options)
            })
            .map_err(|e| err("extract", e))?,
        );
        criticality(t)?;
        let payload = t.span(request, Some(root), "codec.encode", |_, _| {
            codec::encode_model(&model)
        });
        let written = t
            .span(request, Some(root), "store.save", |t, id| {
                let out = store.save_traced(&key, &model);
                t.adopt(request, id, &backend);
                out
            })
            .map_err(|e| err("save", e))?;
        let assembly = assemble(t, request, root, &case.layout, &model)?;
        let stored = t
            .span(request, Some(root), "engine.analyze", |t, id| {
                let out = engine().with_backend(backend.clone()).analyze(&case.spec);
                t.adopt(request, id, &backend);
                out
            })
            .map_err(|e| err("analyze", e))?;
        Ok::<_, String>((model, payload.len(), written, assembly, stored))
    })?;
    let (model, model_bytes, written, assembly, stored) = traced;
    let digest = timing_digest(&run.timing);
    if model_digest(&model) != model_digest(&engine_model) {
        return Err(format!(
            "{}: direct model differs from the engine's",
            case.layout.name
        ));
    }
    if timing_digest(&assembly.timing) != digest || timing_digest(&stored.timing) != digest {
        return Err(format!(
            "{}: traced result differs from untraced",
            case.layout.name
        ));
    }
    Ok(Traced {
        request,
        untraced,
        stats: run.stats,
        graph_edges: assembly.graph_edges,
        levels: assembly.levels,
        local_components: assembly.timing.n_local_components,
        store_bytes: written,
        model_bytes,
        model: Some(model),
    })
}

/// One warm request of design `design`, untraced and traced, in the
/// order `untraced_first` picks (alternating it cancels the advantage the
/// second run of a pair gets from memory the first one freed).
pub fn warm(
    fx: &Fixture,
    tracer: &mut Tracer,
    request: u64,
    design: usize,
    untraced_first: bool,
) -> Result<Traced, String> {
    let d = &fx.designs[design];
    let untraced_run = || {
        let started = Instant::now();
        let run = engine()
            .with_backend(Arc::clone(&fx.store))
            .analyze(&d.spec)
            .map_err(|e| err("warm", e))?;
        let untraced = started.elapsed();
        if timing_digest(&run.timing) != d.digest {
            return Err(format!("warm {}: result differs from cold", d.layout.name));
        }
        Ok((untraced, run.stats))
    };
    let mut first = None;
    if untraced_first {
        first = Some(untraced_run()?);
    }

    let backend = TimedBackend::new(Arc::clone(&fx.store), tracer.epoch());
    let store = ModelStore::with_backend(backend.clone());
    let traced = tracer.span(request, None, "request", |t, root| {
        let key = t.span(request, Some(root), "pipeline.plan", |_, _| {
            plan_key(&d.spec)
        });
        let (model, info) = t
            .span(request, Some(root), "store.load", |t, id| {
                let out = store.load_traced(&key);
                t.adopt(request, id, &backend);
                out
            })
            .map_err(|e| err("load", e))?
            .ok_or_else(|| format!("warm {}: model missing from store", d.layout.name))?;
        let model = Arc::new(model);
        let payload = codec::encode_model(&model);
        t.span(request, Some(root), "codec.decode", |_, _| {
            codec::decode_model(&payload)
        })
        .map_err(|e| err("decode", e))?;
        let assembly = assemble(t, request, root, &d.layout, &model)?;
        Ok::<_, String>((info.bytes, payload.len(), assembly))
    })?;
    let (store_bytes, model_bytes, assembly) = traced;
    let (untraced, stats) = match first {
        Some(done) => done,
        None => untraced_run()?,
    };
    if timing_digest(&assembly.timing) != d.digest {
        return Err(format!(
            "warm {}: traced result differs from cold",
            d.layout.name
        ));
    }
    Ok(Traced {
        request,
        untraced,
        stats,
        graph_edges: assembly.graph_edges,
        levels: assembly.levels,
        local_components: assembly.timing.n_local_components,
        store_bytes,
        model_bytes,
        model: None,
    })
}

/// Accounted time of a traced request: the summed durations of the
/// spans in `names` (the probes excluded).
pub fn accounted(tracer: &Tracer, request: u64, names: &[&str]) -> Duration {
    names.iter().map(|n| tracer.total(request, n)).sum()
}
