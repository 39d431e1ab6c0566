//! Edge criticality (Section IV-B of the paper).
//!
//! The criticality `c_ij` of edge `e` with respect to input `i` and output
//! `j` is the probability that `e` lies on the statistically longest
//! `i → j` path. Following Xiong et al. (DATE'08) it is computed as
//!
//! `c_ij = P{dₑ ≥ M_ij}`,   `dₑ = aₑ + d + rₑ`
//!
//! where `aₑ` is the arrival at `e`'s source from input `i` alone, `rₑ` is
//! the maximum delay from `e`'s sink to output `j`, and `M_ij` is the full
//! input-to-output delay. The *maximum criticality* `c_m` of an edge is the
//! max of `c_ij` over all input/output pairs; edges with `c_m` below a
//! threshold δ are dropped during model extraction.
//!
//! # The sweep
//!
//! The all-pairs sweep (one forward traversal per input, one backward per
//! output, Sapatnekar ISCAS'96) is batched over outputs to bound memory and
//! parallelized over chunks of inputs. Every traversal runs through one
//! shared [`LevelSchedule`]: the graph is levelized once per call, and each
//! pass is the pull-ordered wavefront engine of [`ssta_timing::levels`].
//!
//! Each (input, output, edge) candidate is scored without allocating:
//! `var(dₑ)` and `cov(dₑ, M_ij)` come from one pass over the coefficients
//! that adds and accumulates in exactly the order `aₑ.sum(d).sum(rₑ)`
//! followed by `variance`/`covariance` would, so the result is the same
//! bit for bit. Before that, a cheap mean/σ prefilter drops candidates
//! whose mean gap to `M_ij` dwarfs every possible θ. Finally `Φ` is only
//! evaluated when the candidate's standardized gap `z` can raise the
//! edge's running maximum: a `z` more than `1e-6` below the best `z`
//! evaluated so far (itself ≤ 5) cannot, because `Φ` is monotone at that
//! resolution (pinned by a test in `ssta_math::gaussian`; it is *not*
//! ulp-monotone near region boundaries, hence the margin).
//!
//! # Saturation
//!
//! Extraction only needs the keep decisions `c_m ≥ δ`, so it runs the
//! sweep with `saturate_at = δ`: once an edge's running maximum reaches
//! δ its remaining candidates are skipped, since they could only raise
//! it further. The keep set is exactly that of the exact sweep: an edge
//! whose exact `c_m` is below δ never saturates, so all of its candidates
//! are scored and its value is exact; an edge whose exact `c_m` reaches δ
//! must reach it at some candidate, after which it is kept either way. A
//! saturated value depends on the visit order (threads, batches), so it
//! never leaves the extraction step. [`edge_criticalities`] is the sweep
//! saturating at 1, which only skips edges already at the maximum
//! possible value and is therefore exact and thread-count independent.

use crate::canonical::CanonicalForm;
use crate::CoreError;
use ssta_math::gaussian::{normal_cdf, tightness_z};
use ssta_math::parallel::{effective_threads, try_parallel_indexed};
use ssta_math::Histogram;
use ssta_timing::{levels, Edge, LevelSchedule, TimingGraph, VertexId};

/// Options for the criticality engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalityOptions {
    /// Outputs processed per batch (bounds the memory used for backward
    /// propagation results).
    pub output_batch: usize,
    /// Worker threads; `0` uses the available parallelism.
    pub threads: usize,
    /// Prefilter width in combined sigmas: pairs whose mean gap exceeds
    /// this many (sub-additive bound) sigmas are treated as criticality 0.
    pub prefilter_sigmas: f64,
}

impl Default for CriticalityOptions {
    fn default() -> Self {
        CriticalityOptions {
            output_batch: 16,
            threads: 0,
            prefilter_sigmas: 8.0,
        }
    }
}

/// A candidate whose `z` is more than this below the best evaluated `z`
/// of its edge skips `Φ` (see the module docs).
const PHI_SKIP_MARGIN: f64 = 1e-6;

/// The skip only applies while the best evaluated `z` is at most this;
/// the monotonicity test in `ssta_math::gaussian` covers `z ≤ 5`.
const PHI_SKIP_CUTOFF: f64 = 5.0;

/// Maximum criticality `c_m` per edge slot (indexed by `EdgeId.0`; dead
/// edges hold 0).
///
/// `zero` must be the additive identity of the graph's variable space.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn edge_criticalities(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    options: &CriticalityOptions,
) -> Result<Vec<f64>, CoreError> {
    sweep(graph, zero, options, 1.0)
}

/// Running maximum of one edge slot.
#[derive(Debug, Clone, Copy)]
struct Best {
    /// Largest criticality seen.
    cm: f64,
    /// Largest `z` whose `Φ` was evaluated; `Φ(z) ≤ cm`.
    z: f64,
}

impl Best {
    const NONE: Best = Best {
        cm: 0.0,
        z: f64::NEG_INFINITY,
    };

    fn merge(&mut self, other: &Best) {
        if other.cm > self.cm {
            self.cm = other.cm;
        }
        self.z = self.z.max(other.z);
    }
}

/// The criticality sweep behind [`edge_criticalities`] (`saturate_at =
/// 1`) and extraction (`saturate_at = δ`): per edge slot, the exact `c_m`
/// when it stays below `saturate_at`, and otherwise some value at or above
/// `saturate_at` that depends on the visit order (see the module docs).
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub(crate) fn sweep(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    options: &CriticalityOptions,
    saturate_at: f64,
) -> Result<Vec<f64>, CoreError> {
    // Distinct output vertices (ports may share a driver).
    let mut outputs: Vec<VertexId> = graph.outputs().to_vec();
    outputs.sort();
    outputs.dedup();

    // One levelization serves every forward and backward pass below.
    let schedule = LevelSchedule::build(graph)?;

    let n_threads = effective_threads(options.threads);
    let batch = options.output_batch.max(1);
    let inputs = graph.inputs();
    let input_chunks: Vec<&[VertexId]> = inputs
        .chunks(inputs.len().div_ceil(n_threads).max(1))
        .collect();

    // Edge snapshot: (edge slot, edge, σ of its delay).
    let edges: Vec<(usize, &Edge<CanonicalForm>, f64)> = graph
        .edges_iter()
        .map(|(id, e)| (id.0 as usize, e, e.delay.std_dev()))
        .collect();
    let mut best = vec![Best::NONE; n_slots(graph)];

    for chunk in outputs.chunks(batch) {
        // Backward propagation per output in this batch: independent
        // sink passes fanned out via parallel_indexed (index-ordered,
        // bit-identical for any thread count).
        let required = try_parallel_indexed(chunk.len(), n_threads, |j| {
            levels::backward(graph, &schedule, &[(chunk[j], zero.clone())], 1)
        })?;
        let req_stats: Vec<Vec<Option<(f64, f64)>>> = required.iter().map(|r| stats(r)).collect();

        // Parallel over input chunks; each worker continues from the
        // merged maxima of earlier batches in a private copy.
        let locals = try_parallel_indexed(input_chunks.len(), n_threads, |c| {
            let mut local = best.clone();
            for &vi in input_chunks[c] {
                let arrival = levels::forward(graph, &schedule, &[(vi, zero.clone())], 1)?;
                let arr_stats = stats(&arrival);
                for (j, &vj) in chunk.iter().enumerate() {
                    let Some(m) = arrival[vj.0 as usize].as_ref() else {
                        continue;
                    };
                    let (m_nom, m_sig) = arr_stats[vj.0 as usize].expect("checked above");
                    let m_var = m.variance();
                    let (req_j, req_stat_j) = (&required[j], &req_stats[j]);
                    for &(slot, e, d_sig) in &edges {
                        let state = &mut local[slot];
                        if state.cm >= saturate_at {
                            continue;
                        }
                        let Some((a_nom, a_sig)) = arr_stats[e.from.0 as usize] else {
                            continue;
                        };
                        let Some((r_nom, r_sig)) = req_stat_j[e.to.0 as usize] else {
                            continue;
                        };
                        // Cheap prefilter: σ(x + y) ≤ σ(x) + σ(y) for any
                        // correlation, so θ ≤ combined. When the mean gap
                        // dwarfs it, P{de ≥ M} ≈ 0.
                        let de_nom = a_nom + e.delay.mean() + r_nom;
                        let combined = a_sig + d_sig + r_sig + m_sig;
                        if m_nom - de_nom > options.prefilter_sigmas * combined {
                            continue;
                        }
                        let a = arrival[e.from.0 as usize].as_ref().expect("stats cached");
                        let r = req_j[e.to.0 as usize].as_ref().expect("stats cached");
                        let z = candidate_z(a, &e.delay, r, m, m_var);
                        // Φ(z) ≤ Φ(state.z) ≤ state.cm: cannot raise it.
                        if z < state.z - PHI_SKIP_MARGIN && state.z <= PHI_SKIP_CUTOFF {
                            continue;
                        }
                        state.z = state.z.max(z);
                        let c = normal_cdf(z);
                        if c > state.cm {
                            state.cm = c;
                        }
                    }
                }
            }
            Ok::<Vec<Best>, CoreError>(local)
        })?;
        for local in locals {
            for (g, l) in best.iter_mut().zip(&local) {
                g.merge(l);
            }
        }
    }
    Ok(best.into_iter().map(|b| b.cm).collect())
}

/// Number of edge slots (one past the largest live `EdgeId`).
fn n_slots(graph: &TimingGraph<CanonicalForm>) -> usize {
    graph
        .edges_iter()
        .map(|(id, _)| id.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

/// `(mean, σ)` of each propagated vertex.
fn stats(forms: &[Option<CanonicalForm>]) -> Vec<Option<(f64, f64)>> {
    forms
        .iter()
        .map(|o| o.as_ref().map(|f| (f.mean(), f.std_dev())))
        .collect()
}

/// The standardized gap `z` of `P{dₑ ≥ M} = Φ(z)` for `dₑ = a + d + r`,
/// over the *shared* variables (globals + locals), exactly as the paper
/// evaluates equation (14) on canonical forms. `m_var` is `M.variance()`.
///
/// Bit-identical to `tightness_z` of the materialized `a.sum(d).sum(r)`:
/// each coefficient is `(a_k + d_k) + r_k`, squares and products are
/// accumulated in coefficient order from `-0.0` (as `Iterator::sum`
/// does), globals and locals separately, and the private random parts
/// collapse pairwise as two `sum`s would.
///
/// Collapsed-random convention: after propagation, the private random
/// parts of `dₑ` and `M_ij` look independent even though `dₑ`'s paths are
/// a subset of `M_ij`'s. The effect is that a fully dominant edge
/// (true criticality 1) evaluates to ≈ 0.5 rather than 1 — `θ` keeps a
/// residual `≈ √2·a_r` and the means tie. Values are compressed toward
/// 0.5, which is meant to be *conservative*: a dominant edge is not pushed
/// below a practical pruning threshold δ. Whether the edge *ordering*
/// survives is unverified until Monte-Carlo argmax tracing cross-checks
/// it (ROADMAP, "Criticality fidelity"). Crediting the full product
/// `r(dₑ)·r(M)` instead would make the probability hypersensitive to the
/// tiny mean discrepancies that different Clark collapse orders
/// introduce, and measurably misclassifies dominant edges.
fn candidate_z(
    a: &CanonicalForm,
    d: &CanonicalForm,
    r: &CanonicalForm,
    m: &CanonicalForm,
    m_var: f64,
) -> f64 {
    let fused = |a: &[f64], d: &[f64], r: &[f64], m: &[f64]| {
        debug_assert!(a.len() == m.len() && d.len() == m.len() && r.len() == m.len());
        let (mut sq, mut cov) = (-0.0, -0.0);
        for (((a, d), r), m) in a.iter().zip(d).zip(r).zip(m) {
            let s = (a + d) + r;
            sq += s * s;
            cov += s * m;
        }
        (sq, cov)
    };
    let (g_sq, g_cov) = fused(a.globals(), d.globals(), r.globals(), m.globals());
    let (l_sq, l_cov) = fused(a.locals(), d.locals(), r.locals(), m.locals());
    let ad_r = (a.random() * a.random() + d.random() * d.random()).sqrt();
    let de_r = (ad_r * ad_r + r.random() * r.random()).sqrt();
    let de_mean = (a.mean() + d.mean()) + r.mean();
    let de_var = g_sq + l_sq + de_r * de_r;
    tightness_z(de_mean, de_var, m.mean(), m_var, g_cov + l_cov)
}

/// Criticalities `c_ij` of every edge for one specific input/output pair
/// (one forward and one backward traversal). Returns a per-edge-slot
/// vector; edges outside the `(i, j)` cone hold 0.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn pair_criticalities(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    vi: VertexId,
    vj: VertexId,
) -> Result<Vec<f64>, CoreError> {
    let schedule = LevelSchedule::build(graph)?;
    pair_criticalities_with(graph, &schedule, zero, vi, vj)
}

/// [`pair_criticalities`] over a prebuilt schedule, so repair loops that
/// probe many pairs levelize the graph once.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn pair_criticalities_with(
    graph: &TimingGraph<CanonicalForm>,
    schedule: &LevelSchedule,
    zero: &CanonicalForm,
    vi: VertexId,
    vj: VertexId,
) -> Result<Vec<f64>, CoreError> {
    let arrival = levels::forward(graph, schedule, &[(vi, zero.clone())], 1)?;
    let required = levels::backward(graph, schedule, &[(vj, zero.clone())], 1)?;
    let mut out = vec![0.0; n_slots(graph)];
    let Some(m_ij) = arrival[vj.0 as usize].as_ref() else {
        return Ok(out); // pair not connected
    };
    let m_var = m_ij.variance();
    for (id, e) in graph.edges_iter() {
        let (Some(a), Some(r)) = (
            arrival[e.from.0 as usize].as_ref(),
            required[e.to.0 as usize].as_ref(),
        ) else {
            continue;
        };
        out[id.0 as usize] = normal_cdf(candidate_z(a, &e.delay, r, m_ij, m_var));
    }
    Ok(out)
}

/// Histogram of the live edges' maximum criticalities over `[0, 1]` — the
/// paper's Fig. 6.
pub fn criticality_histogram(
    graph: &TimingGraph<CanonicalForm>,
    cms: &[f64],
    n_bins: usize,
) -> Histogram {
    let mut h = Histogram::new(0.0, 1.0, n_bins);
    for (id, _) in graph.edges_iter() {
        h.push(cms[id.0 as usize]);
    }
    h
}

/// The allocating reference formula: materializes `dₑ = a.sum(d).sum(r)`
/// and evaluates `P{dₑ ≥ M}` directly.
#[cfg(test)]
pub(crate) fn oracle_probability(
    a: &CanonicalForm,
    d: &CanonicalForm,
    r: &CanonicalForm,
    m: &CanonicalForm,
) -> f64 {
    let de = a.sum(d).sum(r);
    ssta_math::gaussian::tightness_probability(
        de.mean(),
        de.variance(),
        m.mean(),
        m.variance(),
        de.covariance(m),
    )
}

/// Reference `c_m` per edge slot: serial, unsaturated, every candidate
/// that passes the same prefilter scored with [`oracle_probability`].
#[cfg(test)]
pub(crate) fn oracle_edge_criticalities(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    prefilter_sigmas: f64,
) -> Vec<f64> {
    let schedule = LevelSchedule::build(graph).unwrap();
    let mut outputs: Vec<VertexId> = graph.outputs().to_vec();
    outputs.sort();
    outputs.dedup();
    let required: Vec<_> = outputs
        .iter()
        .map(|&vj| levels::backward(graph, &schedule, &[(vj, zero.clone())], 1).unwrap())
        .collect();
    let mut cm = vec![0.0f64; n_slots(graph)];
    for &vi in graph.inputs() {
        let arrival = levels::forward(graph, &schedule, &[(vi, zero.clone())], 1).unwrap();
        for (j, &vj) in outputs.iter().enumerate() {
            let Some(m) = arrival[vj.0 as usize].as_ref() else {
                continue;
            };
            for (id, e) in graph.edges_iter() {
                let (Some(a), Some(r)) = (
                    arrival[e.from.0 as usize].as_ref(),
                    required[j][e.to.0 as usize].as_ref(),
                ) else {
                    continue;
                };
                let gap = m.mean() - (a.mean() + e.delay.mean() + r.mean());
                let combined = a.std_dev() + e.delay.std_dev() + r.std_dev() + m.std_dev();
                if gap > prefilter_sigmas * combined {
                    continue;
                }
                let slot = &mut cm[id.0 as usize];
                *slot = slot.max(oracle_probability(a, &e.delay, r, m));
            }
        }
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::generators;

    fn ctx(name: &str) -> ModuleContext {
        let n = generators::iscas85(name).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    fn adder_ctx() -> ModuleContext {
        let n = generators::ripple_carry_adder(4).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    #[test]
    fn criticalities_are_probabilities() {
        let ctx = adder_ctx();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        for (id, _) in ctx.graph().edges_iter() {
            let c = cms[id.0 as usize];
            assert!((0.0..=1.0).contains(&c), "cm = {c}");
        }
    }

    #[test]
    fn chain_edges_saturate_and_are_never_prunable() {
        // A pure chain: every edge is on the only path (true criticality
        // 1). Under the collapsed-random convention the tightness
        // saturates at 0.5 — far above any practical pruning threshold.
        use ssta_netlist::{library::library_90nm, Netlist, Signal};
        use std::sync::Arc;
        let lib = Arc::new(library_90nm());
        let mut b = Netlist::builder("chain", lib, 1);
        let mut s = Signal::Input(0);
        for _ in 0..5 {
            s = b.add_gate_by_name("INV", &[s]).unwrap();
        }
        b.add_output(s).unwrap();
        let ctx = ModuleContext::characterize(b.finish().unwrap(), &SstaConfig::paper()).unwrap();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        for (id, _) in ctx.graph().edges_iter() {
            let c = cms[id.0 as usize];
            assert!((0.49..=0.51).contains(&c), "chain edge cm = {c}");
        }
    }

    #[test]
    fn dominated_parallel_branch_has_low_criticality() {
        // Two branches input -> output: one long (3 gates), one short
        // (1 gate). The short branch's edge criticality should be ~0.
        use ssta_netlist::{library::library_90nm, Netlist, Signal};
        use std::sync::Arc;
        let lib = Arc::new(library_90nm());
        let mut b = Netlist::builder("branch", lib, 1);
        let mut long = Signal::Input(0);
        for _ in 0..4 {
            long = b
                .add_gate_by_name("NOR2", &[long, Signal::Input(0)])
                .unwrap();
        }
        let short = b.add_gate_by_name("INV", &[Signal::Input(0)]).unwrap();
        let join = b.add_gate_by_name("NAND2", &[long, short]).unwrap();
        b.add_output(join).unwrap();
        let ctx = ModuleContext::characterize(b.finish().unwrap(), &SstaConfig::paper()).unwrap();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        // Find the INV arc (short branch).
        let short_edges: Vec<f64> = ctx
            .graph()
            .edges_iter()
            .filter(|(_, e)| e.delay.mean() < 15.0) // INV is the fastest cell
            .map(|(id, _)| cms[id.0 as usize])
            .collect();
        assert!(!short_edges.is_empty());
        for c in short_edges {
            assert!(c < 0.05, "dominated edge cm = {c}");
        }
    }

    #[test]
    fn histogram_is_bimodal_for_benchmark_circuit() {
        // The paper's Fig. 6 observation: criticalities pile up near 0
        // and 1. Check on the smallest benchmark.
        let ctx = ctx("c432");
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        let h = criticality_histogram(ctx.graph(), &cms, 20);
        let total = h.total() as f64;
        let low = h.counts()[0] as f64; // [0, 0.05): prunable edges
                                        // Upper mode: the 0.5 saturation band [0.45, 0.65) under the
                                        // collapsed-random convention (the paper's mode at 1.0).
        let high: f64 = h.counts()[9..13].iter().sum::<u64>() as f64;
        assert!(
            (low + high) / total > 0.6,
            "expected bimodal histogram, modes hold {:.1}%",
            100.0 * (low + high) / total
        );
    }

    #[test]
    fn full_sweep_levelizes_exactly_once() {
        // All 2·(inputs + outputs)-ish traversals of the sweep must share
        // one schedule — re-levelizing per pass is the bug this engine
        // exists to fix. (The counter is thread-local; worker threads
        // never build schedules, only the entry point does.)
        let ctx = adder_ctx();
        let before = ssta_timing::levels::schedule_builds();
        let _ =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        assert_eq!(ssta_timing::levels::schedule_builds(), before + 1);
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let ctx = adder_ctx();
        let a = edge_criticalities(
            ctx.graph(),
            &ctx.zero(),
            &CriticalityOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = edge_criticalities(
            ctx.graph(),
            &ctx.zero(),
            &CriticalityOptions {
                threads: 4,
                output_batch: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn prefilter_does_not_change_results_materially() {
        let ctx = adder_ctx();
        let strict = edge_criticalities(
            ctx.graph(),
            &ctx.zero(),
            &CriticalityOptions {
                prefilter_sigmas: 1e9, // effectively no filtering
                ..Default::default()
            },
        )
        .unwrap();
        let filtered =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        for (x, y) in strict.iter().zip(&filtered) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn sweep_is_bit_identical_to_the_oracle_for_any_threads_and_batch() {
        for (name, ctx) in [
            ("c432", ctx("c432")),
            ("c880", ctx("c880")),
            ("c1908", ctx("c1908")),
            ("adder4", adder_ctx()),
        ] {
            let defaults = CriticalityOptions::default();
            let want = bits(&oracle_edge_criticalities(
                ctx.graph(),
                &ctx.zero(),
                defaults.prefilter_sigmas,
            ));
            for threads in [1, 2, 4] {
                for output_batch in [1, 2, 16] {
                    let options = CriticalityOptions {
                        threads,
                        output_batch,
                        ..defaults
                    };
                    let got = edge_criticalities(ctx.graph(), &ctx.zero(), &options).unwrap();
                    assert!(
                        bits(&got) == want,
                        "{name}: threads {threads}, output_batch {output_batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn saturating_sweep_keeps_exactly_the_exact_keep_set() {
        for (name, ctx) in [("c432", ctx("c432")), ("adder4", adder_ctx())] {
            let options = CriticalityOptions {
                threads: 2,
                output_batch: 2,
                ..Default::default()
            };
            let exact = edge_criticalities(ctx.graph(), &ctx.zero(), &options).unwrap();
            for delta in [0.0, 0.01, 0.05, 0.3, 1.0] {
                let saturated = sweep(ctx.graph(), &ctx.zero(), &options, delta).unwrap();
                for (id, _) in ctx.graph().edges_iter() {
                    let (s, x) = (saturated[id.0 as usize], exact[id.0 as usize]);
                    assert_eq!(s >= delta, x >= delta, "{name}: δ {delta}, edge {id:?}");
                    // Below the threshold nothing was skipped: exact value.
                    if x < delta {
                        assert_eq!(s.to_bits(), x.to_bits(), "{name}: δ {delta}, edge {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_criticalities_match_the_oracle_bitwise() {
        let ctx = ctx("c432");
        let (graph, zero) = (ctx.graph(), ctx.zero());
        let schedule = LevelSchedule::build(graph).unwrap();
        let vj = graph.outputs()[0];
        for &vi in graph.inputs().iter().take(8) {
            let got = pair_criticalities_with(graph, &schedule, &zero, vi, vj).unwrap();
            let arrival = levels::forward(graph, &schedule, &[(vi, zero.clone())], 1).unwrap();
            let required = levels::backward(graph, &schedule, &[(vj, zero.clone())], 1).unwrap();
            let mut want = vec![0.0f64; got.len()];
            if let Some(m) = arrival[vj.0 as usize].as_ref() {
                for (id, e) in graph.edges_iter() {
                    if let (Some(a), Some(r)) = (
                        arrival[e.from.0 as usize].as_ref(),
                        required[e.to.0 as usize].as_ref(),
                    ) {
                        want[id.0 as usize] = oracle_probability(a, &e.delay, r, m);
                    }
                }
            }
            assert_eq!(bits(&got), bits(&want), "pair ({vi:?}, {vj:?})");
        }
    }
}
