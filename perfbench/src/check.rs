//! Output checks: bit-level digests of results, and the accuracy of an
//! extracted model against its module's own delay matrix.

use ssta_core::{CanonicalForm, DesignTiming, ModuleContext, TimingModel};
use ssta_engine::ScenarioRecord;

/// FNV-1a over 64-bit words: equal digests mean bit-identical inputs (up
/// to an astronomically unlikely collision).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn form(&mut self, f: &CanonicalForm) {
        self.f64(f.mean());
        self.word(f.globals().len() as u64);
        f.globals().iter().for_each(|&g| self.f64(g));
        self.word(f.locals().len() as u64);
        f.locals().iter().for_each(|&l| self.f64(l));
        self.f64(f.random());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a design result: delay, every PO arrival, and the size of
/// the design variable space.
pub fn timing_digest(t: &DesignTiming) -> u64 {
    let mut d = Digest::new();
    d.form(&t.delay);
    d.word(t.po_arrivals.len() as u64);
    t.po_arrivals.iter().for_each(|a| d.form(a));
    d.word(t.n_local_components as u64);
    d.finish()
}

/// Digest of an extracted model: graph structure, every edge delay, the
/// ports, and the extraction counts (not its wall-clock time).
pub fn model_digest(m: &TimingModel) -> u64 {
    let mut d = Digest::new();
    let g = m.graph();
    for (id, e) in g.edges_iter() {
        d.word(u64::from(id.0));
        d.word(u64::from(e.from.0));
        d.word(u64::from(e.to.0));
        d.form(&e.delay);
    }
    g.inputs().iter().for_each(|v| d.word(u64::from(v.0)));
    g.outputs().iter().for_each(|v| d.word(u64::from(v.0)));
    let s = m.stats();
    for count in [
        s.original_edges,
        s.original_vertices,
        s.edges_pruned,
        s.restored_paths,
        s.repaired_pairs,
        s.merge_rounds,
        s.serial_merges,
        s.parallel_merges,
        s.model_edges,
        s.model_vertices,
    ] {
        d.word(count as u64);
    }
    d.finish()
}

/// Digest of a sweep's per-corner roll-ups (everything but phase times).
pub fn record_digest(records: &[ScenarioRecord]) -> u64 {
    let mut d = Digest::new();
    for r in records {
        r.scenario.bytes().for_each(|b| d.word(u64::from(b)));
        d.word(r.group as u64);
        format!("{:?}", r.mode)
            .bytes()
            .for_each(|b| d.word(u64::from(b)));
        d.f64(r.mean_ps);
        d.f64(r.sigma_ps);
        d.f64(r.p9973_ps);
        d.f64(r.timing_yield.unwrap_or(f64::NAN));
        d.word(r.critical_po as u64);
        d.word(u64::from(r.reused_analysis));
    }
    d.finish()
}

/// Largest relative error of the model's input/output delay matrix
/// against the module's own analytic matrix, for the mean and for σ.
/// A pair connected in one matrix but not the other is an error.
pub fn model_errors(ctx: &ModuleContext, model: &TimingModel) -> Result<(f64, f64), String> {
    let original = ctx.delay_matrix().map_err(|e| e.to_string())?;
    let reduced = model.delay_matrix().map_err(|e| e.to_string())?;
    if original.n_inputs() != reduced.n_inputs() || original.n_outputs() != reduced.n_outputs() {
        return Err(format!(
            "{}: model ports differ from the module",
            model.name()
        ));
    }
    if original.n_connected() != reduced.n_connected() {
        return Err(format!(
            "{}: model connects {} pairs, module {}",
            model.name(),
            reduced.n_connected(),
            original.n_connected()
        ));
    }
    let (mut mean_err, mut sigma_err) = (0.0f64, 0.0f64);
    for (i, j, o) in original.iter() {
        let r = reduced
            .get(i, j)
            .ok_or_else(|| format!("{}: pair ({i}, {j}) lost", model.name()))?;
        mean_err = mean_err.max((r.mean() - o.mean()).abs() / o.mean().abs());
        sigma_err = sigma_err.max((r.std_dev() - o.std_dev()).abs() / o.std_dev());
    }
    Ok((mean_err, sigma_err))
}
