//! Benchmark inputs and set-up.
//!
//! Every input is generated here; the program under test receives only
//! the generated specs, grids and stores. Set-up builds the warm model
//! store, the cold reference results and the cold corner sweep that the
//! measured phases then reuse.

use crate::check::{record_digest, timing_digest};
use ssta_core::{
    CoreError, CorrelationModel, Design, DesignBuilder, ExtractOptions, GridGeometry,
    ScenarioOverlay, SstaConfig, TimingModel,
};
use ssta_engine::{
    CornerGrid, DesignSpec, Engine, EngineOptions, GridAxis, MemoryBackend, StorageBackend,
    SweepOptions,
};
use ssta_netlist::generators::{array_multiplier, iscas85};
use ssta_netlist::{DieRect, Netlist, Placement};
use std::sync::Arc;

/// The ISCAS-85 circuits whose single extraction fits a run. c5315
/// (≈ 14 s) and c7552 (≈ 30 s) are left out because one extraction of
/// either outlasts the run on a 2-CPU machine.
pub const LIBRARY: [&str; 8] = [
    "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c6288",
];

/// Worker threads per engine. One thread keeps results steady on a
/// shared 2-CPU machine, and the serving pool supplies the second CPU.
pub const ENGINE_THREADS: usize = 1;

/// Engine options used by every engine the benchmark builds.
pub fn engine_options() -> EngineOptions {
    EngineOptions {
        threads: ENGINE_THREADS,
        ..EngineOptions::default()
    }
}

/// A fresh engine under the paper configuration, without a store.
pub fn engine() -> Engine {
    Engine::with_options(SstaConfig::paper(), engine_options())
}

/// The placement of one design, independent of where its module's model
/// comes from: turned into a [`DesignSpec`] for the engine, or into a
/// [`Design`] over a given model for the traced run's direct assembly.
#[derive(Debug, Clone)]
pub struct Layout {
    pub name: String,
    pub die: DieRect,
    pub netlist: Netlist,
    pub instances: Vec<(String, (f64, f64))>,
    pub wires: Vec<(usize, usize, usize, usize)>,
    pub inputs: Vec<Vec<(usize, usize)>>,
    pub outputs: Vec<(usize, usize)>,
}

fn module_extent(netlist: &Netlist, config: &SstaConfig) -> (f64, f64) {
    let placement = Placement::rows(netlist, config.cell_pitch_um);
    GridGeometry::from_die(placement.die(), config.grid_pitch_um()).extent_um()
}

impl Layout {
    /// `n` chained instances of one ISCAS-85 module, tiled on a square
    /// grid: output `k` of each instance drives input `k` of the next.
    pub fn array(module: &str, n: usize) -> Layout {
        let netlist = iscas85(module).expect("known ISCAS-85 circuit");
        let (mw, mh) = module_extent(&netlist, &SstaConfig::paper());
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let (n_in, n_out) = (netlist.n_inputs(), netlist.n_outputs());
        let chained = n_in.min(n_out);
        let instances = (0..n)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                (format!("u{i}"), (c as f64 * mw, r as f64 * mh))
            })
            .collect();
        let wires = (1..n)
            .flat_map(|i| (0..chained).map(move |k| (i - 1, k, i, k)))
            .collect();
        let mut inputs: Vec<Vec<(usize, usize)>> = (0..n_in).map(|k| vec![(0, k)]).collect();
        for i in 1..n {
            inputs.extend((chained..n_in).map(|k| vec![(i, k)]));
        }
        Layout {
            name: format!("{module}x{n}"),
            die: DieRect {
                width: cols as f64 * mw,
                height: rows as f64 * mh,
            },
            outputs: (0..n_out).map(|k| (n - 1, k)).collect(),
            netlist,
            instances,
            wires,
            inputs,
        }
    }

    /// The paper's Fig. 7 design: four `width`-bit array multipliers,
    /// two feeding two.
    pub fn quad_multiplier(width: usize) -> Layout {
        let netlist = array_multiplier(width).expect("multiplier generator");
        let (mw, mh) = module_extent(&netlist, &SstaConfig::paper());
        let mut wires = Vec::new();
        for k in 0..width {
            wires.push((0, k, 2, k));
            wires.push((1, k, 2, width + k));
            wires.push((0, width + k, 3, k));
            wires.push((1, width + k, 3, width + k));
        }
        Layout {
            name: format!("fig7-mul{width}"),
            die: DieRect {
                width: 2.0 * mw,
                height: 2.0 * mh,
            },
            netlist,
            instances: vec![
                ("m0".into(), (0.0, 0.0)),
                ("m1".into(), (0.0, mh)),
                ("m2".into(), (mw, 0.0)),
                ("m3".into(), (mw, mh)),
            ],
            wires,
            inputs: [0, 1]
                .iter()
                .flat_map(|&i| (0..2 * width).map(move |k| vec![(i, k)]))
                .collect(),
            outputs: [2, 3]
                .iter()
                .flat_map(|&i| (0..2 * width).map(move |k| (i, k)))
                .collect(),
        }
    }

    /// The engine input: a pre-extraction spec.
    pub fn spec(&self) -> DesignSpec {
        let mut b = DesignSpec::builder(self.name.clone(), self.die);
        let m = b.add_module(self.netlist.clone());
        for (name, origin) in &self.instances {
            b.add_instance(name.clone(), m, *origin)
                .expect("instance fits the die");
        }
        for &(from, fp, to, tp) in &self.wires {
            b.connect(from, fp, to, tp);
        }
        for targets in &self.inputs {
            b.expose_input(targets.clone());
        }
        for &(inst, port) in &self.outputs {
            b.expose_output(inst, port);
        }
        b.finish().expect("valid spec")
    }

    /// The same design over an already-extracted `model`, built the way
    /// the engine's assembly stage builds it.
    pub fn design(&self, model: &Arc<TimingModel>) -> Result<Design, CoreError> {
        let mut b = DesignBuilder::new(self.name.clone(), self.die, SstaConfig::paper());
        for (name, origin) in &self.instances {
            b.add_instance(name.clone(), Arc::clone(model), None, *origin)?;
        }
        for &(from, fp, to, tp) in &self.wires {
            b.connect(from, fp, to, tp, 0.0)?;
        }
        for targets in &self.inputs {
            b.expose_input(targets.clone())?;
        }
        for &(inst, port) in &self.outputs {
            b.expose_output(inst, port)?;
        }
        b.finish()
    }
}

/// The 2048-corner grid over c432×4: 8 sigma scales × 2 correlation
/// models × 2 extraction thresholds × 2 modes × 32 clock targets, which
/// collapses to 32 extraction groups.
pub fn corner_grid() -> CornerGrid {
    let paper = CorrelationModel::paper();
    let short_range = CorrelationModel {
        cutoff_grids: 8.0,
        ..paper
    };
    let clocks: Vec<f64> = (0..32).map(|k| 700.0 + 1100.0 * k as f64 / 31.0).collect();
    CornerGrid::builder()
        .axis(GridAxis::sigma_scales(
            "process",
            &[0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2],
        ))
        .axis(GridAxis::correlations(
            "corr",
            [("paper", paper), ("short-range", short_range)],
        ))
        .axis(GridAxis::new(
            "delta",
            [
                ("d0.05", ScenarioOverlay::new()),
                (
                    "d0.02",
                    ScenarioOverlay::new().with_extract(ExtractOptions {
                        delta: 0.02,
                        ..ExtractOptions::default()
                    }),
                ),
            ],
        ))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &clocks))
        .finish()
        .expect("2048-corner grid")
}

/// Sweep options: the defaults, so the sweep runs as many workers as
/// its engine has threads ([`ENGINE_THREADS`]).
pub fn sweep_options() -> SweepOptions {
    SweepOptions::default()
}

/// One library circuit of the cold path.
pub struct ColdCase {
    pub layout: Layout,
    pub spec: DesignSpec,
}

/// One design of the warm path, with its cold reference result.
pub struct WarmDesign {
    pub layout: Layout,
    pub spec: Arc<DesignSpec>,
    /// Digest of the cold result.
    pub digest: u64,
}

/// Everything the measured phases share.
pub struct Fixture {
    pub library: Vec<ColdCase>,
    /// Fig. 7, c432×16, c1908×16, c432×64, in that order.
    pub designs: Vec<WarmDesign>,
    /// The store every warm design's models were written to.
    pub store: Arc<MemoryBackend>,
    pub sweep_spec: DesignSpec,
    pub grid: CornerGrid,
    /// The engine that ran the cold sweep; warm sweeps reuse it.
    pub sweep_engine: Engine,
    pub sweep_digest: u64,
}

/// Index of each warm design in [`Fixture::designs`].
pub const FIG7: usize = 0;
pub const C432X16: usize = 1;
pub const C1908X16: usize = 2;
pub const C432X64: usize = 3;

/// Builds the fixture: generates every input, analyzes each warm design
/// cold on its own empty store (its reference result), merges those
/// stores into the shared warm store, and runs the cold corner sweep.
pub fn setup() -> Result<Fixture, String> {
    let library = LIBRARY
        .iter()
        .map(|name| {
            let layout = Layout::array(name, 2);
            let spec = layout.spec();
            ColdCase { layout, spec }
        })
        .collect();

    let store = Arc::new(MemoryBackend::new());
    let layouts = [
        Layout::quad_multiplier(16),
        Layout::array("c432", 16),
        Layout::array("c1908", 16),
        Layout::array("c432", 64),
    ];
    let mut designs = Vec::new();
    for layout in layouts {
        let spec = Arc::new(layout.spec());
        let own = Arc::new(MemoryBackend::new());
        let mut cold = engine().with_backend(Arc::clone(&own));
        let run = cold.analyze(&spec).map_err(|e| e.to_string())?;
        if run.stats.extractions != 1 {
            return Err(format!(
                "{}: cold analysis extracted {} modules, expected 1",
                layout.name, run.stats.extractions
            ));
        }
        for key in own.list_keys().map_err(|e| e.to_string())? {
            let bytes = own.get(&key).map_err(|e| e.to_string())?.expect("listed");
            store.put(&key, &bytes).map_err(|e| e.to_string())?;
        }
        designs.push(WarmDesign {
            digest: timing_digest(&run.timing),
            layout,
            spec,
        });
    }

    let sweep_spec = Layout::array("c432", 4).spec();
    let grid = corner_grid();
    let mut sweep_engine = engine();
    let cold = sweep_engine
        .analyze_sweep(&sweep_spec, &grid, &sweep_options())
        .map_err(|e| e.to_string())?;
    if cold.extractions != cold.distinct_fingerprints || cold.scenarios != grid.len() {
        return Err(format!(
            "cold sweep ran {} extractions for {} fingerprints over {} corners",
            cold.extractions, cold.distinct_fingerprints, cold.scenarios
        ));
    }
    Ok(Fixture {
        library,
        designs,
        store,
        sweep_spec,
        grid,
        sweep_engine,
        sweep_digest: record_digest(&cold.records),
    })
}
