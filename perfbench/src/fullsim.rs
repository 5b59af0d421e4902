//! `fullsim-yield`: one new technology point per op on a fresh
//! simulated-mode framework: characterize the cell, search the coarse
//! space, then Monte Carlo-verify the winner. SPICE DC and transient
//! work does almost everything; the search is a few milliseconds.

use sram_array::Capacity;
use sram_cell::{MarginStats, YieldAnalysis};
use sram_coopt::{
    CoOptimizationFramework, DesignSpace, EnergyDelayProduct, Method, OptimalDesign, RailSelection,
};
use sram_device::VtFlavor;
use sram_serve::{design_json, Json};
use sram_units::Voltage;

use crate::gen::{self, FullsimPoint};
use crate::oracle::{self, Oracle};
use crate::probe::{LayerProbe, Layers};
use crate::spans::Spans;
use crate::{median_setup, Args, Measured};

/// Monte Carlo samples per op.
const MC_SAMPLES: usize = 8;

fn framework(vdd_mv: u32) -> CoOptimizationFramework {
    CoOptimizationFramework::simulated_mode()
        .with_supply(Voltage::from_millivolts(f64::from(vdd_mv)))
        .with_space(DesignSpace::coarse())
}

/// What one op produced.
struct OpOutput {
    cell_vddc_mv: f64,
    cell_vwl_mv: f64,
    design: OptimalDesign,
    yield_: YieldAnalysis,
}

impl OpOutput {
    /// The checked form: rails, design and μ/σ per margin.
    fn to_json(&self) -> Json {
        let margin = |m: &MarginStats| {
            Json::Obj(vec![
                ("mean_mv".into(), Json::Num(m.mean.millivolts())),
                ("sigma_mv".into(), Json::Num(m.sigma.millivolts())),
            ])
        };
        Json::Obj(vec![
            ("cell_vddc_mv".into(), Json::Num(self.cell_vddc_mv)),
            ("cell_vwl_mv".into(), Json::Num(self.cell_vwl_mv)),
            ("design".into(), design_json(&self.design)),
            (
                "yield".into(),
                Json::Obj(vec![
                    ("hsnm".into(), margin(&self.yield_.hsnm)),
                    ("rsnm".into(), margin(&self.yield_.rsnm)),
                    ("wm".into(), margin(&self.yield_.wm)),
                ]),
            ),
        ])
    }
}

/// Span recorder for the traced pass, or nothing when untraced.
type Trace<'a> = Option<(&'a mut Spans, u64, usize)>;

/// Times `f` as a child span when tracing, or just runs it.
fn step<T>(trace: &mut Trace<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((spans, op, root)) => spans.time(name, *op, Some(*root), |_, _| f()).0,
        None => f(),
    }
}

/// One op on a fresh framework.
fn op(p: &FullsimPoint, trace: &mut Trace<'_>) -> Result<OpOutput, String> {
    let fw = framework(p.vdd_mv);
    let cell = step(trace, "cell.characterize", || {
        fw.characterize_cell(p.flavor, p.method)
    })
    .map_err(|e| format!("{}: characterize: {e}", p.key()))?;
    let design = step(trace, "coopt.optimize", || {
        fw.optimize_with_cell(
            &cell,
            Capacity::from_bytes(p.capacity_bytes as usize),
            p.flavor,
            p.method,
            &EnergyDelayProduct,
        )
    })
    .map_err(|e| format!("{}: optimize: {e}", p.key()))?;
    let yield_ = step(trace, "cell.mc", || {
        fw.verify_statistical_yield(&design, MC_SAMPLES)
    })
    .map_err(|e| format!("{}: yield: {e}", p.key()))?;
    Ok(OpOutput {
        cell_vddc_mv: cell.vddc().millivolts(),
        cell_vwl_mv: cell.vwl().millivolts(),
        design,
        yield_,
    })
}

/// Set-up: bring up a simulated-mode framework and characterize the
/// nominal LVT/M2 cell, the step a user pays before a first query.
fn setup() -> Result<(), String> {
    framework(gen::NOMINAL_MV)
        .characterize_cell(VtFlavor::Lvt, Method::M2)
        .map(|_| ())
        .map_err(|e| format!("set-up characterization: {e}"))
}

/// Mean |simulated − published| of the M2 `V_DDC` and `V_WL` minimums
/// at the nominal supply, in millivolts.
fn rail_gap_mv(outputs: &[(FullsimPoint, Json)]) -> f64 {
    let mut gaps = Vec::new();
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        let Some((_, out)) = outputs.iter().find(|(p, _)| {
            p.vdd_mv == gen::NOMINAL_MV && p.flavor == flavor && p.method == Method::M2
        }) else {
            continue;
        };
        let (vddc, vwl) = RailSelection::paper_minimums(flavor);
        let field = |f| out.get(f).and_then(Json::as_f64).unwrap_or(f64::NAN);
        gaps.push((field("cell_vddc_mv") - vddc.millivolts()).abs());
        gaps.push((field("cell_vwl_mv") - vwl.millivolts()).abs());
    }
    if gaps.len() == 4 {
        gaps.iter().sum::<f64>() / 4.0
    } else {
        f64::NAN
    }
}

/// Runs the workload. Untraced: whole passes until the run length.
/// Traced: the first quarter of one pass untraced, as the baseline,
/// then one traced pass.
pub(crate) fn run(args: &Args) -> Result<Measured, String> {
    let oracle = Oracle::load("fullsim-yield")?;
    let (setup_s, ()) = median_setup(setup)?;
    let ops = gen::fullsim_ops(args.seed);
    let (results, cost) = crate::run_passes(args, ops.len(), |_, i| {
        Ok(op(&ops[i], &mut None).map(|o| o.to_json()))
    })?;

    let mut m = Measured::new(setup_s, cost);
    let baseline_ns: Vec<u64> = results.iter().map(|(_, _, ns)| *ns).collect();
    let mut first_pass = Vec::new();
    for (n, (i, out, ns)) in results.into_iter().enumerate() {
        let p = ops[i];
        match out.and_then(|json| oracle.check(&p.key(), &json).map(|()| json)) {
            Ok(json) => {
                m.samples.push(Some(ns));
                if n < ops.len() {
                    first_pass.push((p, json));
                }
            }
            Err(e) => m.fail(e),
        }
    }

    if args.trace {
        traced(&oracle, &ops, &baseline_ns, &mut m);
    } else {
        m.notes.push(("rail_gap_mv", rail_gap_mv(&first_pass)));
    }
    Ok(m)
}

/// One traced pass over the same points.
fn traced(oracle: &Oracle, ops: &[FullsimPoint], baseline_ns: &[u64], m: &mut Measured) {
    let mut spans = Spans::new();
    let probe = LayerProbe::start();
    let (mut examined, mut feasible) = (0.0, 0.0);
    let mut traced_ns = Vec::with_capacity(ops.len());
    for (i, p) in ops.iter().enumerate() {
        let (out, op_ns) = spans.time("op", i as u64, None, |s, root| {
            op(p, &mut Some((s, i as u64, root)))
        });
        traced_ns.push(op_ns);
        match out.and_then(|o| oracle.check(&p.key(), &o.to_json()).map(|()| o)) {
            Ok(o) => {
                examined += o.design.stats.examined as f64;
                feasible += o.design.stats.feasible as f64;
            }
            Err(e) => m.fail_traced(e),
        }
    }
    let counts = probe.finish();
    let n = ops.len() as f64;
    let op_ns = spans.total_ns("op");
    let characterize_ns = spans.total_ns("cell.characterize");
    // `optimize_with_cell` re-derives the rails by simulation before it
    // searches; whatever of its time the search histogram does not
    // cover is that rail pass.
    let rails_ns = (spans.total_ns("coopt.optimize") - counts.hist_sum("coopt.search_ns")).max(0.0);
    let mc_ns = spans.total_ns("cell.mc");
    let mut layers = Layers::from_probe(&counts, ops.len());
    layers.search(examined, feasible, ops.len());
    layers.set("cell.characterize_ms", characterize_ns / n / 1e6);
    layers.set("coopt.rails_ms", rails_ns / n / 1e6);
    layers.set(
        "probe.trace_overhead_ratio",
        crate::stats::overhead(baseline_ns, &traced_ns),
    );
    layers.set(
        "layer.dominant_share",
        (characterize_ns + rails_ns + mc_ns) / op_ns,
    );
    m.traced_ops = ops.len();
    m.layers = layers.into_map();
    m.spans = Some(spans);
}

/// Regenerates the reference outputs over the whole universe.
///
/// # Errors
///
/// Any failing op: the oracle must cover the universe.
pub(crate) fn write_oracle() -> Result<String, String> {
    let mut out = String::new();
    for p in gen::fullsim_universe() {
        let o = op(&p, &mut None)?;
        out.push_str(&oracle::entry(&p.key(), o.to_json()));
        out.push('\n');
    }
    Ok(out)
}
