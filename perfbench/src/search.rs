//! `search-sweep`: in-process `Engine::handle` over the paper's full
//! design space, every op a cache miss. Search and array-model eval do
//! nearly all the work; there is no SPICE.

use sram_coopt::{CoOptimizationFramework, Method};
use sram_device::VtFlavor;
use sram_serve::{CacheConfig, Engine, Json, Request};

use crate::gen::{self, OptimizeKey};
use crate::oracle::{self, Oracle};
use crate::probe::{LayerProbe, Layers};
use crate::spans::Spans;
use crate::{median_setup, Args, Measured};

/// The paper's headline: HVT-M2 saves 59 % EDP over LVT-M2 on average
/// at 1, 4 and 16 KB.
const PAPER_SAVING_PCT: f64 = 59.0;

/// A paper-mode engine over the full design space, one search thread,
/// with its four per-technology LUTs already built.
fn ready_engine() -> Result<Engine, String> {
    let engine = Engine::new(
        CoOptimizationFramework::paper_mode().with_threads(1),
        CacheConfig::default(),
    );
    // One evaluate-point per technology builds its LUT; the point is
    // outside the optimize universe, so no measured key is pre-cached.
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        for method in [Method::M1, Method::M2] {
            let line = format!(
                r#"{{"op":"evaluate-point","capacity_bytes":1024,"flavor":"{}","method":"{}","rows":16,"vssc_mv":0,"n_pre":1,"n_wr":1}}"#,
                gen::flavor_wire(flavor),
                gen::method_wire(method)
            );
            let request = Request::from_line(&line).map_err(|e| e.to_string())?;
            let reply = engine.handle(&request);
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("LUT warm-up failed: {}", reply.render()));
            }
        }
    }
    Ok(engine)
}

/// One op: parse the line, handle it, render the reply.
fn op(engine: &Engine, line: &str) -> String {
    match Request::from_line(line) {
        Ok(request) => engine.handle(&request).render(),
        Err(e) => format!("parse error: {e}"),
    }
}

/// Checks one rendered reply: a fresh (`cached: false`) success whose
/// design matches the reference. Returns the design on success.
fn verify(oracle: &Oracle, key: &OptimizeKey, reply: &str) -> Result<Json, String> {
    let json = Json::parse(reply).map_err(|e| format!("{}: unparsable reply: {e}", key.line()))?;
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{}: {reply}", key.line()));
    }
    if json.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{}: expected a cache miss", key.line()));
    }
    let result = json
        .get("result")
        .ok_or_else(|| format!("{}: no result", key.line()))?;
    oracle.check(&key.line(), result)?;
    Ok(result.clone())
}

/// |average HVT-M2 vs LVT-M2 EDP saving at 1, 4, 16 KB − 59 %|, in
/// percentage points, from one pass's verified designs.
fn paper_gap_pp(designs: &[(OptimizeKey, Json)]) -> f64 {
    let edp = |bytes: u64, flavor: VtFlavor| {
        designs
            .iter()
            .find(|(k, _)| k.is_paper_gap_case() && k.capacity_bytes == bytes && k.flavor == flavor)
            .and_then(|(_, d)| d.get("edp_js").and_then(Json::as_f64))
    };
    let savings: Vec<f64> = [1024, 4096, 16384]
        .iter()
        .filter_map(|&b| Some(1.0 - edp(b, VtFlavor::Hvt)? / edp(b, VtFlavor::Lvt)?))
        .collect();
    if savings.len() < 3 {
        return f64::NAN;
    }
    (savings.iter().sum::<f64>() / 3.0 * 100.0 - PAPER_SAVING_PCT).abs()
}

/// Runs the workload. Untraced: whole passes until the run length,
/// each on a fresh engine so every op misses. Traced: the first quarter
/// of one pass untraced, as the baseline, then one traced pass.
pub(crate) fn run(args: &Args) -> Result<Measured, String> {
    let oracle = Oracle::load("search-sweep")?;
    let (setup_s, mut engine) = median_setup(ready_engine)?;
    let ops = gen::search_ops(args.seed);
    // A later pass runs on a fresh engine; its ~40 µs build lands in
    // that pass's first op.
    let (replies, cost) = crate::run_passes(args, ops.len(), |pass, i| {
        if pass > 0 && i == 0 {
            engine = ready_engine()?;
        }
        Ok(op(&engine, &ops[i].line()))
    })?;

    let mut m = Measured::new(setup_s, cost);
    let mut first_pass: Vec<(OptimizeKey, Json)> = Vec::new();
    for (n, (i, reply, ns)) in replies.iter().enumerate() {
        match verify(&oracle, &ops[*i], reply) {
            Ok(design) => {
                m.samples.push(Some(*ns));
                if n < ops.len() {
                    first_pass.push((ops[*i], design));
                }
            }
            Err(e) => m.fail(e),
        }
    }

    if args.trace {
        let baseline_ns: Vec<u64> = replies.iter().map(|(_, _, ns)| *ns).collect();
        traced(&oracle, &ops, &baseline_ns, &mut m)?;
    } else {
        m.notes.push(("paper_gap_pp", paper_gap_pp(&first_pass)));
    }
    Ok(m)
}

/// One traced pass over the same ops: the benchmark's spans around the
/// parse, handle and render calls, plus the program's probe counters.
fn traced(
    oracle: &Oracle,
    ops: &[OptimizeKey],
    baseline_ns: &[u64],
    m: &mut Measured,
) -> Result<(), String> {
    let engine = ready_engine()?;
    let mut spans = Spans::new();
    let probe = LayerProbe::start();
    let (mut examined, mut feasible) = (0.0, 0.0);
    let mut traced_ns = Vec::with_capacity(ops.len());
    for (i, key) in ops.iter().enumerate() {
        let line = key.line();
        let (reply, op_ns) = spans.time("op", i as u64, None, |s, root| {
            let (request, _) = s.time("serve.parse", i as u64, Some(root), |_, _| {
                Request::from_line(&line)
            });
            let request = request.map_err(|e| e.to_string())?;
            let (json, _) = s.time("serve.engine_miss", i as u64, Some(root), |_, _| {
                engine.handle(&request)
            });
            let (text, _) = s.time("serve.render", i as u64, Some(root), |_, _| json.render());
            Ok::<String, String>(text)
        });
        traced_ns.push(op_ns);
        match reply.and_then(|r| verify(oracle, key, &r)) {
            Ok(design) => {
                let stat = |f| {
                    design
                        .get("stats")
                        .and_then(|s| s.get(f))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                examined += stat("examined");
                feasible += stat("feasible");
            }
            Err(e) => m.fail_traced(e),
        }
    }
    let counts = probe.finish();
    let op_ns = spans.total_ns("op");
    let mut layers = Layers::from_probe(&counts, ops.len());
    layers.search(examined, feasible, ops.len());
    layers.serve_in_process(&spans);
    layers.set(
        "probe.trace_overhead_ratio",
        crate::stats::overhead(baseline_ns, &traced_ns),
    );
    layers.set(
        "layer.dominant_share",
        counts.hist_sum("coopt.search_ns") / op_ns,
    );
    m.traced_ops = ops.len();
    m.layers = layers.into_map();
    m.spans = Some(spans);
    Ok(())
}

/// Regenerates the reference outputs over the whole universe.
///
/// # Errors
///
/// Any failing op: the oracle must cover the universe.
pub(crate) fn write_oracle() -> Result<String, String> {
    let engine = ready_engine()?;
    let mut out = String::new();
    for key in gen::search_universe() {
        let reply = Json::parse(&op(&engine, &key.line())).map_err(|e| e.to_string())?;
        let result = reply
            .get("result")
            .ok_or_else(|| format!("{}: {}", key.line(), reply.render()))?;
        out.push_str(&oracle::entry(&key.line(), result.clone()));
        out.push('\n');
    }
    Ok(out)
}
