//! Per-layer metrics of a traced pass: the program's own `sram_probe`
//! counters (switched on through the public API for the pass only) plus
//! the benchmark's spans around public calls.

use std::collections::BTreeMap;

use sram_probe::{Level, Snapshot};

use crate::spans::Spans;
use crate::stats::median;

/// Probe counters switched on for one traced pass.
pub(crate) struct LayerProbe {
    before: Snapshot,
}

impl LayerProbe {
    /// Turns counters on and takes the baseline.
    pub(crate) fn start() -> Self {
        sram_probe::set_level(Level::Summary);
        Self {
            before: sram_probe::snapshot(),
        }
    }

    /// Turns counters off and returns what the pass recorded.
    pub(crate) fn finish(self) -> Counts {
        let after = sram_probe::snapshot();
        sram_probe::set_level(Level::Off);
        Counts(after.diff(&self.before))
    }
}

/// Counter and histogram deltas of one traced pass.
pub(crate) struct Counts(Snapshot);

impl Counts {
    /// A counter's delta (0 when never registered).
    pub(crate) fn counter(&self, name: &str) -> f64 {
        self.0.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A histogram's summed samples (nanoseconds for `*_ns` spans).
    pub(crate) fn hist_sum(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.sum as f64)
    }

    fn hist_count(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.count as f64)
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of a span's durations in microseconds (0 when absent).
fn median_us(spans: &Spans, name: &str) -> f64 {
    let d = spans.durations(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) / 1e3
    }
}

/// The per-layer metric values of one traced run.
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Metrics every workload derives from the probe counters: search
    /// time and throughput, and the SPICE work per op.
    pub(crate) fn from_probe(c: &Counts, ops: usize) -> Self {
        let ops = ops as f64;
        let search_ns = c.hist_sum("coopt.search_ns");
        let solves = c.counter("spice.dc_solves");
        let mut m = BTreeMap::new();
        m.insert(
            "coopt.search_ms",
            ratio(search_ns, c.hist_count("coopt.search_ns")) / 1e6,
        );
        m.insert(
            "coopt.points_per_s",
            ratio(c.counter("coopt.candidates_examined"), search_ns / 1e9),
        );
        m.insert("spice.dc_solves_per_query", ratio(solves, ops));
        m.insert(
            "spice.newton_iters_per_solve",
            ratio(c.counter("spice.newton_iterations"), solves),
        );
        m.insert(
            "spice.dc_nonconvergent_per_query",
            ratio(c.counter("spice.dc_nonconvergent"), ops),
        );
        m.insert(
            "spice.transient_steps_per_query",
            ratio(c.counter("spice.transient_steps"), ops),
        );
        m.insert(
            "spice.dc_solve_us",
            ratio(c.hist_sum("spice.dc_solve_ns"), solves) / 1e3,
        );
        m.insert(
            "cell.mc_sample_ms",
            ratio(c.hist_sum("cell.mc_run_ns"), c.counter("cell.mc_samples")) / 1e6,
        );
        Self(m)
    }

    /// Candidate counts from the designs' own search statistics.
    pub(crate) fn search(&mut self, examined: f64, feasible: f64, ops: usize) {
        self.set("coopt.candidates_per_query", ratio(examined, ops as f64));
        self.set("coopt.feasible_ratio", ratio(feasible, examined));
    }

    /// Medians of the in-process serve spans (absent spans read 0).
    pub(crate) fn serve_in_process(&mut self, spans: &Spans) {
        self.set("serve.parse_us", median_us(spans, "serve.parse"));
        self.set("serve.engine_hit_us", median_us(spans, "serve.engine_hit"));
        self.set(
            "serve.engine_miss_us",
            median_us(spans, "serve.engine_miss"),
        );
        self.set("serve.render_us", median_us(spans, "serve.render"));
        self.set("array.eval_us", median_us(spans, "array.eval"));
    }

    /// Sets one metric.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The values, keyed by metric name.
    pub(crate) fn into_map(self) -> BTreeMap<&'static str, f64> {
        self.0
    }
}
