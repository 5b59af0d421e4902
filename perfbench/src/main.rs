//! `perfbench` — the repository benchmark: three seeded, closed-loop
//! workloads over the public APIs of the `sram-edp` stack, each driven
//! by one client with one request outstanding, in its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-sweep|fullsim-yield|tcp-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, a separate traced pass). The line before it carries
//! host-noise context and workload diagnostics. See `README.md` for the
//! workloads, the metric map and the oracle.
//!
//! `--write-oracle <workload>` regenerates a reference file from the
//! current program instead of measuring.

mod fullsim;
mod gen;
mod host;
mod oracle;
mod probe;
mod report;
mod search;
mod spans;
mod stats;
mod tcp;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;
use sram_serve::Json;
use stats::{Sample, Summary};

/// Least set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Set-up repeats until at least this many seconds have passed.
const SETUP_MIN_S: f64 = 0.5;

/// Most set-up repetitions per run.
const SETUP_MAX_REPS: usize = 10_000;

/// Failure messages kept for the diagnostics line.
const KEPT_ERRORS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SearchSweep,
    FullsimYield,
    TcpMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "search-sweep" => Ok(Self::SearchSweep),
            "fullsim-yield" => Ok(Self::FullsimYield),
            "tcp-mixed" => Ok(Self::TcpMixed),
            other => Err(format!(
                "unknown workload {other:?} (expected search-sweep|fullsim-yield|tcp-mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::SearchSweep => "search-sweep",
            Self::FullsimYield => "fullsim-yield",
            Self::TcpMixed => "tcp-mixed",
        }
    }
}

/// Command-line arguments of a measured run.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub(crate) seed: u64,
    /// Run length: whole passes (or requests) until this many seconds.
    pub(crate) seconds: u64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub(crate) trace: bool,
}

enum Command {
    Measure(Args),
    WriteOracle(Workload),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--write-oracle" => return Ok(Command::WriteOracle(Workload::parse(value()?)?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Command::Measure(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// Refuses to measure a program a stray setting could alter, and pins
/// the observability state through the public probe API.
fn isolate() -> Result<(), String> {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("SRAM_"))
        .collect();
    if !stray.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: it can change what the program does",
            stray.join(", ")
        ));
    }
    sram_probe::set_level(sram_probe::Level::Off);
    sram_probe::trace::set_tracing(false);
    if sram_faults::enabled() {
        return Err("refusing to measure with a fault plan installed".into());
    }
    Ok(())
}

/// Wall time, CPU time and memory peak of a measured loop.
pub(crate) struct LoopCost {
    /// Wall time, in seconds.
    pub(crate) elapsed_s: f64,
    /// CPU time of every thread of the process, in seconds.
    pub(crate) cpu_s: f64,
    /// Peak resident set right after the loop (`VmHWM`), in MB.
    pub(crate) peak_rss_mb: f64,
}

/// Runs the measured loop `f` and records what it cost.
pub(crate) fn measured_loop<T>(
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, LoopCost), String> {
    let cpu_before = cpu_ns();
    let start = Instant::now();
    let out = f()?;
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_ns().saturating_sub(cpu_before) as f64 / 1e9;
    Ok((
        out,
        LoopCost {
            elapsed_s,
            cpu_s,
            peak_rss_mb: peak_rss_mb(),
        },
    ))
}

/// One op of a pass: its index in the op list, its output, its latency
/// in nanoseconds.
pub(crate) type OpRecord<T> = (usize, T, u64);

/// The untraced loop of a pass-based workload: whole passes over `n`
/// ops until the run length is reached (at least one), or, in a traced
/// run, one pass over the first quarter as the traced pass's baseline.
/// `op` gets `(pass, index)`; the result holds `(index, output, ns)`
/// per op, in order.
pub(crate) fn run_passes<T>(
    args: &Args,
    n: usize,
    mut op: impl FnMut(usize, usize) -> Result<T, String>,
) -> Result<(Vec<OpRecord<T>>, LoopCost), String> {
    let len = if args.trace { n / 4 } else { n };
    measured_loop(|| {
        let mut out = Vec::new();
        let start = Instant::now();
        let mut pass = 0;
        while pass == 0 || (!args.trace && start.elapsed().as_secs_f64() < args.seconds as f64) {
            for i in 0..len {
                let t = Instant::now();
                let value = op(pass, i)?;
                out.push((i, value, t.elapsed().as_nanos() as u64));
            }
            pass += 1;
        }
        Ok(out)
    })
}

/// On-CPU time of the process's live threads, in nanoseconds: the first
/// field of each `/proc/self/task/*/schedstat`. Time stolen by the
/// hypervisor or spent waiting for a CPU is not in it.
fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one workload run measured.
pub(crate) struct Measured {
    /// Every untraced op attempted, in order (`None` = failed).
    pub(crate) samples: Vec<Sample>,
    /// Median set-up time, in seconds.
    pub(crate) setup_s: f64,
    /// What the untraced loop cost.
    pub(crate) cost: LoopCost,
    /// Ops of the traced pass.
    pub(crate) traced_ops: usize,
    /// Ops of the traced pass that failed.
    pub(crate) traced_failed: usize,
    /// The first few failure messages.
    pub(crate) errors: Vec<String>,
    /// Workload diagnostics such as `paper_gap_pp`.
    pub(crate) notes: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub(crate) layers: BTreeMap<&'static str, f64>,
    /// The traced pass's spans (traced runs only).
    pub(crate) spans: Option<Spans>,
}

impl Measured {
    /// An empty record for a run with this set-up time and loop cost.
    pub(crate) fn new(setup_s: f64, cost: LoopCost) -> Self {
        Self {
            samples: Vec::new(),
            setup_s,
            cost,
            traced_ops: 0,
            traced_failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            layers: BTreeMap::new(),
            spans: None,
        }
    }

    fn keep(&mut self, error: String) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(error);
        }
    }

    /// Records a failed untraced op.
    pub(crate) fn fail(&mut self, error: String) {
        self.samples.push(None);
        self.keep(error);
    }

    /// Records a failed op of the traced pass.
    pub(crate) fn fail_traced(&mut self, error: String) {
        self.traced_failed += 1;
        self.keep(error);
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and until [`SETUP_MIN_S`]
/// have passed, dropping each previous result before timing the next;
/// returns the median time and the last result. A set-up of
/// microseconds is repeated thousands of times, so its median holds
/// still between runs.
pub(crate) fn median_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((stats::median(&times), value))
}

fn measure(args: &Args) -> Result<(), String> {
    isolate()?;
    let before = host::read();
    let mut m = match args.workload {
        Workload::SearchSweep => search::run(args)?,
        Workload::FullsimYield => fullsim::run(args)?,
        Workload::TcpMixed => tcp::run(args)?,
    };
    let after = host::read();
    let attempted = m.samples.len() + m.traced_ops;
    let failed = m.samples.iter().filter(|s| s.is_none()).count() + m.traced_failed;

    let mut diag: Vec<(String, Json)> = vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("ops".into(), Json::Num(attempted as f64)),
        (
            "failed_ratio".into(),
            Json::Num(stats::failed_ratio(failed, attempted)),
        ),
        ("host".into(), host::context(&before, &after)),
    ];
    for (name, value) in &m.notes {
        diag.push(((*name).into(), Json::Num(*value)));
    }
    if let Some(spans) = m.spans.take() {
        let path = spans.write(args.workload.name(), args.seed)?;
        diag.push((
            "trace_file".into(),
            Json::Str(path.to_string_lossy().into_owned()),
        ));
    }
    let errors = m.errors.iter().map(|e| Json::Str(e.clone())).collect();
    diag.push(("errors".into(), Json::Arr(errors)));
    println!("{}", Json::Obj(diag).render());

    let line = if args.trace {
        report::result_line(
            failed == 0,
            attempted,
            failed,
            &report::PER_LAYER,
            &m.layers,
        )
    } else {
        let summary = Summary::of(&m.samples, m.cost.elapsed_s)?;
        let values: BTreeMap<&'static str, f64> = [
            ("ops_per_s", summary.ops_per_s),
            ("latency_p50_ms", summary.p50_ms),
            ("latency_p90_ms", summary.p90_ms),
            ("cpu_ms_per_op", m.cost.cpu_s * 1e3 / attempted as f64),
            ("peak_rss_mb", m.cost.peak_rss_mb),
            ("setup_s", m.setup_s),
        ]
        .into_iter()
        .collect();
        report::result_line(failed == 0, attempted, failed, &report::END_TO_END, &values)
    };
    println!("{line}");
    Ok(())
}

fn write_oracle(workload: Workload) -> Result<(), String> {
    isolate()?;
    let text = match workload {
        Workload::SearchSweep => search::write_oracle()?,
        Workload::FullsimYield => fullsim::write_oracle()?,
        Workload::TcpMixed => {
            return Err(
                "tcp-mixed is checked against Engine::handle and the search-sweep oracle".into(),
            )
        }
    };
    let path = oracle::path(workload.name());
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|command| match command {
        Command::Measure(args) => measure(&args),
        Command::WriteOracle(workload) => write_oracle(workload),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
