//! Host-noise context printed with every run: diagnostics that make a
//! noisy run explainable, never metrics.

use std::time::Instant;

use sram_serve::Json;

/// Iterations of the fixed spin loop.
const SPIN_ITERS: u64 = 20_000_000;

/// One reading of the host's state.
#[derive(Debug, Clone)]
pub(crate) struct HostReading {
    /// 1-minute load average (`NaN` where `/proc` is missing).
    load1: f64,
    /// Cumulative steal ticks over all CPUs.
    steal_ticks: Option<u64>,
    /// Wall time of the fixed spin loop, in milliseconds.
    spin_ms: f64,
}

/// Reads the host now, including one spin-loop calibration.
pub(crate) fn read() -> HostReading {
    HostReading {
        load1: load_average(),
        steal_ticks: steal_ticks(),
        spin_ms: spin_ms(),
    }
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// The aggregate `cpu` line's eighth value is steal time.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// A fixed integer recurrence: steady to about 3 % on a quiet host, so
/// a slower reading means the run shared its CPU.
fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The context as one JSON object: CPUs, load before and after, steal
/// ticks accrued during the run, and the spin calibration before and
/// after.
pub(crate) fn context(before: &HostReading, after: &HostReading) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let steal = match (before.steal_ticks, after.steal_ticks) {
        (Some(b), Some(a)) => Json::Num(a.saturating_sub(b) as f64),
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("load1_before".into(), Json::Num(before.load1)),
        ("load1_after".into(), Json::Num(after.load1)),
        ("steal_ticks".into(), steal),
        ("spin_ms_before".into(), Json::Num(before.spin_ms)),
        ("spin_ms_after".into(), Json::Num(after.spin_ms)),
    ])
}
