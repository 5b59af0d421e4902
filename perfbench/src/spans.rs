//! The benchmark's own spans, recorded around public calls into each
//! layer during the traced pass, kept in memory and written out as a
//! Chrome trace when the run ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// An in-memory span recorder.
pub(crate) struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of op `op` under `parent`;
    /// returns its result and the span's index.
    pub(crate) fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> (T, u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            dur_ns: 0,
        });
        let out = f(self, index);
        let dur_ns = self.now_ns() - start_ns;
        self.spans[index].dur_ns = dur_ns;
        (out, dur_ns)
    }

    /// Durations in nanoseconds of every span named `name`.
    pub(crate) fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Sum of the durations of every span named `name`, in nanoseconds.
    pub(crate) fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Chrome trace-event JSON (complete `X` events; the op id rides in
    /// `args` so one request's spans can be grouped).
    pub(crate) fn chrome_json(&self) -> String {
        let mut out = String::from(r#"{"traceEvents":["#);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"name":"{}","ph":"X","pid":1,"tid":1,"ts":{},"dur":{},"args":{{"op":{},"span":{i},"parent":{parent}}}}}"#,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes the Chrome trace under the benchmark's `out/` directory
    /// and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as text.
    pub(crate) fn write(&self, workload: &str, seed: u64) -> Result<PathBuf, String> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        std::fs::write(&path, self.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_duration() {
        let mut spans = Spans::new();
        let (inner, outer_ns) = spans.time("op", 7, None, |s, root| {
            s.time("child", 7, Some(root), |_, _| 42).0
        });
        assert_eq!(inner, 42);
        assert_eq!(spans.durations("op").len(), 1);
        assert!(spans.total_ns("child") <= outer_ns as f64);
        let json = sram_serve::Json::parse(&spans.chrome_json()).unwrap();
        let events = json
            .get("traceEvents")
            .and_then(sram_serve::Json::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(sram_serve::Json::as_u64), Some(0));
    }
}
