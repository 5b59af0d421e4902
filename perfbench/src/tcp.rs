//! `tcp-mixed`: a real `Server` on loopback driven by one `Client`
//! connection with one request outstanding. Half the requests re-read
//! a hot set of cached `optimize` results; the other half are distinct
//! `evaluate-point` misses that each run one array eval and insert
//! into the result cache until its byte budget evicts. Parse, queue,
//! cache, serialize and socket do almost all the work.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sram_array::{ArrayModel, ArrayOrganization, Capacity};
use sram_cell::CellCharacterization;
use sram_coopt::{CoOptimizationFramework, Method};
use sram_device::VtFlavor;
use sram_serve::{
    fnv1a64, CacheConfig, Client, Engine, Json, Query, Request, Server, ServerConfig,
};
use sram_units::Voltage;

use crate::gen::{OptimizeKey, TcpStream};
use crate::oracle::Oracle;
use crate::probe::{LayerProbe, Layers};
use crate::spans::Spans;
use crate::stats::median;
use crate::{median_setup, Args, Measured};

/// Requests in the traced pass: a fixed count, so its ratios repeat
/// exactly between traced runs of one seed.
const TRACED_REQUESTS: u64 = 40_000;

/// How long the client waits for one reply before counting a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The engine every node and the in-process reference share: paper
/// mode over the full design space, one search thread, default cache.
fn engine() -> Engine {
    Engine::new(
        CoOptimizationFramework::paper_mode().with_threads(1),
        CacheConfig::default(),
    )
}

/// A running server, its engine, and the one client connection.
struct Node {
    // Field order is drop order: the connection closes before the
    // server shuts down.
    client: Client,
    server: Server,
    engine: Arc<Engine>,
}

impl Node {
    /// Starts a server with persistence off, connects, and warms the hot
    /// set through the socket.
    fn start(hot: &[OptimizeKey]) -> Result<Self, String> {
        let engine = Arc::new(engine());
        let config = ServerConfig {
            cache_file: None,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&engine), config).map_err(|e| e.to_string())?;
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        client
            .set_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        for key in hot {
            let reply = client.call_line(&key.line()).map_err(|e| e.to_string())?;
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("hot-set warm-up failed: {}", reply.render()));
            }
        }
        Ok(Self {
            client,
            server,
            engine,
        })
    }

    /// Closes the connection, then shuts the server down and joins its
    /// threads.
    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Runs the workload. Untraced: requests until the run length. Traced:
/// [`TRACED_REQUESTS`] untraced requests as the baseline, then the traced
/// pass. Each reply is kept as a hash and checked after the server stops.
pub(crate) fn run(args: &Args) -> Result<Measured, String> {
    let search_oracle = Oracle::load("search-sweep")?;
    let hot: Vec<OptimizeKey> = TcpStream::new(args.seed).hot().to_vec();
    let (setup_s, mut node) = median_setup(|| Node::start(&hot))?;

    let mut stream = TcpStream::new(args.seed);
    let (records, cost) = crate::measured_loop(|| {
        let mut records: Vec<(Option<u64>, u64)> = Vec::new();
        let start = Instant::now();
        let more = |n: usize| {
            if args.trace {
                n < TRACED_REQUESTS as usize
            } else {
                start.elapsed().as_secs_f64() < args.seconds as f64
            }
        };
        while more(records.len()) {
            let (line, _) = stream.next_op();
            let t = Instant::now();
            let reply = node.client.call_line(&line);
            let ns = t.elapsed().as_nanos() as u64;
            records.push((reply.ok().map(|j| fnv1a64(j.render().as_bytes())), ns));
        }
        Ok(records)
    })?;
    node.stop();

    let mut m = Measured::new(setup_s, cost);
    let mut reference = Reference::new(&hot, &search_oracle)?;
    let mut stream = TcpStream::new(args.seed);
    for (hash, ns) in &records {
        let (line, is_hot) = stream.next_op();
        let expected = reference.reply(&line, is_hot);
        match (hash, expected) {
            (Some(h), Ok(text)) if *h == fnv1a64(text.as_bytes()) => m.samples.push(Some(*ns)),
            (None, _) => m.fail(format!("{line}: no reply")),
            (Some(_), Ok(_)) => m.fail(format!("{line}: TCP reply differs from Engine::handle")),
            (Some(_), Err(e)) => m.fail(e),
        }
    }

    if args.trace {
        let baseline_ns: Vec<u64> = records.iter().map(|(_, ns)| *ns).collect();
        traced(args, &hot, &search_oracle, &baseline_ns, &mut m)?;
    }
    Ok(m)
}

/// The in-process oracle: a fresh engine fed the same lines in the same
/// order, so its replies — `cached` flags included — are what every TCP
/// reply must equal byte for byte.
struct Reference<'a> {
    engine: Engine,
    search_oracle: &'a Oracle,
    checked_hot: HashSet<String>,
}

impl<'a> Reference<'a> {
    fn new(hot: &[OptimizeKey], search_oracle: &'a Oracle) -> Result<Self, String> {
        let reference = Self {
            engine: engine(),
            search_oracle,
            checked_hot: HashSet::new(),
        };
        for key in hot {
            reference.handle(&key.line())?;
        }
        Ok(reference)
    }

    fn handle(&self, line: &str) -> Result<Json, String> {
        let request = Request::from_line(line).map_err(|e| format!("{line}: {e}"))?;
        Ok(self.engine.handle(&request))
    }

    /// The expected reply to `line`, checked by [`Self::check`].
    fn reply(&mut self, line: &str, hot: bool) -> Result<String, String> {
        let json = self.handle(line)?;
        self.check(line, &json, hot)?;
        Ok(json.render())
    }

    /// Checks an in-process reply: a success, a cache hit exactly when
    /// `hot`, and — for a hot key seen the first time — the reference
    /// design.
    fn check(&mut self, line: &str, json: &Json, hot: bool) -> Result<(), String> {
        if json.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("{line}: {}", json.render()));
        }
        if json.get("cached").and_then(Json::as_bool) != Some(hot) {
            return Err(format!("{line}: expected cached={hot}"));
        }
        if hot && self.checked_hot.insert(line.to_string()) {
            let result = json
                .get("result")
                .ok_or_else(|| format!("{line}: no result"))?;
            self.search_oracle.check(line, result)?;
        }
        Ok(())
    }
}

/// The array-model inputs of an `evaluate-point` request, evaluated
/// directly through `sram-array` with the engine's own LUT.
fn array_eval(
    engine: &Engine,
    cells: &[(VtFlavor, Method, CellCharacterization)],
    request: &Request,
) -> Result<(), String> {
    let Query::EvaluatePoint {
        capacity_bytes,
        flavor,
        method,
        rows,
        vssc_mv,
        n_pre,
        n_wr,
    } = request.query
    else {
        return Ok(());
    };
    let cell = cells
        .iter()
        .find(|(f, m, _)| *f == flavor && *m == method)
        .map(|(_, _, c)| c)
        .ok_or("no LUT for the request's technology")?;
    let fw = engine.framework();
    let bits = Capacity::from_bytes(capacity_bytes as usize).bits();
    let org = ArrayOrganization::new(rows, (bits / rows as usize) as u32, fw.word_bits())
        .map_err(|e| e.to_string())?;
    ArrayModel::new(org, cell, fw.periphery(), fw.params())
        .with_precharge_fins(n_pre)
        .with_write_fins(n_wr)
        .with_vssc(Voltage::from_millivolts(vssc_mv as f64))
        .evaluate()
        .map(|metrics| {
            std::hint::black_box(metrics);
        })
        .map_err(|e| e.to_string())
}

/// A traced pass of [`TRACED_REQUESTS`] requests. First over TCP on a
/// fresh server with the program's probe counters on, back to back as
/// in the untraced run; then the same lines in process on a fresh
/// reference engine — parse, engine (hit or miss), render — and, for a
/// miss, its array eval alone.
fn traced(
    args: &Args,
    hot: &[OptimizeKey],
    search_oracle: &Oracle,
    baseline_ns: &[u64],
    m: &mut Measured,
) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut node = Node::start(hot)?;
    let before = node.engine.cache_counters();
    let probe = LayerProbe::start();
    let mut stream = TcpStream::new(args.seed);
    let mut replies: Vec<Option<u64>> = Vec::with_capacity(TRACED_REQUESTS as usize);
    let mut tcp_ns = Vec::with_capacity(TRACED_REQUESTS as usize);
    for i in 0..TRACED_REQUESTS {
        let (line, _) = stream.next_op();
        let (reply, ns) = spans.time("tcp.call", i, None, |_, _| node.client.call_line(&line));
        replies.push(reply.ok().map(|j| fnv1a64(j.render().as_bytes())));
        tcp_ns.push(ns);
    }
    let counts = probe.finish();
    let after = node.engine.cache_counters();
    node.stop();

    let mut reference = Reference::new(hot, search_oracle)?;
    let cells: Vec<(VtFlavor, Method, CellCharacterization)> = [
        (VtFlavor::Lvt, Method::M1),
        (VtFlavor::Lvt, Method::M2),
        (VtFlavor::Hvt, Method::M1),
        (VtFlavor::Hvt, Method::M2),
    ]
    .into_iter()
    .map(|(f, me)| {
        reference
            .engine
            .framework()
            .characterize_cell(f, me)
            .map(|c| (f, me, c))
            .map_err(|e| e.to_string())
    })
    .collect::<Result<_, _>>()?;
    let mut serve_ns = Vec::with_capacity(TRACED_REQUESTS as usize);
    let mut stream = TcpStream::new(args.seed);
    for (i, reply) in (0..TRACED_REQUESTS).zip(&replies) {
        let (line, is_hot) = stream.next_op();
        let engine_span = if is_hot {
            "serve.engine_hit"
        } else {
            "serve.engine_miss"
        };
        let (expected, _) = spans.time("in_process", i, None, |s, root| {
            let (request, parse_ns) = s.time("serve.parse", i, Some(root), |_, _| {
                Request::from_line(&line)
            });
            let request = request.map_err(|e| format!("{line}: {e}"))?;
            let (json, engine_ns) = s.time(engine_span, i, Some(root), |_, _| {
                reference.engine.handle(&request)
            });
            let (text, render_ns) = s.time("serve.render", i, Some(root), |_, _| json.render());
            if !is_hot {
                s.time("array.eval", i, Some(root), |_, _| {
                    array_eval(&reference.engine, &cells, &request)
                })
                .0?;
            }
            Ok::<_, String>((json, text, parse_ns + engine_ns + render_ns))
        });
        let checked = expected.and_then(|(json, text, ns)| {
            reference.check(&line, &json, is_hot)?;
            Ok((text, ns))
        });
        match (reply, checked) {
            (Some(h), Ok((text, ns))) if *h == fnv1a64(text.as_bytes()) => serve_ns.push(ns as f64),
            (None, _) => m.fail_traced(format!("{line}: no reply")),
            (Some(_), Ok(_)) => {
                m.fail_traced(format!("{line}: TCP reply differs from Engine::handle"))
            }
            (Some(_), Err(e)) => m.fail_traced(e),
        }
    }

    let n = TRACED_REQUESTS as f64;
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    let tcp_total = spans.total_ns("tcp.call");
    let mut layers = Layers::from_probe(&counts, TRACED_REQUESTS as usize);
    layers.serve_in_process(&spans);
    layers.set(
        "serve.wire_gap_us",
        (median(&spans.durations("tcp.call")) - median(&serve_ns)) / 1e3,
    );
    layers.set("serve.cache_hit_ratio", hits / lookups.max(1.0));
    layers.set(
        "serve.cache_evictions_per_1k",
        (after.evictions - before.evictions) as f64 / n * 1e3,
    );
    layers.set(
        "probe.trace_overhead_ratio",
        crate::stats::overhead(baseline_ns, &tcp_ns),
    );
    layers.set(
        "layer.dominant_share",
        1.0 - spans.total_ns("array.eval") / tcp_total,
    );
    m.traced_ops = TRACED_REQUESTS as usize;
    m.layers = layers.into_map();
    m.spans = Some(spans);
    Ok(())
}
