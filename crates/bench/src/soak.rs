//! `chaos-soak`, `telemetry-soak`, `cluster-soak` and `trace-soak`: one
//! soak driver over a table of scenarios.
//!
//! Each [`Scenario`] row names what differs between the soaks: the
//! topology (one [`Server`], or three nodes behind a [`Router`]), the
//! request-line generator, the fault plan, the client and wave counts,
//! a reply hook, one extra phase, and the invariant list. Everything
//! else is shared: the client loop (id echo, resend on `internal` and
//! `busy`, reconnect on a dropped connection, a timeout is a hang), the
//! concurrent wave and its [`Tally`], the id-echo epilogue that catches
//! doubled or dropped replies, and the probe delta
//! (`sram_probe::snapshot().diff(&baseline)`, the same delta
//! `reproduce --probe-json` writes).
//!
//! A run produces an [`Outcome`]: rendered text plus a map of named
//! numeric facts — every probe counter and gauge of the scenario's
//! delta under its own name, and the facts the rounds and the extra
//! phase record. Each [`Invariant`] compares one fact against a literal
//! or another fact, so every check lives in exactly one place, and
//! [`report`] prints one line per invariant and names every one that
//! failed. A missing fact reads as 0, as an absent counter does in the
//! probe JSON.
//!
//! Fault plans fire with probability 1 under `max_fires` caps, so the
//! injected totals are timing-independent: which request observes each
//! fault varies, the per-point fire counts never do. The expected
//! counts are the plan's own caps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sram_array::Capacity;
use sram_cluster::affinity::{self, Observation};
use sram_cluster::{collector, stitch, Router, RouterConfig};
use sram_coopt::{CoOptimizationFramework, DesignSpace, EnergyDelayProduct, Method};
use sram_device::VtFlavor;
use sram_faults::{CancelReason, CancelToken, FaultPlan, FaultRule};
use sram_probe::telemetry::{QuantileSnapshot, MAX_QUANTILE_RELATIVE_ERROR};
use sram_serve::{CacheConfig, Client, Engine, Json, Request, ServeError, Server, ServerConfig};

/// Resend budget per request (panics, busy rejections, connection drops
/// and a node kill all trigger resends; a request needing more is hung).
const MAX_ATTEMPTS: usize = 12;
/// Client-side reply timeout — the hang detector.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Worker threads per server or node.
const WORKERS: usize = 2;
/// Job-queue depth per cluster node.
const NODE_QUEUE: usize = 16;
/// Cluster size.
const NODES: usize = 3;
/// Wall budget for the cluster supervisor's evict → respawn → rejoin
/// cycle.
const SUPERVISOR_BUDGET: Duration = Duration::from_secs(120);
/// Wall budget for the cluster to settle back to all-healthy (health
/// verdicts are windowed, so injected errors take a moment to age out).
const SETTLE_BUDGET: Duration = Duration::from_secs(60);
/// Capacities cycled through by the optimize load.
const CAPACITIES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];
/// The telemetry soak's capacities, all warmed before the clean round.
const WARM_CAPACITIES: [u64; 4] = [128, 512, 1024, 4096];

/// One fault rule: fires on every draw at `point` until `cap` fires,
/// sleeping `latency_ms` per fire at latency points.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Injection point.
    pub point: &'static str,
    /// `max_fires`: the exact fire count the soak must observe.
    pub cap: u64,
    /// Injected latency per fire.
    pub latency_ms: u64,
}

const fn fault(point: &'static str, cap: u64) -> Fault {
    Fault {
        point,
        cap,
        latency_ms: 0,
    }
}

const fn slow(cap: u64, latency_ms: u64) -> Fault {
    Fault {
        point: "cell.slow",
        cap,
        latency_ms,
    }
}

/// Where the load goes.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// One in-process [`Server`] over a paper-mode coarse-space engine.
    Server,
    /// [`NODES`] serve nodes behind a [`Router`] (3 replicas, 5 ms
    /// hedge) whose health poller runs every `poll_ms`.
    Cluster {
        /// Health-poll interval in milliseconds.
        poll_ms: u64,
    },
}

/// A fact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `lhs == rhs`.
    Equal,
    /// `lhs >= rhs`.
    AtLeast,
    /// `lhs > rhs`.
    Above,
    /// `lhs <= rhs`.
    AtMost,
}

impl Op {
    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Op::Equal => lhs == rhs,
            Op::AtLeast => lhs >= rhs,
            Op::Above => lhs > rhs,
            Op::AtMost => lhs <= rhs,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Op::Equal => "==",
            Op::AtLeast => ">=",
            Op::Above => ">",
            Op::AtMost => "<=",
        })
    }
}

/// One named check, `lhs op rhs`: `lhs` names a fact, `rhs` is a
/// number literal or another fact.
#[derive(Debug, Clone, Copy)]
pub struct Invariant {
    /// What the check proves, as printed in the report.
    pub name: &'static str,
    /// The fact under test.
    pub lhs: &'static str,
    /// The comparison.
    pub op: Op,
    /// A number literal or a fact name.
    pub rhs: &'static str,
}

/// `check!("name": "fact" op "operand")` builds an [`Invariant`].
macro_rules! check {
    ($name:literal: $lhs:literal == $rhs:literal) => {
        check!(@ $name, $lhs, Equal, $rhs)
    };
    ($name:literal: $lhs:literal >= $rhs:literal) => {
        check!(@ $name, $lhs, AtLeast, $rhs)
    };
    ($name:literal: $lhs:literal > $rhs:literal) => {
        check!(@ $name, $lhs, Above, $rhs)
    };
    ($name:literal: $lhs:literal <= $rhs:literal) => {
        check!(@ $name, $lhs, AtMost, $rhs)
    };
    (@ $name:literal, $lhs:literal, $op:ident, $rhs:literal) => {
        Invariant {
            name: $name,
            lhs: $lhs,
            op: Op::$op,
            rhs: $rhs,
        }
    };
}

/// Request-line generator: `(id, client index, request index)`.
pub type LineFn = fn(&str, usize, usize) -> String;
/// Per-scenario hook on every `ok` reply: `(line, id, reply, tally)`.
pub type ReplyHook = fn(&str, &str, &Json, &mut Tally) -> Result<(), String>;
/// The scenario's script over a started topology.
pub type Phase = fn(&mut Run<'_>) -> Result<(), String>;

/// One soak scenario: one row of [`SCENARIOS`].
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Short name; the experiment is `<name>-soak`.
    pub name: &'static str,
    /// Report heading.
    pub title: &'static str,
    /// Where the load goes.
    pub topology: Topology,
    /// Trace sampling rate for the run (`None` leaves it unchanged).
    pub sampling: Option<f64>,
    /// Fault-plan seed.
    pub seed: u64,
    /// Fault-plan rules.
    pub faults: &'static [Fault],
    /// Concurrent clients per wave.
    pub clients: usize,
    /// Requests each client must see answered exactly once, per wave.
    pub requests_per_client: usize,
    /// Waves per round.
    pub waves: usize,
    /// Request-line generator.
    pub line: LineFn,
    /// Hook on every `ok` reply.
    pub on_ok: ReplyHook,
    /// The scenario's script: its rounds plus its one extra phase.
    pub phase: Phase,
    /// Checked by [`report`] against the outcome's facts.
    pub invariants: &'static [Invariant],
}

/// The soak scenarios, in `reproduce` order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "chaos",
        title: "Chaos soak (sram-faults): deterministic injection under multi-client load",
        topology: Topology::Server,
        sampling: None,
        seed: 0x00DA_C201,
        faults: &[
            fault("cell.characterize_nan", 2),
            slow(1, 25),
            fault("serve.worker_panic", 2),
            fault("serve.conn_drop", 1),
        ],
        clients: 4,
        requests_per_client: 6,
        waves: 1,
        line: chaos_line,
        on_ok: no_audit,
        phase: chaos_phase,
        invariants: &[
            check!("every request answered exactly once": "round.answered" == "round.requests"),
            check!("a worker panic is isolated": "round.serve.worker.panics" >= "1"),
            check!("no more panics than the plan's two": "round.serve.worker.panics" <= "2"),
            check!("panicked workers respawn": "serve.worker.respawns" >= "serve.worker.panics"),
            check!("stranded requests get typed internal replies": "round.internal" >= "2"),
            check!("the dropped connection reconnects once": "round.reconnects" == "1"),
            check!("retry recovers the poisoned LUT build": "round.serve.retry.recovered" == "1"),
            check!("no probe/registry drift": "round.faults.injected" == "round.registry.injected"),
            check!("injected faults sum to the plan caps": "round.faults.injected" == "plan.caps"),
            check!("fire counts equal the plan caps": "round.registry.off_cap" == "0"),
            check!("repeat round answered exactly once": "repeat.answered" == "repeat.requests"),
            check!("repeat round recovers once more": "repeat.serve.retry.recovered" == "1"),
            check!("repeat round reproduces the plan caps": "repeat.registry.off_cap" == "0"),
            check!("expired deadline returns typed cancellation": "deadline.typed" == "1"),
            check!("cancellation is prompt (ms)": "deadline.ms" <= "250"),
        ],
    },
    Scenario {
        name: "telemetry",
        title: "Telemetry soak (sram-serve): windowed metrics, SLO health, sampled tracing",
        topology: Topology::Server,
        sampling: Some(0.25),
        seed: 0x7E1E_FA17,
        faults: &[fault("serve.worker_panic", 2), fault("serve.conn_drop", 1)],
        clients: 3,
        requests_per_client: 8,
        waves: 1,
        line: telemetry_line,
        on_ok: no_audit,
        phase: telemetry_phase,
        invariants: &[
            check!("clean round answered exactly once": "clean.answered" == "clean.requests"),
            check!("clean health is ok": "health.clean_ok" == "1"),
            check!("metrics carries a closed window": "metrics.windows" >= "1"),
            check!("text and JSON carry p50/p90/p99": "metrics.quantiles" == "3"),
            check!("text and JSON quantiles agree exactly": "metrics.drift" == "0"),
            check!("no trace-ring drops under sampled load": "probe.trace.dropped" == "0"),
            check!("telemetry windows were sampled": "telemetry.windows.sampled" >= "1"),
            check!("the SLO tracker saw optimize traffic": "serve.slo.optimize.total" >= "1"),
            check!("faulted round answered exactly once": "faulted.answered" == "faulted.requests"),
            check!("a worker panic reaches the health surface": "serve.worker.panics" >= "1"),
            check!("injected faults sum to the plan caps": "faults.injected" == "plan.caps"),
            check!("fire counts equal the plan caps": "faulted.registry.off_cap" == "0"),
            check!("health leaves ok under faults": "health.faulted_ok" == "0"),
        ],
    },
    Scenario {
        name: "cluster",
        title: "Cluster soak (sram-cluster): failover under a consistent-hash router",
        topology: Topology::Cluster { poll_ms: 20 },
        sampling: None,
        seed: 0x00DA_C209,
        faults: &[
            slow(1, 60),
            fault("serve.worker_panic", 2),
            fault("serve.conn_drop", 2),
            fault("serve.node_kill", 1),
        ],
        clients: 4,
        requests_per_client: 8,
        waves: 2,
        line: cluster_line,
        on_ok: routing_tags,
        phase: cluster_phase,
        invariants: &[
            check!("every request answered exactly once": "soak.answered" == "soak.requests"),
            check!("the slow characterization fires a hedge": "cluster.hedge.fired" >= "1"),
            check!("the killed node is evicted": "cluster.node.evicted" >= "1"),
            check!("the respawned node rejoins": "cluster.node.rejoined" >= "1"),
            check!("exactly one injected node kill": "serve.node.injected_kills" == "1"),
            check!("fire counts equal the plan caps": "soak.registry.off_cap" == "0"),
            check!("no same-epoch key moves between nodes": "cluster.affinity.violations" == "0"),
            check!("the affinity audit saw repeats": "cluster.affinity.checked" >= "1"),
            check!("every node is healthy at the end": "ring.healthy" == "ring.nodes"),
            check!("membership churn bumps the ring epoch": "ring.epoch" > "0"),
        ],
    },
    Scenario {
        name: "trace",
        title: "Trace soak (sram-cluster): distributed tracing + federated metrics",
        // Slow polls on purpose: the killed node must stay in the ring
        // long enough for ring-routed traffic to hit it and fail over.
        topology: Topology::Cluster { poll_ms: 250 },
        sampling: Some(1.0),
        seed: 0x00DA_C7ACE,
        faults: &[slow(1, 60), fault("serve.node_kill", 1)],
        clients: 4,
        requests_per_client: 8,
        waves: 2,
        line: trace_line,
        on_ok: audit_trace,
        phase: trace_phase,
        invariants: &[
            check!("every request answered exactly once": "soak.answered" == "soak.requests"),
            check!("every reply tree is connected": "soak.forests" == "0"),
            check!("the router counted no forest": "cluster.trace.forests" == "0"),
            check!("the slow characterization fires a hedge": "cluster.hedge.fired" >= "1"),
            check!("the node kill forces a failover": "cluster.forward.failovers" >= "1"),
            check!("exactly one injected node kill": "serve.node.injected_kills" == "1"),
            check!("fire counts equal the plan caps": "soak.registry.off_cap" == "0"),
            check!("a reply keeps its cancelled hedge twin": "soak.losers" >= "1"),
            check!("the router kept a loser tree": "cluster.trace.losers" >= "1"),
            check!("answers propagated contexts": "cluster.trace.propagated" >= "soak.answered"),
            check!("every answer was stitched": "cluster.trace.stitched" >= "soak.answered"),
            check!("trees carry their spans":
                "cluster.trace.stitched_spans" >= "cluster.trace.stitched"),
            check!("chrome export has router and node lanes": "trace.chrome_pids" >= "2"),
            check!("p50 matches offline merge": "federation.p50_drift" <= "federation.bound"),
            check!("p99 matches offline merge": "federation.p99_drift" <= "federation.bound"),
            check!("the collector polled the nodes": "cluster.metrics.polls" >= "1"),
            check!("the dead node is a poll error": "cluster.metrics.poll_errors" >= "1"),
            check!("merged p50 gauge is set": "cluster.metrics.merged_p50" > "0"),
            check!("merged quantiles monotone":
                "cluster.metrics.merged_p99" >= "cluster.metrics.merged_p50"),
            check!("cluster-health sees exactly the dead node": "health.nodes_failed" == "1"),
            check!("cluster-health is degraded or unhealthy": "health.degraded" == "1"),
        ],
    },
];

impl Scenario {
    /// The fault plan this row describes.
    fn plan(&self) -> FaultPlan {
        self.faults
            .iter()
            .fold(FaultPlan::new(self.seed), |plan, f| {
                plan.rule(FaultRule::always(f.point, f.cap).with_latency_ms(f.latency_ms))
            })
    }

    fn requests(&self) -> usize {
        self.waves * self.clients * self.requests_per_client
    }
}

/// The scenario named `name`, if any.
#[must_use]
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Fires at `point` in the registry's per-point counts.
fn fires(counts: &[(String, u64)], point: &str) -> u64 {
    counts.iter().find(|(p, _)| p == point).map_or(0, |c| c.1)
}

/// Rules of `plan` whose fire count differs from their `max_fires` cap.
fn off_cap(plan: &FaultPlan, counts: &[(String, u64)]) -> usize {
    plan.rules
        .iter()
        .filter(|rule| rule.max_fires != Some(fires(counts, &rule.point)))
        .count()
}

/// The rendered outcome and the named facts the invariants read.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Human-readable lines, one per phase.
    pub text: String,
    /// Named numeric facts.
    pub facts: BTreeMap<String, f64>,
}

impl Outcome {
    /// A number literal, or the named fact (0 when absent).
    fn value(&self, operand: &str) -> f64 {
        operand
            .parse()
            .unwrap_or_else(|_| self.facts.get(operand).copied().unwrap_or(0.0))
    }
}

/// Counts one client, wave or round accumulates.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests answered `ok` exactly once.
    pub answered: usize,
    /// Typed `internal` replies (isolated worker panics).
    pub internal: usize,
    /// `busy` backpressure replies.
    pub busy: usize,
    /// Reconnects after a dropped connection.
    pub reconnects: usize,
    /// Routing tags of every `ok` reply (cluster affinity audit).
    pub observations: Vec<Observation>,
    /// Stitched trees that failed [`stitch::validate`].
    pub forests: usize,
    /// Replies keeping a hedge loser's subtree: a `hedge_loser: true`
    /// branch with non-empty `children`.
    pub losers: usize,
    /// Spans across every valid stitched tree.
    pub spans: u64,
    /// One line per forest, for the report.
    pub details: Vec<String>,
    /// The tree the Chrome-export audit runs on, with its rank.
    pub richest: Option<(u64, Json)>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.answered += other.answered;
        self.internal += other.internal;
        self.busy += other.busy;
        self.reconnects += other.reconnects;
        self.observations.extend(other.observations);
        self.forests += other.forests;
        self.losers += other.losers;
        self.spans += other.spans;
        self.details.extend(other.details);
        if other.richest.as_ref().map(|(n, _)| *n) > self.richest.as_ref().map(|(n, _)| *n) {
            self.richest = other.richest;
        }
    }
}

/// Restores the process globals a scenario changes — the installed
/// fault plan and the trace sampling configuration — on every exit
/// path.
struct Globals {
    sampling: (f64, u64),
}

impl Drop for Globals {
    fn drop(&mut self) {
        sram_faults::uninstall();
        let (rate, seed) = self.sampling;
        sram_probe::trace::set_sampling(rate, seed);
    }
}

/// A started topology. [`Server`] and [`Router`] stop on drop.
enum Live {
    Server {
        engine: Arc<Engine>,
        server: Server,
    },
    Cluster {
        // Declared first so it drops (and stops forwarding) first.
        router: Router,
        nodes: BTreeMap<String, Server>,
    },
}

impl Live {
    fn start(topology: Topology, threads: usize) -> Result<Self, String> {
        match topology {
            Topology::Server => {
                let engine = Arc::new(Engine::new(
                    CoOptimizationFramework::paper_mode()
                        .with_space(DesignSpace::coarse())
                        .with_threads(threads),
                    CacheConfig::default(),
                ));
                let server = Server::start(
                    Arc::clone(&engine),
                    ServerConfig {
                        workers: WORKERS,
                        cache_file: None,
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| format!("server start: {e}"))?;
                Ok(Live::Server { engine, server })
            }
            Topology::Cluster { poll_ms } => {
                let mut nodes = BTreeMap::new();
                for _ in 0..NODES {
                    let node = sram_serve::spawn_local_node("127.0.0.1:0", WORKERS, NODE_QUEUE)
                        .map_err(|e| format!("node spawn: {e}"))?;
                    nodes.insert(node.local_addr().to_string(), node);
                }
                let router = Router::start(RouterConfig {
                    nodes: nodes.keys().cloned().collect(),
                    // Three candidates: a hedge that hits the killed
                    // node fails over to the third, so the slow
                    // primary still loses the race with its tree.
                    replicas: 3,
                    hedge_ms: 5,
                    poll_interval: Duration::from_millis(poll_ms),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("router start: {e}"))?;
                // Let the first poll round see every node healthy, so a
                // kill lands under traffic rather than on the first dial.
                std::thread::sleep(Duration::from_millis(100));
                Ok(Live::Cluster { router, nodes })
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Live::Server { server, .. } => server.local_addr(),
            Live::Cluster { router, .. } => router.local_addr(),
        }
    }

    /// The id-echo epilogue op: answered by the server itself, or by
    /// the router (immune to node faults).
    fn echo_op(&self) -> &'static str {
        match self {
            Live::Server { .. } => "stats",
            Live::Cluster { .. } => "cluster-stats",
        }
    }
}

/// One scenario in flight: the started topology plus the outcome the
/// rounds and the extra phase fill in.
pub struct Run<'s> {
    scenario: &'s Scenario,
    threads: usize,
    live: Live,
    outcome: Outcome,
}

impl Run<'_> {
    fn fact(&mut self, name: impl Into<String>, value: f64) {
        self.outcome.facts.insert(name.into(), value);
    }

    fn note(&mut self, line: String) {
        self.outcome.text.push_str(&line);
        self.outcome.text.push('\n');
    }

    /// One round: `waves` concurrent client waves, under the fault plan
    /// when `faulted`. Records `<tag>.requests`, the tally counts, the
    /// round's probe counter deltas (`<tag>.<counter>`), and for a
    /// faulted round the registry total (`<tag>.registry.injected`) and
    /// the points off their caps (`<tag>.registry.off_cap`).
    ///
    /// # Errors
    ///
    /// Any hang, unanswered or misaligned reply, or reply-hook failure.
    fn round(&mut self, tag: &str, faulted: bool) -> Result<Tally, String> {
        let s = self.scenario;
        let baseline = sram_probe::snapshot();
        let plan = s.plan();
        if faulted {
            sram_faults::install(&plan);
        }
        let mut tally = Tally::default();
        for w in 0..s.waves {
            tally.absorb(wave(
                s,
                self.live.addr(),
                self.live.echo_op(),
                &format!("{tag}{w}"),
            )?);
        }
        let counts = sram_faults::counts();
        let injected = sram_faults::injected_total();
        sram_faults::uninstall();
        let delta = sram_probe::snapshot().diff(&baseline);

        for (name, value) in &delta.counters {
            self.fact(format!("{tag}.{name}"), *value as f64);
        }
        for (name, value) in [
            ("requests", s.requests()),
            ("answered", tally.answered),
            ("internal", tally.internal),
            ("busy", tally.busy),
            ("reconnects", tally.reconnects),
            ("forests", tally.forests),
            ("losers", tally.losers),
        ] {
            self.fact(format!("{tag}.{name}"), value as f64);
        }
        self.note(format!(
            "  {tag}: {} requests over {} wave(s) x {} clients -> {} answered exactly once \
             ({} internal, {} busy, {} reconnects)",
            s.requests(),
            s.waves,
            s.clients,
            tally.answered,
            tally.internal,
            tally.busy,
            tally.reconnects
        ));
        if faulted {
            self.fact(format!("{tag}.registry.injected"), injected as f64);
            self.fact(
                format!("{tag}.registry.off_cap"),
                off_cap(&plan, &counts) as f64,
            );
            let listed: Vec<String> = plan
                .rules
                .iter()
                .map(|rule| {
                    let n = fires(&counts, &rule.point);
                    format!("{}={n}/{}", rule.point, rule.max_fires.unwrap_or(0))
                })
                .collect();
            self.note(format!("  {tag} fires/caps: {}", listed.join(", ")));
        }
        Ok(tally)
    }

    /// Replaces the topology with a freshly started one (cold caches).
    ///
    /// # Errors
    ///
    /// A failed server, node or router start.
    fn restart(&mut self) -> Result<(), String> {
        self.live = Live::start(self.scenario.topology, self.threads)?;
        Ok(())
    }

    /// One request on a fresh connection; the reply must be `ok`.
    fn call(&self, line: &str) -> Result<Json, String> {
        let reply = connect(self.live.addr())?
            .call_line(line)
            .map_err(|e| format!("{line}: {e}"))?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("{line}: non-ok reply {}", reply.render()));
        }
        Ok(reply)
    }
}

/// Runs `s` and returns its outcome, with the scenario's whole probe
/// delta folded into the facts under the metric names. The fault plan
/// and trace sampling are restored on every exit path.
///
/// # Errors
///
/// A failed topology start or any phase failure (hang, unanswered or
/// misaligned reply, malformed reply).
pub fn run_scenario(s: &Scenario, threads: usize) -> Result<Outcome, String> {
    // Counter facts need the probe layer on regardless of the
    // environment.
    sram_probe::set_level(sram_probe::Level::Summary);
    silence_injected_panics();
    let globals = Globals {
        sampling: sram_probe::trace::sampling(),
    };
    if let Some(rate) = s.sampling {
        sram_probe::trace::set_sampling(rate, globals.sampling.1);
    }
    let baseline = sram_probe::snapshot();
    let mut run = Run {
        scenario: s,
        threads,
        live: Live::start(s.topology, threads)?,
        outcome: Outcome::default(),
    };
    let caps: u64 = s.faults.iter().map(|f| f.cap).sum();
    run.fact("plan.caps", caps as f64);
    (s.phase)(&mut run)?;
    // Stop the topology first: shutdown joins every worker, so the
    // delta sees everything the servers counted.
    drop(run.live);
    let delta = sram_probe::snapshot().diff(&baseline);
    let mut outcome = run.outcome;
    for (name, value) in delta.counters {
        outcome.facts.insert(name.to_owned(), value as f64);
    }
    for (name, value) in delta.gauges {
        outcome.facts.insert(name.to_owned(), value);
    }
    Ok(outcome)
}

/// Renders the outcome plus one line per invariant.
///
/// # Errors
///
/// The rendered report, ending with the name of every invariant that
/// failed.
pub fn report(s: &Scenario, o: &Outcome) -> Result<String, String> {
    let mut out = format!("{}\n\n{}\n  invariants:\n", s.title, o.text);
    let mut failed = Vec::new();
    for inv in s.invariants {
        let (lhs, rhs) = (o.value(inv.lhs), o.value(inv.rhs));
        let held = inv.op.holds(lhs, rhs);
        let mark = if held { "held  " } else { "FAILED" };
        let _ = writeln!(
            out,
            "    {mark} {}: {} {} {} ({lhs} vs {rhs})",
            inv.name, inv.lhs, inv.op, inv.rhs
        );
        if !held {
            failed.push(inv.name);
        }
    }
    if failed.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}invariant(s) failed: {}", failed.join("; ")))
    }
}

/// Runs the scenario named `name` and renders its invariant-checked
/// report.
///
/// # Errors
///
/// An unknown name, [`run_scenario`] failures, and [`report`]
/// invariant violations.
pub fn run(name: &str, threads: usize) -> Result<String, String> {
    let s = scenario(name).ok_or_else(|| format!("no soak scenario named {name}"))?;
    report(s, &run_scenario(s, threads)?)
}

/// Keeps the injected worker panics (which are the point of the
/// exercise) from spraying backtraces over the report; every other
/// panic still reaches the previous hook.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("(fault plan)"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("set_timeout: {e}"))?;
    Ok(client)
}

/// Drives one client's schedule to completion: resend on `internal` and
/// `busy`, reconnect-and-resend on a dropped connection, hard-fail on a
/// timeout (hang) or an attempt-budget blowout. Ends with an id echo,
/// so a doubled or dropped reply anywhere earlier surfaces as a
/// misaligned echo.
fn run_client(
    s: &Scenario,
    addr: SocketAddr,
    echo_op: &str,
    wave: &str,
    index: usize,
) -> Result<Tally, String> {
    let mut client = connect(addr)?;
    let mut tally = Tally::default();
    for r in 0..s.requests_per_client {
        let id = format!("{wave}-c{index}-r{r}");
        let line = (s.line)(&id, index, r);
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                return Err(format!(
                    "request {id} unanswered after {MAX_ATTEMPTS} attempts"
                ));
            }
            match client.call_line(&line) {
                Ok(reply) => match reply.get("status").and_then(Json::as_str) {
                    Some("ok") => {
                        if reply.get("id").and_then(Json::as_str) != Some(id.as_str()) {
                            return Err(format!(
                                "reply stream misaligned at {id}: {}",
                                reply.render()
                            ));
                        }
                        (s.on_ok)(&line, &id, &reply, &mut tally)?;
                        tally.answered += 1;
                        break;
                    }
                    Some("internal") => tally.internal += 1,
                    Some("busy") => {
                        tally.busy += 1;
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    other => {
                        return Err(format!(
                            "request {id}: unexpected status {other:?}: {}",
                            reply.render()
                        ))
                    }
                },
                Err(ServeError::Remote(_)) => {
                    // An injected connection drop: clean EOF, no reply.
                    tally.reconnects += 1;
                    client = connect(addr)?;
                }
                Err(ServeError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(format!("request {id}: reply timed out — hang"));
                }
                Err(e) => return Err(format!("request {id}: transport error: {e}")),
            }
        }
    }
    let fin = format!("fin-{wave}-c{index}");
    let reply = client
        .call_line(&format!(r#"{{"id":"{fin}","op":"{echo_op}"}}"#))
        .map_err(|e| format!("final echo: {e}"))?;
    if reply.get("id").and_then(Json::as_str) != Some(fin.as_str()) {
        return Err(format!(
            "double or dropped reply detected: final echo was {}",
            reply.render()
        ));
    }
    Ok(tally)
}

/// One wave of `clients` concurrent clients; the summed tally.
fn wave(s: &Scenario, addr: SocketAddr, echo_op: &str, name: &str) -> Result<Tally, String> {
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.clients)
            .map(|i| scope.spawn(move || run_client(s, addr, echo_op, name, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut total = Tally::default();
    for result in results {
        total.absorb(result?);
    }
    Ok(total)
}

fn optimize_line(id: &str, capacity: u64, flavor: &str, traced: bool) -> String {
    let trace = if traced { r#","trace":true"# } else { "" };
    format!(
        r#"{{"id":"{id}","op":"optimize","capacity_bytes":{capacity},"flavor":"{flavor}","method":"m2"{trace}}}"#
    )
}

fn chaos_line(id: &str, _client: usize, r: usize) -> String {
    optimize_line(id, CAPACITIES[r % CAPACITIES.len()], "hvt", false)
}

/// Mixed traced load: every third request is a `stats`.
fn telemetry_line(id: &str, client: usize, r: usize) -> String {
    if r % 3 == 2 {
        format!(r#"{{"id":"{id}","op":"stats","trace":true}}"#)
    } else {
        let capacity = WARM_CAPACITIES[(client + r) % WARM_CAPACITIES.len()];
        optimize_line(id, capacity, "hvt", true)
    }
}

fn cluster_line(id: &str, client: usize, r: usize) -> String {
    optimize_line(
        id,
        CAPACITIES[(client + r) % CAPACITIES.len()],
        "hvt",
        false,
    )
}

/// Traced load over both flavors; repeated capacities become cache hits.
fn trace_line(id: &str, client: usize, r: usize) -> String {
    let flavor = if r.is_multiple_of(2) { "hvt" } else { "lvt" };
    optimize_line(
        id,
        CAPACITIES[(client + r) % CAPACITIES.len()],
        flavor,
        true,
    )
}

fn no_audit(_line: &str, _id: &str, _reply: &Json, _tally: &mut Tally) -> Result<(), String> {
    Ok(())
}

/// Cluster reply hook: every `ok` reply carries the router's
/// `node`/`epoch`/`via` tags, which become the affinity observations.
fn routing_tags(line: &str, id: &str, reply: &Json, tally: &mut Tally) -> Result<(), String> {
    let key = Request::from_line(line)
        .map_err(|e| format!("request {id} failed to parse locally: {e}"))?
        .query
        .key();
    let (Some(node), Some(epoch), Some(via)) = (
        reply.get("node").and_then(Json::as_str),
        reply.get("epoch").and_then(Json::as_u64),
        reply.get("via").and_then(Json::as_str),
    ) else {
        return Err(format!(
            "reply to {id} is missing its routing tags: {}",
            reply.render()
        ));
    };
    tally.observations.push(Observation {
        key,
        epoch,
        node: node.to_owned(),
        via: via.to_owned(),
    });
    Ok(())
}

/// Trace reply hook: the stitched tree must have one `cluster.request`
/// root; a tree failing [`stitch::validate`] is counted as a forest.
fn audit_trace(_line: &str, id: &str, reply: &Json, tally: &mut Tally) -> Result<(), String> {
    let tree = reply.get("trace").ok_or_else(|| {
        format!(
            "traced reply to {id} carries no stitched tree: {}",
            reply.render()
        )
    })?;
    if tree.get("name").and_then(Json::as_str) != Some("cluster.request") {
        return Err(format!(
            "reply to {id}: stitched root is not cluster.request: {}",
            tree.render()
        ));
    }
    // A loser branch counts only with the subtree the losing node
    // returned; one cancelled before send has an empty `children`.
    let loser = tree
        .get("children")
        .and_then(Json::as_array)
        .is_some_and(|children| {
            children.iter().any(|c| {
                c.get("hedge_loser").and_then(Json::as_bool) == Some(true)
                    && c.get("children")
                        .and_then(Json::as_array)
                        .is_some_and(|sub| !sub.is_empty())
            })
        });
    tally.losers += usize::from(loser);
    match stitch::validate(tree) {
        Ok(spans) => {
            tally.spans += spans;
            // A loser-bearing tree outranks a span-rich one for the
            // Chrome audit: it exercises the cancelled branch's lane.
            let rank = spans + if loser { 1_000 } else { 0 };
            if tally.richest.as_ref().is_none_or(|(n, _)| rank > *n) {
                tally.richest = Some((rank, tree.clone()));
            }
        }
        Err(e) => {
            tally.forests += 1;
            tally.details.push(format!("{id}: {e}"));
        }
    }
    Ok(())
}

fn flag(held: bool) -> f64 {
    f64::from(u8::from(held))
}

/// Chaos: the soak round, a repeat round on a fresh server (cold cache,
/// so the NaN characterizations are drawn again) under a fresh install
/// of the same plan, and an optimize whose deadline already expired.
fn chaos_phase(run: &mut Run<'_>) -> Result<(), String> {
    run.round("round", true)?;
    run.restart()?;
    run.round("repeat", true)?;

    let framework = CoOptimizationFramework::paper_mode()
        .with_space(DesignSpace::coarse())
        .with_threads(run.threads);
    let cell = framework
        .characterize_cell(VtFlavor::Hvt, Method::M2)
        .map_err(|e| format!("characterize: {e}"))?;
    let started = Instant::now();
    let outcome = framework.optimize_with_cell_cancel(
        &cell,
        Capacity::from_bytes(4096),
        VtFlavor::Hvt,
        Method::M2,
        &EnergyDelayProduct,
        &CancelToken::with_deadline(Instant::now()),
    );
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let typed = matches!(&outcome, Err(e) if e.cancel_reason() == Some(CancelReason::Deadline));
    run.fact("deadline.typed", flag(typed));
    run.fact("deadline.ms", ms);
    run.note(format!(
        "  deadline: expired-token optimize -> {} in {ms:.1} ms",
        if typed {
            "typed deadline_exceeded"
        } else {
            "WRONG OUTCOME"
        }
    ));
    Ok(())
}

/// Pulls `<metric>{quantile="<q>"} <value>` out of the text exposition.
fn text_quantile(text: &str, metric: &str, q: &str) -> Option<f64> {
    let needle = format!("{metric}{{quantile=\"{q}\"}} ");
    text.lines()
        .find(|l| l.starts_with(&needle))
        .and_then(|l| l[needle.len()..].trim().parse().ok())
}

/// The `health` verdict and its reasons.
fn health(run: &Run<'_>, id: &str) -> Result<(String, Vec<String>), String> {
    let reply = run.call(&format!(r#"{{"op":"health","id":"{id}"}}"#))?;
    let result = reply.get("result").ok_or("health reply without result")?;
    let verdict = result
        .get("verdict")
        .and_then(Json::as_str)
        .ok_or("health reply without verdict")?;
    let reasons = result
        .get("reasons")
        .and_then(Json::as_array)
        .map(|rs| {
            rs.iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    Ok((verdict.to_owned(), reasons))
}

/// Telemetry: a clean round on a warmed server, then `metrics` (text vs
/// JSON quantiles) and `health`; then the faulted round and `health`
/// again, which must have left `ok`.
fn telemetry_phase(run: &mut Run<'_>) -> Result<(), String> {
    // Warm every distinct query in-process so the clean round's wire
    // latencies are cache hits and the clean verdict is not at the
    // mercy of a cold LUT build blowing the SLO.
    if let Live::Server { engine, .. } = &run.live {
        for capacity in WARM_CAPACITIES {
            let line = optimize_line("warm", capacity, "hvt", true);
            let request = Request::from_line(&line).map_err(|e| format!("warm parse: {e}"))?;
            let reply = engine.handle(&request);
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("warm-up failed: {}", reply.render()));
            }
        }
    }
    run.round("clean", false)?;
    sram_probe::telemetry::force_sample();

    let metrics = run.call(r#"{"op":"metrics","id":"m0"}"#)?;
    let result = metrics
        .get("result")
        .ok_or("metrics reply without result")?;
    let windows = result.get("windows").and_then(Json::as_f64).unwrap_or(0.0);
    let text = result
        .get("text")
        .and_then(Json::as_str)
        .ok_or("metrics reply without text exposition")?;
    let latency = result
        .get("quantiles")
        .and_then(|q| q.get("serve.request.latency_ns"));
    let (mut drift, mut compared) = (0.0f64, 0u32);
    for (q, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
        let from_text = text_quantile(text, "sram_serve_request_latency_ns", q);
        let from_json = latency.and_then(|l| l.get(key)).and_then(Json::as_f64);
        if let (Some(t), Some(j)) = (from_text, from_json) {
            drift = drift.max((t - j).abs());
            compared += 1;
        }
    }
    let (clean, _) = health(run, "h-clean")?;
    run.fact("metrics.windows", windows);
    run.fact("metrics.quantiles", f64::from(compared));
    run.fact("metrics.drift", drift);
    run.fact("health.clean_ok", flag(clean == "ok"));
    run.note(format!(
        "  metrics: {windows} closed window(s); text vs JSON drift {drift:e} over {compared} \
         quantiles; health: {clean}"
    ));

    run.round("faulted", true)?;
    sram_probe::telemetry::force_sample();
    let (faulted, reasons) = health(run, "h-fault")?;
    run.fact("health.faulted_ok", flag(faulted == "ok"));
    run.note(format!("  after faults: health: {faulted}"));
    for reason in reasons {
        run.note(format!("    - {reason}"));
    }
    Ok(())
}

/// Node addresses in the given poller state, read from a
/// `cluster-stats` reply.
fn nodes_in_state(stats: &Json, state: &str) -> Vec<String> {
    stats
        .get("nodes")
        .and_then(Json::as_array)
        .map(|nodes| {
            nodes
                .iter()
                .filter(|n| n.get("state").and_then(Json::as_str) == Some(state))
                .filter_map(|n| n.get("node").and_then(Json::as_str).map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// Rebinds a node on its original address. The killed node's old
/// sockets may linger briefly, so bind is retried under a deadline.
fn respawn(addr: &str) -> Result<Server, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match sram_serve::spawn_local_node(addr, WORKERS, NODE_QUEUE) {
            Ok(server) => return Ok(server),
            Err(e) if Instant::now() > deadline => {
                return Err(format!("respawn of {addr} never bound: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// The failover supervisor: waits for the router to evict the killed
/// node, restarts it on the same address, and waits for the health
/// poller to rejoin it. Owns every node so it can replace the dead one.
fn supervise(
    router: SocketAddr,
    mut nodes: BTreeMap<String, Server>,
) -> Result<BTreeMap<String, Server>, String> {
    let deadline = Instant::now() + SUPERVISOR_BUDGET;
    let mut client = connect(router)?;
    let mut respawned: Option<String> = None;
    loop {
        if Instant::now() > deadline {
            return Err(match respawned {
                Some(addr) => format!("node {addr} was respawned but never rejoined the ring"),
                None => "no node was evicted within the supervisor budget".to_owned(),
            });
        }
        let stats = client
            .call_line(r#"{"op":"cluster-stats"}"#)
            .map_err(|e| format!("cluster-stats poll: {e}"))?;
        match &respawned {
            None => {
                // Only a node that actually refuses dials is the injected
                // kill; a connection-drop-driven false eviction heals on
                // the next successful poll.
                let dead = nodes_in_state(&stats, "down")
                    .into_iter()
                    .find(|addr| std::net::TcpStream::connect(addr).is_err());
                if let Some(addr) = dead {
                    nodes
                        .remove(&addr)
                        .ok_or_else(|| format!("unknown node {addr} reported down"))?;
                    nodes.insert(addr.clone(), respawn(&addr)?);
                    respawned = Some(addr);
                }
            }
            Some(addr) => {
                if nodes_in_state(&stats, "healthy").contains(addr) {
                    return Ok(nodes);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Cluster: the soak round runs while the supervisor evicts, respawns
/// and rejoins the killed node; then the ring settles back to every
/// node healthy and the affinity audit replays the routing tags.
fn cluster_phase(run: &mut Run<'_>) -> Result<(), String> {
    let addr = run.live.addr();
    let Live::Cluster { nodes, .. } = &mut run.live else {
        return Err("the cluster soak needs a cluster topology".to_owned());
    };
    let nodes = std::mem::take(nodes);
    let (tally, nodes) = std::thread::scope(|scope| {
        let supervisor = scope.spawn(move || supervise(addr, nodes));
        let tally = run.round("soak", true);
        let nodes = supervisor
            .join()
            .unwrap_or_else(|_| Err("supervisor thread panicked".to_owned()));
        (tally, nodes)
    });
    if let Live::Cluster { nodes: slot, .. } = &mut run.live {
        *slot = nodes?;
    }
    let tally = tally?;

    let deadline = Instant::now() + SETTLE_BUDGET;
    let stats = loop {
        let stats = run.call(r#"{"op":"cluster-stats"}"#)?;
        if nodes_in_state(&stats, "healthy").len() == NODES || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let healthy = nodes_in_state(&stats, "healthy").len();
    let epoch = stats.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    let audit = affinity::audit(&tally.observations);
    run.fact("ring.nodes", NODES as f64);
    run.fact("ring.healthy", healthy as f64);
    run.fact("ring.epoch", epoch as f64);
    run.note(format!(
        "  ring: final epoch {epoch}, {healthy}/{NODES} healthy; affinity: {} same-epoch \
         repeats audited, {} violations",
        audit.checked, audit.violations
    ));
    for detail in audit.details {
        run.note(format!("    - {detail}"));
    }
    let soak = |metric: &str| run.outcome.value(&format!("soak.{metric}"));
    let routing = format!(
        "  routing: {} hedges fired, {} failovers, {} pool retries",
        soak("cluster.hedge.fired"),
        soak("cluster.forward.failovers"),
        soak("cluster.forward.retries")
    );
    run.note(routing);
    Ok(())
}

/// Polls every reachable node directly for its raw
/// `serve.request.latency_ns` histogram and merges them offline — the
/// independent recompute the router's federated plane is checked
/// against. The killed node refuses dials and is skipped, as the
/// collector records it as a hole.
fn offline_merge(nodes: &[String]) -> Result<QuantileSnapshot, String> {
    let mut merged = QuantileSnapshot::default();
    let mut polled = 0usize;
    for node in nodes {
        let addr: SocketAddr = node
            .parse()
            .map_err(|e| format!("node address {node}: {e}"))?;
        let Ok(mut client) = connect(addr) else {
            continue;
        };
        let reply = client
            .call_line(r#"{"op":"metrics"}"#)
            .map_err(|e| format!("direct metrics poll of {node}: {e}"))?;
        let q = reply
            .get("result")
            .and_then(|r| r.get("quantiles"))
            .and_then(|q| q.get("serve.request.latency_ns"))
            .ok_or_else(|| format!("{node} exported no serve.request.latency_ns"))?;
        merged = merged.merge(&collector::parse_snapshot(q));
        polled += 1;
    }
    if polled == 0 {
        return Err("no node answered a direct metrics poll".to_owned());
    }
    Ok(merged)
}

/// Relative disagreement between two quantile estimates.
fn relative_drift(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Distinct `pid` lanes in the Chrome export of a stitched tree.
fn chrome_pids(tree: &Json) -> usize {
    let mut pids: Vec<u64> = Json::parse(&stitch::chrome_trace(tree))
        .ok()
        .and_then(|parsed| {
            parsed
                .get("traceEvents")
                .and_then(Json::as_array)
                .map(|events| {
                    events
                        .iter()
                        .filter_map(|e| e.get("pid").and_then(Json::as_u64))
                        .collect()
                })
        })
        .unwrap_or_default();
    pids.sort_unstable();
    pids.dedup();
    pids.len()
}

/// Trace: the traced soak round, then the federation audit — the
/// router's merged quantiles against an offline merge of direct node
/// polls, `cluster-health`, and the Chrome pid lanes of the richest
/// stitched tree.
fn trace_phase(run: &mut Run<'_>) -> Result<(), String> {
    let tally = run.round("soak", true)?;
    let Live::Cluster { nodes, .. } = &run.live else {
        return Err("the trace soak needs a cluster topology".to_owned());
    };
    let node_addrs: Vec<String> = nodes.keys().cloned().collect();

    // Traffic has quiesced; fold every pending telemetry sample into
    // the window ring so the router's poll and the offline recompute
    // read the same distribution.
    sram_probe::telemetry::force_sample();
    let offline = offline_merge(&node_addrs)?;
    let metrics = run.call(r#"{"op":"cluster-metrics"}"#)?;
    let health = run.call(r#"{"op":"cluster-health"}"#)?;
    let merged = metrics
        .get("merged")
        .and_then(|m| m.get("serve.request.latency_ns"))
        .ok_or("cluster-metrics carries no merged serve.request.latency_ns")?;
    let quantile = |key: &str| merged.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (p50, p99) = (quantile("p50"), quantile("p99"));
    let (off50, off99) = (offline.quantile(0.50), offline.quantile(0.99));
    let verdict = health
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap_or("<missing>")
        .to_owned();
    let failed = health.get("nodes_failed").and_then(Json::as_u64);
    let pids = tally
        .richest
        .as_ref()
        .map_or(0, |(_, tree)| chrome_pids(tree));

    run.fact("trace.chrome_pids", pids as f64);
    run.fact("federation.bound", MAX_QUANTILE_RELATIVE_ERROR);
    run.fact("federation.p50_drift", relative_drift(p50, off50));
    run.fact("federation.p99_drift", relative_drift(p99, off99));
    run.fact("health.nodes_failed", failed.map_or(f64::NAN, |n| n as f64));
    run.fact(
        "health.degraded",
        flag(verdict == "degraded" || verdict == "unhealthy"),
    );
    run.note(format!(
        "  stitching: {} spans in valid trees, {} replies keeping a loser tree, {} forests; \
         chrome export spans {pids} pid lanes",
        tally.spans, tally.losers, tally.forests
    ));
    for detail in &tally.details {
        run.note(format!("    - {detail}"));
    }
    run.note(format!(
        "  federation: merged p50 {p50:.0} ns / p99 {p99:.0} ns vs offline {off50:.0} / \
         {off99:.0}; health {verdict} with {} node(s) unreachable",
        failed.map_or_else(|| "?".to_owned(), |n| n.to_string())
    ));
    Ok(())
}

// Running a scenario mutates process globals (the fault registry,
// trace sampling, telemetry windows), so the end-to-end runs live in
// `tests/soak.rs`, each in its own `reproduce` process. Only
// global-free pieces are tested here.
#[cfg(test)]
mod tests {
    use super::*;

    fn satisfy(op: Op, rhs: f64) -> f64 {
        match op {
            Op::Equal | Op::AtLeast | Op::AtMost => rhs,
            Op::Above => rhs + 1.0,
        }
    }

    fn violate(op: Op, rhs: f64) -> f64 {
        match op {
            Op::Equal | Op::AtMost => rhs + 1.0,
            Op::AtLeast => rhs - 1.0,
            Op::Above => rhs,
        }
    }

    /// A healthy fixture: facts relaxed until every invariant holds
    /// (fails if the invariants contradict each other).
    fn healthy(s: &Scenario) -> Outcome {
        let mut o = Outcome::default();
        for _ in 0..=s.invariants.len() {
            for inv in s.invariants {
                let rhs = o.value(inv.rhs);
                if !inv.op.holds(o.value(inv.lhs), rhs) {
                    o.facts.insert(inv.lhs.to_owned(), satisfy(inv.op, rhs));
                }
            }
        }
        o
    }

    #[test]
    fn every_invariant_fails_on_its_own_fault() {
        for s in SCENARIOS {
            let fixture = healthy(s);
            let text = report(s, &fixture).unwrap_or_else(|e| panic!("{} fixture: {e}", s.name));
            assert_eq!(text.matches("held  ").count(), s.invariants.len());
            for inv in s.invariants {
                let mut broken = fixture.clone();
                let value = violate(inv.op, broken.value(inv.rhs));
                broken.facts.insert(inv.lhs.to_owned(), value);
                let err = report(s, &broken).expect_err(inv.name);
                assert!(
                    err.contains(&format!("FAILED {}: ", inv.name)),
                    "{}: the failure must name {:?}:\n{err}",
                    s.name,
                    inv.name
                );
            }
        }
    }

    #[test]
    fn invariants_are_uniquely_named_and_test_a_fact() {
        for s in SCENARIOS {
            let mut names: Vec<_> = s.invariants.iter().map(|i| i.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                s.invariants.len(),
                "{}: duplicate name",
                s.name
            );
            for inv in s.invariants {
                assert!(
                    inv.lhs.parse::<f64>().is_err(),
                    "{}: lhs is a fact",
                    inv.name
                );
            }
        }
    }

    #[test]
    fn every_scenario_is_a_reproduce_experiment() {
        for s in SCENARIOS {
            let name = format!("{}-soak", s.name);
            assert!(
                crate::cli::EXPERIMENTS.iter().any(|e| e.name == name),
                "{name} missing from the registry"
            );
        }
    }

    #[test]
    fn plan_caps_bound_every_point() {
        for s in SCENARIOS {
            let plan = s.plan();
            let mut set = sram_faults::ActiveSet::new(&plan);
            assert_eq!(off_cap(&plan, &set.counts()), s.faults.len(), "{}", s.name);
            for _ in 0..100 {
                for f in s.faults {
                    set.decide(f.point);
                }
            }
            assert_eq!(off_cap(&plan, &set.counts()), 0, "{}", s.name);
            let caps: u64 = s.faults.iter().map(|f| f.cap).sum();
            assert_eq!(set.injected_total(), caps, "{}", s.name);
        }
    }

    #[test]
    fn report_names_every_failed_invariant() {
        let s = scenario("chaos").unwrap();
        let err = report(s, &Outcome::default()).unwrap_err();
        assert!(err.contains("FAILED a worker panic is isolated: "));
        assert!(err.contains("held   every request answered exactly once: "));
        assert!(err.ends_with("expired deadline returns typed cancellation"));
    }

    #[test]
    fn text_quantile_parses_the_exposition_line() {
        let text = "# header\nsram_x{quantile=\"0.5\"} 1.25e3\nsram_x_count 4\n";
        assert_eq!(text_quantile(text, "sram_x", "0.5"), Some(1250.0));
        assert_eq!(text_quantile(text, "sram_x", "0.9"), None);
    }

    #[test]
    fn nodes_in_state_reads_the_cluster_stats_shape() {
        let stats = Json::parse(
            r#"{"status":"ok","nodes":[
                {"node":"127.0.0.1:1","state":"healthy"},
                {"node":"127.0.0.1:2","state":"down"},
                {"node":"127.0.0.1:3","state":"healthy"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            nodes_in_state(&stats, "healthy"),
            vec!["127.0.0.1:1".to_owned(), "127.0.0.1:3".to_owned()]
        );
        assert_eq!(
            nodes_in_state(&stats, "down"),
            vec!["127.0.0.1:2".to_owned()]
        );
        assert!(nodes_in_state(&Json::parse("{}").unwrap(), "down").is_empty());
    }

    fn stitched_reply(loser: bool, parent: u64) -> Json {
        let loser_branch = if loser {
            r#",{"name":"cluster.attempt","node":"n2","via":"primary","hedge_loser":true,
               "start_ns":100,"dur_ns":900,
               "children":[{"name":"serve.request","id":9,"parent_span":7,
                            "start_ns":200,"dur_ns":500,"children":[]}]}"#
        } else {
            ""
        };
        Json::parse(&format!(
            r#"{{"status":"ok","id":"x","trace":{{
                "name":"cluster.request","trace_id":"00000000deadbeef","root_span":7,
                "start_ns":0,"dur_ns":1000,
                "children":[{{"name":"cluster.attempt","node":"n1","via":"hedge",
                    "hedge_loser":false,"start_ns":50,"dur_ns":400,
                    "children":[{{"name":"serve.request","id":4,"parent_span":{parent},
                                 "start_ns":60,"dur_ns":300,"children":[]}}]}}{loser_branch}]
            }}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn audit_trace_counts_losers_forests_and_rejects_bare_replies() {
        let mut tally = Tally::default();
        audit_trace("", "x", &stitched_reply(true, 7), &mut tally).expect("valid tree");
        assert_eq!((tally.forests, tally.losers), (0, 1));
        assert!(tally.spans >= 3);
        assert!(tally.richest.is_some());

        // A subtree rooted under the wrong parent is a forest: counted,
        // not thrown (the invariant rejects it).
        let mut tally = Tally::default();
        audit_trace("", "x", &stitched_reply(false, 8), &mut tally).expect("tallied");
        assert_eq!(
            (tally.forests, tally.losers, tally.details.len()),
            (1, 0, 1)
        );

        // A loser cancelled before send keeps its branch but has no
        // subtree: not counted, the same unit as the router's counter.
        let mut tally = Tally::default();
        let cancelled = Json::parse(
            r#"{"status":"ok","id":"x","trace":{
                "name":"cluster.request","trace_id":"00000000deadbeef","root_span":7,
                "start_ns":0,"dur_ns":1000,
                "children":[{"name":"cluster.attempt","node":"n1","via":"primary",
                    "hedge_loser":false,"start_ns":50,"dur_ns":400,
                    "children":[{"name":"serve.request","id":4,"parent_span":7,
                                 "start_ns":60,"dur_ns":300,"children":[]}]},
                   {"name":"cluster.attempt","node":"n2","via":"hedge",
                    "hedge_loser":true,"start_ns":500,"dur_ns":0,
                    "error":"cancelled before send","children":[]}]
            }}"#,
        )
        .unwrap();
        audit_trace("", "x", &cancelled, &mut tally).expect("valid tree");
        assert_eq!((tally.forests, tally.losers), (0, 0));

        let bare = Json::parse(r#"{"status":"ok","id":"x"}"#).unwrap();
        assert!(audit_trace("", "x", &bare, &mut tally).is_err());
    }
}
