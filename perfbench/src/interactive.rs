//! `interactive`: closed-loop `NetClient`s dragging bounds mid-ladder.
//!
//! `nproc` client threads, each with one connection at a time, run
//! sessions against a `NetServer` (server defaults) in the same process
//! over loopback. Each session submits a TPC-H block with 4–8 tables
//! under freshly drifted statistics ([`drifted`], a seeded factor per
//! session — the hourly stats refresh) and waits for
//! the first frontier. It then runs a seeded script of `SetBounds`
//! drags — tighten one metric to a frontier quantile, drag a second
//! metric, then loosen to unbounded — each sent before the ladder
//! settles, waiting for the first event under the new bounds after each
//! one. After the loosen it waits for the frontier at `alpha_T`, selects
//! a plan and waits for the terminal event.
//!
//! Drifted statistics make every session an exact-fingerprint miss whose
//! shape has a parked donor, so the engine seeds it by rebase: the
//! donor's plans re-enter as level-0 candidates, and candidate
//! re-examination replaces fresh pair generation. Set-up parks one donor
//! per block.
//!
//! After the measured phase every session's script is replayed through
//! a direct optimizer on the same drifted block. Its final frontier is
//! the Theorem 2 reference for that session, and its `OptimizerStats`
//! supply the counts the wire does not carry.

use crate::ladder::apply_traced;
use crate::report::{
    ms, overhead_pct, windowed_p99, EndToEnd, Failure, Layers, Ledger, Metrics, RunResult,
};
use crate::trace;
use crate::util::{cost_model, server_schedule, timed_setups, DEADLINE, GOODPUT_LIMIT_MS};
use crate::RunConfig;
use moqo_bench::{Samples, Summary, XorShift};
use moqo_catalog::CatalogBuilder;
use moqo_core::{
    FrontierSnapshot, IamaConfig, IamaOptimizer, InvocationReport, OptimizerStats, Session,
    SessionCommand, SessionEvent, SessionRequest, SessionView,
};
use moqo_cost::{coverage_factor, Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_query::{JoinGraph, QuerySpec};
use moqo_serve::{
    ModelRegistry, MoqoServer, NetClient, NetConfig, NetError, NetServer, NetStats, ServeConfig,
    ServerStats,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Smallest and largest block sizes (tables) the sessions submit.
const TABLES: std::ops::RangeInclusive<usize> = 4..=8;

struct Block {
    spec: Arc<QuerySpec>,
}

struct Setup {
    net: Option<NetServer>,
    addr: SocketAddr,
    blocks: Vec<Block>,
    model: SharedCostModel,
    schedule: ResolutionSchedule,
}

impl Setup {
    /// Shuts the network front down, waiting at most [`DEADLINE`]. A
    /// front whose event loop no longer wakes cannot be joined; that is
    /// counted as a missed deadline and its threads are left to end with
    /// the process.
    fn shutdown(&mut self, ledger: &mut Ledger) {
        let Some(net) = self.net.take() else { return };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            net.shutdown();
            let _ = done_tx.send(());
        });
        if done_rx.recv_timeout(DEADLINE).is_err() {
            ledger.fail(Failure::Deadline);
        }
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.shutdown(&mut Ledger::default());
    }
}

/// `testkit::drift_cardinalities` for blocks that join one table more
/// than once: every position gets its own catalog entry, named
/// `<table>#<position>` (fingerprints ignore names), with its
/// cardinality scaled by `factor`.
pub fn drifted(spec: &QuerySpec, factor: f64) -> QuerySpec {
    let mut catalog = CatalogBuilder::new();
    let ids = (0..spec.graph.n_tables())
        .map(|pos| {
            let t = spec.catalog.table(spec.graph.tables[pos]);
            let card = ((t.cardinality as f64 * factor) as u64).max(10);
            catalog.add_table(
                format!("{}#{pos}", t.name),
                card,
                t.row_width,
                t.columns.clone(),
            )
        })
        .collect();
    let mut graph = JoinGraph::new(ids);
    for e in &spec.graph.edges {
        graph.add_edge(e.left, e.right, e.selectivity);
    }
    for (pos, &f) in spec.graph.filters.iter().enumerate() {
        graph.set_filter(pos, f);
    }
    QuerySpec::new(spec.name.clone(), graph, Arc::new(catalog.build()))
}

/// A direct `Session` through the full ladder, unbounded.
fn reference_ladder(
    spec: &Arc<QuerySpec>,
    model: &SharedCostModel,
    schedule: &ResolutionSchedule,
) -> IamaOptimizer {
    let optimizer = IamaOptimizer::new(spec.clone(), model.clone(), schedule.clone());
    let mut session = Session::new(optimizer);
    session.run_uninterrupted(schedule.levels());
    session.into_optimizer()
}

fn setup() -> Setup {
    let model = cost_model();
    let schedule = server_schedule();
    let server = Arc::new(MoqoServer::new(
        model.clone(),
        schedule.clone(),
        ServeConfig::default(),
    ));
    let blocks = moqo_tpch::all_join_blocks(1.0)
        .into_iter()
        .filter(|q| TABLES.contains(&q.n_tables()))
        .map(|spec| {
            let spec = Arc::new(drifted(&spec, 1.0));
            let optimizer = reference_ladder(&spec, &model, &schedule);
            server
                .engine()
                .park(server.engine().fingerprint(&spec), optimizer);
            Block { spec }
        })
        .collect();
    let registry = Arc::new(ModelRegistry::with_default(model.clone()));
    let net = NetServer::bind(server, registry, NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    Setup {
        net: Some(net),
        addr,
        blocks,
        model,
        schedule,
    }
}

/// The bounds a session's script sets, in order.
fn script(frontier: &FrontierSnapshot, dim: usize, rng: &mut XorShift) -> [Bounds; 3] {
    let quantile = |m: usize, q: f64| {
        let mut xs: Vec<f64> = frontier.points.iter().map(|p| p.cost[m]).collect();
        xs.sort_by(f64::total_cmp);
        xs[((xs.len() - 1) as f64 * q) as usize]
    };
    let m1 = (rng.next_u64() % dim as u64) as usize;
    let m2 = (m1 + 1 + (rng.next_u64() % (dim as u64 - 1)) as usize) % dim;
    let unbounded = Bounds::unbounded(dim);
    let tighten = unbounded.with_limit(m1, quantile(m1, 0.3 + 0.4 * rng.next_f64()));
    let drag = tighten.with_limit(m2, quantile(m2, 0.5 + 0.4 * rng.next_f64()));
    [tighten, drag, unbounded]
}

/// A completed session: what it submitted, the bounds it set, and the
/// frontier it ended with.
struct Played {
    spec: Arc<QuerySpec>,
    bounds: [Bounds; 3],
    frontier: Vec<CostVector>,
}

/// What one client thread measured.
#[derive(Default)]
struct Tally {
    e2e: EndToEnd,
    ledger: Ledger,
    layers: Layers,
    /// Completed sessions, for the replay.
    played: Vec<Played>,
}

/// One connection's session state while its script runs.
struct Conn {
    client: NetClient,
    /// Folded separately under `net.fold` spans (traced runs) and
    /// compared with the client's own view at the end.
    shadow: SessionView,
    traced: bool,
    sid: u64,
    /// Core time of the invocations received since the last mark.
    core_ms: f64,
    reports: Vec<InvocationReport>,
    first_event: Option<Instant>,
}

impl Conn {
    /// Receives until `pred` holds for a received event, or the deadline.
    fn wait_for(
        &mut self,
        deadline: Instant,
        mut pred: impl FnMut(&SessionEvent, &SessionView) -> bool,
    ) -> Result<Instant, Failure> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(Failure::Deadline);
            }
            match self.client.recv(deadline - now) {
                Ok(Some(event)) => {
                    let seen = Instant::now();
                    self.first_event.get_or_insert(seen);
                    if self.traced {
                        let folded = trace::span("net.fold", self.sid, || self.shadow.fold(&event));
                        if folded.is_err() {
                            return Err(Failure::FoldGap);
                        }
                    }
                    if let Some(r) = &event.report {
                        self.core_ms += ms(r.duration);
                        self.reports.push(r.clone());
                    }
                    if pred(&event, self.client.view()) {
                        return Ok(seen);
                    }
                }
                Ok(None) if self.client.view().is_finished() => return Err(Failure::Protocol),
                Ok(None) => {}
                Err(NetError::Protocol(moqo_core::ProtocolError::EpochGap { .. })) => {
                    return Err(Failure::FoldGap)
                }
                Err(_) => return Err(Failure::Protocol),
            }
        }
    }
}

/// Runs one scripted session; `Err` drops the connection.
fn session(
    setup: &Setup,
    b: usize,
    sid: u64,
    rng: &mut XorShift,
    traced: bool,
    tally: &mut Tally,
) -> Result<(), Failure> {
    let spec = Arc::new(drifted(&setup.blocks[b].spec, 0.5 + 1.5 * rng.next_f64()));
    let dim = setup.model.dim();
    let t_start = Instant::now();
    let client = trace::span("net.connect", sid, || NetClient::connect(setup.addr))
        .map_err(|_| Failure::Protocol)?;
    let mut conn = Conn {
        client,
        shadow: SessionView::default(),
        traced,
        sid,
        core_ms: 0.0,
        reports: Vec::new(),
        first_event: None,
    };
    let t_submit = Instant::now();
    let admission = trace::span("net.submit", sid, || {
        conn.client
            .submit(SessionRequest::new(spec.clone()), DEADLINE)
    })
    .map_err(|e| match e {
        NetError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut => Failure::Deadline,
        _ => Failure::Protocol,
    })?;
    let submitted = Instant::now();
    if !admission.is_admitted() {
        return Err(Failure::Protocol);
    }
    let shown = conn.wait_for(t_submit + DEADLINE, |_, v| !v.frontier.is_empty())?;
    let first_ms = ms(shown - t_submit);

    let bounds = script(&conn.client.view().frontier, dim, rng);
    let r_max = setup.schedule.r_max();
    let mut refocus = Vec::with_capacity(bounds.len());
    let mut residual = Vec::with_capacity(bounds.len());
    let mut loosened = t_submit;
    for b in bounds {
        conn.core_ms = 0.0;
        let sent = Instant::now();
        conn.client
            .command(SessionCommand::SetBounds(b))
            .map_err(|_| Failure::Protocol)?;
        let at = conn.wait_for(sent + DEADLINE, |e, _| e.bounds == b)?;
        refocus.push(ms(at - sent));
        residual.push(ms(at - sent) - conn.core_ms);
        loosened = sent;
    }
    // The last drag loosened to unbounded: wait for the settled ladder.
    let unbounded = bounds[2];
    let settled = conn.wait_for(loosened + DEADLINE, |e, v| {
        e.bounds == unbounded
            && v.last_report
                .as_ref()
                .is_some_and(|r| r.resolution == r_max)
    })?;
    let target_ms = ms(settled - loosened);

    let view = conn.client.view().clone();
    let name = &spec.name;
    let pick = view.frontier.points[(rng.next_u64() % view.frontier.len() as u64) as usize].plan;
    conn.client
        .command(SessionCommand::SelectPlan(pick))
        .map_err(|_| Failure::Protocol)?;
    conn.wait_for(Instant::now() + DEADLINE, |e, _| e.outcome.is_some())?;
    let finished = Instant::now();
    let errors = conn.client.take_errors();
    if !errors.is_empty() {
        return Err(Failure::Protocol);
    }
    tally
        .ledger
        .check(conn.client.view().selected() == Some(pick), || {
            format!(
                "{name}: selected {:?}, asked for {pick:?}",
                conn.client.view().selected()
            )
        });
    // Exactly one terminal event: nothing may follow it.
    let extra = conn.client.recv(Duration::from_millis(1));
    tally.ledger.check(matches!(extra, Ok(None)), || {
        format!("{name}: the stream went on after the terminal event: {extra:?}")
    });
    if traced {
        tally.ledger.check(
            conn.shadow.frontier.bits_eq(&conn.client.view().frontier),
            || format!("{name}: the span-folded view differs from the client's view"),
        );
    }

    let e2e = &mut tally.e2e;
    e2e.first_frontier_ms.push(first_ms);
    e2e.target_frontier_ms.push(target_ms);
    for r in &conn.reports {
        e2e.invocation_ms.push(ms(r.duration));
    }
    for v in &refocus {
        e2e.refocus_ms.push(*v);
    }
    let seconds = (finished - t_start).as_secs_f64();
    e2e.sessions += 1;
    e2e.session_seconds += seconds;
    e2e.goodput_seconds += seconds;
    if first_ms <= GOODPUT_LIMIT_MS {
        e2e.good_sessions += 1;
    }
    let layers = &mut tally.layers;
    layers.sessions += 1;
    for r in &conn.reports {
        layers.invoke_ms.push(ms(r.duration));
        layers.plans_generated += r.plans_generated;
        layers.pairs_generated += r.pairs_generated;
        layers.candidates_retrieved += r.candidates_retrieved;
        layers.splits_visited += r.splits_visited;
        layers.splits_skipped += r.splits_skipped;
        layers.result_insertions += r.result_insertions;
    }
    if let Some(first) = conn.client.view().first_report.as_ref() {
        layers.first_invoke_ms.push(ms(first.duration));
        if let Some(fe) = conn.first_event {
            layers
                .engine_wait_ms
                .push((ms(fe - submitted) - ms(first.duration)).max(0.0));
        }
    }
    for v in residual {
        layers.residual_ms.push(v.max(0.0));
    }
    tally.played.push(Played {
        spec,
        bounds,
        frontier: view.frontier.costs(),
    });
    Ok(())
}

/// One client thread: sessions over its own blocks until `until` has
/// passed and, when `min_sessions` is set, the threads together completed
/// that many sessions (at most until `cap`).
fn client_loop(
    setup: &Setup,
    blocks: Vec<usize>,
    seed: u64,
    (until, cap): (Instant, Instant),
    (sessions, min_sessions): (&AtomicU64, u64),
    traced: bool,
) -> Tally {
    let mut rng = XorShift::new(seed);
    let mut tally = Tally::default();
    let mut sid = seed << 32;
    loop {
        let now = Instant::now();
        if (now >= until && sessions.load(Ordering::Relaxed) >= min_sessions) || now >= cap {
            break;
        }
        let b = blocks[(rng.next_u64() % blocks.len() as u64) as usize];
        sid += 1;
        tally.ledger.attempt();
        match session(setup, b, sid, &mut rng, traced, &mut tally) {
            Ok(()) => {
                sessions.fetch_add(1, Ordering::Relaxed);
            }
            Err(kind) => tally.ledger.fail(kind),
        }
    }
    tally
}

/// Runs the client threads for `seconds` (longer, up to three times, if
/// `need_p99s` and the sessions so far leave a p99 unsupported) and
/// merges what they measured.
fn measure(setup: &Setup, seed: u64, seconds: f64, need_p99s: bool, traced: bool) -> Tally {
    let clients = thread::available_parallelism().map_or(2, |n| n.get());
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let cap = start + Duration::from_secs_f64(3.0 * seconds);
    let min_sessions = if need_p99s {
        crate::report::min_samples_for_p99() as u64
    } else {
        0
    };
    let sessions = AtomicU64::new(0);
    let tallies: Vec<Tally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let blocks: Vec<usize> = (0..setup.blocks.len())
                    .filter(|b| b % clients == c)
                    .collect();
                let seed = seed.wrapping_mul(31).wrapping_add(c as u64 + 1);
                let sessions = &sessions;
                scope.spawn(move || {
                    client_loop(
                        setup,
                        blocks,
                        seed,
                        (until, cap),
                        (sessions, min_sessions),
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        merge(&mut all, t);
    }
    all
}

fn merge(into: &mut Tally, t: Tally) {
    into.ledger.merge(&t.ledger);
    let (a, b) = (&mut into.e2e, &t.e2e);
    for (dst, src) in [
        (&mut a.first_frontier_ms, &b.first_frontier_ms),
        (&mut a.target_frontier_ms, &b.target_frontier_ms),
        (&mut a.invocation_ms, &b.invocation_ms),
        (&mut a.refocus_ms, &b.refocus_ms),
    ] {
        for &v in src.as_slice() {
            dst.push(v);
        }
    }
    a.sessions += b.sessions;
    a.session_seconds += b.session_seconds;
    a.good_sessions += b.good_sessions;
    a.goodput_seconds += b.goodput_seconds;
    let (a, b) = (&mut into.layers, &t.layers);
    for (dst, src) in [
        (&mut a.invoke_ms, &b.invoke_ms),
        (&mut a.first_invoke_ms, &b.first_invoke_ms),
        (&mut a.engine_wait_ms, &b.engine_wait_ms),
        (&mut a.residual_ms, &b.residual_ms),
    ] {
        for &v in src.as_slice() {
            dst.push(v);
        }
    }
    a.sessions += b.sessions;
    a.plans_generated += b.plans_generated;
    a.pairs_generated += b.pairs_generated;
    a.candidates_retrieved += b.candidates_retrieved;
    a.splits_visited += b.splits_visited;
    a.splits_skipped += b.splits_skipped;
    a.result_insertions += b.result_insertions;
    into.played.extend(t.played);
}

/// Replays each completed session's script through a direct optimizer
/// on the same drifted block, with pruning timed and the invocation,
/// frontier and delta steps inside spans (when tracing). The replay ends
/// under the script's final bounds at `alpha_T`, so its frontier is the
/// Theorem 2 reference the served frontier is checked against.
fn replay(setup: &Setup, played: &[Played], layers: &mut Layers, ledger: &mut Ledger) {
    let config = IamaConfig {
        time_pruning: true,
        ..IamaConfig::default()
    };
    let unbounded = Bounds::unbounded(setup.model.dim());
    let r_max = setup.schedule.r_max();
    let mut invoke_nanos = 0u64;
    for (sid, p) in played.iter().enumerate() {
        let mut opt = IamaOptimizer::with_config(
            p.spec.clone(),
            setup.model.clone(),
            setup.schedule.clone(),
            config.clone(),
        );
        // The canonical interleaving: every drag lands one refinement
        // into the ladder (after the first and the refocused frontier),
        // and the loosened ladder then runs up to the target.
        let mut steps = vec![(unbounded, 0), (unbounded, 1)];
        for b in &p.bounds[..p.bounds.len() - 1] {
            steps.extend([(*b, 0), (*b, 1)]);
        }
        steps.extend((0..=r_max).map(|r| (unbounded, r)));
        let mut shown = FrontierSnapshot::default();
        let sid = sid as u64;
        for (b, r) in steps {
            let report = apply_traced(&mut opt, &b, r, &mut shown, sid);
            invoke_nanos += report.duration.as_nanos() as u64;
        }
        add_replay(layers, opt.stats());
        let guarantee = setup.schedule.guarantee(r_max, p.spec.n_tables()) + 1e-9;
        let covered = coverage_factor(&p.frontier, &shown.costs());
        ledger.check(covered <= guarantee, || {
            format!(
                "{}: final frontier covers the replayed reference only within {covered} > {guarantee}",
                p.spec.name
            )
        });
    }
    layers.prune_base_nanos += invoke_nanos;
}

fn add_replay(layers: &mut Layers, stats: &OptimizerStats) {
    layers.pairs_skipped_watermark += stats.pairs_skipped_watermark;
    layers.stale_pairs_skipped += stats.stale_pairs_skipped;
    layers.prune_comparisons += stats.prune_comparisons;
    layers.prune_nanos += stats.prune_nanos;
}

fn server_stats(setup: &Setup) -> (ServerStats, NetStats) {
    let net = setup.net.as_ref().expect("server running");
    (net.moqo().stats(), net.stats())
}

fn stats_delta(
    before: &(ServerStats, NetStats),
    after: &(ServerStats, NetStats),
    layers: &mut Layers,
) {
    let ((s0, n0), (s1, n1)) = (before, after);
    layers.add_server_stats(s0, s1);
    layers.frames_out += n1.frames_out - n0.frames_out;
    layers.coalesced_events += n1.coalesced_events - n0.coalesced_events;
    layers.outbound_high_water = n1.outbound_high_water;
    layers.faulted += n1.faulted - n0.faulted;
    layers.stalled += n1.stalled - n0.stalled;
    layers.warm_start_share = layers.cache_hits as f64 / layers.admitted.max(1) as f64;
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let (mut setup, setup_s) = timed_setups(setup);
    if !config.trace {
        let mut tally = measure(&setup, config.seed, config.seconds, true, false);
        eprintln!("interactive: {}", tally.e2e.describe());
        tally.e2e.check_p99s(&mut tally.ledger);
        setup.shutdown(&mut tally.ledger);
        replay(
            &setup,
            &tally.played,
            &mut Layers::default(),
            &mut tally.ledger,
        );
        // `refocus_ms` is this workload's own end-to-end metric.
        let mut refocus = Metrics::default();
        let refocus_ms = &tally.e2e.refocus_ms;
        refocus.put("refocus_ms_p50", Summary::of_or_zero(refocus_ms).p50, "ms");
        refocus.put("refocus_ms_p99", windowed_p99(refocus_ms), "ms");
        let mut metrics = tally.e2e.into_metrics(setup_s);
        metrics.extend(refocus);
        return RunResult {
            ledger: tally.ledger,
            metrics,
        };
    }
    let half = config.seconds / 2.0;
    let plain = measure(&setup, config.seed, half, false, false);
    let before = server_stats(&setup);
    trace::enable();
    let mut traced = measure(&setup, config.seed ^ 0x7ace, half, false, true);
    let after = server_stats(&setup);
    let mut ledger = plain.ledger;
    ledger.merge(&traced.ledger);
    replay(&setup, &traced.played, &mut traced.layers, &mut ledger);
    trace::disable();
    replay(&setup, &plain.played, &mut Layers::default(), &mut ledger);
    let spans = trace::take();
    setup.shutdown(&mut ledger);
    let layers = &mut traced.layers;
    stats_delta(&before, &after, layers);
    layers.frontier_ms = trace::durations(&spans, "core.frontier");
    layers.delta_ms = trace::durations(&spans, "core.delta");
    layers.net_submit_us = scale(trace::durations(&spans, "net.submit"), 1e3);
    layers.connect_us = scale(trace::durations(&spans, "net.connect"), 1e3);
    layers.fold_us = scale(trace::durations(&spans, "net.fold"), 1e3);
    ledger.check(layers.candidates_retrieved > 0, || {
        "bound drags never re-examined a candidate over the wire".to_string()
    });
    // `core.stale_pairs_skipped` is reported, not required: scripts with
    // `Session` semantics (every SetBounds restarts the ladder at level
    // 0) have not been seen to reach the IsFresh fallback (README.md).
    layers.overhead_pct = overhead_pct(&plain.e2e.refocus_ms, &traced.e2e.refocus_ms);
    crate::finish_trace(layers, &spans, "interactive", config.seed, &ledger);
    let extras = traced.layers.interactive_metrics();
    let mut metrics = traced.layers.into_metrics();
    metrics.extend(extras);
    RunResult { ledger, metrics }
}

/// Multiplies every sample by `factor` (ms → us).
fn scale(samples: Samples, factor: f64) -> Samples {
    samples.as_slice().iter().map(|v| v * factor).collect()
}
