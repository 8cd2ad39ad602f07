//! `traffic`: open-loop, Zipf-skewed arrivals against an in-process
//! `MoqoServer` running its own defaults except [`MAX_LIVE`].
//!
//! Template draws come from a pool of three kinds — exact repeats,
//! stats-drifted twins of the repeats (`testkit::drift_cardinalities`)
//! and novel `testkit::random_query`s (a fresh query on every draw). The
//! pool is larger than the server's frontier-cache capacity, so the
//! cache evicts. Every request carries a [`Preference`], so each session
//! auto-selects a plan at `alpha_T` and ends.
//!
//! After set-up the run measures the server's capacity: its throughput
//! while saturated by the pool's mix, once the caches are warm. It then
//! offers two steps on a fixed seeded schedule: `nominal` at 0.3 times
//! that capacity and `overload` at 1.5 times it.
//!
//! Arrivals are sent at their due times by [`SENDERS`] threads and every
//! latency is measured from the due time; completions are handled by
//! another thread woken by the server's event hook, never on the arrival
//! path.

use crate::report::{ms, overhead_pct, us, EndToEnd, Failure, Layers, Ledger, RunResult};
use crate::trace;
use crate::util::{
    cost_model, due_latency_ms, server_schedule, timed_setups, Zipf, DEADLINE, GOODPUT_LIMIT_MS,
};
use crate::RunConfig;
use moqo_bench::{Samples, Summary, XorShift};
use moqo_core::{
    AdmissionResponse, InvocationReport, Preference, Session, SessionCommand, SessionEvent,
    SessionRequest,
};
use moqo_cost::{coverage_factor, CostVector};
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{MoqoServer, ServeConfig, Ticket, TicketStatus};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Offered load of the `nominal` step, as a share of capacity. Lower
/// than half on purpose: the host's speed drifts by 10–20 % within a run,
/// and at 0.5 such a drift moved the nominal p99 by up to 5x.
pub const NOMINAL_LOAD: f64 = 0.3;
/// Offered load of the `overload` step, as a share of capacity.
pub const OVERLOAD_LOAD: f64 = 1.5;
/// Arrival threads. With the completion thread that makes the
/// benchmark's client threads; the submit path runs on them.
const SENDERS: usize = 2;
/// How often the completion thread looks at every live ticket.
const SWEEP: Duration = Duration::from_millis(20);
/// Share of the measured time spent in the `nominal` step; the rest is
/// the `overload` step, which the end-to-end latencies are taken from.
const NOMINAL_SHARE: f64 = 0.35;
/// Pool size relative to the server's total frontier-cache capacity.
const POOL_OVER_CACHE: f64 = 4.0;
/// Generates the template pool (fixed across runs).
const POOL_SEED: u64 = 0x005e_ed0f_7001;
/// Zipf exponent of the template draws: the one `repro replay` uses
/// (docs/benchmarks.md). An assumption, not a measured popularity.
const ZIPF_S: f64 = 1.1;

/// Live sessions admitted before the reject policy engages. The only
/// setting that differs from `ServeConfig::default()` (256). At 256 the
/// overload step queues four times as many sessions per worker, and its
/// latencies did not repeat: over five seeds on a 2-CPU host the
/// first-frontier p99 ranged from 415 to 1121 ms (interquartile range
/// 0.97 of the median) and the calibrated capacity from 535 to 1250
/// sessions/s. At 64 the same runs stayed within 0.22, and the nominal
/// step's bursts still stay well clear of the bound.
pub const MAX_LIVE: usize = 64;

/// The server configuration: defaults except [`MAX_LIVE`].
pub fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.admission.max_live = MAX_LIVE;
    config
}

/// Template kinds, in `load.share_*` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A pool template drawn again: warm once parked.
    Repeat = 0,
    /// A repeat's twin under drifted statistics: a rebase candidate.
    Drifted = 1,
    /// A fresh query on every draw: always cold.
    Novel = 2,
}

struct Pool {
    /// `None` marks a novel slot.
    slots: Vec<Option<Arc<QuerySpec>>>,
    kinds: Vec<Kind>,
    zipf: Zipf,
}

impl Pool {
    /// A pool of `size` templates. Kinds follow the Zipf rank (every
    /// tenth rank novel, two in ten drifted twins, the rest repeats), and
    /// the pool is the same for every seed, so each run offers the same
    /// mix of work; the seed draws the arrival sequence, the preferences
    /// and the novel queries.
    fn new(size: usize) -> Pool {
        let mut rng = XorShift::new(POOL_SEED);
        let mut slots = Vec::with_capacity(size);
        let mut kinds = Vec::with_capacity(size);
        let mut repeats: Vec<Arc<QuerySpec>> = Vec::new();
        for rank in 0..size {
            match rank % 10 {
                3 => {
                    slots.push(None);
                    kinds.push(Kind::Novel);
                }
                5 | 8 => {
                    let base = &repeats[(rng.next_u64() % repeats.len() as u64) as usize];
                    let factor = 0.5 + 1.5 * rng.next_f64();
                    slots.push(Some(Arc::new(testkit::drift_cardinalities(base, factor))));
                    kinds.push(Kind::Drifted);
                }
                _ => {
                    let n = 4 + (rng.next_u64() % 3) as usize;
                    let spec = Arc::new(testkit::random_query(n, POOL_SEED + rank as u64));
                    repeats.push(spec.clone());
                    slots.push(Some(spec));
                    kinds.push(Kind::Repeat);
                }
            }
        }
        Pool {
            slots,
            kinds,
            zipf: Zipf::new(size, ZIPF_S),
        }
    }

    /// Draws one arrival. `novel_seed` names the query a novel draw
    /// generates.
    fn draw(&self, rng: &mut XorShift, novel_seed: u64) -> Arrival {
        let slot = self.zipf.sample(rng);
        let kind = self.kinds[slot];
        let (key, spec) = match &self.slots[slot] {
            Some(spec) => (TemplateKey::Pool(slot), spec.clone()),
            None => {
                let n = 4 + (novel_seed % 2) as usize;
                let spec = Arc::new(testkit::random_query(n, novel_seed));
                (TemplateKey::Novel(novel_seed), spec)
            }
        };
        let dim = 3;
        let weights: Vec<f64> = (0..dim).map(|_| 0.1 + rng.next_f64()).collect();
        Arrival {
            kind,
            key,
            request: SessionRequest::new(spec).with_preference(Preference::WeightedSum(weights)),
        }
    }
}

/// Identifies the template a reference frontier belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TemplateKey {
    Pool(usize),
    Novel(u64),
}

struct Arrival {
    kind: Kind,
    key: TemplateKey,
    request: SessionRequest,
}

/// What the arrival side tells the completion thread about a ticket.
#[derive(Clone)]
struct Info {
    due: Instant,
    submitted: Instant,
    step: usize,
    key: TemplateKey,
    spec: Arc<QuerySpec>,
}

enum Msg {
    Register(Ticket, Info),
    Wake(Option<Ticket>),
    Stop,
}

/// A session's observed stream.
struct Tracked {
    info: Info,
    frontier_len: usize,
    first_frontier: Option<Instant>,
    first_event: Option<Instant>,
    last_event: Option<Instant>,
    reports: Vec<InvocationReport>,
    first_report: Option<InvocationReport>,
    terminals: u32,
}

/// A session whose terminal event arrived.
struct Completed {
    info: Info,
    first_frontier: Option<Instant>,
    first_event: Option<Instant>,
    terminal: Instant,
    reports: Vec<InvocationReport>,
    first_report: Option<InvocationReport>,
    terminals: u32,
    warm_start: bool,
    /// Plans the first invocation generated, from the final view.
    first_plans: Option<u64>,
    frontier: Vec<CostVector>,
    selected_on_frontier: bool,
}

/// What the completion thread hands back when stopped.
#[derive(Default)]
struct Harvest {
    completed: Vec<Completed>,
    ledger: Ledger,
}

impl Tracked {
    fn new(info: Info) -> Self {
        Tracked {
            info,
            frontier_len: 0,
            first_frontier: None,
            first_event: None,
            last_event: None,
            reports: Vec::new(),
            first_report: None,
            terminals: 0,
        }
    }

    fn observe(&mut self, event: &SessionEvent, now: Instant) {
        // Events are numbered from 1; a first received epoch above 1
        // means the admission-time prime already showed a frontier.
        if self.first_event.is_none() && event.epoch > 1 {
            self.first_frontier = Some(self.info.submitted);
        }
        if event.delta.reset {
            self.frontier_len = 0;
        }
        self.frontier_len =
            (self.frontier_len + event.delta.added.len()).saturating_sub(event.delta.removed.len());
        if self.first_frontier.is_none() && self.frontier_len > 0 {
            self.first_frontier = Some(now);
        }
        self.first_event.get_or_insert(now);
        self.last_event = Some(now);
        if let Some(r) = &event.first_report {
            self.first_report = Some(r.clone());
        }
        if let Some(r) = &event.report {
            self.reports.push(r.clone());
        }
        if event.outcome.is_some() {
            self.terminals += 1;
        }
    }
}

/// The completion thread: drains each woken ticket's events, records
/// arrival times, and files finished sessions.
fn completion_loop(server: Arc<MoqoServer>, inbox: Receiver<Msg>, done: Arc<AtomicU64>) -> Harvest {
    let mut harvest = Harvest::default();
    let mut live: HashMap<Ticket, Tracked> = HashMap::new();
    let mut stopping = false;
    let mut swept = Instant::now();
    let drain = |t: Ticket, live: &mut HashMap<Ticket, Tracked>, harvest: &mut Harvest| {
        let Some(tracked) = live.get_mut(&t) else {
            return;
        };
        while let Some(event) = server.recv(t, Duration::ZERO) {
            tracked.observe(&event, Instant::now());
        }
        // The ticket's channel is primed at admission with the session's
        // state as of then; a session that finished before that carries
        // its terminal event in the prime and sends nothing more.
        if tracked.last_event.is_none() {
            if let Some(TicketStatus::Active { view, .. }) = server.poll(t) {
                if view.is_finished() {
                    tracked.first_frontier = Some(tracked.info.submitted);
                    tracked.last_event = Some(tracked.info.submitted);
                    tracked.terminals += 1;
                } else if view.epoch > 0 && tracked.first_frontier.is_none() {
                    // The prime (or an event this poll folded) already
                    // showed a frontier; it was visible by now at latest.
                    tracked.first_frontier = Some(Instant::now());
                }
            }
        }
        if tracked.terminals > 0 {
            let tracked = live.remove(&t).expect("present");
            harvest.completed.push(file(&server, t, tracked));
            done.fetch_add(1, Ordering::Relaxed);
        }
    };
    loop {
        match inbox.recv_timeout(SWEEP) {
            // A session may have finished inside `submit`, before its
            // ticket could be routed a wake: look at it right away.
            Ok(Msg::Register(t, info)) => {
                live.insert(t, Tracked::new(info));
                drain(t, &mut live, &mut harvest);
            }
            Ok(Msg::Wake(Some(t))) => drain(t, &mut live, &mut harvest),
            Ok(Msg::Wake(None)) => swept = Instant::now() - SWEEP,
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Msg::Stop) | Err(RecvTimeoutError::Disconnected) => stopping = true,
        }
        // Sweep every ticket now and then (and on a generic wake), so a
        // missed wake delays a session by at most SWEEP, never strands it.
        if swept.elapsed() >= SWEEP {
            let tickets: Vec<Ticket> = live.keys().copied().collect();
            for t in tickets {
                drain(t, &mut live, &mut harvest);
            }
            swept = Instant::now();
        }
        // Deadlines: a session that has not ended within DEADLINE of its
        // submission is counted failed and dropped.
        let now = Instant::now();
        let overdue: Vec<Ticket> = live
            .iter()
            .filter(|(_, tr)| now - tr.info.submitted > DEADLINE)
            .map(|(t, _)| *t)
            .collect();
        for t in overdue {
            live.remove(&t);
            done.fetch_add(1, Ordering::Relaxed);
            harvest.ledger.fail(Failure::Deadline);
            let _ = server.command(t, SessionCommand::Cancel);
            server.finish(t);
        }
        if stopping && live.is_empty() {
            return harvest;
        }
    }
}

/// Reads the final view of a finished ticket.
fn file(server: &MoqoServer, ticket: Ticket, tracked: Tracked) -> Completed {
    let (warm_start, frontier, selected_on_frontier, first_plans) = match server.poll(ticket) {
        Some(TicketStatus::Active {
            warm_start, view, ..
        }) => {
            let on = view
                .selected()
                .is_some_and(|p| view.frontier.points.iter().any(|pt| pt.plan == p));
            let first_plans = view.first_report.as_ref().map(|r| r.plans_generated);
            (warm_start, view.frontier.costs(), on, first_plans)
        }
        _ => (false, Vec::new(), false, None),
    };
    Completed {
        terminal: tracked.last_event.unwrap_or_else(Instant::now),
        info: tracked.info,
        first_frontier: tracked.first_frontier,
        first_event: tracked.first_event,
        reports: tracked.reports,
        first_report: tracked.first_report,
        terminals: tracked.terminals,
        warm_start,
        first_plans,
        frontier,
        selected_on_frontier,
    }
}

/// A running server with its completion thread.
struct Rig {
    server: Arc<MoqoServer>,
    to_completion: Sender<Msg>,
    completion: Option<thread::JoinHandle<Harvest>>,
    /// Sessions the completion thread has finished with.
    done: Arc<AtomicU64>,
}

impl Rig {
    fn start() -> Rig {
        let server = Arc::new(MoqoServer::new(
            cost_model(),
            server_schedule(),
            serve_config(),
        ));
        let (to_completion, _) = mpsc::channel();
        let mut rig = Rig {
            server,
            to_completion,
            completion: None,
            done: Arc::new(AtomicU64::new(0)),
        };
        rig.restart();
        rig
    }

    /// Stops the completion thread once every registered session ended
    /// (or missed its deadline) and returns what it saw.
    fn harvest(&mut self) -> Harvest {
        let _ = self.to_completion.send(Msg::Stop);
        self.completion
            .take()
            .expect("harvest once per completion thread")
            .join()
            .expect("completion thread panicked")
    }

    /// Starts a completion thread for the next phase, wired to the
    /// server's event hook.
    fn restart(&mut self) {
        let (tx, rx) = mpsc::channel();
        let hook_tx = Mutex::new(tx.clone());
        self.server.set_event_hook(Arc::new(move |t| {
            let _ = hook_tx.lock().expect("hook sender").send(Msg::Wake(t));
        }));
        let (server, done) = (self.server.clone(), self.done.clone());
        self.completion = Some(thread::spawn(move || completion_loop(server, rx, done)));
        self.to_completion = tx;
    }

    /// Submits one arrival and registers it with the completion thread.
    /// Returns whether it was admitted, or `Err` on a protocol error.
    fn send(
        &self,
        arrival: Arrival,
        due: Instant,
        step: usize,
        sent: &mut Sent,
    ) -> Result<bool, ()> {
        let sent_at = Instant::now();
        let spec = arrival.request.spec.clone();
        let submitted = trace::span("serve.submit", 0, || self.server.submit(arrival.request));
        let returned = Instant::now();
        sent.submit_us.push(us(returned - sent_at));
        match submitted {
            Ok((_, AdmissionResponse::Rejected(_))) => Ok(false),
            Ok((ticket, _)) => {
                let info = Info {
                    due,
                    submitted: returned,
                    step,
                    key: arrival.key,
                    spec,
                };
                let _ = self.to_completion.send(Msg::Register(ticket, info));
                Ok(true)
            }
            Err(_) => Err(()),
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if self.completion.is_some() {
            self.harvest();
        }
    }
}

/// One offered-load step: `rate` arrivals per second for `seconds`.
#[derive(Clone, Copy, Debug)]
struct Step {
    rate: f64,
    seconds: f64,
}

/// What the arrival side saw.
struct Sent {
    /// When the first step began.
    start: Instant,
    per_step_admitted: [u64; 2],
    per_step_rejected: [u64; 2],
    per_step_arrivals: [u64; 2],
    kind_counts: [u64; 3],
    send_lag_ms: Samples,
    submit_us: Samples,
    protocol_errors: u64,
}

impl Sent {
    fn new(start: Instant) -> Self {
        Sent {
            start,
            per_step_admitted: [0; 2],
            per_step_rejected: [0; 2],
            per_step_arrivals: [0; 2],
            kind_counts: [0; 3],
            send_lag_ms: Samples::new(),
            submit_us: Samples::new(),
            protocol_errors: 0,
        }
    }

    /// Folds another sender thread's record into this one.
    fn merge(&mut self, other: Sent) {
        for s in 0..2 {
            self.per_step_admitted[s] += other.per_step_admitted[s];
            self.per_step_rejected[s] += other.per_step_rejected[s];
            self.per_step_arrivals[s] += other.per_step_arrivals[s];
        }
        for k in 0..3 {
            self.kind_counts[k] += other.kind_counts[k];
        }
        for &v in other.send_lag_ms.as_slice() {
            self.send_lag_ms.push(v);
        }
        for &v in other.submit_us.as_slice() {
            self.submit_us.push(v);
        }
        self.protocol_errors += other.protocol_errors;
    }
}

/// Offers `steps` back to back on a fixed schedule. Every arrival is
/// drawn (and its query generated) before the clock starts; [`SENDERS`]
/// threads take alternate arrivals, so one slow submit delays at most
/// the next arrival of its own thread.
fn offer(rig: &Rig, pool: &Pool, rng: &mut XorShift, steps: &[Step], novel_base: u64) -> Sent {
    let mut plans: Vec<Vec<(f64, usize, Arrival)>> = (0..SENDERS).map(|_| Vec::new()).collect();
    let mut offset = 0.0;
    let mut novel = novel_base;
    let mut i_all = 0usize;
    for (s, step) in steps.iter().enumerate() {
        let n = (step.rate * step.seconds).ceil() as usize;
        for i in 0..n {
            novel += 1;
            let at = offset + i as f64 / step.rate;
            plans[i_all % SENDERS].push((at, s, pool.draw(rng, novel)));
            i_all += 1;
        }
        offset += step.seconds;
    }
    let start = Instant::now();
    let parts: Vec<Sent> = thread::scope(|scope| {
        let senders: Vec<_> = plans
            .into_iter()
            .map(|plan| scope.spawn(move || send_plan(rig, plan, start)))
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut sent = Sent::new(start);
    for part in parts {
        sent.merge(part);
    }
    sent
}

/// One sender thread: sends each arrival at its due time.
fn send_plan(rig: &Rig, plan: Vec<(f64, usize, Arrival)>, start: Instant) -> Sent {
    let mut sent = Sent::new(start);
    for (at, s, arrival) in plan {
        let due = start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        sent.send_lag_ms.push(due_latency_ms(due, Instant::now()));
        sent.kind_counts[arrival.kind as usize] += 1;
        sent.per_step_arrivals[s] += 1;
        match rig.send(arrival, due, s, &mut sent) {
            Ok(true) => sent.per_step_admitted[s] += 1,
            Ok(false) => sent.per_step_rejected[s] += 1,
            Err(()) => sent.protocol_errors += 1,
        }
    }
    sent
}

/// The pool, a running server, and its capacity measured over the
/// pool's mix once the caches are warm.
struct Setup {
    pool: Pool,
    rig: Rig,
    capacity: f64,
}

/// The timed set-up: the template pool and a started server. The
/// capacity calibration runs once afterwards, outside `setup_s`, since
/// it is a fixed wall-clock schedule of the benchmark's own.
fn setup() -> (Pool, Rig) {
    let defaults = serve_config();
    let cache_total = defaults.shard.shards * defaults.shard.engine.cache_capacity;
    let pool = Pool::new((cache_total as f64 * POOL_OVER_CACHE) as usize);
    (pool, Rig::start())
}

/// Offered rate while calibrating: far above any capacity this server
/// reaches on the hosts it runs on, so admission keeps it saturated.
const CALIBRATION_RATE: f64 = 3000.0;
/// Saturated warm-up before the capacity is timed.
const CALIBRATION_WARMUP: f64 = 2.0;
/// Timed calibration windows; the capacity is their median rate, which
/// a transient stall in one window cannot move.
const CALIBRATION_WINDOWS: usize = 12;
/// Length of one timed calibration window, in seconds.
const CALIBRATION_WINDOW: f64 = 0.25;
/// Draws the calibration arrivals: the same for every seed, so the
/// capacity the steps are scaled by does not depend on the seed.
const CALIBRATION_SEED: u64 = 0xca11_b7a7e;

/// The saturated server's throughput: sessions finished per second
/// while arrivals far exceed what it can take (the excess is refused),
/// the median over timed windows after a warm-up that fills the caches.
fn calibrate(rig: &mut Rig, pool: &Pool) -> f64 {
    let mut rng = XorShift::new(CALIBRATION_SEED);
    let seconds = CALIBRATION_WARMUP + CALIBRATION_WINDOWS as f64 * CALIBRATION_WINDOW;
    let step = Step {
        rate: CALIBRATION_RATE,
        seconds,
    };
    let sent = offer(rig, pool, &mut rng, &[step], u64::MAX / 2);
    let harvest = rig.harvest();
    rig.restart();
    let mut finished = [0u64; CALIBRATION_WINDOWS];
    for c in &harvest.completed {
        let at = (c.terminal - sent.start).as_secs_f64() - CALIBRATION_WARMUP;
        if at >= 0.0 {
            if let Some(n) = finished.get_mut((at / CALIBRATION_WINDOW) as usize) {
                *n += 1;
            }
        }
    }
    let rates: Samples = finished
        .iter()
        .map(|&n| n as f64 / CALIBRATION_WINDOW)
        .collect();
    Summary::of(&rates).expect("calibration windows").p50
}

/// Measures one nominal + overload sequence.
struct Phase {
    e2e: EndToEnd,
    ledger: Ledger,
    layers: Layers,
    /// Sessions to check against references.
    completed: Vec<Completed>,
}

fn measure(setup: &mut Setup, rng: &mut XorShift, seconds: f64, novel_base: u64) -> Phase {
    let nominal_rate = NOMINAL_LOAD * setup.capacity;
    let steps = [
        Step {
            rate: nominal_rate,
            seconds: seconds * NOMINAL_SHARE,
        },
        Step {
            rate: OVERLOAD_LOAD * setup.capacity,
            seconds: seconds * (1.0 - NOMINAL_SHARE),
        },
    ];
    let before = setup.rig.server.stats();
    let sent = offer(&setup.rig, &setup.pool, rng, &steps, novel_base);
    let harvest = setup.rig.harvest();
    let after = setup.rig.server.stats();
    setup.rig.restart();

    let mut ledger = harvest.ledger;
    ledger.attempted += sent.per_step_arrivals.iter().sum::<u64>();
    for _ in 0..sent.protocol_errors {
        ledger.fail(Failure::Protocol);
    }
    ledger.check(sent.per_step_rejected[0] == 0, || {
        format!(
            "nominal step ({nominal_rate:.1}/s) rejected {} of {} arrivals",
            sent.per_step_rejected[0], sent.per_step_arrivals[0]
        )
    });
    ledger.check(sent.per_step_rejected[1] > 0, || {
        format!(
            "overload step ({:.1}/s) never engaged admission",
            steps[1].rate
        )
    });

    let overload_start = sent.start + Duration::from_secs_f64(steps[0].seconds);
    let overload = (
        overload_start,
        overload_start + Duration::from_secs_f64(steps[1].seconds),
    );
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut warm = 0u64;
    for c in &harvest.completed {
        let first = c.first_frontier.map(|t| due_latency_ms(c.info.due, t));
        if c.info.step == 0 {
            if let Some(first) = first {
                layers.nominal_first_frontier_ms.push(first);
            }
        } else {
            // End-to-end latencies come from the overload step: at light
            // load this host's latencies follow its neighbours (vCPU
            // wake-ups), under saturation they follow the server.
            if let Some(first) = first {
                e2e.first_frontier_ms.push(first);
                if first <= GOODPUT_LIMIT_MS {
                    e2e.good_sessions += 1;
                }
            }
            e2e.target_frontier_ms
                .push(due_latency_ms(c.info.due, c.terminal));
            for r in &c.reports {
                e2e.invocation_ms.push(ms(r.duration));
            }
        }
        // Throughput: sessions the saturated server finished during the
        // overload step.
        if c.terminal >= overload.0 && c.terminal < overload.1 {
            e2e.sessions += 1;
        }
        // Per-layer: every completed session.
        layers.sessions += 1;
        warm += c.warm_start as u64;
        for r in &c.reports {
            layers.invoke_ms.push(ms(r.duration));
            layers.plans_generated += r.plans_generated;
            layers.pairs_generated += r.pairs_generated;
            layers.candidates_retrieved += r.candidates_retrieved;
            layers.splits_visited += r.splits_visited;
            layers.splits_skipped += r.splits_skipped;
            layers.result_insertions += r.result_insertions;
        }
        if let (Some(fr), Some(fe)) = (&c.first_report, c.first_event) {
            layers.first_invoke_ms.push(ms(fr.duration));
            let wait = ms(fe.saturating_duration_since(c.info.submitted)) - ms(fr.duration);
            layers.engine_wait_ms.push(wait.max(0.0));
        }
    }
    e2e.session_seconds = steps[1].seconds;
    e2e.goodput_seconds = steps[1].seconds;
    layers.warm_start_share = warm as f64 / harvest.completed.len().max(1) as f64;
    layers.send_lag_ms = sent.send_lag_ms;
    layers.submit_us = sent.submit_us;
    layers.kind_counts = sent.kind_counts;
    layers.add_server_stats(&before, &after);
    Phase {
        e2e,
        ledger,
        layers,
        completed: harvest.completed,
    }
}

/// Output checks on finished sessions: exactly one terminal event, a
/// selected plan on the final frontier, zero plans in a warm start's
/// first invocation, and Theorem 2 against a reference computed by a
/// direct `Session` (memoized per template).
fn check(completed: &[Completed], ledger: &mut Ledger) {
    let model = cost_model();
    let schedule = server_schedule();
    let mut references: HashMap<TemplateKey, Vec<CostVector>> = HashMap::new();
    for c in completed {
        let name = &c.info.spec.name;
        ledger.check(c.terminals == 1, || {
            format!("{name}: {} terminal events", c.terminals)
        });
        ledger.check(c.selected_on_frontier, || {
            format!("{name}: the selected plan is not on the final frontier")
        });
        if c.warm_start {
            let plans = c.first_plans;
            ledger.check(plans == Some(0), || {
                format!("{name}: warm start generated {plans:?} plans in its first invocation")
            });
        }
        let reference = references.entry(c.info.key).or_insert_with(|| {
            let mut session = Session::open(
                SessionRequest::new(c.info.spec.clone()),
                model.clone(),
                schedule.clone(),
            )
            .expect("a bare request is valid");
            session.run_uninterrupted(schedule.levels());
            session.frontier().costs()
        });
        let guarantee = schedule.guarantee(schedule.r_max(), c.info.spec.n_tables()) + 1e-9;
        let covered = coverage_factor(&c.frontier, reference);
        ledger.check(covered <= guarantee, || {
            format!(
                "{name}: final frontier covers the reference only within {covered} > {guarantee}"
            )
        });
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let ((pool, mut rig), setup_s) = timed_setups(setup);
    let capacity = calibrate(&mut rig, &pool);
    eprintln!("traffic: capacity {capacity:.1} sessions/s");
    let mut setup = Setup {
        pool,
        rig,
        capacity,
    };
    let mut rng = XorShift::new(config.seed ^ 0x0ff_e4ed);
    // Novel queries are generated from the seed; the traced half draws
    // its own.
    let novel_base = config.seed << 32;
    if !config.trace {
        let mut phase = measure(&mut setup, &mut rng, config.seconds, novel_base);
        eprintln!("traffic: {}", phase.e2e.describe());
        check(&phase.completed, &mut phase.ledger);
        phase.e2e.check_p99s(&mut phase.ledger);
        return RunResult {
            ledger: phase.ledger,
            metrics: phase.e2e.into_metrics(setup_s),
        };
    }
    let half = config.seconds / 2.0;
    let plain = measure(&mut setup, &mut rng, half, novel_base);
    trace::enable();
    let mut traced = measure(&mut setup, &mut rng, half, novel_base | 1 << 31);
    trace::disable();
    let spans = trace::take();
    let mut ledger = plain.ledger;
    ledger.merge(&traced.ledger);
    check(&plain.completed, &mut ledger);
    check(&traced.completed, &mut ledger);
    traced.layers.overhead_pct =
        overhead_pct(&plain.e2e.first_frontier_ms, &traced.e2e.first_frontier_ms);
    crate::finish_trace(&mut traced.layers, &spans, "traffic", config.seed, &ledger);
    RunResult {
        ledger,
        metrics: traced.layers.into_metrics(),
    }
}
