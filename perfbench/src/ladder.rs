//! `ladder`: the paper's no-interaction scenario (Figs. 3–5, Theorem 5).
//!
//! One thread runs every TPC-H join block at scale factor 1 in a seeded
//! order, each in a fresh session (enumeration plan built, optimizer
//! created over it) refined through one full Fig. 4 ladder — `alpha_T`
//! 1.005, `alpha_S` 0.5, 20 levels — with unbounded cost bounds. Passes
//! repeat until the measured time is up. Only `query`, `index` and
//! `core` do work here.

use crate::report::{ms, EndToEnd, Layers, Ledger, RunResult};
use crate::trace;
use crate::util::{cost_model, shuffle, timed_setups, GOODPUT_LIMIT_MS};
use crate::RunConfig;
use moqo_baselines::exhaustive_pareto;
use moqo_bench::XorShift;
use moqo_core::{
    FrontierDelta, FrontierSnapshot, IamaConfig, IamaOptimizer, InvocationReport, OptimizerStats,
    Session, SessionCommand,
};
use moqo_cost::{coverage_factor, Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_query::{EnumerationPlan, QuerySpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resolution levels of the Fig. 4 ladder.
pub const LEVELS: usize = 20;
/// Target precision `alpha_T` of the Fig. 4 ladder.
pub const ALPHA_T: f64 = 1.005;
/// Precision step `alpha_S` of the Fig. 4 ladder.
pub const ALPHA_S: f64 = 0.5;
/// Blocks with at most this many tables are also checked against the
/// exhaustive Pareto set.
const EXHAUSTIVE_MAX_TABLES: usize = 3;

/// The deterministic work counters one ladder must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    plans_generated: u64,
    pairs_generated: u64,
    candidate_retrievals: u64,
    result_insertions: u64,
    candidate_insertions: u64,
    splits_visited: u64,
    splits_skipped: u64,
    pairs_skipped_watermark: u64,
    stale_pairs_skipped: u64,
    prune_comparisons: u64,
    frontier_len: usize,
}

impl Counters {
    fn of(stats: &OptimizerStats, frontier_len: usize) -> Self {
        Counters {
            plans_generated: stats.plans_generated,
            pairs_generated: stats.pairs_generated,
            candidate_retrievals: stats.candidate_retrievals,
            result_insertions: stats.result_insertions,
            candidate_insertions: stats.candidate_insertions,
            splits_visited: stats.splits_visited,
            splits_skipped: stats.splits_skipped,
            pairs_skipped_watermark: stats.pairs_skipped_watermark,
            stale_pairs_skipped: stats.stale_pairs_skipped,
            prune_comparisons: stats.prune_comparisons,
            frontier_len,
        }
    }
}

/// One block with the references its ladders are checked against.
struct Block {
    spec: Arc<QuerySpec>,
    /// Counters and final frontier of a reference ladder run in set-up.
    counters: Counters,
    frontier: Vec<CostVector>,
    /// The exact Pareto set, for small blocks.
    exact: Option<Vec<CostVector>>,
}

struct Setup {
    model: SharedCostModel,
    schedule: ResolutionSchedule,
    blocks: Vec<Block>,
}

fn setup() -> Setup {
    let model = cost_model();
    let schedule = ResolutionSchedule::linear(LEVELS - 1, ALPHA_T, ALPHA_S);
    let unbounded = Bounds::unbounded(model.dim());
    let blocks = moqo_tpch::all_join_blocks(1.0)
        .into_iter()
        .map(|spec| {
            let spec = Arc::new(spec);
            let reference = run_session(&spec, &model, &schedule);
            let exact = (spec.n_tables() <= EXHAUSTIVE_MAX_TABLES)
                .then(|| exhaustive_pareto(&spec, &model, &unbounded).pareto_costs());
            Block {
                spec,
                counters: reference.counters,
                frontier: reference.frontier,
                exact,
            }
        })
        .collect();
    Setup {
        model,
        schedule,
        blocks,
    }
}

/// How long one ladder's steps took.
#[derive(Default)]
struct Timings {
    first_frontier_ms: Option<f64>,
    target_ms: f64,
    invocation_ms: Vec<f64>,
}

/// Runs `step(r)` for every level `r` of the ladder — one invocation,
/// returning its report and whether a frontier is shown — timing the
/// frontiers from `t0`, the session's start.
fn time_ladder(
    t0: Instant,
    schedule: &ResolutionSchedule,
    mut step: impl FnMut(usize) -> (InvocationReport, bool),
) -> Timings {
    let mut t = Timings::default();
    for r in 0..schedule.levels() {
        let (report, shown) = step(r);
        let done = Instant::now();
        t.invocation_ms.push(ms(report.duration));
        if t.first_frontier_ms.is_none() && shown {
            t.first_frontier_ms = Some(ms(done - t0));
        }
        if report.resolution == schedule.r_max() {
            t.target_ms = ms(done - t0);
        }
    }
    t
}

/// What one ladder produced and how long it took.
struct LadderRun {
    total_ms: f64,
    timings: Timings,
    counters: Counters,
    frontier: Vec<CostVector>,
}

/// One fresh session through the full ladder, via `Session::apply`.
fn run_session(
    spec: &Arc<QuerySpec>,
    model: &SharedCostModel,
    schedule: &ResolutionSchedule,
) -> LadderRun {
    let t0 = Instant::now();
    let config = IamaConfig::default();
    let plan = Arc::new(EnumerationPlan::build(
        &spec.graph,
        config.allow_cross_products,
    ));
    let optimizer =
        IamaOptimizer::with_plan(spec.clone(), model.clone(), schedule.clone(), config, plan);
    let mut session = Session::with_bounds(optimizer, Bounds::unbounded(model.dim()));
    let timings = time_ladder(t0, schedule, |_| {
        let event = session
            .apply(SessionCommand::Refine)
            .expect("a live session refines");
        let report = event.report.expect("Refine runs an invocation");
        (report, !session.frontier().is_empty())
    });
    let frontier = session.frontier().costs();
    LadderRun {
        total_ms: ms(t0.elapsed()),
        timings,
        counters: Counters::of(session.optimizer().stats(), frontier.len()),
        frontier,
    }
}

/// The same ladder driven through the optimizer's public functions, each
/// call inside a span (the three calls `Session::apply` makes), with
/// pruning timed. Returns the run and the optimizer's final stats.
fn run_session_traced(
    spec: &Arc<QuerySpec>,
    model: &SharedCostModel,
    schedule: &ResolutionSchedule,
    sid: u64,
) -> (LadderRun, OptimizerStats) {
    trace::span("ladder.session", sid, || {
        let t0 = Instant::now();
        let config = IamaConfig {
            time_pruning: true,
            ..IamaConfig::default()
        };
        let plan = trace::span("query.plan_build", sid, || {
            Arc::new(EnumerationPlan::build(
                &spec.graph,
                config.allow_cross_products,
            ))
        });
        let mut optimizer = trace::span("core.open", sid, || {
            IamaOptimizer::with_plan(spec.clone(), model.clone(), schedule.clone(), config, plan)
        });
        let bounds = Bounds::unbounded(model.dim());
        let mut shown = FrontierSnapshot::default();
        let timings = time_ladder(t0, schedule, |r| {
            let report = apply_traced(&mut optimizer, &bounds, r, &mut shown, sid);
            (report, !shown.is_empty())
        });
        let frontier = shown.costs();
        let stats = optimizer.stats().clone();
        let run = LadderRun {
            total_ms: ms(t0.elapsed()),
            timings,
            counters: Counters::of(&stats, frontier.len()),
            frontier,
        };
        (run, stats)
    })
}

/// The three calls `Session::apply` makes for one invocation — optimize,
/// extract the frontier, diff it against the one shown — each inside a
/// span, under one `core.apply` span. Advances `shown` to the new
/// frontier.
pub(crate) fn apply_traced(
    optimizer: &mut IamaOptimizer,
    bounds: &Bounds,
    r: usize,
    shown: &mut FrontierSnapshot,
    sid: u64,
) -> InvocationReport {
    trace::span("core.apply", sid, || {
        let report = trace::span("core.invoke", sid, || optimizer.optimize(bounds, r));
        let next = trace::span("core.frontier", sid, || optimizer.frontier(bounds, r));
        let delta = trace::span("core.delta", sid, || FrontierDelta::between(shown, &next));
        delta.apply(shown);
        report
    })
}

/// Checks one ladder against its block's references.
fn check(block: &Block, run: &LadderRun, schedule: &ResolutionSchedule, ledger: &mut Ledger) {
    let name = &block.spec.name;
    ledger.check(run.counters == block.counters, || {
        format!(
            "{name}: counters differ from the reference ladder: {:?} vs {:?}",
            run.counters, block.counters
        )
    });
    ledger.check(run.timings.first_frontier_ms.is_some(), || {
        format!("{name}: the ladder never showed a frontier")
    });
    let guarantee = schedule.guarantee(schedule.r_max(), block.spec.n_tables()) + 1e-9;
    let covered = coverage_factor(&run.frontier, &block.frontier);
    ledger.check(covered <= guarantee, || {
        format!("{name}: covers the reference only within {covered} > {guarantee}")
    });
    if let Some(exact) = &block.exact {
        let covered = coverage_factor(&run.frontier, exact);
        ledger.check(covered <= guarantee, || {
            format!("{name}: covers the exact Pareto set only within {covered} > {guarantee}")
        });
    }
}

/// Folds one ladder's timings into the end-to-end sample sets.
fn record(e2e: &mut EndToEnd, run: &LadderRun) {
    let t = &run.timings;
    let first = t.first_frontier_ms.unwrap_or(run.total_ms);
    e2e.first_frontier_ms.push(first);
    e2e.target_frontier_ms.push(t.target_ms);
    for &v in &t.invocation_ms {
        e2e.invocation_ms.push(v);
    }
    e2e.sessions += 1;
    e2e.session_seconds += run.total_ms / 1e3;
    e2e.goodput_seconds += run.total_ms / 1e3;
    if first <= GOODPUT_LIMIT_MS {
        e2e.good_sessions += 1;
    }
}

/// Runs seeded passes over the blocks until `seconds` passed (and, when
/// `need_p99s`, every p99 has enough samples beyond it — at most three
/// times as long).
fn measure(
    setup: &Setup,
    rng: &mut XorShift,
    seconds: f64,
    need_p99s: bool,
    traced: bool,
    ledger: &mut Ledger,
    layers: &mut Layers,
) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut order: Vec<usize> = (0..setup.blocks.len()).collect();
    let mut sid = 0u64;
    loop {
        let elapsed = start.elapsed();
        let satisfied = !need_p99s || e2e.p99s_supported();
        if (elapsed >= budget && satisfied) || elapsed >= budget * 3 {
            break;
        }
        shuffle(&mut order, rng);
        let (mut pass_seconds, mut pass_good) = (0.0, 0u64);
        for &b in &order {
            let block = &setup.blocks[b];
            sid += 1;
            ledger.attempt();
            let run = if traced {
                let (run, stats) =
                    run_session_traced(&block.spec, &setup.model, &setup.schedule, sid);
                add_stats(layers, &stats, &run);
                run
            } else {
                run_session(&block.spec, &setup.model, &setup.schedule)
            };
            check(block, &run, &setup.schedule, ledger);
            record(&mut e2e, &run);
            pass_seconds += run.total_ms / 1e3;
            pass_good += run
                .timings
                .first_frontier_ms
                .is_some_and(|f| f <= GOODPUT_LIMIT_MS) as u64;
        }
        // One pass runs every block once: its rate is one window sample.
        e2e.window_rates.push(order.len() as f64 / pass_seconds);
        e2e.window_good_rates.push(pass_good as f64 / pass_seconds);
    }
    e2e
}

fn add_stats(layers: &mut Layers, stats: &OptimizerStats, run: &LadderRun) {
    layers.sessions += 1;
    layers.plans_generated += stats.plans_generated;
    layers.pairs_generated += stats.pairs_generated;
    layers.candidates_retrieved += stats.candidate_retrievals;
    layers.splits_visited += stats.splits_visited;
    layers.splits_skipped += stats.splits_skipped;
    layers.pairs_skipped_watermark += stats.pairs_skipped_watermark;
    layers.stale_pairs_skipped += stats.stale_pairs_skipped;
    layers.result_insertions += stats.result_insertions;
    layers.prune_comparisons += stats.prune_comparisons;
    layers.prune_nanos += stats.prune_nanos;
    layers.prune_base_nanos += run
        .timings
        .invocation_ms
        .iter()
        .map(|v| (v * 1e6) as u64)
        .sum::<u64>();
    if let Some(&first) = run.timings.invocation_ms.first() {
        layers.first_invoke_ms.push(first);
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> RunResult {
    let (setup, setup_s) = timed_setups(setup);
    let mut rng = XorShift::new(config.seed ^ 0x001a_dde4);
    let mut ledger = Ledger::default();
    if !config.trace {
        let e2e = measure(
            &setup,
            &mut rng,
            config.seconds,
            true,
            false,
            &mut ledger,
            &mut Layers::default(),
        );
        eprintln!("ladder: {}", e2e.describe());
        e2e.check_p99s(&mut ledger);
        return RunResult {
            ledger,
            metrics: e2e.into_metrics(setup_s),
        };
    }
    // Traced run: an untraced half, then a traced half of equal length.
    let half = config.seconds / 2.0;
    let mut layers = Layers::default();
    let plain = measure(
        &setup,
        &mut rng,
        half,
        false,
        false,
        &mut ledger,
        &mut layers,
    );
    trace::enable();
    let traced = measure(
        &setup,
        &mut rng,
        half,
        false,
        true,
        &mut ledger,
        &mut layers,
    );
    trace::disable();
    let spans = trace::take();
    layers.plan_build_ms = trace::durations(&spans, "query.plan_build");
    layers.invoke_ms = trace::durations(&spans, "core.invoke");
    layers.frontier_ms = trace::durations(&spans, "core.frontier");
    layers.delta_ms = trace::durations(&spans, "core.delta");
    layers.overhead_pct =
        crate::report::overhead_pct(&plain.target_frontier_ms, &traced.target_frontier_ms);
    crate::finish_trace(&mut layers, &spans, "ladder", config.seed, &ledger);
    RunResult {
        ledger,
        metrics: layers.into_metrics(),
    }
}
