//! Experiment drivers, one per paper figure plus the extra ablations.

use crate::workload::ExperimentSetup;
use moqo_baselines::{exhaustive_pareto, memoryless_series, one_shot};
use moqo_core::{IamaConfig, IamaOptimizer, InvocationReport};
use moqo_cost::{coverage_factor, Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{CostModel, StandardCostModel};
use moqo_index::IndexKind;
use moqo_query::QuerySpec;
use moqo_tpch::{all_join_blocks, table_counts};
use std::sync::Arc;

/// Average/maximum per-invocation times of the three algorithms for one
/// table-count group — one bar group of Figures 3–5.
#[derive(Clone, Debug)]
pub struct InvocationTimeRow {
    /// Number of resolution levels (`rM + 1`).
    pub levels: usize,
    /// Number of joined tables in this group.
    pub n_tables: usize,
    /// Number of TPC-H blocks in the group.
    pub queries: usize,
    /// IAMA: mean per-invocation seconds over the invocation series.
    pub iama_avg: f64,
    /// IAMA: maximum per-invocation seconds.
    pub iama_max: f64,
    /// Memoryless baseline: mean per-invocation seconds.
    pub memoryless_avg: f64,
    /// Memoryless baseline: maximum per-invocation seconds.
    pub memoryless_max: f64,
    /// One-shot baseline: seconds of its single invocation.
    pub oneshot: f64,
}

/// Runs an IAMA invocation series (bounds fixed to ∞, resolution refined
/// from 0 to `rM`) and returns the per-invocation reports — the paper's
/// evaluation scenario "without user interaction".
pub fn iama_series(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
) -> Vec<InvocationReport> {
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    let b = Bounds::unbounded(model.dim());
    (0..=schedule.r_max())
        .map(|r| opt.optimize(&b, r))
        .collect()
}

/// Like [`iama_series`] but with an explicit optimizer configuration
/// (the index-kind ablation).
pub fn iama_series_with_config(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    config: IamaConfig,
) -> Vec<InvocationReport> {
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
        config,
    );
    let b = Bounds::unbounded(model.dim());
    (0..=schedule.r_max())
        .map(|r| opt.optimize(&b, r))
        .collect()
}

/// Figures 3 and 4 (and the data for Figure 5): per-invocation times of
/// IAMA, the memoryless baseline, and the one-shot baseline on all TPC-H
/// join blocks, grouped by number of joined tables, for each resolution-
/// level count in the setup.
pub fn figure_invocation_times(
    setup: &ExperimentSetup,
    model: &StandardCostModel,
) -> Vec<InvocationTimeRow> {
    let blocks = all_join_blocks(setup.sf);
    let counts = table_counts(setup.sf);
    let b = Bounds::unbounded(model.dim());
    let mut rows = Vec::new();
    for &levels in &setup.level_counts {
        let schedule = setup.schedule(levels);
        for &n in &counts {
            let group: Vec<&QuerySpec> = blocks.iter().filter(|q| q.n_tables() == n).collect();
            if group.is_empty() {
                continue;
            }
            let mut iama_avg = 0.0;
            let mut iama_max: f64 = 0.0;
            let mut mem_avg = 0.0;
            let mut mem_max: f64 = 0.0;
            let mut shot = 0.0;
            for spec in &group {
                let reports = iama_series(spec, model, &schedule);
                let times: Vec<f64> = reports.iter().map(|r| r.seconds()).collect();
                iama_avg += crate::stats::mean(&times).unwrap_or(0.0);
                iama_max = iama_max.max(crate::stats::max(&times).unwrap_or(0.0));
                let mem = memoryless_series(spec, model, &schedule, &b);
                let mem_times: Vec<f64> = mem.iter().map(|o| o.duration.as_secs_f64()).collect();
                mem_avg += crate::stats::mean(&mem_times).unwrap_or(0.0);
                mem_max = mem_max.max(crate::stats::max(&mem_times).unwrap_or(0.0));
                shot += one_shot(spec, model, &schedule, &b).duration.as_secs_f64();
            }
            let q = group.len() as f64;
            rows.push(InvocationTimeRow {
                levels,
                n_tables: n,
                queries: group.len(),
                iama_avg: iama_avg / q,
                iama_max,
                memoryless_avg: mem_avg / q,
                memoryless_max: mem_max,
                oneshot: shot / q,
            });
        }
    }
    rows
}

/// One point of the anytime-quality curve (Figure 2a): after a cumulative
/// amount of optimization time, how closely does the current frontier
/// cover the final (finest) frontier?
#[derive(Clone, Debug)]
pub struct QualityPoint {
    /// Invocation index.
    pub invocation: usize,
    /// Cumulative optimization seconds so far.
    pub cumulative_seconds: f64,
    /// Coverage factor of the current frontier w.r.t. the finest frontier
    /// (1.0 = covers it exactly; lower quality = larger factor).
    pub coverage_vs_final: f64,
    /// Plans in the current frontier.
    pub frontier_size: usize,
}

/// Figure 2a: anytime (IAMA) vs one-shot result quality over time for one
/// query. Returns the IAMA curve and the one-shot `(seconds, frontier)`
/// endpoint (the one-shot algorithm produces nothing before it finishes).
pub fn anytime_quality(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
) -> (Vec<QualityPoint>, f64) {
    let b = Bounds::unbounded(model.dim());
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    let mut frontiers: Vec<(f64, Vec<CostVector>, usize)> = Vec::new();
    let mut cumulative = 0.0;
    for r in 0..=schedule.r_max() {
        let report = opt.optimize(&b, r);
        cumulative += report.seconds();
        let costs = opt.frontier(&b, r).costs();
        let size = costs.len();
        frontiers.push((cumulative, costs, size));
    }
    let final_costs = frontiers
        .last()
        .map(|(_, c, _)| c.clone())
        .unwrap_or_default();
    let curve = frontiers
        .into_iter()
        .enumerate()
        .map(|(i, (t, costs, size))| QualityPoint {
            invocation: i,
            cumulative_seconds: t,
            coverage_vs_final: coverage_factor(&costs, &final_costs),
            frontier_size: size,
        })
        .collect();
    let oneshot_secs = one_shot(spec, model, schedule, &b).duration.as_secs_f64();
    (curve, oneshot_secs)
}

/// Figure 2b: per-invocation run time of the incremental algorithm vs the
/// memoryless baseline over one invocation series.
pub fn incremental_vs_memoryless(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
) -> Vec<(usize, f64, f64)> {
    let b = Bounds::unbounded(model.dim());
    let iama: Vec<f64> = iama_series(spec, model, schedule)
        .iter()
        .map(|r| r.seconds())
        .collect();
    let mem: Vec<f64> = memoryless_series(spec, model, schedule, &b)
        .iter()
        .map(|o| o.duration.as_secs_f64())
        .collect();
    iama.into_iter()
        .zip(mem)
        .enumerate()
        .map(|(i, (a, m))| (i, a, m))
        .collect()
}

/// Result of the Lemma 5–7 invariant check on one query.
#[derive(Clone, Debug)]
pub struct InvariantReport {
    /// Query block name.
    pub query: String,
    /// Maximum generations of any single plan (Lemma 5: must be ≤ 1).
    pub max_plan_generations: u32,
    /// Maximum generations of any ordered pair (Lemma 6: must be ≤ 1).
    pub max_pair_generations: u32,
    /// Maximum candidate retrievals of any plan (Lemma 7: ≤ rM + 1).
    pub max_candidate_retrievals: u32,
    /// The Lemma 7 bound `rM + 1`.
    pub retrieval_bound: u32,
}

/// Verifies the incremental invariants (Lemmas 5–7) on every TPC-H block.
pub fn verify_invariants(
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    sf: f64,
) -> Vec<InvariantReport> {
    all_join_blocks(sf)
        .iter()
        .map(|spec| {
            let mut opt = IamaOptimizer::with_config(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
                IamaConfig::tracked(),
            );
            let b = Bounds::unbounded(model.dim());
            for r in 0..=schedule.r_max() {
                opt.optimize(&b, r);
            }
            let stats = opt.stats();
            InvariantReport {
                query: spec.name.clone(),
                max_plan_generations: stats.max_plan_generations(),
                max_pair_generations: stats.max_pair_generations(),
                max_candidate_retrievals: stats.max_candidate_retrievals(),
                retrieval_bound: (schedule.r_max() + 1) as u32,
            }
        })
        .collect()
}

/// Result of the approximation-quality check on one query.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Query block name.
    pub query: String,
    /// Joined tables.
    pub n_tables: usize,
    /// Measured coverage factor of IAMA's final frontier vs the exhaustive
    /// Pareto frontier.
    pub measured_factor: f64,
    /// The formal guarantee `alpha_T^n` (Theorem 2).
    pub guarantee: f64,
    /// Exhaustive frontier size.
    pub exhaustive_size: usize,
    /// IAMA frontier size at the finest resolution.
    pub iama_size: usize,
}

/// Theorem 2 in practice: measured approximation factors of IAMA's finest
/// frontier against exhaustive ground truth, on all blocks with at most
/// `max_tables` tables (exhaustive DP is exponential).
pub fn verify_quality(
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    sf: f64,
    max_tables: usize,
) -> Vec<QualityReport> {
    let b = Bounds::unbounded(model.dim());
    all_join_blocks(sf)
        .iter()
        .filter(|q| q.n_tables() <= max_tables)
        .map(|spec| {
            let exact = exhaustive_pareto(spec, model, &b);
            let exact_costs = exact.pareto_costs();
            let mut opt = IamaOptimizer::new(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
            );
            for r in 0..=schedule.r_max() {
                opt.optimize(&b, r);
            }
            let frontier = opt.frontier(&b, schedule.r_max());
            QualityReport {
                query: spec.name.clone(),
                n_tables: spec.n_tables(),
                measured_factor: coverage_factor(&frontier.costs(), &exact_costs),
                guarantee: schedule.guarantee(schedule.r_max(), spec.n_tables()),
                exhaustive_size: exact_costs.len(),
                iama_size: frontier.len(),
            }
        })
        .collect()
}

/// Ablation: total series time with the cell-grid index vs the flat index.
pub fn ablation_index(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
) -> (f64, f64) {
    let grid = iama_series_with_config(
        spec,
        model,
        schedule,
        IamaConfig {
            index_kind: IndexKind::CellGrid,
            ..IamaConfig::default()
        },
    );
    let linear = iama_series_with_config(
        spec,
        model,
        schedule,
        IamaConfig {
            index_kind: IndexKind::Linear,
            ..IamaConfig::default()
        },
    );
    let sum = |rs: &[InvocationReport]| rs.iter().map(|r| r.seconds()).sum();
    (sum(&grid), sum(&linear))
}

/// Bound-tightening scenario (Example 3 / Figure 1c): invocation times of
/// a series where the user tightens the time bound halfway through.
/// Returns `(invocation, resolution, seconds, frontier_size)` tuples.
pub fn bounds_scenario(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
) -> Vec<(usize, usize, f64, usize)> {
    let dim = model.dim();
    let unb = Bounds::unbounded(dim);
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    let mut out = Vec::new();
    let half = schedule.r_max() / 2;
    // Phase A: unbounded, refine to half resolution.
    for r in 0..=half {
        let rep = opt.optimize(&unb, r);
        out.push((out.len(), r, rep.seconds(), rep.frontier_size));
    }
    // The user tightens the time bound to 2x the fastest known plan.
    let t_min = opt
        .frontier(&unb, half)
        .min_by_metric(0)
        .map(|p| p.cost[0])
        .unwrap_or(f64::INFINITY);
    let tight = Bounds::unbounded(dim).with_limit(0, t_min * 2.0);
    // Phase B: bounds change resets resolution to 0 (Algorithm 1).
    for r in 0..=schedule.r_max() {
        let rep = opt.optimize(&tight, r);
        out.push((out.len(), r, rep.seconds(), rep.frontier_size));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{bench_model, bench_model_small};
    use moqo_tpch::query_block;

    #[test]
    fn iama_series_produces_one_report_per_level() {
        let spec = query_block("q03", 0.01).unwrap();
        let model = bench_model();
        let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
        let reports = iama_series(&spec, &model, &schedule);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.frontier_size > 0));
    }

    #[test]
    fn invariants_hold_on_small_tpch() {
        let model = bench_model_small();
        let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
        for rep in verify_invariants(&model, &schedule, 0.001) {
            assert!(rep.max_plan_generations <= 1, "{}", rep.query);
            assert!(rep.max_pair_generations <= 1, "{}", rep.query);
            assert!(
                rep.max_candidate_retrievals <= rep.retrieval_bound,
                "{}",
                rep.query
            );
        }
    }

    #[test]
    fn quality_respects_guarantee_on_small_blocks() {
        let model = bench_model_small();
        let schedule = ResolutionSchedule::linear(2, 1.1, 0.4);
        for rep in verify_quality(&model, &schedule, 0.001, 3) {
            assert!(
                rep.measured_factor <= rep.guarantee + 1e-9,
                "{}: measured {} > guarantee {}",
                rep.query,
                rep.measured_factor,
                rep.guarantee
            );
        }
    }

    #[test]
    fn anytime_quality_curve_improves() {
        let spec = query_block("q05", 0.01).unwrap();
        let model = bench_model();
        let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
        let (curve, oneshot_secs) = anytime_quality(&spec, &model, &schedule);
        assert_eq!(curve.len(), 5);
        // The final point covers the final frontier exactly.
        assert!((curve.last().unwrap().coverage_vs_final - 1.0).abs() < 1e-9);
        // Quality never degrades along the curve.
        for w in curve.windows(2) {
            assert!(w[1].coverage_vs_final <= w[0].coverage_vs_final + 1e-9);
        }
        assert!(oneshot_secs > 0.0);
    }

    #[test]
    fn bounds_scenario_runs_and_resets_resolution() {
        let spec = query_block("q03", 0.01).unwrap();
        let model = bench_model();
        let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
        let rows = bounds_scenario(&spec, &model, &schedule);
        // Phase A: r = 0..=2, phase B: r = 0..=4.
        let resolutions: Vec<usize> = rows.iter().map(|(_, r, _, _)| *r).collect();
        assert_eq!(resolutions, vec![0, 1, 2, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn ablations_execute() {
        let spec = query_block("q03", 0.01).unwrap();
        let model = bench_model();
        let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
        let (grid, linear) = ablation_index(&spec, &model, &schedule);
        assert!(grid > 0.0 && linear > 0.0);
    }
}

/// Accumulated space consumption after a full invocation series — the
/// quantities Theorem 3 bounds (result plans, candidate plans, arena
/// size), per TPC-H block.
#[derive(Clone, Debug)]
pub struct SpaceReport {
    /// Query block name.
    pub query: String,
    /// Joined tables.
    pub n_tables: usize,
    /// Total plans ever constructed (arena length).
    pub plans: usize,
    /// Result-set entries across all table sets.
    pub result_entries: usize,
    /// Candidate-set entries across all table sets.
    pub candidate_entries: usize,
    /// Completed plans visible at the finest resolution.
    pub frontier: usize,
}

/// Measures accumulated space consumption (Section 5.2) over a full
/// uninterrupted invocation series on every TPC-H block.
pub fn space_consumption(
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    sf: f64,
) -> Vec<SpaceReport> {
    let b = Bounds::unbounded(model.dim());
    all_join_blocks(sf)
        .iter()
        .map(|spec| {
            let mut opt = IamaOptimizer::new(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
            );
            for r in 0..=schedule.r_max() {
                opt.optimize(&b, r);
            }
            SpaceReport {
                query: spec.name.clone(),
                n_tables: spec.n_tables(),
                plans: opt.arena().len(),
                result_entries: opt.result_set_size(),
                candidate_entries: opt.candidate_set_size(),
                frontier: opt.frontier(&b, schedule.r_max()).len(),
            }
        })
        .collect()
}

/// Theorem 5 check: amortized per-invocation time of a long invocation
/// series versus the cost of one single-objective optimization of the
/// same query ("averaged time complexity over many iterations equals the
/// time complexity of single-objective query optimization").
///
/// Returns `(amortized_secs_per_invocation, first_ladder_secs_per_inv,
/// single_objective_secs)` for `rounds` repetitions of the full
/// resolution ladder.
pub fn amortized_time(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    rounds: usize,
) -> (f64, f64, f64) {
    assert!(rounds >= 2);
    let b = Bounds::unbounded(model.dim());
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    let mut first_ladder = 0.0;
    let mut total = 0.0;
    let mut invocations = 0usize;
    for round in 0..rounds {
        for r in 0..=schedule.r_max() {
            let secs = opt.optimize(&b, r).seconds();
            total += secs;
            invocations += 1;
            if round == 0 {
                first_ladder += secs;
            }
        }
    }
    let single = moqo_baselines::single_objective_dp(spec, model, &vec![1.0; model.dim()])
        .duration
        .as_secs_f64();
    (
        total / invocations as f64,
        first_ladder / (schedule.r_max() + 1) as f64,
        single,
    )
}

/// Schedule-shape comparison (the paper's Section 6.2 future-work remark:
/// the max-invocation ratio "could be extended by a more optimized
/// sequence of precision factors"). Runs IAMA under the paper's linear
/// ladder and under a geometric ladder with the same endpoints and level
/// count; returns `(label, avg_secs, max_secs, total_secs)` per schedule.
pub fn schedule_comparison(
    spec: &QuerySpec,
    model: &StandardCostModel,
    levels: usize,
    alpha_t: f64,
    alpha_s: f64,
) -> Vec<(&'static str, f64, f64, f64)> {
    assert!(levels >= 2);
    let linear = ResolutionSchedule::linear(levels - 1, alpha_t, alpha_s);
    let geometric = ResolutionSchedule::geometric(levels - 1, alpha_t, alpha_t + alpha_s);
    [("linear", linear), ("geometric", geometric)]
        .into_iter()
        .map(|(label, schedule)| {
            let reports = iama_series(spec, model, &schedule);
            let times: Vec<f64> = reports.iter().map(|r| r.seconds()).collect();
            let total: f64 = times.iter().sum();
            let max = crate::stats::max(&times).unwrap_or(0.0);
            (label, total / times.len() as f64, max, total)
        })
        .collect()
}

/// Enumeration-plane effectiveness for one query: the split-visit economy
/// of the precomputed plan versus the exhaustive (seed) enumeration, over
/// a full refinement ladder plus one repeated steady-state invocation.
#[derive(Clone, Debug)]
pub struct EnumerationReport {
    /// Query name.
    pub query: String,
    /// Joined tables.
    pub n_tables: usize,
    /// Ordered splits the exhaustive path enumerates **every invocation**:
    /// `sum over k of C(n, k) * (2^k - 2)` — all splits of all subsets,
    /// connected or not.
    pub exhaustive_splits_per_invocation: u64,
    /// Subsets in the precomputed plan (relevant ones only).
    pub plan_subsets: usize,
    /// Valid ordered splits in the plan — the per-invocation ceiling of
    /// the dense path.
    pub plan_splits: usize,
    /// Splits whose pair loop ran across the whole refinement ladder.
    pub ladder_splits_visited: u64,
    /// Splits whose pair loop ran in one repeated invocation (0 in steady
    /// state: the watermarks settle everything).
    pub steady_splits_visited: u64,
    /// Splits settled without touching an entry in that repeated
    /// invocation.
    pub steady_splits_skipped: u64,
    /// Pairs skipped positionally (watermark rectangles) plus via the
    /// `IsFresh` fallback, cumulatively.
    pub pairs_skipped: u64,
    /// Peak size of the reusable combination scratch (left + right).
    pub scratch_high_water: usize,
}

/// Ordered splits the exhaustive enumeration visits per invocation.
pub fn exhaustive_split_visits(n: usize) -> u64 {
    let mut total = 0u64;
    let mut choose = 1u64; // C(n, 0)
    for k in 1..=n as u64 {
        choose = choose * (n as u64 - k + 1) / k;
        if k >= 2 {
            total += choose * ((1u64 << k) - 2);
        }
    }
    total
}

/// The `repro enumeration` experiment on the shared harness: one variant
/// per query, reporting the split-visit economy of the precomputed
/// enumeration plan versus exhaustive per-invocation re-enumeration.
///
/// A lean model (small option sets, no evaluation spin) keeps the
/// refinement ladders fast; the counters being reported are
/// model-independent structure metrics.
pub fn enumeration_experiment(sf: f64, fast: bool) -> crate::harness::ExperimentReport {
    use moqo_costmodel::{MetricSet, StandardCostModelConfig};
    use moqo_query::testkit;

    let model = StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    );
    let schedule = ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.05, 0.5);
    let n = if fast { 8 } else { 10 };
    let mut specs = vec![
        testkit::chain_query(n, 100_000),
        testkit::cycle_query(n, 100_000),
        testkit::star_query(if fast { 6 } else { 8 }, 100_000),
        testkit::clique_query(if fast { 5 } else { 7 }, 1000),
    ];
    for name in ["q03", "q05", "q09"] {
        if let Some(spec) = moqo_tpch::query_block(name, sf) {
            specs.push(spec);
        }
    }
    let mut exp = crate::harness::Experiment::new("enumeration", fast, move || (model, schedule))
        .title("enumeration plane: precomputed splits vs exhaustive re-enumeration");
    for spec in specs {
        let label = spec.name.clone();
        exp = exp.variant("enumeration plane", label, move |s, t| {
            let reports = enumeration_effectiveness(&s.0, &s.1, std::slice::from_ref(&spec));
            let r = &reports[0];
            t.int("tables", r.n_tables as u64);
            t.int(
                "exhaustive_splits_per_inv",
                r.exhaustive_splits_per_invocation,
            );
            t.int("plan_subsets", r.plan_subsets as u64);
            t.int("plan_splits", r.plan_splits as u64);
            t.int_lower("ladder_splits_visited", r.ladder_splits_visited);
            t.int_lower("steady_splits_visited", r.steady_splits_visited);
            t.int("steady_splits_skipped", r.steady_splits_skipped);
            t.int("pairs_skipped", r.pairs_skipped);
            t.int_lower("scratch_high_water", r.scratch_high_water as u64);
        });
    }
    exp.conclusion(
        "A repeated invocation visits 0 splits: the watermark rectangles \
         settle the whole plan, versus the exhaustive path re-walking \
         every split of every subset each invocation.",
    )
    .run()
}

/// Runs a full ladder plus one repeated invocation per query and reports
/// the enumeration counters (`repro enumeration` / `repro --stats`).
pub fn enumeration_effectiveness(
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    specs: &[QuerySpec],
) -> Vec<EnumerationReport> {
    let b = Bounds::unbounded(model.dim());
    specs
        .iter()
        .map(|spec| {
            let mut opt = IamaOptimizer::new(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
            );
            for r in 0..=schedule.r_max() {
                opt.optimize(&b, r);
            }
            let ladder_splits_visited = opt.stats().splits_visited;
            let steady = opt.optimize(&b, schedule.r_max());
            let plan = opt.enumeration();
            EnumerationReport {
                query: spec.name.clone(),
                n_tables: spec.n_tables(),
                exhaustive_splits_per_invocation: exhaustive_split_visits(spec.n_tables()),
                plan_subsets: plan.len(),
                plan_splits: plan.total_splits(),
                ladder_splits_visited,
                steady_splits_visited: steady.splits_visited,
                steady_splits_skipped: steady.splits_skipped,
                pairs_skipped: opt.stats().pairs_skipped_watermark
                    + opt.stats().stale_pairs_skipped,
                scratch_high_water: opt.stats().scratch_high_water,
            }
        })
        .collect()
}
