//! Integration tests for the formal guarantees (Theorems 1 and 2):
//! after an invocation series at resolution `rM`, IAMA's frontier is an
//! `alpha_rM^n`-approximate (bounded) Pareto plan set with respect to
//! exhaustive ground truth.

use moqo::baselines::{exhaustive_pareto, one_shot};
use moqo::core::{IamaConfig, IamaOptimizer};
use moqo::cost::{coverage_factor, covers_bounded, Bounds, ResolutionSchedule};
use moqo::costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo::query::{testkit, QuerySpec};
use std::sync::Arc;

/// A reduced operator space keeps exhaustive DP tractable.
fn small_model() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    )
}

fn run_iama_series(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    config: IamaConfig,
) -> Vec<moqo::cost::CostVector> {
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
        config,
    );
    let b = Bounds::unbounded(model.dim());
    for r in 0..=schedule.r_max() {
        opt.optimize(&b, r);
    }
    opt.frontier(&b, schedule.r_max()).costs()
}

#[test]
fn theorem2_on_tpch_small_blocks() {
    let model = small_model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let b = Bounds::unbounded(model.dim());
    for spec in moqo::tpch::all_join_blocks(0.001) {
        if spec.n_tables() > 4 {
            continue; // exhaustive DP explodes beyond this
        }
        let exact = exhaustive_pareto(&spec, &model, &b);
        let frontier = run_iama_series(&spec, &model, &schedule, IamaConfig::default());
        let factor = coverage_factor(&frontier, &exact.pareto_costs());
        let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
        assert!(
            factor <= guarantee + 1e-9,
            "{}: measured {factor} > guarantee {guarantee}",
            spec.name
        );
    }
}

#[test]
fn theorem2_holds_without_shadowing_and_without_delta() {
    // The guarantee must hold in strict paper mode too (no shadowing, no
    // eager level skip). Without Δ filtering — the churn arm every
    // non-monotone invocation takes — it is checked by
    // `bounded_guarantee_after_bound_changes`.
    let model = small_model();
    let schedule = ResolutionSchedule::linear(3, 1.08, 0.6);
    let spec = testkit::chain_query(4, 120_000);
    let exact = exhaustive_pareto(&spec, &model, &Bounds::unbounded(model.dim()));
    let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
    for config in [
        IamaConfig {
            shadow_dominated: false,
            eager_level_skip: false,
            ..IamaConfig::default()
        },
        IamaConfig {
            shadow_dominated: false,
            ..IamaConfig::default()
        },
    ] {
        let frontier = run_iama_series(&spec, &model, &schedule, config.clone());
        let factor = coverage_factor(&frontier, &exact.pareto_costs());
        assert!(
            factor <= guarantee + 1e-9,
            "config {config:?}: {factor} > {guarantee}"
        );
    }
}

#[test]
fn theorem2_on_random_queries() {
    let model = small_model();
    let schedule = ResolutionSchedule::linear(3, 1.1, 0.4);
    for seed in 0..8 {
        let spec = testkit::random_query(4, seed);
        let exact = exhaustive_pareto(&spec, &model, &Bounds::unbounded(model.dim()));
        let frontier = run_iama_series(&spec, &model, &schedule, IamaConfig::default());
        let factor = coverage_factor(&frontier, &exact.pareto_costs());
        let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
        assert!(
            factor <= guarantee + 1e-9,
            "seed {seed}: {factor} > {guarantee}"
        );
    }
}

#[test]
fn bounded_guarantee_after_bound_changes() {
    // Theorem 1/2's b-bounded variant: after tightening and re-loosening
    // bounds, the frontier at the finest resolution still covers the
    // bounded slice of the exact Pareto set.
    let model = small_model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::chain_query(3, 150_000);
    let dim = model.dim();
    let unb = Bounds::unbounded(dim);
    let exact = exhaustive_pareto(&spec, &model, &unb);
    let exact_costs = exact.pareto_costs();

    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    // Invocations that took the churn arm (no Δ filtering).
    let mut churn_invocations = 0;
    // Tight phase.
    opt.optimize(&unb, 0);
    let t_min = opt
        .frontier(&unb, 0)
        .min_by_metric(0)
        .map(|p| p.cost[0])
        .unwrap();
    let tight = Bounds::unbounded(dim).with_limit(0, t_min * 2.0);
    for r in 0..=schedule.r_max() {
        churn_invocations += usize::from(!opt.optimize(&tight, r).used_delta);
    }
    let alpha = schedule.guarantee(schedule.r_max(), spec.n_tables());
    let frontier_tight = opt.frontier(&tight, schedule.r_max()).costs();
    assert!(
        covers_bounded(&frontier_tight, &exact_costs, alpha, &tight),
        "tight-bound frontier misses covered region"
    );
    // Loosen again: candidates stored as out-of-bounds must resurface.
    for r in 0..=schedule.r_max() {
        churn_invocations += usize::from(!opt.optimize(&unb, r).used_delta);
    }
    let frontier_unb = opt.frontier(&unb, schedule.r_max()).costs();
    let factor = coverage_factor(&frontier_unb, &exact_costs);
    assert!(
        factor <= alpha + 1e-9,
        "after re-loosening: {factor} > {alpha}"
    );
    // The bound changes drove the churn arm, and it settled repeat pairs
    // instead of recombining them.
    assert!(churn_invocations > 0, "no invocation took the churn arm");
    let stats = opt.stats();
    assert!(
        stats.pairs_skipped_watermark + stats.stale_pairs_skipped > 0,
        "the churn arm settled no repeat pair"
    );
}

#[test]
fn one_shot_and_iama_agree_at_target_precision() {
    // Both must produce frontiers that mutually cover within the combined
    // guarantee at the target factor.
    let model = small_model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::star_query(4, 200_000);
    let b = Bounds::unbounded(model.dim());
    let shot = one_shot(&spec, &model, &schedule, &b);
    let iama = run_iama_series(&spec, &model, &schedule, IamaConfig::default());
    let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
    // IAMA covers the one-shot frontier within its guarantee and vice
    // versa (both cover the true Pareto set within the same factor).
    assert!(coverage_factor(&iama, &shot.pareto_costs()) <= guarantee + 1e-9);
    assert!(coverage_factor(&shot.frontier_costs(), &iama) <= guarantee + 1e-9);
}

#[test]
fn frontier_plans_are_real_plans_with_consistent_costs() {
    // Every frontier plan must be a complete, well-formed plan tree whose
    // re-derived cost matches the cached cost.
    let model = small_model();
    let schedule = ResolutionSchedule::linear(2, 1.1, 0.4);
    let spec = testkit::chain_query(4, 80_000);
    let b = Bounds::unbounded(model.dim());
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    for r in 0..=schedule.r_max() {
        opt.optimize(&b, r);
    }
    let frontier = opt.frontier(&b, schedule.r_max());
    assert!(!frontier.is_empty());
    let arena = opt.arena();
    for p in &frontier.points {
        let node = arena.node(p.plan);
        assert_eq!(node.tables, spec.all_tables());
        assert_eq!(node.cost.as_slice(), p.cost.as_slice());
        // Tree is well-formed: every leaf is a scan, every inner node a join.
        fn check(arena: &moqo::plan::PlanArena, id: moqo::plan::PlanId) {
            let n = arena.node(id);
            match n.children {
                None => assert!(n.op.is_scan()),
                Some((l, r)) => {
                    assert!(n.op.is_join());
                    check(arena, l);
                    check(arena, r);
                }
            }
        }
        check(arena, p.plan);
    }
}
