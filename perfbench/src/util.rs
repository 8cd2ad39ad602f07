//! Seeded input helpers shared by the workloads.

use moqo_bench::{Samples, Summary, XorShift};
use moqo_cost::ResolutionSchedule;
use moqo_costmodel::{MetricSet, SharedCostModel, StandardCostModel, StandardCostModelConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cost model every workload runs: the figure-reproduction model
/// (the paper's three metrics, a 2 % cost grid, two parallel degrees,
/// one sampling rate) without its artificial evaluation spin, so the
/// measured time is the optimizer's and the server's own work.
pub fn cost_model() -> SharedCostModel {
    Arc::new(StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            quantize_grid: Some(1.02),
            dops: vec![1, 4],
            sampling_rates_pm: vec![500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    ))
}

/// The ladder a serving node runs by default: three levels, `alpha_T`
/// 1.1 (the fleet node's default).
pub fn server_schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(2, 1.1, 0.4)
}

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Set-ups repeat until they took at least this long in total, so a
/// set-up of a few milliseconds (thread spawns) is timed often enough
/// for its median to repeat from run to run.
pub const SETUP_SECONDS: f64 = 0.5;

/// Longest any single wait may take before it counts as a missed
/// deadline (the connection or ticket is then dropped and the run goes
/// on).
pub const DEADLINE: Duration = Duration::from_secs(5);

/// `goodput_sps` counts sessions whose first frontier arrived within this
/// many milliseconds. 100 ms (a user interface still feels instant) lies
/// inside the overload step's first-frontier distribution on a 2-CPU
/// host, so the host's own speed drift moved the share under it: over
/// ten seeds goodput at 100 ms spread 0.37 (interquartile range over
/// median) where throughput spread 0.19. 250 ms lies above that step's
/// p99 on a healthy run, so goodput falls only when sessions starve.
pub const GOODPUT_LIMIT_MS: f64 = 250.0;

/// Runs `setup` at least [`SETUPS`] times and for at least
/// [`SETUP_SECONDS`], and returns the last product plus the median
/// set-up time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Samples::new();
    let mut last = None;
    let mut total = 0.0;
    while seconds.len() < SETUPS || total < SETUP_SECONDS {
        // Drop the previous product first so each set-up starts alike.
        drop(last.take());
        let t0 = Instant::now();
        let product = setup();
        let took = t0.elapsed().as_secs_f64();
        seconds.push(took);
        total += took;
        last = Some(product);
    }
    let median = Summary::of(&seconds).expect("at least one set-up").p50;
    (last.expect("at least one set-up"), median)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A Zipf(s) rank sampler over `count` ranks (inverse CDF over
/// precomputed weights).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..count`, weight of rank `k` proportional to `1/(k+1)^s`.
    pub fn new(count: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(count);
        let mut total = 0.0;
        for rank in 0..count {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut XorShift) -> usize {
        let u = rng.next_f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Latency of an event observed at `seen`, measured from the moment the
/// request was *due* (not from when it was sent), in milliseconds. An
/// open-loop generator that falls behind therefore shows its lateness
/// in the latency instead of hiding it.
pub fn due_latency_ms(due: Instant, seen: Instant) -> f64 {
    seen.saturating_duration_since(due).as_secs_f64() * 1e3
}
