//! Failure accounting, metric collection and the result line.

use moqo_bench::{Samples, Summary};
use moqo_serve::{ServerStats, ShardStats};
use std::fmt::Write;

/// Samples a p99 needs beyond it: with fewer, the p99 is one or two
/// unlucky samples and does not repeat from run to run.
pub const P99_TAIL: usize = 10;

/// Samples strictly beyond the nearest-rank p99 of `n` samples (the rank
/// `moqo_bench::stats` uses).
pub fn samples_beyond_p99(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// True once `n` samples leave at least [`P99_TAIL`] beyond the p99.
pub fn p99_is_supported(n: usize) -> bool {
    samples_beyond_p99(n) >= P99_TAIL
}

/// The smallest sample count whose p99 is supported.
pub fn min_samples_for_p99() -> usize {
    (1..).find(|&n| p99_is_supported(n)).expect("finite")
}

/// A p99 that one slow stretch of a run cannot move: the median of the
/// p99s of consecutive windows, each of at least [`min_samples_for_p99`]
/// samples in the order they were recorded. The window count is the
/// largest odd number that allows this, so the median is one window's
/// p99 (the last window takes the remainder). With fewer samples than
/// one window, the p99 of all of them.
pub fn windowed_p99(samples: &Samples) -> f64 {
    let xs = samples.as_slice();
    let mut windows = (xs.len() / min_samples_for_p99()).max(1);
    if windows.is_multiple_of(2) {
        windows -= 1;
    }
    let width = xs.len() / windows;
    let p99s: Samples = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                xs.len()
            } else {
                (i + 1) * width
            };
            let window: Samples = xs[i * width..end].iter().copied().collect();
            Summary::of_or_zero(&window).p99
        })
        .collect();
    Summary::of_or_zero(&p99s).p50
}

/// Why an operation failed. Failures are counted and the run goes on;
/// they are reported through `failed` / `attempted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A typed protocol or wire error.
    Protocol,
    /// A wait ran past its deadline (a lost event shows up here).
    Deadline,
    /// An event did not fold onto the client view (epoch gap).
    FoldGap,
    /// An output check on one operation failed.
    Check,
}

/// Operations attempted, failures by kind, and failed output checks.
///
/// A failed *operation* is counted and the run continues. A failed
/// *output check* also makes the run incorrect, so the benchmark exits
/// nonzero.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Operations attempted (sessions, or invocations where noted).
    pub attempted: u64,
    /// Failed operations of any kind.
    pub failed: u64,
    /// Failures per kind, in [`Failure`] order.
    pub by_kind: [u64; 4],
    /// Failed output checks, one message each.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, kind: Failure) {
        self.failed += 1;
        self.by_kind[kind as usize] += 1;
    }

    /// Records a failed output check (also counted as a failure).
    pub fn violation(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.violations.len() < 32 {
            self.violations.push(message);
        }
        self.fail(Failure::Check);
    }

    /// Checks `ok`, recording `message` as a violation when it fails.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.violation(message());
        }
    }

    /// Failed operations over attempted ones (0 when none attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when no output check failed.
    pub fn correct(&self) -> bool {
        self.by_kind[Failure::Check as usize] == 0
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        for v in &other.violations {
            if self.violations.len() < 32 {
                self.violations.push(v.clone());
            }
        }
    }
}

/// Named metrics in output order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric. Non-finite values are a measurement bug.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// Records `<name>_p50` and `<name>_p99` of `samples` (0 when empty).
    pub fn p50_p99(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        let s = Summary::of_or_zero(samples);
        self.put(&format!("{name}_p50"), s.p50, unit);
        self.put(&format!("{name}_p99"), s.p99, unit);
    }

    /// The value recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Metric names in output order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.entries.extend(other.entries);
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Failure accounting, output checks included.
    pub ledger: Ledger,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Metrics,
}

impl RunResult {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ledger.correct(),
            self.ledger.attempted.max(1),
            self.ledger.failed
        )
        .expect("string write");
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("string write");
        }
        out.push_str("}}");
        out
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Everything the traced run reports, one field per per-layer metric.
/// Fields a workload cannot observe stay zero (for example, `engine.*` in
/// `ladder`), so every listed workload prints the same metric names. The
/// rows only `interactive` moves (`net.*` and the bound-drag skip
/// counters) are printed by [`Layers::interactive_metrics`] instead.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `query.plan_build_ms`: `EnumerationPlan::build` spans.
    pub plan_build_ms: Samples,
    /// `core.invoke_ms_*`: one sample per optimizer invocation.
    pub invoke_ms: Samples,
    /// `core.first_invoke_ms`: the first invocation of each session.
    pub first_invoke_ms: Samples,
    /// `core.frontier_ms`: `IamaOptimizer::frontier` spans.
    pub frontier_ms: Samples,
    /// `core.delta_ms`: `FrontierDelta::between` spans.
    pub delta_ms: Samples,
    /// Sessions the per-session counters below are divided by.
    pub sessions: u64,
    /// Plans generated (total).
    pub plans_generated: u64,
    /// Ordered sub-plan pairs combined (total).
    pub pairs_generated: u64,
    /// Candidates retrieved in phase 1 (total).
    pub candidates_retrieved: u64,
    /// Splits whose pair loop ran (total).
    pub splits_visited: u64,
    /// Splits settled without touching an entry (total).
    pub splits_skipped: u64,
    /// Pairs skipped by a watermark rectangle (total).
    pub pairs_skipped_watermark: u64,
    /// Pairs skipped by the `IsFresh` fallback (total).
    pub stale_pairs_skipped: u64,
    /// Result-set insertions (total).
    pub result_insertions: u64,
    /// Cost-vector comparisons while pruning (total).
    pub prune_comparisons: u64,
    /// Nanoseconds in the pruning witness search (total).
    pub prune_nanos: u64,
    /// Invocation nanoseconds the prune time is a share of (total).
    pub prune_base_nanos: u64,
    /// `engine.wait_ms_*`: submit return → first event, minus the first
    /// invocation.
    pub engine_wait_ms: Samples,
    /// Sessions that resumed a parked frontier, as a share of admitted.
    pub warm_start_share: f64,
    /// Frontier-cache hits.
    pub cache_hits: u64,
    /// Frontier-cache misses.
    pub cache_misses: u64,
    /// Frontier-cache evictions.
    pub cache_evictions: u64,
    /// Enumeration-plan cache hits.
    pub plan_cache_hits: u64,
    /// Stats-drift rebase donor hits.
    pub rebase_hits: u64,
    /// Sub-frontier transplant hits.
    pub subfrontier_hits: u64,
    /// `serve.submit_us_*`: `MoqoServer::submit` spans.
    pub submit_us: Samples,
    /// Admitted submissions.
    pub admitted: u64,
    /// Rejected submissions.
    pub rejected: u64,
    /// Submissions routed to a warm shard.
    pub warm_routed: u64,
    /// Submissions routed cold.
    pub cold_routed: u64,
    /// Submissions routed to a rebase donor's shard.
    pub rebase_routed: u64,
    /// `net.connect_us`: `NetClient::connect` spans.
    pub connect_us: Samples,
    /// `net.submit_us`: `NetClient::submit` spans.
    pub net_submit_us: Samples,
    /// `net.fold_us`: `SessionView::fold` spans.
    pub fold_us: Samples,
    /// `net.residual_ms`: refocus time minus the core time it covers.
    pub residual_ms: Samples,
    /// Frames the network front wrote.
    pub frames_out: u64,
    /// Events merged into coalesced frames.
    pub coalesced_events: u64,
    /// Largest outbound queue seen, in bytes.
    pub outbound_high_water: u64,
    /// Connections dropped for protocol faults.
    pub faulted: u64,
    /// Connections retired as stalled readers.
    pub stalled: u64,
    /// `load.nominal_first_frontier_ms_*`: due time → first frontier at
    /// the nominal (light) load.
    pub nominal_first_frontier_ms: Samples,
    /// `load.send_lag_ms_p99`: how late the open-loop generator sent.
    pub send_lag_ms: Samples,
    /// Arrivals per template kind: repeat, drifted twin, novel.
    pub kind_counts: [u64; 3],
    /// Traced-minus-untraced headline latency, percent of untraced.
    pub overhead_pct: f64,
    /// Spans recorded.
    pub spans: u64,
    /// Failed operations over attempted ones.
    pub failed_share: f64,
}

impl Layers {
    /// Adds what a server's published counters (`CacheStats`,
    /// `PlanCacheStats`, sub-frontier and admission stats, `ShardStats`
    /// routes) moved between two snapshots.
    pub fn add_server_stats(&mut self, before: &ServerStats, after: &ServerStats) {
        let sum =
            |s: &ServerStats, f: fn(&ShardStats) -> u64| -> u64 { s.shards.iter().map(f).sum() };
        let d = |f: fn(&ShardStats) -> u64| sum(after, f) - sum(before, f);
        self.cache_hits += d(|s| s.cache.hits);
        self.cache_misses += d(|s| s.cache.misses);
        self.cache_evictions += d(|s| s.cache.evictions);
        self.rebase_hits += d(|s| s.cache.rebase_hits);
        self.plan_cache_hits += d(|s| s.plans.hits);
        self.warm_routed += d(|s| s.warm_routed);
        self.cold_routed += d(|s| s.cold_routed);
        self.rebase_routed += d(|s| s.rebase_routed);
        self.subfrontier_hits += after.subfrontiers.hits - before.subfrontiers.hits;
        self.admitted += after.admission.admitted - before.admission.admitted;
        self.rejected += after.admission.rejected - before.admission.rejected;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn into_metrics(self) -> Metrics {
        let per = |x: u64| x as f64 / self.sessions.max(1) as f64;
        let p50 = |s: &Samples| Summary::of_or_zero(s).p50;
        let invoke = Summary::of_or_zero(&self.invoke_ms);
        let invoke_sum: f64 = self.invoke_ms.as_slice().iter().sum();
        let arrivals: u64 = self.kind_counts.iter().sum();
        let share = |k: usize| self.kind_counts[k] as f64 / arrivals.max(1) as f64;
        let mut m = Metrics::default();
        m.put("query.plan_build_ms", p50(&self.plan_build_ms), "ms");
        m.put("core.invoke_ms_p50", invoke.p50, "ms");
        m.put("core.invoke_ms_p99", invoke.p99, "ms");
        m.put(
            "core.invoke_ms_sum",
            invoke_sum / self.sessions.max(1) as f64,
            "ms/session",
        );
        m.put("core.first_invoke_ms", p50(&self.first_invoke_ms), "ms");
        m.put("core.frontier_ms", p50(&self.frontier_ms), "ms");
        m.put("core.delta_ms", p50(&self.delta_ms), "ms");
        m.put(
            "core.plans_generated",
            per(self.plans_generated),
            "count/session",
        );
        m.put(
            "core.pairs_generated",
            per(self.pairs_generated),
            "count/session",
        );
        m.put(
            "core.candidates_retrieved",
            per(self.candidates_retrieved),
            "count/session",
        );
        m.put(
            "core.splits_visited",
            per(self.splits_visited),
            "count/session",
        );
        m.put(
            "core.splits_skipped",
            per(self.splits_skipped),
            "count/session",
        );
        m.put(
            "core.useful_plan_ratio",
            self.result_insertions as f64 / self.plans_generated.max(1) as f64,
            "ratio",
        );
        m.put(
            "index.prune_comparisons",
            per(self.prune_comparisons),
            "count/session",
        );
        m.put("index.prune_ms", per(self.prune_nanos) / 1e6, "ms/session");
        m.put(
            "index.prune_share",
            self.prune_nanos as f64 / self.prune_base_nanos.max(1) as f64,
            "ratio",
        );
        m.p50_p99("engine.wait_ms", &self.engine_wait_ms, "ms");
        m.put("engine.warm_start_share", self.warm_start_share, "ratio");
        m.put("engine.cache_hits", self.cache_hits as f64, "count");
        m.put("engine.cache_misses", self.cache_misses as f64, "count");
        m.put(
            "engine.cache_evictions",
            self.cache_evictions as f64,
            "count",
        );
        m.put(
            "engine.plan_cache_hits",
            self.plan_cache_hits as f64,
            "count",
        );
        m.put("engine.rebase_hits", self.rebase_hits as f64, "count");
        m.put(
            "engine.subfrontier_hits",
            self.subfrontier_hits as f64,
            "count",
        );
        m.p50_p99("serve.submit_us", &self.submit_us, "us");
        m.put("serve.admitted", self.admitted as f64, "count");
        m.put("serve.rejected", self.rejected as f64, "count");
        m.put("serve.warm_routed", self.warm_routed as f64, "count");
        m.put("serve.cold_routed", self.cold_routed as f64, "count");
        m.put("serve.rebase_routed", self.rebase_routed as f64, "count");
        m.p50_p99(
            "load.nominal_first_frontier_ms",
            &self.nominal_first_frontier_ms,
            "ms",
        );
        m.put(
            "load.send_lag_ms_p99",
            Summary::of_or_zero(&self.send_lag_ms).p99,
            "ms",
        );
        m.put("load.share_repeat", share(0), "ratio");
        m.put("load.share_drifted", share(1), "ratio");
        m.put("load.share_novel", share(2), "ratio");
        m.put("trace.overhead_pct", self.overhead_pct, "%");
        m.put("trace.spans", self.spans as f64, "count");
        m.put("failed_share", self.failed_share, "ratio");
        m
    }

    /// The rows only `interactive` moves: bound-drag skip counters and
    /// the `net` layer. They are zero on `ladder` and `traffic`, so
    /// `BENCHMARK.json` does not list them while `interactive` is not a
    /// listed workload.
    pub fn interactive_metrics(&self) -> Metrics {
        let per = |x: u64| x as f64 / self.sessions.max(1) as f64;
        let p50 = |s: &Samples| Summary::of_or_zero(s).p50;
        let mut m = Metrics::default();
        m.put(
            "core.pairs_skipped_watermark",
            per(self.pairs_skipped_watermark),
            "count/session",
        );
        m.put(
            "core.stale_pairs_skipped",
            per(self.stale_pairs_skipped),
            "count/session",
        );
        m.put("net.connect_us", p50(&self.connect_us), "us");
        m.put("net.submit_us", p50(&self.net_submit_us), "us");
        m.put("net.fold_us", p50(&self.fold_us), "us");
        m.put("net.residual_ms", p50(&self.residual_ms), "ms");
        m.put("net.frames_out", self.frames_out as f64, "count");
        m.put(
            "net.coalesced_events",
            self.coalesced_events as f64,
            "count",
        );
        m.put(
            "net.outbound_high_water",
            self.outbound_high_water as f64,
            "bytes",
        );
        m.put("net.faulted", self.faulted as f64, "count");
        m.put("net.stalled", self.stalled as f64, "count");
        m
    }
}

/// The end-to-end metrics every workload reports (tracing off).
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Open/submit → first non-empty frontier.
    pub first_frontier_ms: Samples,
    /// Open/submit (or the last refocus) → frontier at `alpha_T`.
    pub target_frontier_ms: Samples,
    /// One sample per optimizer invocation.
    pub invocation_ms: Samples,
    /// `SetBounds` sent → first event under the new bounds
    /// (`interactive` only; not printed by [`EndToEnd::into_metrics`]).
    pub refocus_ms: Samples,
    /// Completed sessions.
    pub sessions: u64,
    /// Seconds the completed sessions are counted over.
    pub session_seconds: f64,
    /// Sessions whose first frontier met [`crate::util::GOODPUT_LIMIT_MS`].
    pub good_sessions: u64,
    /// Seconds the good sessions are counted over.
    pub goodput_seconds: f64,
    /// Sessions per second of each measurement window (for example one
    /// `ladder` pass). When present, `sessions_per_s` is their median,
    /// which a transient stall cannot move.
    pub window_rates: Samples,
    /// Good sessions per second of each window (see `window_rates`).
    pub window_good_rates: Samples,
}

impl EndToEnd {
    /// Every sample set whose p99 is reported, with its name
    /// (`refocus_ms` only when the workload records it).
    pub fn p99_sets(&self) -> Vec<(&'static str, &Samples)> {
        let mut sets = vec![
            ("first_frontier_ms", &self.first_frontier_ms),
            ("target_frontier_ms", &self.target_frontier_ms),
            ("invocation_ms", &self.invocation_ms),
        ];
        if !self.refocus_ms.is_empty() {
            sets.push(("refocus_ms", &self.refocus_ms));
        }
        sets
    }

    /// The sample count behind each reported percentile.
    pub fn describe(&self) -> String {
        let counts: Vec<String> = self
            .p99_sets()
            .iter()
            .map(|(name, s)| format!("{name} n={}", s.len()))
            .collect();
        format!("{}, sessions {}", counts.join(", "), self.sessions)
    }

    /// True once every reported p99 has [`P99_TAIL`] samples beyond it.
    pub fn p99s_supported(&self) -> bool {
        self.p99_sets()
            .iter()
            .all(|(_, s)| p99_is_supported(s.len()))
    }

    /// Records a violation for every p99 without enough samples beyond.
    pub fn check_p99s(&self, ledger: &mut Ledger) {
        for (name, s) in self.p99_sets() {
            ledger.check(p99_is_supported(s.len()), || {
                format!(
                    "{name}: {} samples leave {} beyond the p99 (need {P99_TAIL})",
                    s.len(),
                    samples_beyond_p99(s.len())
                )
            });
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn into_metrics(self, setup_s: f64) -> Metrics {
        let mut m = Metrics::default();
        let p50 = |s: &Samples| Summary::of_or_zero(s).p50;
        m.put("first_frontier_ms_p50", p50(&self.first_frontier_ms), "ms");
        m.put(
            "first_frontier_ms_p99",
            windowed_p99(&self.first_frontier_ms),
            "ms",
        );
        m.put(
            "target_frontier_ms_p50",
            p50(&self.target_frontier_ms),
            "ms",
        );
        m.put(
            "target_frontier_ms_p99",
            windowed_p99(&self.target_frontier_ms),
            "ms",
        );
        m.put("invocation_ms_p99", windowed_p99(&self.invocation_ms), "ms");
        let rate = |windows: &Samples, count: u64, seconds: f64| match Summary::of(windows) {
            Some(s) => s.p50,
            None => count as f64 / seconds.max(1e-9),
        };
        m.put(
            "sessions_per_s",
            rate(&self.window_rates, self.sessions, self.session_seconds),
            "1/s",
        );
        m.put(
            "goodput_sps",
            rate(
                &self.window_good_rates,
                self.good_sessions,
                self.goodput_seconds,
            ),
            "1/s",
        );
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

/// Traced-minus-untraced median of a headline latency, in percent of the
/// untraced median (0 when either phase has no samples).
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    match (Summary::of(untraced), Summary::of(traced)) {
        (Some(u), Some(t)) if u.p50 > 0.0 => (t.p50 / u.p50 - 1.0) * 100.0,
        _ => 0.0,
    }
}
