//! The benchmark's own rules: p99 sample support, failure accounting,
//! due-time latency, and the result line.

use moqo_bench::{Samples, Summary, XorShift};
use moqo_perfbench::report::{
    min_samples_for_p99, p99_is_supported, samples_beyond_p99, windowed_p99, EndToEnd, Failure,
    Layers, Ledger, Metrics, RunResult, P99_TAIL,
};
use moqo_perfbench::util::{due_latency_ms, Zipf};
use std::time::{Duration, Instant};

#[test]
fn a_p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond_p99(0), 0);
    assert_eq!(samples_beyond_p99(1), 0);
    assert_eq!(samples_beyond_p99(100), 1);
    assert_eq!(samples_beyond_p99(999), 9);
    assert!(!p99_is_supported(999));
    assert!(p99_is_supported(1000));
    assert_eq!(min_samples_for_p99(), 1000);
    // The rank matches the shared summary: exactly P99_TAIL samples lie
    // beyond the p99 of 1000 samples.
    let samples: Samples = (1..=1000).map(f64::from).collect();
    let p99 = Summary::of(&samples).unwrap().p99;
    let beyond = samples.as_slice().iter().filter(|&&v| v > p99).count();
    assert_eq!(beyond, P99_TAIL);
}

#[test]
fn unsupported_p99s_fail_the_run() {
    let filled = |n: usize| -> Samples { (0..n).map(|i| i as f64).collect() };
    let mut e2e = EndToEnd {
        first_frontier_ms: filled(1000),
        target_frontier_ms: filled(1000),
        invocation_ms: filled(5000),
        refocus_ms: filled(999),
        ..EndToEnd::default()
    };
    assert!(!e2e.p99s_supported());
    let mut ledger = Ledger::default();
    e2e.check_p99s(&mut ledger);
    assert!(!ledger.correct());
    assert_eq!(ledger.violations.len(), 1);
    assert!(ledger.violations[0].starts_with("refocus_ms"));

    e2e.refocus_ms.push(1.0);
    assert!(e2e.p99s_supported());
    let mut ledger = Ledger::default();
    e2e.check_p99s(&mut ledger);
    assert!(ledger.correct());
}

#[test]
fn failed_operations_count_but_only_failed_checks_make_a_run_incorrect() {
    let mut ledger = Ledger::default();
    for _ in 0..8 {
        ledger.attempt();
    }
    ledger.fail(Failure::Deadline);
    ledger.fail(Failure::Protocol);
    ledger.fail(Failure::FoldGap);
    assert_eq!(ledger.failed, 3);
    assert_eq!(ledger.failed_share(), 3.0 / 8.0);
    assert!(
        ledger.correct(),
        "a missed deadline is a failure, not a wrong output"
    );

    ledger.check(true, || unreachable!("passing checks build no message"));
    assert!(ledger.correct());
    ledger.check(false, || "frontier misses the reference".to_string());
    assert!(!ledger.correct());
    assert_eq!(ledger.failed, 4);
    assert_eq!(ledger.by_kind[Failure::Check as usize], 1);

    let mut total = Ledger::default();
    total.attempt();
    total.merge(&ledger);
    assert_eq!(total.attempted, 9);
    assert_eq!(total.failed, 4);
    assert!(!total.correct());
    assert_eq!(
        total.violations,
        vec!["frontier misses the reference".to_string()]
    );
    assert_eq!(Ledger::default().failed_share(), 0.0);
}

#[test]
fn latency_is_measured_from_the_due_time() {
    let due = Instant::now();
    // Sent 20 ms late, answered 10 ms after sending: the user waited
    // 30 ms, not the 10 ms the server spent.
    let sent = due + Duration::from_millis(20);
    let answered = sent + Duration::from_millis(10);
    assert!((due_latency_ms(due, answered) - 30.0).abs() < 1e-9);
    // An answer cannot precede its due time.
    assert_eq!(due_latency_ms(answered, due), 0.0);
}

#[test]
fn the_result_line_carries_exactly_the_four_keys() {
    let mut metrics = Metrics::default();
    metrics.put("latency_ms", 1.25, "ms");
    metrics.put("setup_s", 0.5, "s");
    let mut ledger = Ledger::default();
    ledger.attempt();
    let line = RunResult { ledger, metrics }.json_line();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
         {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}

#[test]
fn zipf_draws_stay_in_range_and_favour_low_ranks() {
    let zipf = Zipf::new(50, 1.1);
    let mut rng = XorShift::new(7);
    let mut counts = [0u32; 50];
    for _ in 0..20_000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    assert!(counts.iter().all(|&c| c > 0));
}

#[test]
fn reported_p99s_are_medians_of_window_p99s() {
    // Three windows of 1000: their p99s are 990, 1990 and 2990.
    let three: Samples = (1..=3000).map(f64::from).collect();
    assert_eq!(windowed_p99(&three), 1990.0);
    // Room for two windows only: one window (an odd count), so the
    // median is a p99 of the run, not the larger of two.
    let two: Samples = (1..=2500).map(f64::from).collect();
    assert_eq!(windowed_p99(&two), 2475.0);
    // Five windows of 1100: the middle one (2201..=3300) has p99 3289.
    let five: Samples = (1..=5500).map(f64::from).collect();
    assert_eq!(windowed_p99(&five), 3289.0);
    // Fewer than one window: the plain p99.
    let short: Samples = (1..=500).map(f64::from).collect();
    assert_eq!(windowed_p99(&short), Summary::of(&short).unwrap().p99);
    assert_eq!(windowed_p99(&Samples::new()), 0.0);

    let e2e = EndToEnd {
        invocation_ms: three,
        ..EndToEnd::default()
    };
    assert_eq!(
        e2e.into_metrics(0.1).value("invocation_ms_p99"),
        Some(1990.0)
    );
}

/// The `"name"` values of one array of `BENCHMARK.json`.
fn listed_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn the_printed_metrics_are_exactly_the_listed_ones() {
    let e2e = EndToEnd::default().into_metrics(0.1);
    assert_eq!(e2e.names(), listed_names("end_to_end"));
    let layers = Layers::default().into_metrics();
    assert_eq!(layers.names(), listed_names("per_layer"));
    let workloads = listed_names("workloads");
    assert!(workloads
        .iter()
        .all(|w| moqo_perfbench::WORKLOADS.contains(&w.as_str())));
}
