//! The net-scale capacity claim, in a test binary of its own.
//!
//! The claim is "N connections, zero new threads", read from the
//! process-wide thread count. Any other test running in the same
//! process can start server workers mid-measurement, so this check
//! must be the only test in its binary.

use moqo_bench::net_scale_experiment;

#[test]
fn holds_an_idle_fleet_without_per_connection_threads() {
    let n = 192u64;
    let report = net_scale_experiment(n as usize, true);
    let counter = |key: &str| report.metric("hold", key).unwrap().as_u64().unwrap();
    assert_eq!(counter("connections"), n, "fd limit clamped the smoke run");
    assert_eq!(counter("live_held"), n);
    assert_eq!(counter("live_after_hold"), n, "sessions died while idle");
    assert_eq!(counter("faulted"), 0);
    assert_eq!(counter("stalled"), 0);
    // The capacity claim: N connections, zero new threads.
    assert_eq!(counter("threads_held"), counter("threads_before"));
    // Every session delivered its first frontier; repeats of the
    // four templates must hit the warm cache at least sometimes.
    assert!(counter("zero_plan_starts") > 0);
    assert_eq!(counter("disconnect_parked"), n);
    let shutdown_ms = report
        .metric("hold", "shutdown_ms")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(shutdown_ms < 1000.0);
}
