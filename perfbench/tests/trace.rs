//! The span trace: nesting, self time, and the disabled fast path. One
//! test, because the trace is process-wide.

use moqo_perfbench::trace;
use std::time::Duration;

#[test]
fn spans_nest_and_self_time_excludes_children() {
    assert_eq!(trace::span("off", 1, || 7), 7);
    assert!(trace::take().is_empty(), "a disabled trace records nothing");

    trace::enable();
    trace::span("outer", 1, || {
        std::thread::sleep(Duration::from_millis(5));
        trace::span("inner", 1, || std::thread::sleep(Duration::from_millis(20)));
    });
    trace::disable();
    let spans = trace::take();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "outer");
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].session, 1);
    let outer = trace::durations(&spans, "outer").as_slice()[0];
    let inner = trace::durations(&spans, "inner").as_slice()[0];
    let outer_self = trace::self_times(&spans, "outer").as_slice()[0];
    assert!(outer >= inner + 5.0);
    assert!(inner >= 20.0);
    assert!((outer_self - (outer - inner)).abs() < 1e-9);
    assert!(outer_self < inner);
}
