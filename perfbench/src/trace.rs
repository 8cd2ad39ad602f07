//! In-memory span trace.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; the layers themselves are not instrumented.
//! A span carries a name, start and end (nanoseconds since the trace
//! epoch), the index of its parent span on the same thread, and a session
//! id. Spans are kept in memory and written out once the run ends.
//!
//! Tracing is off unless [`enable`] was called: a disabled [`span`] is a
//! relaxed atomic load plus the wrapped call.

use moqo_bench::Samples;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, `layer.function` style.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Session the span belongs to (0 when none).
    pub session: u64,
}

impl Span {
    /// Span length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording spans.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording spans (recorded spans are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` for `session`. Nested calls on
/// the same thread become children of the enclosing span.
pub fn span<R>(name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = now_ns();
    let index = {
        let mut spans = SPANS.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            session,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    let end_ns = now_ns();
    SPANS.lock().expect("span store poisoned")[index].end_ns = end_ns;
    out
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Durations (ms) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Samples {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time (ms) of every span called `name`: the span minus its
/// direct children.
pub fn self_times(spans: &[Span], name: &str) -> Samples {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| (s.ms() - child_ms[i]).max(0.0))
        .collect()
}

/// Writes the spans as tab-separated lines (`index name start_ns end_ns
/// parent session`) to `path`, creating its directory.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tsession")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.session
        )?;
    }
    out.flush()
}
