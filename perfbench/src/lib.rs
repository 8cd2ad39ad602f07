//! The repository benchmark: three seeded workloads over the IAMA
//! optimizer and its serving stack, with end-to-end metrics measured
//! untraced and per-layer metrics read from an in-memory span trace plus
//! the counters each layer already publishes.
//!
//! * [`ladder`] — one thread refines every TPC-H join block through a
//!   full Fig. 4 resolution ladder (`query`/`index`/`core` only).
//! * [`traffic`] — open-loop Zipf-skewed arrivals against an in-process
//!   `MoqoServer`, a nominal step and an overload step (`engine`/`serve`).
//! * [`interactive`] — closed-loop `NetClient`s dragging bounds
//!   mid-ladder over loopback TCP (`net` + candidate re-examination).
//!
//! See `perfbench/README.md` for the metric → layer → end-to-end map.

pub mod interactive;
pub mod ladder;
pub mod report;
pub mod trace;
pub mod traffic;
pub mod util;

pub use report::{Ledger, Metrics, RunResult};

/// What one benchmark invocation asks for.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from a traced phase (preceded by an untraced phase of the
    /// same length, so the tracing overhead can be reported).
    pub trace: bool,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ladder", "traffic", "interactive"];

/// Runs one named workload; `None` for an unknown name.
pub fn run_workload(name: &str, config: &RunConfig) -> Option<RunResult> {
    match name {
        "ladder" => Some(ladder::run(config)),
        "traffic" => Some(traffic::run(config)),
        "interactive" => Some(interactive::run(config)),
        _ => None,
    }
}

/// Where a traced run writes its spans, relative to the working
/// directory.
pub const TRACE_DIR: &str = ".bench_trace";

/// Completes a traced run's per-layer record: span count and failure
/// share, then writes the spans to `TRACE_DIR/<workload>-<seed>.tsv`.
pub fn finish_trace(
    layers: &mut report::Layers,
    spans: &[trace::Span],
    workload: &str,
    seed: u64,
    ledger: &Ledger,
) {
    layers.spans = spans.len() as u64;
    layers.failed_share = ledger.failed_share();
    let path = std::path::Path::new(TRACE_DIR).join(format!("{workload}-{seed}.tsv"));
    if let Err(e) = trace::write_tsv(spans, &path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
