//! Experiment harness regenerating the paper's figures.
//!
//! Every figure of the paper's evaluation (and the conceptual figures of
//! the introduction) maps to a function here; the `repro` binary prints
//! the same series the paper reports and writes the `BENCH_*.json`
//! envelopes described in `docs/benchmarks.md`.

#![warn(missing_docs)]

pub mod benchjson;
pub mod churn;
pub mod diff;
pub mod experiments;
pub mod fleet;
pub mod harness;
pub mod net;
pub mod net_scale;
pub mod pruning;
pub mod replay;
pub mod serve;
pub mod similarity;
pub mod stats;
pub mod workload;

pub use benchjson::Json;
pub use churn::churn_experiment;
pub use diff::{diff_envelopes, diff_files, DiffOutcome};
pub use experiments::*;
pub use fleet::{
    fleet_experiment, fleet_node_serve, fleet_router_experiment, fleet_router_watch,
    fleet_workload, WatchReport,
};
pub use harness::{Direction, Experiment, ExperimentReport, Metric, Trial, Value};
pub use net::{net_serving_experiment, net_workload};
pub use net_scale::{net_scale_experiment, net_scale_templates, proc_status};
pub use pruning::{build_pruning_grid, pruning_experiment, KERNEL_CELL_SIZES, KERNEL_DIMS};
pub use replay::replay_experiment;
pub use serve::{serving_experiment, serving_workload};
pub use similarity::{similarity_donors, similarity_experiment, similarity_recipients};
pub use stats::{Samples, Summary};
pub use workload::{bench_model, bench_model_small, ExperimentSetup, XorShift};
