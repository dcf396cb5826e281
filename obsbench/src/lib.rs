//! The DNS Observatory benchmark: three closed-loop workloads driven
//! through the workspace's public library entry points, each with output
//! oracles, end-to-end metrics, and a traced mode that times every layer
//! call from the benchmark's own code. See `README.md` beside this crate.

pub mod collect;
pub mod common;
pub mod federate;
pub mod history;

use common::{Opts, Outcome, PER_LAYER};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["collect", "federate", "history"];

/// Run one workload; `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Outcome> {
    let out = match workload {
        "collect" => collect::run(opts),
        "federate" => federate::run(opts),
        "history" => history::run(opts),
        _ => return None,
    };
    Some(out)
}

/// Emit every per-layer metric in `BENCHMARK.json` order: the measured
/// value when this workload calls the layer, 0 when it never does.
pub(crate) fn fill_layers(out: &mut Outcome, measured: &[(&str, f64)]) {
    for &(name, unit) in PER_LAYER {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        out.push(name, value, unit);
    }
}
