//! Sensitivity self-test of the benchmark itself.
//!
//! For each workload a busy-wait is planted in the benchmark's own
//! wrapper around one layer call: the input iterator on collect,
//! `AggregatorCore::on_state` on federate, `store::query::history` on
//! history. An A/A pair of unplanted runs must agree within the matching
//! end-to-end metric's bound in `BENCHMARK.json`, and a delay sized to
//! worsen that metric by twice its bound must be caught: the planted run
//! is worse than the unplanted one by more than the bound.
//!
//! A delay of about 10 % is planted too, and its shift is printed. It is
//! asserted only when the bound is below 10 %; a smaller delay is inside
//! the noise the bound allows by design.
//!
//! Timing test: run it alone, with `cargo test --release`.

use obsbench::common::{Opts, Outcome};
use obsbench::federate::RECORDS_PER_BATCH;

/// `bound` of one end-to-end metric in the repository's BENCHMARK.json.
fn bound(metric: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let at = text
        .find(&format!("\"name\": \"{metric}\""))
        .unwrap_or_else(|| panic!("{metric} is not in BENCHMARK.json"));
    let entry = &text[at..at + text[at..].find('}').expect("entry ends")];
    let b = &entry[entry.find("\"bound\":").expect("metric has a bound") + 8..];
    b.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()
        .and_then(|v| v.parse().ok())
        .expect("bound is a number")
}

fn run(workload: &str, plant_ns: u64) -> Outcome {
    let opts = Opts {
        seed: 11,
        seconds: 15.0,
        trace: false,
        plant_ns,
    };
    let out = obsbench::run(workload, &opts).expect("known workload");
    assert!(
        out.mismatches.is_empty(),
        "{workload}: {:?}",
        out.mismatches
    );
    out
}

struct Case {
    workload: &'static str,
    metric: &'static str,
    higher_is_better: bool,
    /// Delay per wrapped call that worsens the metric by `share` when
    /// the wrapped call is on the path that sets it.
    plant_ns: fn(&Outcome, f64) -> u64,
    /// Extra share for the asserted delay (see the collect case).
    floor: f64,
}

fn m(o: &Outcome, name: &str) -> f64 {
    o.metric(name).expect("metric reported")
}

const CASES: &[Case] = &[
    // The feeder thread is not the pipeline's bottleneck, so a delay per
    // input transaction only shows once the feeder alone takes longer
    // than the whole pipeline did: the asserted delay is (1 + 2·bound)
    // of the per-transaction time.
    Case {
        workload: "collect",
        metric: "ops_per_s",
        higher_is_better: true,
        plant_ns: |a, share| (share * 1e9 / m(a, "ops_per_s")) as u64,
        floor: 1.0,
    },
    // Every window's latency contains the merge of the batch that closes
    // it: one record per dataset.
    Case {
        workload: "federate",
        metric: "latency_p50_ms",
        higher_is_better: false,
        plant_ns: |a, share| {
            (share * m(a, "latency_p50_ms") * 1e6 / RECORDS_PER_BATCH as f64) as u64
        },
        floor: 0.0,
    },
    // A third of the queries are history queries; throughput falls by
    // share / (1 + share) when each gets 3·share of the mean query time.
    Case {
        workload: "history",
        metric: "ops_per_s",
        higher_is_better: true,
        plant_ns: |a, share| (3.0 * share / (1.0 - share) * 1e9 / m(a, "ops_per_s")) as u64,
        floor: 0.0,
    },
];

/// How much worse `b` is than `a`, as a share of `a`.
fn worse(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing test: run with cargo test --release"
)]
fn planted_delay_is_caught_and_an_aa_pair_is_not() {
    let mut failures = Vec::new();
    for case in CASES {
        let bound = bound(case.metric);
        let metric = |o: &Outcome| m(o, case.metric);
        let a = run(case.workload, 0);
        let a2 = run(case.workload, 0);
        let aa = worse(metric(&a), metric(&a2), case.higher_is_better).abs();
        eprintln!(
            "{:9} {:15} bound {bound:.2}: A/A pair {:.1} % apart",
            case.workload,
            case.metric,
            aa * 100.0
        );
        if aa > bound {
            failures.push(format!(
                "{}: A/A pair differs by {aa:.3} > {bound}",
                case.workload
            ));
        }
        for (share, asserted) in [(0.10, bound < 0.10), (case.floor + 2.0 * bound, true)] {
            let planted = run(case.workload, (case.plant_ns)(&a, share));
            let shift = worse(metric(&a), metric(&planted), case.higher_is_better);
            eprintln!(
                "{:9} {:15} planted {:.0} %: worse by {:+.1} %",
                case.workload,
                case.metric,
                share * 100.0,
                shift * 100.0
            );
            if asserted && shift <= bound {
                failures.push(format!(
                    "{}: a {share:.2} delay moved {} by {shift:.3}, not past {bound}",
                    case.workload, case.metric
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
