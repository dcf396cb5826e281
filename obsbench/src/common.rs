//! Shared pieces of the three workloads: options, the result record,
//! statistics, process memory, the seeded generator and the scratch
//! directory every on-disk store lives in.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How one benchmark run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced mode: print the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Sensitivity self-test hook: busy-wait this long inside the
    /// benchmark's own wrapper around one layer call per workload (the
    /// input iterator on collect, `AggregatorCore::on_state` on federate,
    /// `store::query::history` on history). Zero in every real run.
    pub plant_ns: u64,
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports. The run is correct when no oracle
/// recorded a mismatch.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (transactions, records + frames, queries).
    pub attempted: u64,
    /// Operations that failed (see each workload's definition).
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable oracle mismatches, printed to stderr.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an oracle verdict; a mismatch fails the whole run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// workload that never calls a layer reports 0 for its lines.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("summarize.ns_per_tx", "ns"),
    ("topk.observe_ns_per_tx", "ns"),
    ("topk.seal_ms_per_window", "ms"),
    ("topk.evictions_per_window", "count"),
    ("pipeline.fold_tx_per_s", "1/s"),
    ("pipeline.speedup", "ratio"),
    ("pipeline.shard_skew", "ratio"),
    ("pipeline.batch_mean", "count"),
    ("federate.export_ms_per_window", "ms"),
    ("federate.records_per_window", "count"),
    ("federate.observe_ns_per_tx", "ns"),
    ("feed.encode_ms_per_window", "ms"),
    ("feed.decode_ms_per_window", "ms"),
    ("feed.bytes_per_window", "bytes"),
    ("sketchwire.merge_ms_per_window", "ms"),
    ("sketchwire.rejected_records", "count"),
    ("tsv.render_ms_per_window", "ms"),
    ("store.append_ms_per_window", "ms"),
    ("store.build_s", "s"),
    ("store.compact_s", "s"),
    ("store.footer_us_per_call", "us"),
    ("store.segment_decode_ms_per_call", "ms"),
    ("store.segment_decode_mb_per_s", "MB/s"),
    ("store.segments_scanned_per_query", "count"),
    ("store.records_decoded_per_query", "count"),
    ("store.pruned_share", "ratio"),
    ("query.fold_ms_per_query", "ms"),
    ("query.render_ms_per_query", "ms"),
    ("pubsub.broker_ms_per_window", "ms"),
    ("pubsub.frames_per_window", "count"),
    ("pubsub.delta_share", "ratio"),
    ("pubsub.apply_ms_per_window", "ms"),
    ("pipeline.flush_ms", "ms"),
    ("process.mem_peak_growth_mb", "MB"),
    ("ops.failed_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples,
/// the same "exclusive" rule Python's `statistics.quantiles` uses.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pos = (n as f64 + 1.0) * q / 100.0;
    if pos <= 1.0 {
        return v[0];
    }
    if pos >= n as f64 {
        return v[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Busy-wait for `ns` nanoseconds (the planted delay of the
/// sensitivity self-test; a spin, so it costs CPU like real work).
pub fn spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// SplitMix64: the seeded generator behind the query mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6f62_7362_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One `kB` field of this process's `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak-RSS probe for the measured phase: `start` resets the kernel's
/// high-water mark to the current RSS (so set-up and the pre-generated
/// input are not counted), `growth_mb` reads how far the peak rose above
/// the RSS at `start`.
pub struct MemProbe {
    base_kb: u64,
}

impl MemProbe {
    pub fn start() -> MemProbe {
        // Writing 5 to clear_refs resets VmHWM to the current RSS.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        MemProbe {
            base_kb: proc_status_kb("VmRSS:").unwrap_or(0),
        }
    }

    pub fn growth_mb(&self) -> f64 {
        let peak = proc_status_kb("VmHWM:").unwrap_or(0);
        peak.saturating_sub(self.base_kb) as f64 / 1024.0
    }
}

/// A scratch directory under the working directory, removed on drop.
/// Every store the benchmark writes lives here, inside the checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from(".obsbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work directory");
        WorkDir(dir)
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run uses it.
        let _ = std::fs::remove_dir(".obsbench-work");
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&v, 25.0) - 2.75).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 5.5).abs() < 1e-12);
        assert!((percentile(&v, 75.0) - 8.25).abs() < 1e-12);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
    }
}
