//! Release-mode chaos sweep over the federated aggregation tier.
//!
//! Each run ships three virtual collectors' serialized window state
//! through the seeded faulty transport, feeds the survivors to the real
//! `AggregatorCore`, and checks the sealed global view against an
//! independent reference fold of the predicted survivor set:
//!
//! * transport delivery equals the oracle's prediction;
//! * sealed windows equal the reference merge (contributors, datasets,
//!   merged state);
//! * every sealed dataset states its error bound as the sum of the
//!   contributing upstreams' bounds, and no entry's error exceeds it;
//! * chunk loss is accounted as merge conflicts, never silently merged.
//!
//! ```text
//! cargo run --release -p chaos --example agg_chaos_sweep -- [seeds] [profile ...]
//! ```
//!
//! Exit code 0 when every run passes; 1 with the failing seed/profile on
//! the first divergence. Driven by `scripts/agg-chaos-smoke.sh`.

use chaos::{check, plans_for, predicted_delivery, run as chaos_run, FaultProfile, SensorInput};
use dns_observatory::{Dataset, ObservatoryConfig, StateExporter};
use feed::SensorConfig;
use simnet::{SimConfig, Simulation};
use sketchwire::{
    merge_chunks, merge_states, AggregatorConfig, AggregatorCore, TopKState, WindowState,
};
use std::collections::BTreeMap;

const UPSTREAMS: usize = 3;
const WINDOW: f64 = 0.5;
const DURATION: f64 = 1.8;
const CHUNK_ENTRIES: usize = 8;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![(Dataset::SrvIp, 120), (Dataset::Qtype, 64)],
        window_secs: WINDOW,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    }
}

fn upstream_states(seed: u64) -> Vec<Vec<WindowState>> {
    let mut exporters: Vec<StateExporter> = (0..UPSTREAMS)
        .map(|u| StateExporter::new(cfg(), u as u64, CHUNK_ENTRIES))
        .collect();
    let mut outs: Vec<Vec<WindowState>> = vec![Vec::new(); UPSTREAMS];
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::tiny()
    });
    sim.run(DURATION, &mut |tx| {
        let u = tx.sensor_index(UPSTREAMS);
        exporters[u].ingest(tx, &mut outs[u]);
    });
    for (e, out) in exporters.into_iter().zip(&mut outs) {
        e.finish(out);
    }
    outs
}

/// Per-window expectation from the independent reference fold.
struct RefWindow {
    start: f64,
    upstreams: Vec<u64>,
    datasets: Vec<TopKState>,
    bound_sums: BTreeMap<String, u64>,
}

/// Independent reference fold of the survivor records; returns the
/// per-window expectations plus the predicted merge-conflict count.
fn reference_merge(survivors: &[WindowState]) -> (Vec<RefWindow>, u64) {
    type Sources = BTreeMap<u64, BTreeMap<String, Vec<TopKState>>>;
    let mut windows: BTreeMap<u64, (f64, Sources)> = BTreeMap::new();
    for ws in survivors {
        let us = (ws.start * 1e6).round() as u64;
        let entry = windows.entry(us).or_insert((ws.start, BTreeMap::new()));
        entry
            .1
            .entry(ws.upstream)
            .or_default()
            .entry(ws.topk.dataset.clone())
            .or_default()
            .push(ws.topk.clone());
    }
    let mut conflicts = 0u64;
    let out = windows
        .into_values()
        .map(|(start, sources)| {
            let mut by_dataset: BTreeMap<String, TopKState> = BTreeMap::new();
            let mut bound_sums: BTreeMap<String, u64> = BTreeMap::new();
            let mut upstreams = Vec::new();
            for (upstream, datasets) in sources {
                let mut contributed = false;
                for (name, parts) in datasets {
                    let Ok(assembled) = merge_chunks(parts) else {
                        conflicts += 1;
                        continue;
                    };
                    *bound_sums.entry(name.clone()).or_default() += assembled.error_bound;
                    let merged = match by_dataset.remove(&name) {
                        None => assembled,
                        Some(current) => {
                            merge_states(vec![current, assembled]).expect("identical layouts merge")
                        }
                    };
                    by_dataset.insert(name, merged);
                    contributed = true;
                }
                if contributed {
                    upstreams.push(upstream);
                }
            }
            RefWindow {
                start,
                upstreams,
                datasets: by_dataset.into_values().collect(),
                bound_sums,
            }
        })
        .collect();
    (out, conflicts)
}

/// One seeded run under one profile; returns an error string naming the
/// first violated clause.
fn run_once(seed: u64, profile: &FaultProfile) -> Result<(u64, u64, u64), String> {
    let states = upstream_states(seed);
    let total: u64 = states.iter().map(|s| s.len() as u64).sum();
    let plans = plans_for(seed, UPSTREAMS as u64, profile);
    let inputs = states
        .iter()
        .enumerate()
        .map(|(u, items)| {
            let mut config = SensorConfig::new(u as u64);
            config.batch_items = 1;
            config.buffer_frames = 256;
            config.backoff.seed = seed.wrapping_mul(31).wrapping_add(u as u64);
            config.backoff.base_ms = 2;
            config.backoff.max_ms = 40;
            SensorInput {
                config,
                items: items.clone(),
                plan: plans[u].clone(),
            }
        })
        .collect();
    let outcome = chaos_run(inputs);
    check(&outcome).map_err(|d| format!("transport diverged: {d}"))?;

    let predicted = predicted_delivery(&outcome);
    if outcome.delivered != predicted {
        return Err("delivery diverged from oracle prediction".into());
    }

    let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
    for ws in outcome.delivered.iter().cloned() {
        core.on_state(ws)
            .map_err(|e| format!("aggregator rejected a survivor record: {e}"))?;
    }
    let mut sealed = Vec::new();
    let report = core.finish(&mut sealed);

    let (want, want_conflicts) = reference_merge(&predicted);
    if sealed.len() != want.len() {
        return Err(format!(
            "sealed {} windows, reference has {}",
            sealed.len(),
            want.len()
        ));
    }
    for (gw, rw) in sealed.iter().zip(&want) {
        let start = rw.start;
        if gw.start != rw.start || gw.upstreams != rw.upstreams {
            return Err(format!("window @{start}: contributors diverged"));
        }
        if gw.datasets != rw.datasets {
            return Err(format!("window @{start}: merged state diverged"));
        }
        for state in &gw.datasets {
            if state.error_bound != rw.bound_sums[&state.dataset] {
                return Err(format!(
                    "window @{start} {}: stated bound {} != sum of contributing bounds {}",
                    state.dataset, state.error_bound, rw.bound_sums[&state.dataset]
                ));
            }
            if state.max_entry_error() > state.error_bound {
                return Err(format!(
                    "window @{start} {}: entry error exceeds the stated bound",
                    state.dataset
                ));
            }
        }
    }
    if report.merge_conflicts != want_conflicts {
        return Err(format!(
            "aggregator counted {} merge conflicts, reference predicts {want_conflicts}",
            report.merge_conflicts
        ));
    }
    if profile.name == "lossless"
        && (outcome.delivered.len() as u64 != total || want_conflicts != 0)
    {
        return Err("lossless schedule lost records or conflicted".into());
    }
    Ok((outcome.delivered.len() as u64, total, want_conflicts))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seeds: u64 = args
        .next()
        .map(|s| s.parse().expect("seeds-per-profile must be a number"))
        .unwrap_or(20);
    let profiles: Vec<FaultProfile> = {
        let named: Vec<FaultProfile> = args
            .map(|name| {
                FaultProfile::by_name(&name).unwrap_or_else(|| {
                    panic!("unknown profile {name:?} (lossless|light|heavy|flaky)")
                })
            })
            .collect();
        if named.is_empty() {
            FaultProfile::all().to_vec()
        } else {
            named
        }
    };

    let mut runs = 0u64;
    for profile in &profiles {
        let mut delivered = 0u64;
        let mut total = 0u64;
        let mut conflicts = 0u64;
        for seed in 0..seeds {
            match run_once(seed, profile) {
                Ok((d, t, c)) => {
                    runs += 1;
                    delivered += d;
                    total += t;
                    conflicts += c;
                }
                Err(why) => {
                    eprintln!("agg-chaos-sweep FAIL: profile={} seed={seed}", profile.name);
                    eprintln!("  {why}");
                    eprintln!(
                        "replay: cargo run --release -p chaos --example agg_chaos_sweep -- {} {}",
                        seed + 1,
                        profile.name
                    );
                    std::process::exit(1);
                }
            }
        }
        println!(
            "agg-chaos-sweep profile={:<9} seeds={seeds} delivered={delivered}/{total} \
             chunk_conflicts={conflicts}",
            profile.name
        );
    }
    println!("agg-chaos-sweep PASS: {runs} runs, aggregator equals reference merge on every one");
}
