//! Differential oracle for the federated aggregation tier.
//!
//! Three virtual forwarding collectors export per-window sketch state
//! (`sketchwire::WindowState`) and ship it through the seeded faulty
//! transport. Whatever survives feeds the real `AggregatorCore`; the
//! reference is an independent fold of the *predicted* survivor records
//! with `merge_chunks`/`merge_states` directly, one upstream at a time. The fault schedule plus
//! ground truth fully determine the global view:
//!
//! * the aggregator's sealed windows equal the reference fold exactly;
//! * every sealed dataset states its error bound as the sum of the
//!   contributing upstreams' bounds, and no entry's error exceeds it;
//! * chunk loss is accounted: each (upstream, window, dataset) group
//!   with missing chunks is one merge conflict, never a silent merge.

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
/// Small enough that real trackers split into several chunks, so lossy
/// schedules can drop *part* of a window's state.
const CHUNK_ENTRIES: usize = 8;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![(Dataset::SrvIp, 120), (Dataset::Qtype, 64)],
        window_secs: WINDOW,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    }
}

/// Each upstream's exported window-state stream for a seeded world,
/// sliced by sensor vantage like a real federated deployment.
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

fn run_chaos(
    seed: u64,
    profile: &FaultProfile,
    states: &[Vec<WindowState>],
) -> chaos::ChaosOutcome<WindowState> {
    let plans = plans_for(seed, UPSTREAMS as u64, profile);
    let inputs = states
        .iter()
        .enumerate()
        .map(|(u, items)| {
            let mut config = SensorConfig::new(u as u64);
            // One state record per frame: faults land on record
            // boundaries, which is how the real feed ships them too.
            // The buffer must ride out injected stalls (records burst at
            // window boundaries), so loss comes from the *wire* faults —
            // resets and corruption — not from a starved send queue.
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
    check(&outcome).unwrap_or_else(|d| {
        panic!(
            "aggregate chaos run diverged (seed={seed}, profile={}): {d}",
            profile.name
        )
    });
    outcome
}

/// Reference global view: fold the survivor records with the sketchwire
/// merge primitives directly, mirroring the aggregator's documented
/// policy (chunks reassembled per upstream; a group with missing chunks
/// is skipped and counted; upstreams merged in ascending id order).
struct RefWindow {
    start: f64,
    upstreams: Vec<u64>,
    datasets: Vec<TopKState>,
    /// Per dataset, the sum of the contributing upstreams' error bounds
    /// — what the sealed state must *state* as its bound.
    bound_sums: BTreeMap<String, u64>,
}

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

/// Seeded schedules over three virtual upstreams, all four fault
/// profiles: the aggregator's output equals the predicted survivor
/// merge, with the stated global error bound equal to the sum of the
/// contributing per-upstream bounds (and covering every entry).
#[test]
fn aggregator_equals_predicted_survivor_merge() {
    let mut saw_loss = false;
    let mut saw_chunk_conflict = false;
    for profile in FaultProfile::all() {
        for seed in [5u64, 17] {
            let states = upstream_states(seed);
            let total: usize = states.iter().map(Vec::len).sum();
            assert!(
                total >= UPSTREAMS * 2 * 2,
                "world too small: {total} records"
            );
            let outcome = run_chaos(seed, &profile, &states);

            // The transport oracle's survivor prediction is the ground
            // truth everything below is judged against.
            let predicted = predicted_delivery(&outcome);
            assert_eq!(
                outcome.delivered, predicted,
                "seed {seed} {}: delivery diverged from prediction",
                profile.name
            );

            let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
            for ws in outcome.delivered.iter().cloned() {
                core.on_state(ws).expect("survivor record accepted");
            }
            let mut sealed = Vec::new();
            let report = core.finish(&mut sealed);

            let (want, want_conflicts) = reference_merge(&predicted);
            assert_eq!(
                sealed.len(),
                want.len(),
                "seed {seed} {}: window count",
                profile.name
            );
            for (gw, rw) in sealed.iter().zip(&want) {
                assert_eq!(gw.start, rw.start, "window start");
                assert_eq!(
                    gw.upstreams, rw.upstreams,
                    "seed {seed} {}: contributors @{}",
                    profile.name, rw.start
                );
                assert_eq!(
                    gw.datasets, rw.datasets,
                    "seed {seed} {}: merged state @{}",
                    profile.name, rw.start
                );
                for state in &gw.datasets {
                    assert_eq!(
                        state.error_bound, rw.bound_sums[&state.dataset],
                        "stated bound must be the sum of contributing bounds"
                    );
                    assert!(
                        state.max_entry_error() <= state.error_bound,
                        "entry error exceeds the stated bound"
                    );
                }
            }
            assert_eq!(
                report.merge_conflicts, want_conflicts,
                "seed {seed} {}: chunk-loss accounting",
                profile.name
            );

            if profile.name == "lossless" {
                assert_eq!(
                    outcome.delivered.len(),
                    total,
                    "lossless schedule lost records"
                );
                assert_eq!(report.merge_conflicts, 0);
            } else {
                saw_loss |= outcome.delivered.len() < total;
                saw_chunk_conflict |= want_conflicts > 0;
            }
        }
    }
    assert!(saw_loss, "no lossy schedule lost a record — recalibrate");
    assert!(
        saw_chunk_conflict,
        "no schedule dropped part of a chunked window — recalibrate"
    );
}

/// Under a lossless schedule the transport is fully transparent: the
/// aggregator over the chaos delivery equals the aggregator over the
/// pristine inputs fed directly, upstream by upstream.
#[test]
fn lossless_transport_is_transparent_to_aggregation() {
    for seed in [3u64, 11] {
        let states = upstream_states(seed);
        let outcome = run_chaos(seed, &FaultProfile::lossless(), &states);

        let aggregate = |records: Vec<WindowState>| {
            let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
            for ws in records {
                core.on_state(ws).expect("record accepted");
            }
            let mut sealed = Vec::new();
            core.finish(&mut sealed);
            sealed
        };
        let via_chaos = aggregate(outcome.delivered);
        let direct = aggregate(states.into_iter().flatten().collect());
        assert_eq!(via_chaos, direct, "seed {seed}: transport left a mark");
    }
}
