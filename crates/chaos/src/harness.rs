//! The chaos run itself: sensor machines and the collector core wired
//! through a scripted, faulty, virtual-time transport.
//!
//! Every run is a closed deterministic system. Item pushes, frame
//! deliveries, stalls, and connection teardowns are events on one
//! [`EventQueue`](crate::clock::EventQueue); the [`SensorMachine`]s are
//! polled to quiescence at each instant and the clock jumps straight to
//! the next due event — reconnect storms that would take wall-clock
//! seconds replay in microseconds. The transport between the two state
//! machines is a [`SensorPlan`] script: each write can be delivered,
//! corrupted, segmented, duplicated, stalled, or cut by a reset, and each
//! connect attempt can be refused.
//!
//! The run records everything both sides did — every sealed batch, every
//! successful write, every accepted/duplicate/rejected frame — so the
//! [`oracle`](crate::oracle) can audit the collector's final accounting
//! against ground truth, frame by frame.

use std::collections::BTreeMap;

use feed::{
    CollectorConfig, CollectorCore, CollectorReport, FeedItem, FrameOutcome, FrameReader,
    SealEvent, SensorConfig, SensorMachine, SensorOp, SensorReport, Wrote,
};

use crate::clock::{EventQueue, VirtualClock};
use crate::fault::{plans_for, FaultOp, FaultProfile, SensorPlan};
use crate::item::{probe_stream, ChaosItem};
use telemetry::Registry;

/// One-way link latency of the virtual network, µs.
pub const LINK_LATENCY_US: u64 = 200;

/// Virtual-time backstop: a run that has not wound down after ten
/// virtual minutes is aborted and flagged (`ChaosOutcome::truncated`).
const VIRTUAL_CAP_US: u64 = 600_000_000;

/// Poll-op backstop against harness bugs (never near in healthy runs).
const MAX_POLL_OPS: u64 = 10_000_000;

/// One sensor's contribution to a run.
#[derive(Debug, Clone)]
pub struct SensorInput<T> {
    /// Sensor configuration (identity, batching, buffering, backoff).
    pub config: SensorConfig,
    /// Items the sensor will push, in stream-time order.
    pub items: Vec<T>,
    /// Fault script for this sensor's link.
    pub plan: SensorPlan,
}

/// A batch frame the collector accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptedFrame {
    /// Frame sequence number.
    pub seq: u64,
    /// Items the frame carried.
    pub items: u64,
    /// Leading items dropped as behind the merge watermark.
    pub late: u64,
}

/// Everything one sensor did and had done to it during a run.
#[derive(Debug, Clone)]
pub struct SensorRun<T> {
    /// Sensor identity.
    pub sensor_id: u64,
    /// Items actually pushed (in order) before the run ended.
    pub pushed: Vec<T>,
    /// Every sealed batch with its fate at the send buffer, in sequence
    /// order.
    pub sealed: Vec<SealEvent>,
    /// Batches written successfully, `(seq, items)`, in write order
    /// (retransmissions of a frame appear once: a write that failed
    /// mid-flight is not in this list).
    pub sent_batches: Vec<(u64, u64)>,
    /// True when the BYE frame was written successfully.
    pub bye_sent: bool,
    /// Frames the collector accepted for this sensor, in arrival order.
    pub accepted: Vec<AcceptedFrame>,
    /// Retransmitted frames the collector discarded as duplicates.
    pub duplicates: u64,
    /// HELLO frames the collector accepted.
    pub hellos: u64,
    /// BYE frames the collector accepted.
    pub byes: u64,
    /// The sensor machine's own final accounting.
    pub report: SensorReport,
}

/// The complete, oracle-auditable result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome<T> {
    /// Items the collector released, in merged order.
    pub delivered: Vec<T>,
    /// The collector's final accounting.
    pub report: CollectorReport,
    /// Per-sensor ground truth, indexed like the inputs.
    pub sensors: Vec<SensorRun<T>>,
    /// Virtual time when the run wound down, µs.
    pub end_us: u64,
    /// True when the virtual-time backstop fired (a wedged run — always a
    /// bug).
    pub truncated: bool,
    /// True when the collector reached its BYE quota and stopped
    /// consuming while traffic was still in flight (mirrors the real
    /// merge loop's early exit).
    pub stopped_early: bool,
}

/// Standard run shape for seed-matrix tests and the smoke runner.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Number of sensors.
    pub sensors: u64,
    /// Items each sensor pushes.
    pub items_per_sensor: u64,
    /// Items per batch frame.
    pub batch_items: usize,
    /// Send-buffer capacity, frames (small enough that long outages drop
    /// frames and exercise the gap accounting).
    pub buffer_frames: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            sensors: 3,
            items_per_sensor: 60,
            batch_items: 4,
            buffer_frames: 8,
        }
    }
}

/// Run the standard probe-item deployment for `(seed, profile)`:
/// `config.sensors` machines, interleaved item times, plans expanded
/// from the seed. Fully deterministic in all arguments.
pub fn run_seed(
    seed: u64,
    profile: &FaultProfile,
    config: &ChaosConfig,
) -> ChaosOutcome<ChaosItem> {
    run_seed_in(&Registry::new(), seed, profile, config)
}

/// [`run_seed`] reporting telemetry into `registry` — the entry point of
/// the metric-reconciliation tests, which need one isolated registry per
/// run to compare against the run's own report.
pub fn run_seed_in(
    registry: &Registry,
    seed: u64,
    profile: &FaultProfile,
    config: &ChaosConfig,
) -> ChaosOutcome<ChaosItem> {
    let plans = plans_for(seed, config.sensors, profile);
    run_planned_in(registry, seed, config, plans)
}

/// [`run_seed`] with explicit plans (the minimizer's entry point: same
/// deployment, shrunk scripts).
pub fn run_planned(
    seed: u64,
    config: &ChaosConfig,
    plans: Vec<SensorPlan>,
) -> ChaosOutcome<ChaosItem> {
    run_planned_in(&Registry::new(), seed, config, plans)
}

/// [`run_planned`] reporting telemetry into `registry`.
pub fn run_planned_in(
    registry: &Registry,
    seed: u64,
    config: &ChaosConfig,
    plans: Vec<SensorPlan>,
) -> ChaosOutcome<ChaosItem> {
    assert_eq!(plans.len(), config.sensors as usize);
    let inputs = plans
        .into_iter()
        .enumerate()
        .map(|(s, plan)| {
            let mut sc = SensorConfig::new(s as u64);
            sc.batch_items = config.batch_items;
            sc.buffer_frames = config.buffer_frames;
            // Distinct jitter per (seed, sensor) so reconnect schedules
            // differ between runs but never between replays.
            sc.backoff.seed = seed.wrapping_mul(31).wrapping_add(s as u64);
            sc.backoff.base_ms = 2;
            sc.backoff.max_ms = 40;
            SensorInput {
                config: sc,
                items: probe_stream(s as u64, config.sensors, config.items_per_sensor),
                plan,
            }
        })
        .collect();
    run_in(registry, inputs)
}

enum Ev {
    Push { sensor: usize },
    Finish { sensor: usize },
    Deliver { conn: u64, bytes: Vec<u8> },
    Hangup { conn: u64 },
}

struct Conn<T> {
    up_sensor: bool,
    up_collector: bool,
    reader: FrameReader<T>,
    last_due: u64,
}

struct SensorState<T> {
    machine: SensorMachine<T>,
    plan: SensorPlan,
    items: std::vec::IntoIter<T>,
    write_idx: usize,
    connect_idx: usize,
    conn: Option<u64>,
    wait_until: Option<u64>,
    done: bool,
    // logs
    pushed: Vec<T>,
    sealed: Vec<SealEvent>,
    sent_batches: Vec<(u64, u64)>,
    bye_sent: bool,
    accepted: Vec<AcceptedFrame>,
    duplicates: u64,
    hellos: u64,
    byes: u64,
}

/// Drive arbitrary sensor inputs through the faulty virtual transport to
/// completion. The only public entry point generic over the item type.
pub fn run<T: FeedItem + Clone>(inputs: Vec<SensorInput<T>>) -> ChaosOutcome<T> {
    run_in(&Registry::new(), inputs)
}

/// [`run`] reporting telemetry into `registry` instead of a throwaway
/// one, so tests can reconcile metric totals against the run's reports.
pub fn run_in<T: FeedItem + Clone>(
    registry: &Registry,
    inputs: Vec<SensorInput<T>>,
) -> ChaosOutcome<T> {
    let n = inputs.len();
    let collector_cfg = CollectorConfig::new(n as u64);
    let mut core = CollectorCore::<T>::with_registry(&collector_cfg, registry);
    let mut core_open = true;
    let mut delivered: Vec<T> = Vec::new();

    let mut clock = VirtualClock::new();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut conns: BTreeMap<u64, Conn<T>> = BTreeMap::new();
    let mut next_conn: u64 = 0;

    // Sensor-id → input index, for attributing collector outcomes.
    let index_of: BTreeMap<u64, usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| (inp.config.sensor_id, i))
        .collect();
    assert_eq!(index_of.len(), n, "sensor ids must be distinct");

    let mut states: Vec<SensorState<T>> = Vec::with_capacity(n);
    for (i, input) in inputs.into_iter().enumerate() {
        // Schedule the pushes at their stream times (µs), monotone per
        // sensor; the finish (flush + BYE) lands right after the last
        // push at the same instant.
        let mut prev = 0u64;
        let mut last = 0u64;
        for item in &input.items {
            let t = (item.order_time().max(0.0) * 1e6) as u64;
            let t = t.max(prev);
            prev = t;
            last = t;
            queue.push(t, Ev::Push { sensor: i });
        }
        queue.push(last, Ev::Finish { sensor: i });
        states.push(SensorState {
            machine: SensorMachine::with_registry(input.config, registry),
            plan: input.plan,
            items: input.items.into_iter(),
            write_idx: 0,
            connect_idx: 0,
            conn: None,
            wait_until: None,
            done: false,
            pushed: Vec::new(),
            sealed: Vec::new(),
            sent_batches: Vec::new(),
            bye_sent: false,
            accepted: Vec::new(),
            duplicates: 0,
            hellos: 0,
            byes: 0,
        });
    }

    let mut truncated = false;
    let mut poll_ops = 0u64;

    // Deliver `bytes` on a connection, preserving per-connection FIFO
    // order through the monotone `last_due`.
    fn deliver(
        queue: &mut EventQueue<Ev>,
        last_due: &mut u64,
        conn_id: u64,
        now: u64,
        bytes: Vec<u8>,
    ) {
        let due = (*last_due).max(now + LINK_LATENCY_US);
        *last_due = due;
        queue.push(
            due,
            Ev::Deliver {
                conn: conn_id,
                bytes,
            },
        );
    }

    'run: loop {
        // 1. Apply every event due at this instant.
        while let Some((_, ev)) = queue.pop_due(clock.now()) {
            match ev {
                Ev::Push { sensor } => {
                    let s = &mut states[sensor];
                    let item = s.items.next().expect("push event without item");
                    s.pushed.push(item.clone());
                    if let Some(seal) = s.machine.push(item) {
                        s.sealed.push(seal);
                    }
                }
                Ev::Finish { sensor } => {
                    let s = &mut states[sensor];
                    if let Some(seal) = s.machine.flush() {
                        s.sealed.push(seal);
                    }
                    s.machine.finish();
                }
                Ev::Deliver { conn, bytes } => {
                    let c = match conns.get_mut(&conn) {
                        Some(c) => c,
                        None => continue,
                    };
                    if !c.up_collector {
                        continue;
                    }
                    if !core_open {
                        // The real merge loop has exited; readers die.
                        c.up_collector = false;
                        continue;
                    }
                    c.reader.push(&bytes);
                    loop {
                        match c.reader.next_frame() {
                            Ok(Some(frame)) => {
                                let outcome = core.on_frame(conn, frame, &mut delivered);
                                match outcome {
                                    FrameOutcome::Hello { sensor } => {
                                        states[index_of[&sensor]].hellos += 1;
                                    }
                                    FrameOutcome::Accepted {
                                        sensor,
                                        seq,
                                        items,
                                        late,
                                    } => {
                                        states[index_of[&sensor]].accepted.push(AcceptedFrame {
                                            seq,
                                            items,
                                            late,
                                        });
                                    }
                                    FrameOutcome::Duplicate { sensor, .. } => {
                                        states[index_of[&sensor]].duplicates += 1;
                                    }
                                    FrameOutcome::Bye { sensor } => {
                                        states[index_of[&sensor]].byes += 1;
                                    }
                                    FrameOutcome::Unheralded => {}
                                }
                                if outcome.is_fatal() {
                                    // Poisoned connection: both sides tear
                                    // down; the sensor notices on its next
                                    // write.
                                    c.up_collector = false;
                                    c.up_sensor = false;
                                    core.on_disconnect(conn, &mut delivered);
                                    break;
                                }
                                if core.done() {
                                    core_open = false;
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                core.on_bad_frame(conn, &e);
                                if e.is_fatal() {
                                    // Unrecoverable stream desync.
                                    c.up_collector = false;
                                    c.up_sensor = false;
                                    core.on_disconnect(conn, &mut delivered);
                                    break;
                                }
                            }
                        }
                    }
                }
                Ev::Hangup { conn } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        if c.up_collector {
                            c.up_collector = false;
                            if core_open {
                                core.on_disconnect(conn, &mut delivered);
                            }
                        }
                    }
                }
            }
        }

        // 2. Poll every machine to quiescence at this instant.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for state in states.iter_mut() {
                loop {
                    poll_ops += 1;
                    assert!(poll_ops < MAX_POLL_OPS, "chaos harness runaway poll loop");
                    let now = clock.now();
                    match state.machine.poll(now) {
                        SensorOp::Connect => {
                            progressed = true;
                            let idx = state.connect_idx;
                            state.connect_idx += 1;
                            if state.plan.connect_fail(idx) {
                                state.machine.on_connect_failed(now);
                            } else {
                                let cid = next_conn;
                                next_conn += 1;
                                conns.insert(
                                    cid,
                                    Conn {
                                        up_sensor: true,
                                        up_collector: true,
                                        reader: FrameReader::new(),
                                        last_due: now,
                                    },
                                );
                                state.conn = Some(cid);
                                state.machine.on_connected(now);
                            }
                        }
                        SensorOp::Write(bytes) => {
                            progressed = true;
                            let cid = state.conn.expect("write while disconnected");
                            if !conns[&cid].up_sensor {
                                // The connection died under the machine.
                                state.machine.on_write_failed(now);
                                state.conn = None;
                                continue;
                            }
                            let idx = state.write_idx;
                            state.write_idx += 1;
                            let op = state.plan.write_op(idx);
                            let mut write_ok = true;
                            {
                                let c = conns.get_mut(&cid).expect("conn exists");
                                match op {
                                    FaultOp::Deliver => {
                                        deliver(&mut queue, &mut c.last_due, cid, now, bytes);
                                    }
                                    FaultOp::Corrupt { offset } => {
                                        let mut b = bytes;
                                        let at = offset as usize % b.len();
                                        b[at] ^= 0xff;
                                        deliver(&mut queue, &mut c.last_due, cid, now, b);
                                    }
                                    FaultOp::Chop { at_permille } => {
                                        if bytes.len() < 2 {
                                            deliver(&mut queue, &mut c.last_due, cid, now, bytes);
                                        } else {
                                            let cut = (bytes.len() * at_permille as usize / 1000)
                                                .clamp(1, bytes.len() - 1);
                                            let tail = bytes[cut..].to_vec();
                                            let head = bytes[..cut].to_vec();
                                            deliver(&mut queue, &mut c.last_due, cid, now, head);
                                            deliver(&mut queue, &mut c.last_due, cid, now, tail);
                                        }
                                    }
                                    FaultOp::Dup => {
                                        deliver(
                                            &mut queue,
                                            &mut c.last_due,
                                            cid,
                                            now,
                                            bytes.clone(),
                                        );
                                        deliver(&mut queue, &mut c.last_due, cid, now, bytes);
                                    }
                                    FaultOp::Stall { us } => {
                                        c.last_due = c.last_due.max(now) + us as u64;
                                        deliver(&mut queue, &mut c.last_due, cid, now, bytes);
                                    }
                                    FaultOp::Reset { keep_permille } => {
                                        let keep = bytes.len() * keep_permille as usize / 1000;
                                        if keep > 0 {
                                            deliver(
                                                &mut queue,
                                                &mut c.last_due,
                                                cid,
                                                now,
                                                bytes[..keep].to_vec(),
                                            );
                                        }
                                        // EOF follows whatever was delivered.
                                        let due = c.last_due.max(now + LINK_LATENCY_US);
                                        queue.push(due, Ev::Hangup { conn: cid });
                                        c.up_sensor = false;
                                        write_ok = false;
                                    }
                                }
                            }
                            if write_ok {
                                match state.machine.on_write_ok() {
                                    Wrote::Hello => {}
                                    Wrote::Batch { seq, items } => {
                                        state.sent_batches.push((seq, items));
                                    }
                                    Wrote::Bye => state.bye_sent = true,
                                }
                            } else {
                                state.machine.on_write_failed(now);
                                state.conn = None;
                            }
                        }
                        SensorOp::WaitUntil(t) => {
                            state.wait_until = Some(t);
                            break;
                        }
                        SensorOp::Idle => {
                            state.wait_until = None;
                            break;
                        }
                        SensorOp::Done => {
                            state.wait_until = None;
                            if !state.done {
                                state.done = true;
                                // Sensor closes its side; EOF reaches the
                                // collector after everything in flight.
                                if let Some(cid) = state.conn.take() {
                                    if let Some(c) = conns.get_mut(&cid) {
                                        c.up_sensor = false;
                                        let due = c.last_due.max(now + LINK_LATENCY_US);
                                        queue.push(due, Ev::Hangup { conn: cid });
                                    }
                                }
                            }
                            break;
                        }
                    }
                }
            }
        }

        // 3. Advance to the next instant, or wind down.
        if queue.is_empty() && states.iter().all(|s| s.done) {
            break;
        }
        let mut next = queue.next_time();
        for s in &states {
            if s.done {
                continue;
            }
            if let Some(t) = s.wait_until {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            }
        }
        let next = next.unwrap_or_else(|| panic!("chaos harness stuck at t={}", clock.now()));
        if next > VIRTUAL_CAP_US {
            truncated = true;
            for s in &mut states {
                if !s.done {
                    if let Some(seal) = s.machine.flush() {
                        s.sealed.push(seal);
                    }
                    s.machine.abort();
                    s.done = true;
                }
            }
            break 'run;
        }
        clock.advance_to(next.max(clock.now()));
    }

    let report = core.finish(&mut delivered);
    let stopped_early = !core_open && !queue.is_empty();
    ChaosOutcome {
        delivered,
        report,
        end_us: clock.now(),
        truncated,
        stopped_early,
        sensors: states
            .into_iter()
            .map(|s| SensorRun {
                sensor_id: s.machine.sensor(),
                report: s.machine.report(),
                pushed: s.pushed,
                sealed: s.sealed,
                sent_batches: s.sent_batches,
                bye_sent: s.bye_sent,
                accepted: s.accepted,
                duplicates: s.duplicates,
                hellos: s.hellos,
                byes: s.byes,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_delivers_everything_in_merge_order() {
        let cfg = ChaosConfig::default();
        let out = run_seed(0, &FaultProfile::lossless(), &cfg);
        assert!(!out.truncated);
        let pushed: u64 = out.sensors.iter().map(|s| s.pushed.len() as u64).sum();
        assert_eq!(out.delivered.len() as u64, pushed);
        assert!(out
            .delivered
            .windows(2)
            .all(|w| (w[0].time, w[0].sensor) <= (w[1].time, w[1].sensor)));
        assert_eq!(out.report.items_merged, pushed);
        assert_eq!(out.report.total_gap_frames(), 0);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let cfg = ChaosConfig::default();
        let a = run_seed(7, &FaultProfile::heavy(), &cfg);
        let b = run_seed(7, &FaultProfile::heavy(), &cfg);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.report, b.report);
        assert_eq!(a.end_us, b.end_us);
    }

    #[test]
    fn reset_forces_reconnect_and_retransmission() {
        let cfg = ChaosConfig::default();
        let mut plans = vec![SensorPlan::clean(); cfg.sensors as usize];
        // Kill sensor 0's very first data write (HELLO is write 0).
        plans[0].write_ops = vec![FaultOp::Deliver, FaultOp::Reset { keep_permille: 0 }];
        let out = run_planned(1, &cfg, plans);
        assert!(!out.truncated);
        assert!(out.sensors[0].report.connects >= 2, "reset must reconnect");
        // Nothing may be lost: the frame is retransmitted.
        let pushed: u64 = out.sensors.iter().map(|s| s.pushed.len() as u64).sum();
        assert_eq!(out.delivered.len() as u64, pushed);
    }
}
