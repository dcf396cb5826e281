//! The sans-io broker kernel: sealed windows in, per-client actions out.
//!
//! [`BrokerCore`] owns no sockets and no threads. Events arrive as method
//! calls — a sealed window batch from the pipeline, a client handshake, a
//! drain notification from an io writer — and decisions leave as
//! [`Action`]s: *send this pre-encoded frame to that client* or *evict
//! that client for this reason*. The threaded server in [`crate::server`]
//! is a thin shell around it, and the chaos harness drives the same core
//! on virtual time with scripted subscriber behaviour.
//!
//! # Backpressure contract
//!
//! The seal path is sacred: `on_sealed` never blocks and never waits on
//! any client. Each client has a bounded egress window
//! ([`BrokerConfig::egress_frames`]) accounted here — pushes increment
//! it, io-level drains decrement it. A client whose egress is full
//! degrades: its delta basis is discarded and it receives only periodic
//! snapshot *offers* (every [`BrokerConfig::snapshot_every`] windows);
//! after [`BrokerConfig::evict_after`] failed offers it is evicted with a
//! typed, ledgered reason. Every departure (evicted, vanished, shutdown)
//! lands in the ledger with the client's conservation totals, so
//! `pushed == delivered + undelivered` is checkable per client and in
//! aggregate — the invariant the chaos subscriber axis asserts.

use std::collections::BTreeMap;
use std::sync::Arc;

use sketches::LogBuckets;
use sketchwire::{StateError, TopKState, WindowState};
use telemetry::{Counter, Gauge, Histogram, Registry, TraceEvent, TraceKind, TraceRing};

use crate::codec::{encode_frame_vec, EvictReason, Frame, Topic};
use crate::delta::{canonicalize, diff_states, strip_features, window_id_us};

/// Broker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Per-client egress window, in frames: the most frames accepted for
    /// a client that io has not yet reported drained.
    pub egress_frames: usize,
    /// While degraded, offer a full snapshot resync every this many
    /// sealed windows.
    pub snapshot_every: u32,
    /// Evict a degraded client after this many consecutive failed
    /// snapshot offers.
    pub evict_after: u32,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            egress_frames: 64,
            snapshot_every: 4,
            evict_after: 3,
        }
    }
}

/// A decision the io shell must carry out.
#[derive(Debug, Clone)]
pub enum Action {
    /// Queue this pre-encoded frame for this client.
    Send {
        /// Target client id.
        client: u64,
        /// Shared encoded frame bytes.
        frame: Arc<Vec<u8>>,
    },
    /// Terminate this client: best-effort write the enclosed `Evict`
    /// frame, then close the connection.
    Evict {
        /// Target client id.
        client: u64,
        /// Why — already ledgered by the core.
        reason: EvictReason,
        /// Pre-encoded `Evict` frame to flush before closing.
        frame: Arc<Vec<u8>>,
    },
}

/// A client's cumulative frame accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTotals {
    /// Frames accepted into the client's egress window.
    pub pushed: u64,
    /// Frames io reported written.
    pub delivered: u64,
    /// Frames never accepted (egress full / degraded skips).
    pub dropped: u64,
}

/// One ledgered departure. `TooSlow` and `Protocol` are broker-initiated
/// evictions; `Gone` and `Shutdown` record ordinary departures so the
/// ledger is a complete conservation record: for every client that ever
/// connected, `pushed == delivered + undelivered` holds on its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionRecord {
    /// Client id.
    pub client: u64,
    /// Why the subscription ended.
    pub reason: EvictReason,
    /// Frames accepted but not yet drained at departure.
    pub undelivered: u64,
    /// The client's totals at departure.
    pub totals: ClientTotals,
    /// Injected time of the departure, microseconds.
    pub at_us: u64,
}

/// End-of-run accounting, aggregated over the complete departure ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BrokerReport {
    /// Sealed window batches ingested.
    pub windows_ingested: u64,
    /// Meta payloads ingested.
    pub metas_ingested: u64,
    /// Distinct clients that ever completed a handshake.
    pub clients_seen: u64,
    /// Sum of per-client `pushed`.
    pub frames_pushed: u64,
    /// Sum of per-client `delivered`.
    pub frames_delivered: u64,
    /// Sum of per-client `dropped`.
    pub frames_dropped: u64,
    /// Sum of per-client undelivered-at-departure.
    pub undelivered: u64,
    /// The complete departure ledger, in departure order.
    pub departures: Vec<EvictionRecord>,
}

/// A client's effective topic filter (the union of its `Subscribe`
/// topics; an empty topic list subscribes to everything at full
/// fidelity).
#[derive(Debug, Clone)]
struct Subscription {
    topk: bool,
    features: bool,
    meta: bool,
    datasets: Vec<String>,
}

impl Subscription {
    fn from_topics(topics: &[Topic]) -> Subscription {
        if topics.is_empty() {
            return Subscription {
                topk: false,
                features: true,
                meta: true,
                datasets: Vec::new(),
            };
        }
        let mut s = Subscription {
            topk: false,
            features: false,
            meta: false,
            datasets: Vec::new(),
        };
        for t in topics {
            match t {
                Topic::Topk => s.topk = true,
                Topic::Features => s.features = true,
                Topic::Meta => s.meta = true,
                Topic::Dataset(name) => {
                    if !s.datasets.contains(name) {
                        s.datasets.push(name.clone());
                    }
                }
            }
        }
        // A bare dataset filter implies window frames.
        if !s.datasets.is_empty() && !s.topk && !s.features {
            s.features = true;
        }
        s
    }

    fn wants_windows(&self) -> bool {
        self.topk || self.features
    }

    fn wants_dataset(&self, ds: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d == ds)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Degraded {
    windows_since: u32,
    failures: u32,
}

#[derive(Debug)]
struct Client {
    subs: Subscription,
    /// Per-dataset window id of the last frame queued — the delta basis.
    basis: BTreeMap<String, u64>,
    /// Frames accepted but not yet reported drained.
    depth: usize,
    /// `Some` while the client is in snapshot-recovery mode.
    degraded: Option<Degraded>,
    totals: ClientTotals,
}

/// One dataset's current published window plus its pre-encoded frames
/// (encoded once, shared by every subscriber and every late joiner).
#[derive(Debug)]
struct Published {
    window_us: u64,
    full: TopKState,
    topk_only: TopKState,
    snap_full: Arc<Vec<u8>>,
    snap_topk: Arc<Vec<u8>>,
}

struct Metrics {
    clients: Gauge,
    windows_ingested: Counter,
    frames_pushed: Counter,
    frames_delivered: Counter,
    frames_dropped: Counter,
    clients_evicted: Counter,
    egress_depth: Histogram,
}

impl Metrics {
    fn new(r: &Registry) -> Metrics {
        Metrics {
            clients: r.gauge("pubsub_clients"),
            windows_ingested: r.counter("pubsub_windows_ingested_total"),
            frames_pushed: r.counter("pubsub_frames_pushed_total"),
            frames_delivered: r.counter("pubsub_frames_delivered_total"),
            frames_dropped: r.counter("pubsub_frames_dropped_total"),
            clients_evicted: r.counter("pubsub_clients_evicted_total"),
            egress_depth: r.histogram("pubsub_egress_depth", LogBuckets::new(1.0, 1024.0, 3)),
        }
    }
}

/// The sans-io subscription broker. See the module docs for the contract.
pub struct BrokerCore {
    cfg: BrokerConfig,
    now_us: u64,
    clients: BTreeMap<u64, Client>,
    published: BTreeMap<String, Published>,
    ledger: Vec<EvictionRecord>,
    windows_ingested: u64,
    metas_ingested: u64,
    clients_seen: u64,
    metrics: Option<Metrics>,
    trace: TraceRing,
}

impl BrokerCore {
    /// New broker with the given knobs.
    pub fn new(cfg: BrokerConfig) -> BrokerCore {
        BrokerCore {
            cfg,
            now_us: 0,
            clients: BTreeMap::new(),
            published: BTreeMap::new(),
            ledger: Vec::new(),
            windows_ingested: 0,
            metas_ingested: 0,
            clients_seen: 0,
            metrics: None,
            trace: TraceRing::disabled(),
        }
    }

    /// Register broker metrics in `registry`.
    pub fn with_registry(mut self, registry: &Registry) -> BrokerCore {
        self.metrics = Some(Metrics::new(registry));
        self
    }

    /// Record flight-recorder trace events into `trace`.
    pub fn with_trace(mut self, trace: TraceRing) -> BrokerCore {
        self.trace = trace;
        self
    }

    /// Inject the current time (stamps ledger records and trace events).
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Connected clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// The departure ledger so far.
    pub fn ledger(&self) -> &[EvictionRecord] {
        &self.ledger
    }

    /// A connected client's totals (`None` after departure — consult the
    /// ledger instead).
    pub fn client_totals(&self, id: u64) -> Option<ClientTotals> {
        self.clients.get(&id).map(|c| c.totals)
    }

    /// A connected client's undrained egress depth.
    pub fn client_depth(&self, id: u64) -> Option<usize> {
        self.clients.get(&id).map(|c| c.depth)
    }

    /// Whether a connected client is in snapshot-recovery mode.
    pub fn client_degraded(&self, id: u64) -> Option<bool> {
        self.clients.get(&id).map(|c| c.degraded.is_some())
    }

    /// The currently published window id for `dataset`.
    pub fn published_window(&self, dataset: &str) -> Option<u64> {
        self.published.get(dataset).map(|p| p.window_us)
    }

    /// A client completed its handshake. Immediately offers a snapshot of
    /// every published dataset its topics select, so a late joiner is
    /// consistent without waiting for the next seal.
    pub fn on_client_connect(&mut self, id: u64, topics: &[Topic], actions: &mut Vec<Action>) {
        self.clients_seen += 1;
        let mut client = Client {
            subs: Subscription::from_topics(topics),
            basis: BTreeMap::new(),
            depth: 0,
            degraded: None,
            totals: ClientTotals::default(),
        };
        if client.subs.wants_windows() {
            for (ds, p) in &self.published {
                if !client.subs.wants_dataset(ds) {
                    continue;
                }
                let frame = if client.subs.features {
                    p.snap_full.clone()
                } else {
                    p.snap_topk.clone()
                };
                if push_frame(&self.cfg, &self.metrics, id, &mut client, frame, actions) {
                    client.basis.insert(ds.clone(), p.window_us);
                } else {
                    client.degraded = Some(Degraded::default());
                }
            }
        }
        self.clients.insert(id, client);
        if let Some(m) = &self.metrics {
            m.clients.set(self.clients.len() as f64);
        }
        if self.trace.is_enabled() {
            self.trace
                .record(TraceEvent::new(self.now_us, "pubsub", TraceKind::Open).source(id));
        }
    }

    /// The io shell wrote `n` frames to this client's socket.
    pub fn on_drained(&mut self, id: u64, n: u64) {
        if let Some(client) = self.clients.get_mut(&id) {
            let n = (n as usize).min(client.depth);
            client.depth -= n;
            client.totals.delivered += n as u64;
            if let Some(m) = &self.metrics {
                m.frames_delivered.inc(n as u64);
            }
        }
    }

    /// The client disconnected (clean `Bye`, io error, or a protocol
    /// violation detected by the io shell). Ledgers the departure; emits
    /// no action — the connection is already gone.
    pub fn on_client_gone(&mut self, id: u64, reason: EvictReason) {
        if let Some(client) = self.clients.remove(&id) {
            self.ledger_departure(id, &client, reason);
            if reason == EvictReason::Protocol {
                if let Some(m) = &self.metrics {
                    m.clients_evicted.inc(1);
                }
            }
            if let Some(m) = &self.metrics {
                m.clients.set(self.clients.len() as f64);
            }
        }
    }

    /// A sealed window batch from the pipeline/aggregator: chunks of each
    /// dataset reassemble, the canonical state is published, and every
    /// subscriber gets a delta (basis matches) or snapshot (otherwise),
    /// subject to its egress window. Never blocks; cost is bounded by
    /// state size and client count.
    pub fn on_sealed(
        &mut self,
        window: Vec<WindowState>,
        actions: &mut Vec<Action>,
    ) -> Result<(), StateError> {
        if window.is_empty() {
            return Ok(());
        }
        self.windows_ingested += 1;
        if let Some(m) = &self.metrics {
            m.windows_ingested.inc(1);
        }
        let mut by_ds: BTreeMap<String, Vec<WindowState>> = BTreeMap::new();
        for ws in window {
            by_ds.entry(ws.topk.dataset.clone()).or_default().push(ws);
        }
        let sends_before = actions.len();
        let mut updates = Vec::with_capacity(by_ds.len());
        let mut first_window_us = 0;
        for (ds, parts) in by_ds {
            let start = parts[0].start;
            let length = parts[0].length;
            let window_us = window_id_us(start);
            let topks: Vec<TopKState> = parts.into_iter().map(|w| w.topk).collect();
            let full = canonicalize(sketchwire::merge_chunks(&topks)?);
            let topk_only = strip_features(&full);
            let snap_full = Arc::new(encode_frame_vec(&Frame::Snapshot(Box::new(WindowState {
                upstream: 0,
                start,
                length,
                topk: full.clone(),
            }))));
            let snap_topk = Arc::new(encode_frame_vec(&Frame::Snapshot(Box::new(WindowState {
                upstream: 0,
                start,
                length,
                topk: topk_only.clone(),
            }))));
            // Deltas are only worth encoding when someone might consume
            // them; with no clients the seal path pays for snapshots only.
            let (prev_us, delta_full, delta_topk) = match self.published.get(&ds) {
                Some(p) if p.window_us < window_us && !self.clients.is_empty() => {
                    let df = diff_states(p.window_us, &p.full, window_us, start, length, &full);
                    let dt = diff_states(
                        p.window_us,
                        &p.topk_only,
                        window_us,
                        start,
                        length,
                        &topk_only,
                    );
                    (
                        Some(p.window_us),
                        Some(Arc::new(encode_frame_vec(&Frame::Delta(Box::new(df))))),
                        Some(Arc::new(encode_frame_vec(&Frame::Delta(Box::new(dt))))),
                    )
                }
                _ => (None, None, None),
            };
            self.published.insert(
                ds.clone(),
                Published {
                    window_us,
                    full,
                    topk_only,
                    snap_full: snap_full.clone(),
                    snap_topk: snap_topk.clone(),
                },
            );
            if first_window_us == 0 {
                first_window_us = window_us;
            }
            updates.push(Update {
                ds,
                window_us,
                prev_us,
                snap_full,
                snap_topk,
                delta_full,
                delta_topk,
            });
        }

        let mut evict = Vec::new();
        for (&id, client) in self.clients.iter_mut() {
            if !client.subs.wants_windows() {
                continue;
            }
            let wanted: Vec<&Update> = updates
                .iter()
                .filter(|u| client.subs.wants_dataset(&u.ds))
                .collect();
            if wanted.is_empty() {
                continue;
            }
            match client.degraded {
                None => {
                    let mut stalled = false;
                    for u in wanted {
                        if stalled {
                            drop_frame(&self.metrics, client, 1);
                            client.basis.remove(&u.ds);
                            continue;
                        }
                        let use_delta =
                            u.prev_us.is_some() && client.basis.get(&u.ds).copied() == u.prev_us;
                        let frame = match (use_delta, client.subs.features) {
                            (true, true) => u.delta_full.clone().expect("delta encoded"),
                            (true, false) => u.delta_topk.clone().expect("delta encoded"),
                            (false, true) => u.snap_full.clone(),
                            (false, false) => u.snap_topk.clone(),
                        };
                        if push_frame(&self.cfg, &self.metrics, id, client, frame, actions) {
                            client.basis.insert(u.ds.clone(), u.window_us);
                        } else {
                            drop_frame(&self.metrics, client, 1);
                            client.basis.remove(&u.ds);
                            client.degraded = Some(Degraded::default());
                            stalled = true;
                        }
                    }
                }
                Some(mut d) => {
                    d.windows_since += 1;
                    if d.windows_since >= self.cfg.snapshot_every {
                        d.windows_since = 0;
                        let resync: Vec<(&String, &Published)> = self
                            .published
                            .iter()
                            .filter(|(ds, _)| client.subs.wants_dataset(ds))
                            .collect();
                        if self.cfg.egress_frames.saturating_sub(client.depth) >= resync.len() {
                            for (ds, p) in resync {
                                let frame = if client.subs.features {
                                    p.snap_full.clone()
                                } else {
                                    p.snap_topk.clone()
                                };
                                let ok = push_frame(
                                    &self.cfg,
                                    &self.metrics,
                                    id,
                                    client,
                                    frame,
                                    actions,
                                );
                                debug_assert!(ok, "resync capacity was checked");
                                client.basis.insert(ds.clone(), p.window_us);
                            }
                            client.degraded = None;
                            continue;
                        }
                        d.failures += 1;
                        drop_frame(&self.metrics, client, wanted.len() as u64);
                        if d.failures >= self.cfg.evict_after {
                            evict.push(id);
                        } else {
                            client.degraded = Some(d);
                        }
                    } else {
                        drop_frame(&self.metrics, client, wanted.len() as u64);
                        client.degraded = Some(d);
                    }
                }
            }
        }
        for id in evict {
            self.evict_client(id, EvictReason::TooSlow, actions);
        }
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, "pubsub", TraceKind::Ingest)
                    .window(first_window_us)
                    .value((actions.len() - sends_before) as u64),
            );
        }
        Ok(())
    }

    /// A meta TSV payload for one window: fan out to `meta` subscribers.
    pub fn on_meta(&mut self, start_us: u64, bytes: Vec<u8>, actions: &mut Vec<Action>) {
        self.metas_ingested += 1;
        let frame = Arc::new(encode_frame_vec(&Frame::Meta { start_us, bytes }));
        for (&id, client) in self.clients.iter_mut() {
            if !client.subs.meta {
                continue;
            }
            if !push_frame(&self.cfg, &self.metrics, id, client, frame.clone(), actions) {
                drop_frame(&self.metrics, client, 1);
            }
        }
    }

    /// Shut down: every remaining client gets a best-effort `Bye` (not
    /// counted in the egress accounting — it is terminal) and a
    /// `Shutdown` ledger record. Returns the aggregate report.
    pub fn finish(&mut self, actions: &mut Vec<Action>) -> BrokerReport {
        let bye = Arc::new(encode_frame_vec(&Frame::Bye));
        let ids: Vec<u64> = self.clients.keys().copied().collect();
        for id in ids {
            let client = self.clients.remove(&id).expect("listed key");
            actions.push(Action::Send {
                client: id,
                frame: bye.clone(),
            });
            self.ledger_departure(id, &client, EvictReason::Shutdown);
        }
        if let Some(m) = &self.metrics {
            m.clients.set(0.0);
        }
        let mut report = BrokerReport {
            windows_ingested: self.windows_ingested,
            metas_ingested: self.metas_ingested,
            clients_seen: self.clients_seen,
            ..BrokerReport::default()
        };
        for rec in &self.ledger {
            report.frames_pushed += rec.totals.pushed;
            report.frames_delivered += rec.totals.delivered;
            report.frames_dropped += rec.totals.dropped;
            report.undelivered += rec.undelivered;
        }
        report.departures = self.ledger.clone();
        report
    }

    fn evict_client(&mut self, id: u64, reason: EvictReason, actions: &mut Vec<Action>) {
        if let Some(client) = self.clients.remove(&id) {
            let undelivered = client.depth as u64;
            let frame = Arc::new(encode_frame_vec(&Frame::Evict {
                reason,
                undelivered,
            }));
            actions.push(Action::Evict {
                client: id,
                reason,
                frame,
            });
            self.ledger_departure(id, &client, reason);
            if let Some(m) = &self.metrics {
                m.clients_evicted.inc(1);
                m.clients.set(self.clients.len() as f64);
            }
        }
    }

    fn ledger_departure(&mut self, id: u64, client: &Client, reason: EvictReason) {
        let undelivered = client.depth as u64;
        self.ledger.push(EvictionRecord {
            client: id,
            reason,
            undelivered,
            totals: client.totals,
            at_us: self.now_us,
        });
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, "pubsub", TraceKind::Drop)
                    .source(id)
                    .value(undelivered),
            );
        }
    }
}

/// One dataset's frames for the window being fanned out.
struct Update {
    ds: String,
    window_us: u64,
    prev_us: Option<u64>,
    snap_full: Arc<Vec<u8>>,
    snap_topk: Arc<Vec<u8>>,
    delta_full: Option<Arc<Vec<u8>>>,
    delta_topk: Option<Arc<Vec<u8>>>,
}

/// Try to accept a frame into the client's egress window. Free function
/// (not a method) so `on_sealed` can call it while iterating clients.
fn push_frame(
    cfg: &BrokerConfig,
    metrics: &Option<Metrics>,
    id: u64,
    client: &mut Client,
    frame: Arc<Vec<u8>>,
    actions: &mut Vec<Action>,
) -> bool {
    if client.depth >= cfg.egress_frames {
        return false;
    }
    client.depth += 1;
    client.totals.pushed += 1;
    actions.push(Action::Send { client: id, frame });
    if let Some(m) = metrics {
        m.frames_pushed.inc(1);
        m.egress_depth.record(client.depth as f64);
    }
    true
}

fn drop_frame(metrics: &Option<Metrics>, client: &mut Client, n: u64) {
    client.totals.dropped += n;
    if let Some(m) = metrics {
        m.frames_dropped.inc(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameReader;
    use crate::delta::apply_delta;
    use sketchwire::{FeatureState, TopKEntry};

    fn entry(key: &str, count: u64) -> TopKEntry {
        TopKEntry {
            key: key.to_string(),
            count,
            error: 0,
            inserted_at: 0.0,
            features: FeatureState {
                adds: vec![count],
                maxes: Vec::new(),
                hlls: Vec::new(),
                source_cap: 4,
                sources: vec![1],
                tops: Vec::new(),
                hists: Vec::new(),
            },
        }
    }

    fn sealed(window: u64, entries: Vec<TopKEntry>) -> Vec<WindowState> {
        let observed: u64 = entries.iter().map(|e| e.count).sum();
        vec![WindowState {
            upstream: 7,
            start: (window * 600) as f64,
            length: 600.0,
            topk: TopKState {
                dataset: "esld".to_string(),
                capacity: 8,
                observed,
                min_count: 0,
                error_bound: observed / 8,
                evictions: 0,
                kept: observed,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries,
                gate: None,
            },
        }]
    }

    fn decode(frame: &Arc<Vec<u8>>) -> Frame {
        let mut rd = FrameReader::new();
        rd.push(frame);
        rd.next_frame().unwrap().expect("one frame")
    }

    fn sends_for(actions: &[Action], id: u64) -> Vec<Frame> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { client, frame } if *client == id => Some(decode(frame)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn snapshot_then_delta_flow() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Features], &mut actions);
        assert!(actions.is_empty(), "nothing published yet");

        core.on_sealed(sealed(1, vec![entry("a", 5)]), &mut actions)
            .unwrap();
        let frames = sends_for(&actions, 1);
        assert_eq!(frames.len(), 1);
        let base = match &frames[0] {
            Frame::Snapshot(w) => w.topk.clone(),
            other => panic!("expected snapshot, got {other:?}"),
        };

        actions.clear();
        core.on_sealed(sealed(2, vec![entry("a", 9), entry("b", 2)]), &mut actions)
            .unwrap();
        let frames = sends_for(&actions, 1);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Delta(d) => {
                let next = apply_delta(&base, d).unwrap();
                assert_eq!(next.entries.len(), 2);
                assert_eq!(next.observed, 11);
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn late_joiner_gets_snapshot_immediately() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_sealed(sealed(1, vec![entry("a", 5)]), &mut actions)
            .unwrap();
        core.on_client_connect(1, &[], &mut actions);
        let frames = sends_for(&actions, 1);
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0], Frame::Snapshot(_)));
    }

    #[test]
    fn topk_topic_strips_features() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Topk], &mut actions);
        core.on_sealed(sealed(1, vec![entry("a", 5)]), &mut actions)
            .unwrap();
        match &sends_for(&actions, 1)[0] {
            Frame::Snapshot(w) => {
                assert_eq!(w.topk.entries[0].count, 5);
                assert!(w.topk.entries[0].features.adds.is_empty());
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn dataset_filter_applies() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Dataset("other".to_string())], &mut actions);
        core.on_sealed(sealed(1, vec![entry("a", 5)]), &mut actions)
            .unwrap();
        assert!(sends_for(&actions, 1).is_empty());
    }

    #[test]
    fn slow_client_degrades_then_recovers_via_snapshot() {
        let cfg = BrokerConfig {
            egress_frames: 2,
            snapshot_every: 2,
            evict_after: 10,
        };
        let mut core = BrokerCore::new(cfg);
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Features], &mut actions);
        // Fill the egress window without draining.
        for w in 1..=3 {
            core.on_sealed(sealed(w, vec![entry("a", w)]), &mut actions)
                .unwrap();
        }
        assert_eq!(core.client_degraded(1), Some(true));
        assert_eq!(core.client_depth(1), Some(2));

        // Drain everything; the next snapshot offer resynchronizes.
        core.on_drained(1, 2);
        actions.clear();
        for w in 4..=6 {
            core.on_sealed(sealed(w, vec![entry("a", w)]), &mut actions)
                .unwrap();
        }
        assert_eq!(core.client_degraded(1), Some(false));
        let frames = sends_for(&actions, 1);
        assert!(
            matches!(frames[0], Frame::Snapshot(_)),
            "recovery is a snapshot"
        );
        // And once healthy, traffic is deltas again.
        core.on_drained(1, frames.len() as u64);
        actions.clear();
        core.on_sealed(sealed(7, vec![entry("a", 7)]), &mut actions)
            .unwrap();
        assert!(matches!(sends_for(&actions, 1)[0], Frame::Delta(_)));
    }

    #[test]
    fn stalled_client_is_evicted_with_ledgered_reason() {
        let cfg = BrokerConfig {
            egress_frames: 1,
            snapshot_every: 1,
            evict_after: 2,
        };
        let mut core = BrokerCore::new(cfg);
        let mut actions = Vec::new();
        core.set_now_us(42);
        core.on_client_connect(1, &[Topic::Features], &mut actions);
        let mut w = 1;
        while core.clients() > 0 {
            core.on_sealed(sealed(w, vec![entry("a", w)]), &mut actions)
                .unwrap();
            w += 1;
            assert!(w < 32, "eviction must converge");
        }
        let evicts: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Action::Evict { .. }))
            .collect();
        assert_eq!(evicts.len(), 1);
        assert_eq!(core.ledger().len(), 1);
        let rec = core.ledger()[0];
        assert_eq!(rec.reason, EvictReason::TooSlow);
        assert_eq!(rec.at_us, 42);
        // Conservation: everything pushed is still in egress (undelivered).
        assert_eq!(rec.totals.pushed, rec.totals.delivered + rec.undelivered);
        match evicts[0] {
            Action::Evict { frame, .. } => match decode(frame) {
                Frame::Evict {
                    reason,
                    undelivered,
                } => {
                    assert_eq!(reason, EvictReason::TooSlow);
                    assert_eq!(undelivered, rec.undelivered);
                }
                other => panic!("expected evict frame, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn seal_path_cost_is_independent_of_stalled_clients() {
        // A stalled client must not make on_sealed return more actions
        // or error; its frames are simply dropped.
        let cfg = BrokerConfig {
            egress_frames: 1,
            snapshot_every: 100,
            evict_after: 100,
        };
        let mut core = BrokerCore::new(cfg);
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Features], &mut actions);
        for w in 1..=50 {
            actions.clear();
            core.on_sealed(sealed(w, vec![entry("a", w)]), &mut actions)
                .unwrap();
            assert!(actions.len() <= 1);
        }
        let t = core.client_totals(1).unwrap();
        assert_eq!(t.pushed, 1, "one frame accepted, the rest dropped");
        assert_eq!(t.dropped, 49);
    }

    #[test]
    fn chunked_input_reassembles_before_publication() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Features], &mut actions);
        let mut window = sealed(1, vec![entry("a", 5), entry("b", 3), entry("c", 2)]);
        let whole = window.pop().unwrap();
        let chunks: Vec<WindowState> = whole
            .topk
            .clone()
            .into_chunks(1)
            .into_iter()
            .map(|c| WindowState {
                upstream: 7,
                start: whole.start,
                length: whole.length,
                topk: c,
            })
            .collect();
        assert!(chunks.len() > 1);
        core.on_sealed(chunks, &mut actions).unwrap();
        match &sends_for(&actions, 1)[0] {
            Frame::Snapshot(w) => {
                assert_eq!(w.topk.chunks, 1);
                assert_eq!(w.topk.entries.len(), 3);
                assert_eq!(w.upstream, 0, "broker publishes the merged view");
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn meta_frames_reach_only_meta_subscribers() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[Topic::Meta], &mut actions);
        core.on_client_connect(2, &[Topic::Topk], &mut actions);
        core.on_meta(600_000_000, b"line\n".to_vec(), &mut actions);
        assert_eq!(sends_for(&actions, 1).len(), 1);
        assert!(sends_for(&actions, 2).is_empty());
        match &sends_for(&actions, 1)[0] {
            Frame::Meta { start_us, bytes } => {
                assert_eq!(*start_us, 600_000_000);
                assert_eq!(bytes, b"line\n");
            }
            other => panic!("expected meta, got {other:?}"),
        }
    }

    #[test]
    fn finish_ledgers_every_departure_and_reports_conservation() {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions = Vec::new();
        core.on_client_connect(1, &[], &mut actions);
        core.on_client_connect(2, &[], &mut actions);
        core.on_sealed(sealed(1, vec![entry("a", 5)]), &mut actions)
            .unwrap();
        core.on_drained(1, 1);
        core.on_client_gone(2, EvictReason::Gone);
        let report = core.finish(&mut actions);
        assert_eq!(report.clients_seen, 2);
        assert_eq!(report.departures.len(), 2);
        assert_eq!(
            report.frames_pushed,
            report.frames_delivered + report.undelivered,
            "ledger-wide conservation"
        );
        for rec in &report.departures {
            assert_eq!(rec.totals.pushed, rec.totals.delivered + rec.undelivered);
        }
        // Both clients got a Bye or were ledgered Gone.
        let byes = actions
            .iter()
            .filter(|a| {
                matches!(a, Action::Send { frame, .. } if {
                    let mut rd = FrameReader::new();
                    rd.push(frame);
                    matches!(rd.next_frame(), Ok(Some(Frame::Bye)))
                })
            })
            .count();
        assert_eq!(byes, 1, "only the still-connected client gets a Bye");
    }
}
