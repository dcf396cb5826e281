//! Per-object traffic features (paper §2.3, step D).
//!
//! Each tracked object owns a [`FeatureSet`] — live sketch state folded
//! over the summaries attributed to it within the current 60-second
//! window. At window boundaries the set is rendered into a plain-number
//! [`FeatureRow`] and reset, without disturbing the top-k list itself.

use crate::summarize::{Outcome, TxSummary};
use sketches::{HyperLogLog, LogHistogram, TopValues};
use sketchwire::StateError;
use std::collections::BTreeSet;

/// Positional layout contract of a serialized [`FeatureSet`] — the order
/// in which counters, sketches, and distributions appear inside a
/// [`sketchwire::FeatureState`]. Owned by this module: [`FeatureSet::to_state`]
/// writes it, [`FeatureSet::from_state`] refuses anything else.
///
/// `adds`: hits, unans, ok, nxd, rfs, fail, ok_ans, ok_ns, ok_add,
/// ok_nil, ok6, ok6nil, ok_sec, qdots_sum, lvl_sum, nslvl_sum, answered.
/// `maxes`: qdots_max. `hlls`: srvips, srcips, qnamesa, qnames, tlds,
/// eslds, qtypes, ip4s, ip6s. `tops`: ttl, ttl_a, nsttl, negttl, a_data,
/// ns_names. `hists`: resp_delays, network_hops, resp_size.
pub const STATE_ADDS: usize = 17;
/// Max-merged scalar count in the layout contract.
pub const STATE_MAXES: usize = 1;
/// HyperLogLog count in the layout contract.
pub const STATE_HLLS: usize = 9;
/// Top-value table count in the layout contract.
pub const STATE_TOPS: usize = 6;
/// Histogram count in the layout contract.
pub const STATE_HISTS: usize = 3;
/// Exact-contributor-set cap (matches the fold-path cap).
pub const STATE_SOURCE_CAP: u64 = 4_096;

/// Sizing knobs for per-object sketches. The defaults balance accuracy
/// against the memory of 10⁵ tracked objects.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// HyperLogLog precision for per-object cardinalities (2^p registers).
    pub hll_precision: u8,
    /// Distinct TTL values tracked exactly per object.
    pub ttl_slots: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            hll_precision: 7,
            ttl_slots: 8,
        }
    }
}

/// Live sketch state for one tracked object.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Construction config, kept so [`FeatureSet::reset`] preserves it.
    cfg: FeatureConfig,
    // --- counters ---------------------------------------------------------
    hits: u64,
    unans: u64,
    ok: u64,
    nxd: u64,
    rfs: u64,
    fail: u64,
    ok_ans: u64,
    ok_ns: u64,
    ok_add: u64,
    ok_nil: u64,
    ok6: u64,
    ok6nil: u64,
    ok_sec: u64,
    // --- averages ----------------------------------------------------------
    qdots_sum: u64,
    lvl_sum: u64,
    nslvl_sum: u64,
    answered: u64,
    // --- cardinalities ------------------------------------------------------
    srvips: HyperLogLog,
    srcips: HyperLogLog,
    qnamesa: HyperLogLog,
    qnames: HyperLogLog,
    tlds: HyperLogLog,
    eslds: HyperLogLog,
    qtypes: HyperLogLog,
    ip4s: HyperLogLog,
    ip6s: HyperLogLog,
    /// Exact contributor set (small by construction).
    sources: BTreeSet<u16>,
    // --- distributions ------------------------------------------------------
    ttl: TopValues,
    ttl_a: TopValues,
    nsttl: TopValues,
    negttl: TopValues,
    a_data: TopValues,
    ns_names: TopValues,
    resp_delays: LogHistogram,
    network_hops: LogHistogram,
    resp_size: LogHistogram,
    // --- meta ----------------------------------------------------------------
    qdots_max: u8,
}

impl FeatureSet {
    /// Fresh, empty feature state.
    pub fn new(cfg: FeatureConfig) -> FeatureSet {
        let hll = || HyperLogLog::new(cfg.hll_precision);
        FeatureSet {
            cfg,
            hits: 0,
            unans: 0,
            ok: 0,
            nxd: 0,
            rfs: 0,
            fail: 0,
            ok_ans: 0,
            ok_ns: 0,
            ok_add: 0,
            ok_nil: 0,
            ok6: 0,
            ok6nil: 0,
            ok_sec: 0,
            qdots_sum: 0,
            lvl_sum: 0,
            nslvl_sum: 0,
            answered: 0,
            srvips: hll(),
            srcips: hll(),
            qnamesa: hll(),
            qnames: hll(),
            tlds: hll(),
            eslds: hll(),
            qtypes: hll(),
            ip4s: hll(),
            ip6s: hll(),
            sources: BTreeSet::new(),
            ttl: TopValues::new(cfg.ttl_slots),
            ttl_a: TopValues::new(cfg.ttl_slots),
            nsttl: TopValues::new(cfg.ttl_slots),
            negttl: TopValues::new(cfg.ttl_slots),
            a_data: TopValues::new(cfg.ttl_slots),
            ns_names: TopValues::new(cfg.ttl_slots),
            resp_delays: LogHistogram::new(0.2, 10_000.0, 10),
            network_hops: LogHistogram::new(1.0, 64.0, 20),
            resp_size: LogHistogram::new(12.0, 9_000.0, 10),
            qdots_max: 0,
        }
    }

    /// Fold one summary into the state.
    pub fn fold(&mut self, s: &TxSummary) {
        self.hits += 1;
        match s.outcome {
            Outcome::Unanswered => self.unans += 1,
            Outcome::NoError => self.ok += 1,
            Outcome::NxDomain => self.nxd += 1,
            Outcome::Refused => self.rfs += 1,
            Outcome::ServFail => self.fail += 1,
            Outcome::OtherError => {}
        }
        if s.outcome == Outcome::NoError {
            if s.ok_ans {
                self.ok_ans += 1;
            }
            if s.ok_ns {
                self.ok_ns += 1;
            }
            if s.ok_add {
                self.ok_add += 1;
            }
            if s.is_nodata() {
                self.ok_nil += 1;
            }
            if s.qtype == dnswire::RecordType::Aaaa {
                self.ok6 += 1;
                if s.is_nodata() {
                    self.ok6nil += 1;
                }
            }
            if s.dnssec_ok {
                self.ok_sec += 1;
            }
            self.qnames.insert(s.qname.as_wire());
            if let Some(tld) = &s.tld {
                self.tlds.insert(tld.as_bytes());
            }
            if let Some(esld) = &s.esld {
                self.eslds.insert(esld.as_bytes());
            }
            for a in &s.ip4s {
                self.ip4s.insert(&a.octets());
            }
            for a in &s.ip6s {
                self.ip6s.insert(&a.octets());
            }
        }
        if s.outcome != Outcome::Unanswered {
            self.answered += 1;
            self.lvl_sum += s.answer_count as u64;
            self.nslvl_sum += s.authority_ns_count as u64;
            if let Some(d) = s.delay_ms {
                self.resp_delays.record(d);
            }
            if let Some(h) = s.hops {
                self.network_hops.record(h as f64);
            }
            if let Some(sz) = s.resp_size {
                self.resp_size.record(sz as f64);
            }
            if let Some(ttl) = s.answer_ttl {
                self.ttl.record(ttl as u64);
                if s.qtype == dnswire::RecordType::A {
                    self.ttl_a.record(ttl as u64);
                }
                if s.qtype == dnswire::RecordType::Ns {
                    self.nsttl.record(ttl as u64);
                }
            }
            if let Some(ttl) = s.ns_ttl {
                self.nsttl.record(ttl as u64);
            }
            if let Some(m) = s.soa_minimum {
                if s.is_nodata() || s.outcome == Outcome::NxDomain {
                    self.negttl.record(m as u64);
                }
            }
            for &h in &s.answer_data_hashes {
                self.a_data.record(h);
            }
            for &h in &s.ns_name_hashes {
                self.ns_names.record(h);
            }
        }
        self.qdots_sum += s.qdots as u64;
        self.qdots_max = self.qdots_max.max(s.qdots);
        self.qnamesa.insert(s.qname.as_wire());
        self.qtypes.insert(&s.qtype.code().to_be_bytes());
        match s.nameserver {
            std::net::IpAddr::V4(v4) => self.srvips.insert(&v4.octets()),
            std::net::IpAddr::V6(v6) => self.srvips.insert(&v6.octets()),
        }
        match s.resolver {
            std::net::IpAddr::V4(v4) => self.srcips.insert(&v4.octets()),
            std::net::IpAddr::V6(v6) => self.srcips.insert(&v6.octets()),
        }
        if (self.sources.len() as u64) < STATE_SOURCE_CAP {
            self.sources.insert(s.contributor);
        }
    }

    /// Render the current state as plain numbers.
    pub fn row(&self) -> FeatureRow {
        let avg = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let quart = |h: &LogHistogram| {
            h.quartiles()
                .map(|(a, b, c)| [a, b, c])
                .unwrap_or([f64::NAN; 3])
        };
        let tv = |t: &TopValues| t.top_n_with_share(3).into_iter().collect();
        FeatureRow {
            hits: self.hits,
            unans: self.unans,
            ok: self.ok,
            nxd: self.nxd,
            rfs: self.rfs,
            fail: self.fail,
            ok_ans: self.ok_ans,
            ok_ns: self.ok_ns,
            ok_add: self.ok_add,
            ok_nil: self.ok_nil,
            ok6: self.ok6,
            ok6nil: self.ok6nil,
            ok_sec: self.ok_sec,
            srvips: self.srvips.estimate(),
            srcips: self.srcips.estimate(),
            sources: self.sources.len() as f64,
            qnamesa: self.qnamesa.estimate(),
            qnames: self.qnames.estimate(),
            tlds: self.tlds.estimate(),
            eslds: self.eslds.estimate(),
            qtypes: self.qtypes.estimate(),
            ip4s: self.ip4s.estimate(),
            ip6s: self.ip6s.estimate(),
            qdots: avg(self.qdots_sum, self.hits),
            qdots_max: self.qdots_max,
            lvl: avg(self.lvl_sum, self.answered),
            nslvl: avg(self.nslvl_sum, self.answered),
            ttl_top: tv(&self.ttl),
            ttl_a_top: tv(&self.ttl_a),
            nsttl_top: tv(&self.nsttl),
            negttl_top: tv(&self.negttl),
            a_data_top: tv(&self.a_data),
            ns_names_top: tv(&self.ns_names),
            resp_delays: quart(&self.resp_delays),
            network_hops: quart(&self.network_hops),
            resp_size: quart(&self.resp_size),
        }
    }

    /// Reset all statistics for the next window (the object itself stays
    /// in the top-k cache — paper §2.4).
    pub fn reset(&mut self) {
        *self = FeatureSet::new(self.cfg);
    }

    /// Total transactions folded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Export the live sketch state as a wire-ready [`FeatureState`],
    /// following the positional layout contract (`STATE_*` constants).
    pub fn to_state(&self) -> sketchwire::FeatureState {
        use sketchwire::{FeatureState, HistogramState, HllState, TopValuesState};
        FeatureState {
            adds: vec![
                self.hits,
                self.unans,
                self.ok,
                self.nxd,
                self.rfs,
                self.fail,
                self.ok_ans,
                self.ok_ns,
                self.ok_add,
                self.ok_nil,
                self.ok6,
                self.ok6nil,
                self.ok_sec,
                self.qdots_sum,
                self.lvl_sum,
                self.nslvl_sum,
                self.answered,
            ],
            maxes: vec![self.qdots_max as u64],
            hlls: [
                &self.srvips,
                &self.srcips,
                &self.qnamesa,
                &self.qnames,
                &self.tlds,
                &self.eslds,
                &self.qtypes,
                &self.ip4s,
                &self.ip6s,
            ]
            .into_iter()
            .map(HllState::from_sketch)
            .collect(),
            source_cap: STATE_SOURCE_CAP,
            sources: self.sources.iter().copied().collect(),
            tops: [
                &self.ttl,
                &self.ttl_a,
                &self.nsttl,
                &self.negttl,
                &self.a_data,
                &self.ns_names,
            ]
            .into_iter()
            .map(TopValuesState::from_sketch)
            .collect(),
            hists: [&self.resp_delays, &self.network_hops, &self.resp_size]
                .into_iter()
                .map(HistogramState::from_sketch)
                .collect(),
        }
    }

    /// Rebuild live sketch state from a (possibly merged) wire state.
    ///
    /// Merged states may exceed nominal capacities — top-value tables
    /// keep their most frequent entries (ties to the smaller value,
    /// matching [`TopValues::ranked`]) and contributor sets their first
    /// `source_cap` ids. A state whose shape does not match the layout
    /// contract is a [`StateError::LayoutMismatch`].
    pub fn from_state(state: &sketchwire::FeatureState) -> Result<FeatureSet, StateError> {
        if state.adds.len() != STATE_ADDS {
            return Err(StateError::LayoutMismatch("counter count"));
        }
        if state.maxes.len() != STATE_MAXES {
            return Err(StateError::LayoutMismatch("max count"));
        }
        if state.hlls.len() != STATE_HLLS {
            return Err(StateError::LayoutMismatch("hll count"));
        }
        if state.hlls.iter().any(|h| !(4..=16).contains(&h.p)) {
            return Err(StateError::LayoutMismatch("hll precision"));
        }
        if state.tops.len() != STATE_TOPS {
            return Err(StateError::LayoutMismatch("topvalues count"));
        }
        if state.tops.iter().any(|t| t.capacity == 0) {
            return Err(StateError::LayoutMismatch("topvalues capacity"));
        }
        if state.hists.len() != STATE_HISTS {
            return Err(StateError::LayoutMismatch("histogram count"));
        }
        if state.hists.iter().any(|h| {
            !(h.min.is_finite() && h.min > 0.0 && h.base.is_finite() && h.base > 1.0)
                || h.counts.is_empty()
        }) {
            return Err(StateError::LayoutMismatch("histogram layout"));
        }
        let a = &state.adds;
        let hll = |i: usize| state.hlls[i].to_sketch();
        let top = |i: usize| {
            let t = &state.tops[i];
            let cap = t.capacity as usize;
            let mut slots = t.slots.clone();
            slots.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            slots.truncate(cap);
            TopValues::from_parts(cap, t.observed, slots)
        };
        let hist = |i: usize| state.hists[i].to_sketch();
        Ok(FeatureSet {
            cfg: FeatureConfig {
                hll_precision: state.hlls[0].p,
                ttl_slots: state.tops[0].capacity as usize,
            },
            hits: a[0],
            unans: a[1],
            ok: a[2],
            nxd: a[3],
            rfs: a[4],
            fail: a[5],
            ok_ans: a[6],
            ok_ns: a[7],
            ok_add: a[8],
            ok_nil: a[9],
            ok6: a[10],
            ok6nil: a[11],
            ok_sec: a[12],
            qdots_sum: a[13],
            lvl_sum: a[14],
            nslvl_sum: a[15],
            answered: a[16],
            srvips: hll(0),
            srcips: hll(1),
            qnamesa: hll(2),
            qnames: hll(3),
            tlds: hll(4),
            eslds: hll(5),
            qtypes: hll(6),
            ip4s: hll(7),
            ip6s: hll(8),
            sources: state
                .sources
                .iter()
                .take(state.source_cap as usize)
                .copied()
                .collect(),
            ttl: top(0),
            ttl_a: top(1),
            nsttl: top(2),
            negttl: top(3),
            a_data: top(4),
            ns_names: top(5),
            resp_delays: hist(0),
            network_hops: hist(1),
            resp_size: hist(2),
            qdots_max: state.maxes[0].min(u8::MAX as u64) as u8,
        })
    }
}

/// One object's features in one time window, as plain numbers — the TSV
/// row of the paper's data files (step E).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureRow {
    /// Total transactions.
    pub hits: u64,
    /// Unanswered queries.
    pub unans: u64,
    /// NoError responses.
    pub ok: u64,
    /// NXDOMAIN responses.
    pub nxd: u64,
    /// Refused responses.
    pub rfs: u64,
    /// ServFail responses.
    pub fail: u64,
    /// NoError with non-empty ANSWER.
    pub ok_ans: u64,
    /// NoError with NS in AUTHORITY.
    pub ok_ns: u64,
    /// NoError with non-empty ADDITIONAL.
    pub ok_add: u64,
    /// NoData responses.
    pub ok_nil: u64,
    /// AAAA NoError responses.
    pub ok6: u64,
    /// AAAA NoData responses.
    pub ok6nil: u64,
    /// DNSSEC-signed responses.
    pub ok_sec: u64,
    /// Distinct nameserver IPs (estimate).
    pub srvips: f64,
    /// Distinct resolver IPs (estimate).
    pub srcips: f64,
    /// Distinct SIE contributors (exact).
    pub sources: f64,
    /// Distinct QNAMEs over all queries (estimate).
    pub qnamesa: f64,
    /// Distinct QNAMEs that got NoError (estimate).
    pub qnames: f64,
    /// Distinct TLDs in NoError traffic (estimate).
    pub tlds: f64,
    /// Distinct effective SLDs in NoError traffic (estimate).
    pub eslds: f64,
    /// Distinct QTYPEs (estimate).
    pub qtypes: f64,
    /// Distinct IPv4 addresses in answers (estimate).
    pub ip4s: f64,
    /// Distinct IPv6 addresses in answers (estimate).
    pub ip6s: f64,
    /// Mean QNAME label count.
    pub qdots: f64,
    /// Maximum QNAME label count (qmin detection).
    pub qdots_max: u8,
    /// Mean ANSWER record count.
    pub lvl: f64,
    /// Mean AUTHORITY NS record count.
    pub nslvl: f64,
    /// Top-3 ANSWER TTLs with shares.
    pub ttl_top: Vec<(u64, f64)>,
    /// Top-3 TTLs of A answers specifically (change detection, §4.2).
    pub ttl_a_top: Vec<(u64, f64)>,
    /// Top-3 AUTHORITY NS TTLs with shares.
    pub nsttl_top: Vec<(u64, f64)>,
    /// Top-3 negative-caching TTLs (SOA minimum) with shares.
    pub negttl_top: Vec<(u64, f64)>,
    /// Top-3 ANSWER rdata hashes with shares (change detection).
    pub a_data_top: Vec<(u64, f64)>,
    /// Top-3 NS-name hashes with shares (change detection).
    pub ns_names_top: Vec<(u64, f64)>,
    /// Response delay quartiles [q25, median, q75] in ms (NaN when empty).
    pub resp_delays: [f64; 3],
    /// Network hop quartiles.
    pub network_hops: [f64; 3],
    /// Response size quartiles, bytes.
    pub resp_size: [f64; 3],
}

impl FeatureRow {
    /// NoError + data share of hits (ok_ans or ok_ns).
    pub fn data_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        (self.ok - self.ok_nil) as f64 / self.hits as f64
    }

    /// NoData share of hits.
    pub fn nodata_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        self.ok_nil as f64 / self.hits as f64
    }

    /// NXDOMAIN share of hits.
    pub fn nxd_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        self.nxd as f64 / self.hits as f64
    }

    /// The most common ANSWER TTL, if any.
    pub fn top_ttl(&self) -> Option<u64> {
        self.ttl_top.first().map(|&(v, _)| v)
    }

    /// Median response delay (NaN when no responses).
    pub fn median_delay(&self) -> f64 {
        self.resp_delays[1]
    }

    /// Median hop count (NaN when no responses).
    pub fn median_hops(&self) -> f64 {
        self.network_hops[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn folded(secs: f64) -> FeatureSet {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut fs = FeatureSet::new(FeatureConfig::default());
        sim.run(secs, &mut |tx| {
            fs.fold(&TxSummary::from_transaction(tx, &psl));
        });
        fs
    }

    #[test]
    fn counters_are_consistent() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(row.hits > 200);
        assert_eq!(
            row.hits,
            row.unans + row.ok + row.nxd + row.rfs + row.fail,
            "every outcome classified (no OtherError in sim)"
        );
        assert!(row.ok_nil <= row.ok);
        assert!(row.ok6nil <= row.ok6);
        assert!(row.ok_ans <= row.ok);
    }

    #[test]
    fn cardinalities_plausible() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(row.srcips >= 1.0 && row.srcips <= 50.0);
        assert!(row.srvips > 10.0);
        assert!(row.qnamesa >= row.qnames * 0.5);
        assert!(row.qtypes >= 3.0);
        assert!(row.sources >= 1.0);
        assert!(row.tlds >= 1.0);
    }

    #[test]
    fn quartiles_ordered() {
        let fs = folded(1.0);
        let row = fs.row();
        let [a, b, c] = row.resp_delays;
        assert!(
            a <= b && b <= c,
            "delay quartiles out of order: {a} {b} {c}"
        );
        assert!(row.median_delay() > 0.0);
        let [ha, hb, hc] = row.network_hops;
        assert!(ha <= hb && hb <= hc);
        assert!(row.resp_size[0] >= 12.0);
    }

    #[test]
    fn ttl_top_has_shares() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(!row.ttl_top.is_empty());
        let total: f64 = row.ttl_top.iter().map(|(_, s)| s).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(row.top_ttl().is_some());
    }

    #[test]
    fn reset_clears_but_preserves_config() {
        let mut fs = folded(1.0);
        assert!(fs.hits() > 0);
        let m_before = {
            let row = fs.row();
            let _ = row;
            0
        };
        let _ = m_before;
        fs.reset();
        assert_eq!(fs.hits(), 0);
        let row = fs.row();
        assert_eq!(row.hits, 0);
        assert!(row.resp_delays[1].is_nan());
        assert!(row.ttl_top.is_empty());
    }

    #[test]
    fn share_helpers() {
        let fs = folded(2.0);
        let row = fs.row();
        let total = row.data_share() + row.nodata_share() + row.nxd_share();
        assert!(total <= 1.0 + 1e-9);
        assert!(row.data_share() > 0.0);
    }

    #[test]
    fn empty_row_is_all_zero() {
        let fs = FeatureSet::new(FeatureConfig::default());
        let row = fs.row();
        assert_eq!(row.hits, 0);
        assert_eq!(row.qdots, 0.0);
        assert_eq!(row.srvips, 0.0);
        assert_eq!(row.data_share(), 0.0);
        assert!(row.top_ttl().is_none());
    }
}
