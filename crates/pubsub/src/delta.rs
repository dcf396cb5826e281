//! Canonical window states and the snapshot⊕delta law.
//!
//! The broker publishes each dataset's sealed window either whole (a
//! *snapshot*) or as the difference against the previously published
//! window (a *delta*: full replacement entries for changed/new keys plus
//! the keys that left the Top-k). The one law everything rests on — and
//! the crate's proptests pin — is
//!
//! ```text
//! apply_delta(prev, diff_states(prev_us, prev, next_us, next)) == next
//! ```
//!
//! for any two *canonical* states of the same dataset (`apply_delta`
//! works in place: the basis it is handed becomes `next`). Canonical
//! means key-ascending entries, whole (`chunk == 0`, `chunks == 1`) and
//! gate-free: subscribers consume an aggregate view of the window, never
//! resume state, so the admission gate is stripped before publication.

use feed::codec::write_varint;
use feed::{ByteReader, FeedError};
use sketchwire::{FeatureState, TopKEntry, TopKState};

/// Longest accepted dataset name (mirrors the state codec).
const MAX_DATASET_BYTES: usize = 256;
/// Longest accepted removed key (mirrors the state codec's key cap).
const MAX_KEY_BYTES: usize = 4096;

/// A window's integer identity on the wire: its start in microseconds of
/// virtual time. Starts are window-aligned multiples of the window length,
/// so the rounding is exact for any realistic window geometry.
pub fn window_id_us(start_secs: f64) -> u64 {
    (start_secs * 1e6).round() as u64
}

/// Put a reassembled tracker state into the canonical published form:
/// key-ascending entries, whole, and without the admission gate (the
/// subscription tier serves aggregates, not resumable tracker state).
pub fn canonicalize(mut state: TopKState) -> TopKState {
    state.entries.sort_by(|a, b| a.key.cmp(&b.key));
    state.chunk = 0;
    state.chunks = 1;
    state.gate = None;
    state
}

/// The canonical empty feature accumulator used by feature-stripped
/// (`topk` topic) frames. `source_cap` of 1 keeps the state valid under
/// the codec's `source_cap > 0` invariant.
fn empty_features() -> FeatureState {
    FeatureState {
        adds: Vec::new(),
        maxes: Vec::new(),
        hlls: Vec::new(),
        source_cap: 1,
        sources: Vec::new(),
        tops: Vec::new(),
        hists: Vec::new(),
    }
}

/// The feature-stripped view of a canonical state: same header and
/// Space-Saving counter pairs, every entry's feature accumulator replaced
/// by the canonical empty one. This is what `topk`-topic subscribers
/// receive — rank and bound data at a fraction of the bytes.
pub fn strip_features(state: &TopKState) -> TopKState {
    TopKState {
        dataset: state.dataset.clone(),
        capacity: state.capacity,
        observed: state.observed,
        min_count: state.min_count,
        error_bound: state.error_bound,
        evictions: state.evictions,
        kept: state.kept,
        dropped: state.dropped,
        filtered: state.filtered,
        chunk: state.chunk,
        chunks: state.chunks,
        entries: state
            .entries
            .iter()
            .map(|e| TopKEntry {
                key: e.key.clone(),
                count: e.count,
                error: e.error,
                inserted_at: e.inserted_at,
                features: empty_features(),
            })
            .collect(),
        gate: state.gate.clone(),
    }
}

/// One dataset's window-to-window difference: the full header of the new
/// window, replacement entries for keys that changed or appeared, and the
/// keys that left. Applying it to the basis window (see [`apply_delta`])
/// reproduces the new window exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    /// Dataset name.
    pub dataset: String,
    /// Identity of the basis window this delta applies to.
    pub prev_window_us: u64,
    /// Identity of the window this delta produces.
    pub window_us: u64,
    /// New window's start, seconds of virtual time.
    pub start: f64,
    /// New window's length, seconds.
    pub length: f64,
    /// New window's tracker capacity.
    pub capacity: u64,
    /// New window's total observations.
    pub observed: u64,
    /// New window's `min_count`.
    pub min_count: u64,
    /// New window's stated error bound.
    pub error_bound: u64,
    /// New window's eviction total.
    pub evictions: u64,
    /// New window's kept-transaction count.
    pub kept: u64,
    /// New window's dropped-transaction count.
    pub dropped: u64,
    /// New window's gate-filtered count.
    pub filtered: u64,
    /// Full replacement entries for changed or new keys, key-ascending.
    pub changed: Vec<TopKEntry>,
    /// Keys present in the basis but absent from the new window,
    /// key-ascending and disjoint from `changed`.
    pub removed: Vec<String>,
}

impl WindowDelta {
    /// Encode into `out` (the pub/sub codec frames this as a payload body).
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.dataset.len() as u64, out);
        out.extend_from_slice(self.dataset.as_bytes());
        write_varint(self.prev_window_us, out);
        write_varint(self.window_us, out);
        out.extend_from_slice(&self.start.to_bits().to_le_bytes());
        out.extend_from_slice(&self.length.to_bits().to_le_bytes());
        write_varint(self.capacity, out);
        write_varint(self.observed, out);
        write_varint(self.min_count, out);
        write_varint(self.error_bound, out);
        write_varint(self.evictions, out);
        write_varint(self.kept, out);
        write_varint(self.dropped, out);
        write_varint(self.filtered, out);
        write_varint(self.changed.len() as u64, out);
        for e in &self.changed {
            e.encode(out);
        }
        write_varint(self.removed.len() as u64, out);
        for k in &self.removed {
            write_varint(k.len() as u64, out);
            out.extend_from_slice(k.as_bytes());
        }
    }

    /// Decode and validate one delta.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<WindowDelta, FeedError> {
        let dataset = read_string(r, MAX_DATASET_BYTES, "delta dataset")?;
        let prev_window_us = r.varint()?;
        let window_us = r.varint()?;
        if prev_window_us >= window_us {
            return Err(FeedError::Invalid("delta window order"));
        }
        let start = r.f64("delta start")?;
        if !(start.is_finite() && start >= 0.0) {
            return Err(FeedError::Invalid("delta start out of range"));
        }
        let length = r.f64("delta length")?;
        if !(length.is_finite() && length > 0.0) {
            return Err(FeedError::Invalid("delta length out of range"));
        }
        let capacity = r.varint()?;
        if capacity == 0 {
            return Err(FeedError::Invalid("delta capacity zero"));
        }
        let observed = r.varint()?;
        let min_count = r.varint()?;
        let error_bound = r.varint()?;
        if min_count > error_bound {
            return Err(FeedError::Invalid("delta min_count exceeds error bound"));
        }
        let evictions = r.varint()?;
        let kept = r.varint()?;
        let dropped = r.varint()?;
        let filtered = r.varint()?;
        let n_changed = r.count(16, "delta changed entries")?;
        let mut changed = Vec::with_capacity(n_changed);
        for _ in 0..n_changed {
            let e = TopKEntry::decode(r)?;
            if e.count > observed {
                return Err(FeedError::Invalid("delta entry count exceeds observed"));
            }
            changed.push(e);
        }
        if changed.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err(FeedError::Invalid("delta changed keys not ascending"));
        }
        let n_removed = r.count(1, "delta removed keys")?;
        let mut removed = Vec::with_capacity(n_removed);
        for _ in 0..n_removed {
            removed.push(read_string(r, MAX_KEY_BYTES, "delta removed key")?);
        }
        if removed.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FeedError::Invalid("delta removed keys not ascending"));
        }
        // Both lists are sorted; a merge walk finds any shared key.
        let (mut i, mut j) = (0, 0);
        while i < changed.len() && j < removed.len() {
            match changed[i].key.as_str().cmp(removed[j].as_str()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(FeedError::Invalid("delta changed/removed overlap"))
                }
            }
        }
        Ok(WindowDelta {
            dataset,
            prev_window_us,
            window_us,
            start,
            length,
            capacity,
            observed,
            min_count,
            error_bound,
            evictions,
            kept,
            dropped,
            filtered,
            changed,
            removed,
        })
    }
}

fn read_string(
    r: &mut ByteReader<'_>,
    max: usize,
    what: &'static str,
) -> Result<String, FeedError> {
    let len = r.count(1, what)?;
    if len > max {
        return Err(FeedError::Invalid(what));
    }
    let bytes = r.bytes(len, what)?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => Err(FeedError::Invalid(what)),
    }
}

/// Diff two canonical states of the same dataset into the delta that
/// turns `prev` into `next`. Both inputs must be canonical (see
/// [`canonicalize`]); the diff compares whole entries, so a key whose
/// counter pair *or* features changed is re-sent in full — features reset
/// each window, which keeps idle keys out of steady-state deltas.
pub fn diff_states(
    prev_window_us: u64,
    prev: &TopKState,
    window_us: u64,
    start: f64,
    length: f64,
    next: &TopKState,
) -> WindowDelta {
    debug_assert_eq!(prev.dataset, next.dataset, "diff across datasets");
    let mut changed = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.entries.len() || j < next.entries.len() {
        let ord = match (prev.entries.get(i), next.entries.get(j)) {
            (Some(p), Some(n)) => p.key.cmp(&n.key),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => unreachable!("loop bound"),
        };
        match ord {
            std::cmp::Ordering::Less => {
                removed.push(prev.entries[i].key.clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                changed.push(next.entries[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev.entries[i] != next.entries[j] {
                    changed.push(next.entries[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    WindowDelta {
        dataset: next.dataset.clone(),
        prev_window_us,
        window_us,
        start,
        length,
        capacity: next.capacity,
        observed: next.observed,
        min_count: next.min_count,
        error_bound: next.error_bound,
        evictions: next.evictions,
        kept: next.kept,
        dropped: next.dropped,
        filtered: next.filtered,
        changed,
        removed,
    }
}

/// Apply a delta to its basis window in place, turning it into the next
/// window's canonical state exactly. The delta is consumed: its header
/// replaces the basis header, and one walk over the key-sorted basis
/// moves each `changed` entry into position and drops each `removed`
/// key. Strict about desync: a removed key the basis does not hold, or a
/// dataset mismatch, is an error that leaves the basis's header and
/// entries as they were (at most re-sorted by key) — the subscriber
/// treats it as a protocol violation rather than guessing.
pub fn apply_delta(basis: &mut TopKState, d: WindowDelta) -> Result<(), &'static str> {
    if basis.dataset != d.dataset {
        return Err("delta dataset mismatch");
    }
    // A snapshot from the wire is not promised sorted; every state this
    // function produces is.
    if basis.entries.windows(2).any(|w| w[0].key >= w[1].key) {
        basis.entries.sort_by(|a, b| a.key.cmp(&b.key));
    }
    let mut changed = d.changed;
    if changed.windows(2).any(|w| w[0].key >= w[1].key) {
        changed.sort_by(|a, b| a.key.cmp(&b.key));
    }
    let mut removed = d.removed;
    removed.sort_unstable();
    let held = |k: &String| {
        basis
            .entries
            .binary_search_by(|e| e.key.as_str().cmp(k.as_str()))
            .is_ok()
    };
    if !removed.iter().all(held) {
        return Err("delta removes a key the basis does not hold");
    }

    let mut entries = Vec::with_capacity(basis.entries.len() + changed.len());
    let mut changed = changed.into_iter().peekable();
    let mut removed = removed.into_iter().peekable();
    for e in std::mem::take(&mut basis.entries) {
        while let Some(c) = changed.next_if(|c| c.key < e.key) {
            entries.push(c);
        }
        let gone = removed.next_if(|k| *k == e.key).is_some();
        match changed.next_if(|c| c.key == e.key) {
            Some(c) => entries.push(c),
            None if gone => {}
            None => entries.push(e),
        }
    }
    entries.extend(changed);

    basis.capacity = d.capacity;
    basis.observed = d.observed;
    basis.min_count = d.min_count;
    basis.error_bound = d.error_bound;
    basis.evictions = d.evictions;
    basis.kept = d.kept;
    basis.dropped = d.dropped;
    basis.filtered = d.filtered;
    basis.chunk = 0;
    basis.chunks = 1;
    basis.entries = entries;
    basis.gate = None;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(hits: u64) -> FeatureState {
        FeatureState {
            adds: vec![hits],
            maxes: Vec::new(),
            hlls: Vec::new(),
            source_cap: 4,
            sources: vec![1],
            tops: Vec::new(),
            hists: Vec::new(),
        }
    }

    fn entry(key: &str, count: u64, hits: u64) -> TopKEntry {
        TopKEntry {
            key: key.to_string(),
            count,
            error: 0,
            inserted_at: 0.0,
            features: features(hits),
        }
    }

    fn state(entries: Vec<TopKEntry>, observed: u64) -> TopKState {
        canonicalize(TopKState {
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
        })
    }

    #[test]
    fn diff_apply_roundtrips() {
        let prev = state(
            vec![entry("a", 5, 5), entry("b", 3, 3), entry("c", 2, 2)],
            10,
        );
        // b changed count, c unchanged bytes (stays out of the delta),
        // d is new, a left.
        let next = state(
            vec![entry("b", 7, 4), entry("c", 2, 2), entry("d", 4, 4)],
            17,
        );
        let d = diff_states(600_000_000, &prev, 1_200_000_000, 1200.0, 600.0, &next);
        assert_eq!(d.removed, vec!["a".to_string()]);
        assert_eq!(
            d.changed.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "d"],
            "unchanged entries stay out of the delta"
        );
        let mut held = prev;
        apply_delta(&mut held, d).unwrap();
        assert_eq!(held, next);
    }

    #[test]
    fn unchanged_window_yields_empty_delta() {
        let prev = state(vec![entry("a", 5, 5)], 5);
        let d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &prev);
        assert!(d.changed.is_empty() && d.removed.is_empty());
        let mut held = prev.clone();
        apply_delta(&mut held, d).unwrap();
        assert_eq!(held, prev);
    }

    #[test]
    fn apply_rejects_desync() {
        let prev = state(vec![entry("a", 5, 5)], 5);
        let next = state(vec![entry("b", 1, 1)], 6);
        let mut d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &next);
        d.removed = vec!["zz".to_string()];
        let mut held = prev.clone();
        assert!(apply_delta(&mut held, d).is_err());
        assert_eq!(held, prev, "a refused delta leaves the basis untouched");
    }

    #[test]
    fn delta_codec_roundtrips_and_validates() {
        let prev = state(vec![entry("a", 5, 5), entry("b", 3, 3)], 8);
        let next = state(vec![entry("b", 9, 6)], 14);
        let d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &next);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = WindowDelta::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, d);

        // Overlapping changed/removed keys must be rejected.
        let mut bad = d.clone();
        bad.removed = vec!["b".to_string()];
        let mut buf = Vec::new();
        bad.encode(&mut buf);
        assert!(matches!(
            WindowDelta::decode(&mut ByteReader::new(&buf)),
            Err(FeedError::Invalid("delta changed/removed overlap"))
        ));
    }

    #[test]
    fn strip_features_keeps_counters() {
        let s = state(vec![entry("a", 5, 5)], 5);
        let t = strip_features(&s);
        assert_eq!(t.entries[0].count, 5);
        assert!(t.entries[0].features.adds.is_empty());
        assert_eq!(t.observed, s.observed);
    }

    #[test]
    fn canonicalize_sorts_and_strips_gate() {
        let mut s = state(vec![entry("b", 2, 2), entry("a", 3, 3)], 5);
        s.chunk = 0;
        s.chunks = 1;
        let c = canonicalize(s);
        assert_eq!(c.entries[0].key, "a");
        assert!(c.gate.is_none());
    }

    #[test]
    fn window_ids_are_exact_for_aligned_starts() {
        assert_eq!(window_id_us(0.0), 0);
        assert_eq!(window_id_us(600.0), 600_000_000);
        assert_eq!(window_id_us(86_400.0 * 365.0), 31_536_000_000_000);
    }
}
