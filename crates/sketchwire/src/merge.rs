//! Merge laws over serialized sketch state.
//!
//! Everything here is associative and commutative — the property the
//! serialized-layer proptests pin — so an aggregation tree produces the
//! same global state no matter how streams arrive or how the tree is
//! shaped. Three ingredients make that work:
//!
//! * integer arithmetic only (saturating adds, maxes, mins) — no
//!   floating-point accumulation on the wire;
//! * merges never truncate (top-value tables and contributor sets may
//!   exceed their nominal capacity; capacity is re-applied on render);
//! * the Space-Saving law: a key absent from input `x` has true count
//!   `≤ min_count(x)`, so the merged count and error both gain
//!   `min_count(x)`, and the merged `min_count` is the sum of the
//!   inputs' — which keeps the law self-similar under further merges.
//!
//! The bound bookkeeping that falls out: every merged entry satisfies
//! `count − error ≤ true ≤ count` and `error ≤ error_bound`, where the
//! merged `error_bound` is exactly the sum of the per-input bounds — the
//! *stated* error the aggregator emits and the chaos oracle asserts.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::state::{FeatureState, StateError, TopKEntry, TopKState};

fn check_features(a: &FeatureState, b: &FeatureState) -> Result<(), StateError> {
    if a.adds.len() != b.adds.len() {
        return Err(StateError::LayoutMismatch("counter count"));
    }
    if a.maxes.len() != b.maxes.len() {
        return Err(StateError::LayoutMismatch("max count"));
    }
    if a.hlls.len() != b.hlls.len() {
        return Err(StateError::LayoutMismatch("hll count"));
    }
    if a.hlls.iter().zip(&b.hlls).any(|(x, y)| x.p != y.p) {
        return Err(StateError::LayoutMismatch("hll precision"));
    }
    if a.source_cap != b.source_cap {
        return Err(StateError::LayoutMismatch("source cap"));
    }
    if a.tops.len() != b.tops.len() {
        return Err(StateError::LayoutMismatch("topvalues count"));
    }
    if a.tops
        .iter()
        .zip(&b.tops)
        .any(|(x, y)| x.capacity != y.capacity)
    {
        return Err(StateError::LayoutMismatch("topvalues capacity"));
    }
    if a.hists.len() != b.hists.len() {
        return Err(StateError::LayoutMismatch("histogram count"));
    }
    if a.hists.iter().zip(&b.hists).any(|(x, y)| {
        x.min.to_bits() != y.min.to_bits()
            || x.base.to_bits() != y.base.to_bits()
            || x.counts.len() != y.counts.len()
    }) {
        return Err(StateError::LayoutMismatch("histogram layout"));
    }
    Ok(())
}

fn merge_sorted_u16(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merge `b` into `acc` in place; the shapes must already agree (see
/// [`check_features`]). The result is exactly the pairwise law: sums,
/// maxes, register maxes, a sorted contributor union, value-ascending
/// top-value slots and widened histogram ranges.
fn merge_features_into(acc: &mut FeatureState, b: &FeatureState) {
    for (x, &y) in acc.adds.iter_mut().zip(&b.adds) {
        *x = x.saturating_add(y);
    }
    for (x, &y) in acc.maxes.iter_mut().zip(&b.maxes) {
        *x = (*x).max(y);
    }
    for (h, y) in acc.hlls.iter_mut().zip(&b.hlls) {
        for (r, &s) in h.registers.iter_mut().zip(&y.registers) {
            if s > *r {
                *r = s;
            }
        }
    }
    acc.sources = merge_sorted_u16(&acc.sources, &b.sources);
    for (t, y) in acc.tops.iter_mut().zip(&b.tops) {
        t.observed = t.observed.saturating_add(y.observed);
        // Canonical value-ascending order keeps merges comparable
        // regardless of input slot order.
        t.slots.extend_from_slice(&y.slots);
        t.slots.sort_unstable_by_key(|&(v, _)| v);
        t.slots.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(next.1);
            }
            same
        });
    }
    for (h, y) in acc.hists.iter_mut().zip(&b.hists) {
        for (x, &c) in h.counts.iter_mut().zip(&y.counts) {
            *x = x.saturating_add(c);
        }
        // Canonical empty bounds (+∞/−∞) are the identity of min/max, so
        // empty inputs merge transparently.
        h.observed_min = h.observed_min.min(y.observed_min);
        h.observed_max = h.observed_max.max(y.observed_max);
    }
}

/// Merge two feature accumulator states of identical shape.
pub fn merge_features(a: &FeatureState, b: &FeatureState) -> Result<FeatureState, StateError> {
    check_features(a, b)?;
    let mut out = a.clone();
    merge_features_into(&mut out, b);
    Ok(out)
}

/// Check that `state` may join a merge whose already accepted inputs are
/// `accepted`: same dataset, a whole window (`chunks == 1`), and every
/// entry in the sketch layout of the first accepted entry (or, with no
/// accepted entry yet, of the state's own first entry). The layout check
/// covers every key, shared or not, so a merge never yields a
/// mixed-layout state.
pub fn check_mergeable(accepted: &[TopKState], state: &TopKState) -> Result<(), StateError> {
    if accepted.first().is_some_and(|a| a.dataset != state.dataset) {
        return Err(StateError::DatasetMismatch);
    }
    if state.chunks != 1 {
        return Err(StateError::ChunkMismatch("merging unassembled chunk"));
    }
    let reference = accepted
        .iter()
        .chain(std::iter::once(state))
        .find_map(|s| s.entries.first());
    match reference {
        Some(r) => state
            .entries
            .iter()
            .try_for_each(|e| check_features(&r.features, &e.features)),
        None => Ok(()),
    }
}

/// One input of the k-way merge: its smallest remaining entry plus the
/// rest, ordered so that `BinaryHeap` pops the smallest key first and,
/// among equal keys, the lowest input index first.
struct Cursor {
    head: TopKEntry,
    input: usize,
    min_count: u64,
    rest: std::vec::IntoIter<TopKEntry>,
}

impl Ord for Cursor {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .head
            .key
            .cmp(&self.head.key)
            .then(other.input.cmp(&self.input))
    }
}

impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cursor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cursor {}

/// Settle a merged entry's Space-Saving pair: `sums` are the holders'
/// `(count, error, min_count)` totals, and every input that did not hold
/// the key adds its `min_count` to both bounds. Exact in `u128`, then
/// saturated — the same value a saturating pairwise fold reaches.
fn settle(e: &mut TopKEntry, sums: (u128, u128, u128), total_min: u128) {
    let absent = total_min.saturating_sub(sums.2);
    e.count = (sums.0 + absent).min(u64::MAX as u128) as u64;
    e.error = (sums.1 + absent).min(u64::MAX as u128) as u64;
}

/// Merge whole tracker states from *different* sources in one k-way pass
/// (the cross-collector Space-Saving merge law). Inputs must be whole
/// windows (`chunks == 1`); chunks of one source reassemble with
/// [`merge_chunks`] first — the absent-key adjustment below would be
/// wrong within a single source.
///
/// The inputs are consumed: each key's first holder (in input order) is
/// moved into the output and every later holder's features merge into it
/// in place. A key absent from input `i` gains `min_count(i)` in both
/// count and error. The result is identical to folding the inputs left
/// to right pairwise; a single input is returned unchanged. Every input
/// is checked with [`check_mergeable`] first, so a dataset, chunk or
/// layout conflict anywhere fails the whole merge.
pub fn merge_states(mut states: Vec<TopKState>) -> Result<TopKState, StateError> {
    if states.is_empty() {
        return Err(StateError::ChunkMismatch("no states"));
    }
    for i in 0..states.len() {
        check_mergeable(&states[..i], &states[i])?;
    }
    if states.len() == 1 {
        return Ok(states.pop().expect("one state"));
    }
    let mut out = TopKState {
        dataset: std::mem::take(&mut states[0].dataset),
        capacity: u64::MAX,
        observed: 0,
        min_count: 0,
        error_bound: 0,
        evictions: 0,
        kept: 0,
        dropped: 0,
        filtered: 0,
        chunk: 0,
        chunks: 1,
        entries: Vec::new(),
        // A merge output is an aggregate of several trackers, not a live
        // tracker: no single gate describes it, so it carries none.
        gate: None,
    };
    let mut total_min = 0u128;
    let mut total_entries = 0;
    let mut heap = BinaryHeap::with_capacity(states.len());
    for (input, s) in states.into_iter().enumerate() {
        out.capacity = out.capacity.min(s.capacity);
        out.observed = out.observed.saturating_add(s.observed);
        out.min_count = out.min_count.saturating_add(s.min_count);
        out.error_bound = out.error_bound.saturating_add(s.error_bound);
        out.evictions = out.evictions.saturating_add(s.evictions);
        out.kept = out.kept.saturating_add(s.kept);
        out.dropped = out.dropped.saturating_add(s.dropped);
        out.filtered = out.filtered.saturating_add(s.filtered);
        total_min += s.min_count as u128;
        let mut entries = s.entries;
        if entries.windows(2).any(|w| w[0].key >= w[1].key) {
            entries.sort_by(|a, b| a.key.cmp(&b.key));
        }
        total_entries += entries.len();
        let mut rest = entries.into_iter();
        if let Some(head) = rest.next() {
            heap.push(Cursor {
                head,
                input,
                min_count: s.min_count,
                rest,
            });
        }
    }

    let mut entries: Vec<TopKEntry> = Vec::with_capacity(total_entries);
    // Holders' (count, error, min_count) sums for the last output key.
    let mut sums = (0u128, 0u128, 0u128);
    while let Some(mut top) = heap.peek_mut() {
        let min_count = top.min_count;
        let entry = match top.rest.next() {
            Some(next) => std::mem::replace(&mut top.head, next),
            None => PeekMut::pop(top).head,
        };
        let held = (entry.count as u128, entry.error as u128, min_count as u128);
        match entries.last_mut() {
            Some(last) if last.key == entry.key => {
                sums = (sums.0 + held.0, sums.1 + held.1, sums.2 + held.2);
                last.inserted_at = last.inserted_at.min(entry.inserted_at);
                merge_features_into(&mut last.features, &entry.features);
            }
            last => {
                if let Some(last) = last {
                    settle(last, sums, total_min);
                }
                sums = held;
                entries.push(entry);
            }
        }
    }
    if let Some(last) = entries.last_mut() {
        settle(last, sums, total_min);
    }
    out.entries = entries;
    Ok(out)
}

/// Reassemble the surviving chunks of *one* source window into a whole
/// tracker state. Chunks repeat the source header, so any subset (chunk
/// loss under faults) still reassembles; the per-source `min_count` law
/// stays valid for the keys that survived. Headers must agree and keys
/// must be disjoint — anything else is a [`StateError::ChunkMismatch`].
pub fn merge_chunks(parts: Vec<TopKState>) -> Result<TopKState, StateError> {
    let first = parts
        .first()
        .ok_or(StateError::ChunkMismatch("no chunks"))?;
    let mut seen = std::collections::BTreeSet::new();
    for p in &parts {
        if p.dataset != first.dataset {
            return Err(StateError::DatasetMismatch);
        }
        if p.chunks != first.chunks || p.chunk >= p.chunks {
            return Err(StateError::ChunkMismatch("chunk count disagreement"));
        }
        if !seen.insert(p.chunk) {
            return Err(StateError::ChunkMismatch("duplicate chunk"));
        }
        if p.capacity != first.capacity
            || p.observed != first.observed
            || p.min_count != first.min_count
            || p.error_bound != first.error_bound
            || p.evictions != first.evictions
            || p.kept != first.kept
            || p.dropped != first.dropped
            || p.filtered != first.filtered
            || p.gate != first.gate
        {
            return Err(StateError::ChunkMismatch("header disagreement"));
        }
    }
    // A split state is only whole once every declared chunk is present;
    // merging fewer would silently under-count the tracker.
    if parts.len() as u32 != first.chunks {
        return Err(StateError::ChunkMismatch("missing chunks"));
    }
    // The checks passed, so the chunks are consumed: the first one's
    // header becomes the whole state's and every entry is moved, not
    // cloned.
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("checked non-empty");
    for p in parts {
        out.entries.extend(p.entries);
    }
    out.entries.sort_by(|a, b| a.key.cmp(&b.key));
    if out.entries.windows(2).any(|w| w[0].key == w[1].key) {
        return Err(StateError::ChunkMismatch("overlapping chunk keys"));
    }
    out.chunk = 0;
    out.chunks = 1;
    Ok(out)
}
