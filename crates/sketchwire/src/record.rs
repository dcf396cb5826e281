//! Versioned, CRC-framed record streams of [`WindowState`].
//!
//! This is the at-rest form of [`WindowState`] — what `dnsobs collect
//! --state-out` writes and `dnsobs aggregate --input` reads, and the
//! record region of every store segment. Each record is one
//! [`feed::envelope`] with magic `SKW1`, version 1 and the state's item
//! encoding as payload. Decoding never panics: every failure is a typed
//! [`FeedError`].

use feed::envelope::Format;
use feed::{ByteReader, FeedError, FeedItem};

use crate::state::WindowState;

/// Record envelope. File records are not bound by the feed transport's
/// frame cap, but an absurd length is still corruption.
pub const RECORD: Format = Format {
    magic: *b"SKW1",
    version: 1,
    max_len: 64 << 20,
};

/// Append one record to `out`.
pub fn write_record(ws: &WindowState, out: &mut Vec<u8>) {
    RECORD.write(out, |payload| ws.encode(payload));
}

/// Decode a complete record stream strictly: every byte must belong to a
/// valid record (a truncated tail is a [`FeedError::Truncated`]).
pub fn read_all(bytes: &[u8]) -> Result<Vec<WindowState>, FeedError> {
    RECORD.decode_all(bytes, |payload| {
        let mut r = ByteReader::new(payload);
        let ws = WindowState::decode(&mut r)?;
        r.finish()?;
        Ok(ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{FeatureState, TopKEntry, TopKState};

    /// One record as the previous release wrote it; `--state-out` files
    /// and segment record regions must stay byte-identical.
    const GOLDEN: &str = "534b57310142000000010000000000c082400000000000c082400465736c640814\
                          0002000a000000010109612e6578616d706c6505010000000000000000020301\
                          0102000401010000000022088323";

    fn golden_state() -> WindowState {
        WindowState {
            upstream: 1,
            start: 600.0,
            length: 600.0,
            topk: TopKState {
                dataset: "esld".to_string(),
                capacity: 8,
                observed: 20,
                min_count: 0,
                error_bound: 2,
                evictions: 0,
                kept: 10,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries: vec![TopKEntry {
                    key: "a.example".to_string(),
                    count: 5,
                    error: 1,
                    inserted_at: 0.0,
                    features: FeatureState {
                        adds: vec![3, 1],
                        maxes: vec![2],
                        hlls: vec![],
                        source_cap: 4,
                        sources: vec![1],
                        tops: vec![],
                        hists: vec![],
                    },
                }],
                gate: None,
            },
        }
    }

    #[test]
    fn golden_record_decodes_and_reencodes_identically() {
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let states = read_all(&golden).expect("golden record decodes");
        assert_eq!(states, vec![golden_state()]);
        let mut again = Vec::new();
        write_record(&states[0], &mut again);
        assert_eq!(again, golden);
    }
}
