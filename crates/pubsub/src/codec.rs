//! The subscription wire format: `DOP1` frames.
//!
//! Every frame is one [`feed::envelope`] whose payload is a type octet and
//! a body, so partial reads, oversized lengths and CRC damage surface as
//! the envelope's typed errors with the stream left aligned on the next
//! frame. Snapshots reuse the federation tier's [`WindowState`] item
//! encoding verbatim; deltas carry the [`WindowDelta`] body.
//!
//! Handshake: the client speaks first — `Hello` (item version) then
//! `Subscribe` (topic list); the broker answers with its own `Hello` and
//! starts pushing. `Evict` and `Bye` are terminal notices from the broker.

use std::fmt;

use feed::codec::write_varint;
use feed::envelope::{Decoder, Format, Framed};
use feed::{ByteReader, FeedError, FeedItem};
use sketchwire::WindowState;

use crate::delta::WindowDelta;

/// Envelope magic: **D**NS **O**bservatory **P**ub/sub.
pub const MAGIC: [u8; 4] = *b"DOP1";

/// Codec version carried in every envelope header; bumped on layout
/// changes.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling on one frame. Snapshots carry a whole per-dataset window
/// (the broker reassembles collector chunks before publishing), so the
/// cap is generous; anything larger is corruption, not data.
pub const MAX_FRAME: usize = 64 << 20;

/// The pub/sub envelope.
pub const FORMAT: Format = Format {
    magic: MAGIC,
    version: PROTOCOL_VERSION,
    max_len: MAX_FRAME,
};

const TYPE_HELLO: u8 = 1;
const TYPE_SUBSCRIBE: u8 = 2;
const TYPE_SNAPSHOT: u8 = 3;
const TYPE_DELTA: u8 = 4;
const TYPE_META: u8 = 5;
const TYPE_EVICT: u8 = 6;
const TYPE_BYE: u8 = 7;

/// Most topics one `Subscribe` may carry.
const MAX_TOPICS: usize = 64;
/// Longest accepted dataset name in a topic filter.
const MAX_DATASET_BYTES: usize = 256;
/// Largest accepted meta (TSV) body.
const MAX_META_BYTES: usize = 1 << 20;

/// One subscription filter. A client's topic list is a union: it receives
/// every frame any of its topics selects. An empty list subscribes to
/// everything at full fidelity (`features` + `meta`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topic {
    /// Window frames with features stripped — ranks and bounds only.
    Topk,
    /// Window frames with full per-key feature state (implies `Topk`'s
    /// information; when both are named, `features` wins).
    Features,
    /// Pipeline meta TSV lines (gap/health summaries).
    Meta,
    /// Restrict window frames to one dataset; repeatable. No dataset
    /// topics means all datasets.
    Dataset(String),
}

impl Topic {
    /// Parse a CLI topic spec: `topk`, `features`, `meta`, or
    /// `dataset=NAME`.
    pub fn parse(s: &str) -> Option<Topic> {
        match s {
            "topk" => Some(Topic::Topk),
            "features" => Some(Topic::Features),
            "meta" => Some(Topic::Meta),
            _ => s
                .strip_prefix("dataset=")
                .filter(|n| !n.is_empty() && n.len() <= MAX_DATASET_BYTES)
                .map(|n| Topic::Dataset(n.to_string())),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Topic::Topk => out.push(1),
            Topic::Features => out.push(2),
            Topic::Meta => out.push(3),
            Topic::Dataset(name) => {
                out.push(4);
                write_varint(name.len() as u64, out);
                out.extend_from_slice(name.as_bytes());
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Topic, FeedError> {
        match r.u8("topic kind")? {
            1 => Ok(Topic::Topk),
            2 => Ok(Topic::Features),
            3 => Ok(Topic::Meta),
            4 => {
                let len = r.count(1, "topic dataset")?;
                if len == 0 || len > MAX_DATASET_BYTES {
                    return Err(FeedError::Invalid("topic dataset length"));
                }
                let bytes = r.bytes(len, "topic dataset")?;
                match std::str::from_utf8(bytes) {
                    Ok(s) => Ok(Topic::Dataset(s.to_string())),
                    Err(_) => Err(FeedError::Invalid("topic dataset utf8")),
                }
            }
            _ => Err(FeedError::Invalid("topic kind")),
        }
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topic::Topk => write!(f, "topk"),
            Topic::Features => write!(f, "features"),
            Topic::Meta => write!(f, "meta"),
            Topic::Dataset(name) => write!(f, "dataset={name}"),
        }
    }
}

/// Why the broker terminated a subscription (carried in `Evict` frames
/// and the broker's departure ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The client's egress stayed full through repeated snapshot-recovery
    /// attempts — it cannot keep up, and holding state for it would bound
    /// the seal path.
    TooSlow,
    /// The connection dropped (write/read error or EOF).
    Gone,
    /// The client violated the protocol (bad handshake or frame).
    Protocol,
    /// The broker is shutting down; the departure is not the client's
    /// fault.
    Shutdown,
}

impl EvictReason {
    fn code(self) -> u8 {
        match self {
            EvictReason::TooSlow => 1,
            EvictReason::Gone => 2,
            EvictReason::Protocol => 3,
            EvictReason::Shutdown => 4,
        }
    }

    fn from_code(code: u8) -> Result<EvictReason, FeedError> {
        match code {
            1 => Ok(EvictReason::TooSlow),
            2 => Ok(EvictReason::Gone),
            3 => Ok(EvictReason::Protocol),
            4 => Ok(EvictReason::Shutdown),
            _ => Err(FeedError::Invalid("evict reason")),
        }
    }

    /// Stable lowercase name used in ledgers and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::TooSlow => "too-slow",
            EvictReason::Gone => "gone",
            EvictReason::Protocol => "protocol",
            EvictReason::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pub/sub frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; first frame in each direction. The envelope
    /// enforces magic and protocol version and decode enforces the item
    /// version, so a parsed `Hello` is a compatible one.
    Hello {
        /// [`WindowState`] item version the peer speaks.
        item_version: u8,
    },
    /// Client's topic filter; second client frame.
    Subscribe {
        /// Union of subscription filters; empty = everything.
        topics: Vec<Topic>,
    },
    /// One dataset's whole published window (`upstream` is always 0: the
    /// broker publishes the merged view, not any one collector's).
    Snapshot(Box<WindowState>),
    /// One dataset's window-to-window difference.
    Delta(Box<WindowDelta>),
    /// Pipeline meta TSV bytes for one window.
    Meta {
        /// Window start, microseconds of virtual time.
        start_us: u64,
        /// Raw meta TSV bytes.
        bytes: Vec<u8>,
    },
    /// Terminal broker notice: the subscription was ended.
    Evict {
        /// Why.
        reason: EvictReason,
        /// Frames the broker had accepted for this client but not yet
        /// delivered at eviction time.
        undelivered: u64,
    },
    /// Clean end of stream (either direction).
    Bye,
}

/// Encode one frame as an envelope, appending to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    FORMAT.write(out, |payload| match frame {
        Frame::Hello { item_version } => {
            payload.push(TYPE_HELLO);
            payload.push(*item_version);
        }
        Frame::Subscribe { topics } => {
            payload.push(TYPE_SUBSCRIBE);
            write_varint(topics.len() as u64, payload);
            for t in topics {
                t.encode(payload);
            }
        }
        Frame::Snapshot(state) => {
            payload.push(TYPE_SNAPSHOT);
            state.encode(payload);
        }
        Frame::Delta(delta) => {
            payload.push(TYPE_DELTA);
            delta.encode(payload);
        }
        Frame::Meta { start_us, bytes } => {
            payload.push(TYPE_META);
            write_varint(*start_us, payload);
            write_varint(bytes.len() as u64, payload);
            payload.extend_from_slice(bytes);
        }
        Frame::Evict {
            reason,
            undelivered,
        } => {
            payload.push(TYPE_EVICT);
            payload.push(reason.code());
            write_varint(*undelivered, payload);
        }
        Frame::Bye => payload.push(TYPE_BYE),
    });
}

/// Convenience: encode one frame into a fresh buffer.
pub fn encode_frame_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

/// Decode one envelope payload (CRC already verified).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FeedError> {
    let mut r = ByteReader::new(payload);
    let frame = match r.u8("frame type")? {
        TYPE_HELLO => {
            let item_version = r.u8("hello item version")?;
            if item_version != WindowState::ITEM_VERSION {
                return Err(FeedError::BadItemVersion {
                    got: item_version,
                    want: WindowState::ITEM_VERSION,
                });
            }
            Frame::Hello { item_version }
        }
        TYPE_SUBSCRIBE => {
            let n = r.count(1, "subscribe topics")?;
            if n > MAX_TOPICS {
                return Err(FeedError::Invalid("too many topics"));
            }
            let mut topics = Vec::with_capacity(n);
            for _ in 0..n {
                topics.push(Topic::decode(&mut r)?);
            }
            Frame::Subscribe { topics }
        }
        TYPE_SNAPSHOT => Frame::Snapshot(Box::new(WindowState::decode(&mut r)?)),
        TYPE_DELTA => Frame::Delta(Box::new(WindowDelta::decode(&mut r)?)),
        TYPE_META => {
            let start_us = r.varint()?;
            let len = r.count(1, "meta bytes")?;
            if len > MAX_META_BYTES {
                return Err(FeedError::Invalid("meta body too large"));
            }
            Frame::Meta {
                start_us,
                bytes: r.bytes(len, "meta bytes")?.to_vec(),
            }
        }
        TYPE_EVICT => Frame::Evict {
            reason: EvictReason::from_code(r.u8("evict reason")?)?,
            undelivered: r.varint()?,
        },
        TYPE_BYE => Frame::Bye,
        other => return Err(FeedError::BadFrameType(other)),
    };
    r.finish()?;
    Ok(frame)
}

impl Framed for Frame {
    const FORMAT: Format = FORMAT;

    fn decode_payload(payload: &[u8]) -> Result<Self, FeedError> {
        decode_payload(payload)
    }
}

/// Incremental frame decoder over arbitrary byte chunks: push bytes as
/// they arrive, pull frames as they complete. Error semantics are the
/// envelope's.
pub type FrameReader = Decoder<Frame>;

#[cfg(test)]
mod tests {
    use super::*;
    use sketchwire::TopKState;

    fn tiny_window() -> WindowState {
        WindowState {
            upstream: 0,
            start: 600.0,
            length: 600.0,
            topk: TopKState {
                dataset: "esld".to_string(),
                capacity: 8,
                observed: 3,
                min_count: 0,
                error_bound: 0,
                evictions: 0,
                kept: 3,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries: Vec::new(),
                gate: None,
            },
        }
    }

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame_vec(&frame);
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        assert_eq!(rd.next_frame().unwrap(), Some(frame));
        assert!(rd.next_frame().unwrap().is_none());
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            item_version: WindowState::ITEM_VERSION,
        });
        roundtrip(Frame::Subscribe {
            topics: vec![
                Topic::Features,
                Topic::Meta,
                Topic::Dataset("esld".to_string()),
            ],
        });
        roundtrip(Frame::Snapshot(Box::new(tiny_window())));
        roundtrip(Frame::Meta {
            start_us: 600_000_000,
            bytes: b"start\tend\n".to_vec(),
        });
        roundtrip(Frame::Evict {
            reason: EvictReason::TooSlow,
            undelivered: 17,
        });
        roundtrip(Frame::Bye);
    }

    #[test]
    fn split_delivery_reassembles() {
        let bytes = encode_frame_vec(&Frame::Bye);
        let mut rd = FrameReader::new();
        for b in &bytes {
            rd.push(std::slice::from_ref(b));
        }
        assert_eq!(rd.next_frame().unwrap(), Some(Frame::Bye));
    }

    #[test]
    fn crc_damage_is_typed_and_stream_realigns() {
        let mut bytes = encode_frame_vec(&Frame::Snapshot(Box::new(tiny_window())));
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // inside the CRC trailer
        encode_frame(&Frame::Bye, &mut bytes);
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        assert!(matches!(rd.next_frame(), Err(FeedError::Crc { .. })));
        assert_eq!(rd.next_frame().unwrap(), Some(Frame::Bye), "realigned");
    }

    fn envelope(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        FORMAT.write(&mut out, |p| p.extend_from_slice(payload));
        out
    }

    #[test]
    fn hello_version_mismatch_is_typed() {
        let mut bytes = envelope(&[TYPE_BYE]);
        bytes[4] = 1;
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        let err = rd.next_frame().unwrap_err();
        assert_eq!(err, FeedError::BadProtocolVersion { got: 1, want: 2 });
        assert!(err.is_fatal());
        assert!(matches!(
            decode_payload(&[TYPE_HELLO, 99]),
            Err(FeedError::BadItemVersion { got: 99, .. })
        ));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_typed() {
        assert!(matches!(
            decode_payload(&[42]),
            Err(FeedError::BadFrameType(42))
        ));
        assert!(matches!(
            decode_payload(&[TYPE_BYE, 0xaa]),
            Err(FeedError::TrailingBytes(1))
        ));
    }

    /// A `Hello` + `Subscribe` handshake in the version-1 layout (u32 BE
    /// length prefix, magic inside the `Hello` body), as the previous
    /// release wrote it. It must be refused with a typed, fatal error.
    #[test]
    fn version_1_stream_is_rejected() {
        let v1 = "0000000b01444f50310101fad2c9f500000007020101ab0cd992";
        let bytes: Vec<u8> = (0..v1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
            .collect();
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        let err = rd.next_frame().unwrap_err();
        assert_eq!(err, FeedError::BadMagic([0, 0, 0, 0x0b]));
        assert!(err.is_fatal());
    }

    #[test]
    fn topic_parse_covers_cli_forms() {
        assert_eq!(Topic::parse("topk"), Some(Topic::Topk));
        assert_eq!(Topic::parse("features"), Some(Topic::Features));
        assert_eq!(Topic::parse("meta"), Some(Topic::Meta));
        assert_eq!(
            Topic::parse("dataset=srvip"),
            Some(Topic::Dataset("srvip".to_string()))
        );
        assert_eq!(Topic::parse("dataset="), None);
        assert_eq!(Topic::parse("nope"), None);
    }
}
