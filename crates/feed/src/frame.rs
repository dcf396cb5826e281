//! Frame layer: HELLO / BATCH / BYE payloads inside `DOF1` envelopes
//! (see [`crate::envelope`]).
//!
//! The layer is sans-io: [`encode_frame`] appends bytes to a buffer and
//! [`FrameReader`] consumes arbitrary stream chunks, so the whole protocol
//! round-trips in memory (and in CI) without a socket.

use crate::codec::{ByteReader, FeedItem};
use crate::envelope::{Decoder, Format, Framed};
use crate::error::FeedError;
use crate::varint;

/// Envelope magic of feed frames.
pub const MAGIC: [u8; 4] = *b"DOF1";

/// Frame-layer protocol revision, carried in every envelope header.
pub const PROTOCOL_VERSION: u8 = 2;

/// Largest acceptable frame payload. A batch of 4096 worst-case DNS
/// summaries stays well below this; anything larger is a corrupted or
/// hostile length.
pub const MAX_FRAME: usize = 4 << 20;

/// The feed's envelope.
pub const FORMAT: Format = Format {
    magic: MAGIC,
    version: PROTOCOL_VERSION,
    max_len: MAX_FRAME,
};

const TYPE_HELLO: u8 = 1;
const TYPE_BATCH: u8 = 2;
const TYPE_BYE: u8 = 3;

/// One decoded feed frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<T> {
    /// Stream opener: the item codec plus the sender's identity and the
    /// sequence number its next batch will carry (re-sent on every
    /// reconnect).
    Hello {
        /// Sensor identity (stable across reconnects).
        sensor: u64,
        /// Sequence number of the next BATCH on this connection.
        next_seq: u64,
        /// Item-codec revision the sensor encodes with.
        item_version: u8,
    },
    /// A batch of items with this sensor's monotone frame sequence number.
    Batch {
        /// Sensor identity.
        sensor: u64,
        /// Frame sequence number (consumed even by dropped frames, so
        /// gaps are observable).
        seq: u64,
        /// The decoded items, in sensor emission order.
        items: Vec<T>,
    },
    /// Orderly end of stream with the sensor's own loss accounting.
    Bye {
        /// Sensor identity.
        sensor: u64,
        /// Sequence number the next batch would have carried.
        next_seq: u64,
        /// Frames the sensor dropped at its full send buffer.
        dropped_frames: u64,
        /// Items inside those dropped frames.
        dropped_items: u64,
    },
}

impl<T> Frame<T> {
    /// The sensor identity every frame variant carries.
    pub fn sensor(&self) -> u64 {
        match *self {
            Frame::Hello { sensor, .. }
            | Frame::Batch { sensor, .. }
            | Frame::Bye { sensor, .. } => sensor,
        }
    }
}

/// Append `frame` to `out` as one envelope.
pub fn encode_frame<T: FeedItem>(frame: &Frame<T>, out: &mut Vec<u8>) {
    FORMAT.write(out, |payload| match frame {
        Frame::Hello {
            sensor,
            next_seq,
            item_version,
        } => {
            payload.push(TYPE_HELLO);
            payload.push(*item_version);
            varint::write_u64(*sensor, payload);
            varint::write_u64(*next_seq, payload);
        }
        Frame::Batch { sensor, seq, items } => {
            batch_header(*sensor, *seq, items.len() as u64, payload);
            for item in items {
                item.encode(payload);
            }
        }
        Frame::Bye {
            sensor,
            next_seq,
            dropped_frames,
            dropped_items,
        } => {
            payload.push(TYPE_BYE);
            varint::write_u64(*sensor, payload);
            varint::write_u64(*next_seq, payload);
            varint::write_u64(*dropped_frames, payload);
            varint::write_u64(*dropped_items, payload);
        }
    });
}

fn batch_header(sensor: u64, seq: u64, count: u64, payload: &mut Vec<u8>) {
    payload.push(TYPE_BATCH);
    varint::write_u64(sensor, payload);
    varint::write_u64(seq, payload);
    varint::write_u64(count, payload);
}

/// Append a BATCH frame whose `count` items are already encoded
/// back-to-back in `items` — the sensor's byte-aware batching path,
/// which sizes batches as it encodes. Wire-identical to
/// [`encode_frame`] with [`Frame::Batch`].
pub(crate) fn encode_batch_preencoded(
    sensor: u64,
    seq: u64,
    count: u64,
    items: &[u8],
    out: &mut Vec<u8>,
) {
    FORMAT.write(out, |payload| {
        batch_header(sensor, seq, count, payload);
        payload.extend_from_slice(items);
    });
}

/// Decode one frame payload (the envelope's payload, CRC already
/// verified).
pub fn decode_payload<T: FeedItem>(payload: &[u8]) -> Result<Frame<T>, FeedError> {
    let mut r = ByteReader::new(payload);
    let frame = match r.u8("frame type")? {
        TYPE_HELLO => {
            let item_version = r.u8("item version")?;
            if item_version != T::ITEM_VERSION {
                return Err(FeedError::BadItemVersion {
                    got: item_version,
                    want: T::ITEM_VERSION,
                });
            }
            Frame::Hello {
                item_version,
                sensor: r.varint()?,
                next_seq: r.varint()?,
            }
        }
        TYPE_BATCH => {
            let sensor = r.varint()?;
            let seq = r.varint()?;
            let count = r.count(1, "batch items")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(T::decode(&mut r)?);
            }
            Frame::Batch { sensor, seq, items }
        }
        TYPE_BYE => Frame::Bye {
            sensor: r.varint()?,
            next_seq: r.varint()?,
            dropped_frames: r.varint()?,
            dropped_items: r.varint()?,
        },
        other => return Err(FeedError::BadFrameType(other)),
    };
    r.finish()?;
    Ok(frame)
}

impl<T: FeedItem> Framed for Frame<T> {
    const FORMAT: Format = FORMAT;

    fn decode_payload(payload: &[u8]) -> Result<Self, FeedError> {
        decode_payload(payload)
    }
}

/// Incremental frame decoder over a byte stream: push arbitrary chunks,
/// pop decoded [`Frame`]s. Error semantics are the envelope's.
pub type FrameReader<T> = Decoder<Frame<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::TestItem;

    fn batch(seq: u64, vals: &[u64]) -> Frame<TestItem> {
        Frame::Batch {
            sensor: 9,
            seq,
            items: vals.iter().map(|&v| TestItem::new(v)).collect(),
        }
    }

    #[test]
    fn roundtrip_all_frame_types() {
        let frames = vec![
            Frame::Hello {
                sensor: 9,
                next_seq: 0,
                item_version: TestItem::ITEM_VERSION,
            },
            batch(0, &[1, 2, 3]),
            batch(1, &[]),
            Frame::Bye {
                sensor: 9,
                next_seq: 2,
                dropped_frames: 1,
                dropped_items: 4,
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        // Byte-at-a-time segmentation: the hard case of TCP reassembly.
        let mut reader = FrameReader::<TestItem>::new();
        let mut got = Vec::new();
        for &b in &stream {
            reader.push(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.decoded(), 4);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn preencoded_batch_is_wire_identical() {
        let items = vec![TestItem::new(1), TestItem::new(2), TestItem::new(3)];
        let mut encoded = Vec::new();
        for item in &items {
            item.encode(&mut encoded);
        }
        let mut direct = Vec::new();
        encode_batch_preencoded(9, 42, items.len() as u64, &encoded, &mut direct);
        let mut reference = Vec::new();
        encode_frame(
            &Frame::Batch {
                sensor: 9,
                seq: 42,
                items,
            },
            &mut reference,
        );
        assert_eq!(direct, reference);
    }

    #[test]
    fn corrupt_payload_byte_fails_crc_and_keeps_alignment() {
        let mut stream = Vec::new();
        encode_frame(&batch(0, &[7]), &mut stream);
        let first_len = stream.len();
        encode_frame(&batch(1, &[8]), &mut stream);
        // Flip one byte inside the first frame's payload (past the
        // 9-byte envelope header).
        stream[10] ^= 0xff;
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&stream);
        assert!(matches!(reader.next_frame(), Err(FeedError::Crc { .. })));
        assert_eq!(reader.buffered(), stream.len() - first_len);
        // The second frame still decodes: alignment survived.
        assert_eq!(reader.next_frame().unwrap(), Some(batch(1, &[8])));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut stream = Vec::new();
        encode_frame::<TestItem>(
            &Frame::Hello {
                sensor: 1,
                next_seq: 0,
                item_version: TestItem::ITEM_VERSION + 1,
            },
            &mut stream,
        );
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&stream);
        assert!(matches!(
            reader.next_frame(),
            Err(FeedError::BadItemVersion { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&MAGIC);
        reader.push(&[PROTOCOL_VERSION]);
        reader.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, FeedError::TooLarge { .. }) && err.is_fatal());
    }

    /// A HELLO + BATCH stream in the version-1 layout (u32 BE length
    /// prefix, magic inside the HELLO body), as the previous release
    /// wrote it. It must be refused with a typed, fatal error.
    #[test]
    fn version_1_stream_is_rejected() {
        let v1 = "0000000d01444f463101070900847b97c70000001802090001010000000000\
                  0000000000000000f03f8ee64c90";
        let bytes: Vec<u8> = (0..v1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
            .collect();
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&bytes);
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err, FeedError::BadMagic([0, 0, 0, 0x0d]));
        assert!(err.is_fatal());
        assert_eq!(reader.next_frame().unwrap_err(), err, "sticky");
    }
}
