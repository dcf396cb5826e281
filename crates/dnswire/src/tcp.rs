//! DNS-over-TCP framing (RFC 1035 §4.2.2).
//!
//! The paper defers TCP/53 to future work (<3 % of DNS traffic); this
//! module implements that future work at the wire level so the platform
//! can ingest TCP streams: each message is preceded by a two-octet
//! big-endian length. [`encode_frame`] wraps one message;
//! [`FrameDecoder`] incrementally splits a byte stream back into
//! messages, tolerating arbitrary segmentation (the hard part of TCP
//! reassembly).

use crate::{Message, Result, WireError};

/// Maximum frame payload: the length prefix is 16 bits.
pub const MAX_FRAME: usize = u16::MAX as usize;

/// Serialize a message with its TCP length prefix.
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let body = msg.to_bytes()?;
    debug_assert!(body.len() <= MAX_FRAME, "to_bytes enforces the limit");
    let mut out = Vec::with_capacity(2 + body.len());
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Incremental decoder for a TCP byte stream carrying DNS frames.
///
/// Feed arbitrary chunks with [`FrameDecoder::push`]; complete messages
/// come out of [`FrameDecoder::next_message`]. The decoder keeps a read
/// offset into its buffer and compacts only once the consumed prefix
/// outweighs the unread tail, so buffered bytes stay bounded by about
/// one frame plus one chunk and decoding is linear in the stream length.
/// A frame must hold a parseable message, and an empty frame is an error.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read offset into `buf`: everything before it is consumed.
    pos: usize,
    /// Frames successfully decoded so far.
    decoded: u64,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        let unread = self.buffered();
        if self.pos > 0 && self.pos >= unread {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(unread);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Frames decoded over the decoder's lifetime.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Try to decode the next complete message.
    ///
    /// Returns `Ok(None)` when more bytes are needed. A malformed frame
    /// body yields the parse error *and consumes the frame*, so the
    /// stream stays synchronized (the length prefix delimits frames
    /// regardless of their content).
    pub fn next_message(&mut self) -> Result<Option<Message>> {
        let rest = &self.buf[self.pos..];
        let Some(&[hi, lo]) = rest.get(..2) else {
            return Ok(None);
        };
        let len = u16::from_be_bytes([hi, lo]) as usize;
        let Some(frame) = rest.get(2..2 + len) else {
            return Ok(None);
        };
        self.pos += 2 + len;
        if frame.is_empty() {
            // A zero-length frame can never hold a DNS header; the frame
            // is already consumed, so the stream stays aligned.
            return Err(WireError::Truncated {
                what: "empty TCP frame",
            });
        }
        let msg = Message::parse(frame)?;
        self.decoded += 1;
        Ok(Some(msg))
    }

    /// Drain every complete, well-formed message currently buffered,
    /// skipping malformed frames.
    pub fn drain_messages(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            match self.next_message() {
                Ok(Some(msg)) => out.push(msg),
                Ok(None) => return out,
                Err(_) => continue, // frame consumed, stream still aligned
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Name, RecordType};

    fn sample(id: u16) -> Message {
        Message::query(
            id,
            Name::from_ascii(&format!("host{id}.example.com")).unwrap(),
            RecordType::A,
        )
    }

    #[test]
    fn frame_roundtrip() {
        let msg = sample(7);
        let frame = encode_frame(&msg).unwrap();
        assert_eq!(
            u16::from_be_bytes([frame[0], frame[1]]) as usize,
            frame.len() - 2
        );
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_message().unwrap(), Some(msg));
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_segmentation() {
        let msgs: Vec<Message> = (0..5).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.decoded(), 5);
    }

    #[test]
    fn multiple_messages_in_one_chunk() {
        let msgs: Vec<Message> = (10..14).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(dec.drain_messages(), msgs);
    }

    #[test]
    fn malformed_frame_keeps_stream_aligned() {
        let good = sample(1);
        let mut stream = Vec::new();
        // A garbage frame with a valid length prefix...
        stream.extend_from_slice(&5u16.to_be_bytes());
        stream.extend_from_slice(&[0xff; 5]);
        // ...followed by a good one.
        stream.extend_from_slice(&encode_frame(&good).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert!(dec.next_message().is_err());
        assert_eq!(dec.next_message().unwrap(), Some(good));
    }

    #[test]
    fn zero_length_frame_rejected_and_skipped() {
        let good = sample(2);
        let mut dec = FrameDecoder::new();
        dec.push(&0u16.to_be_bytes());
        dec.push(&encode_frame(&good).unwrap());
        assert!(dec.next_message().is_err());
        assert_eq!(dec.next_message().unwrap(), Some(good));
    }

    #[test]
    fn drain_skips_bad_frames() {
        let msgs: Vec<Message> = (20..23).map(sample).collect();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&msgs[0]).unwrap());
        stream.extend_from_slice(&3u16.to_be_bytes());
        stream.extend_from_slice(&[0xaa; 3]);
        stream.extend_from_slice(&encode_frame(&msgs[1]).unwrap());
        stream.extend_from_slice(&encode_frame(&msgs[2]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(dec.drain_messages(), msgs);
    }

    #[test]
    fn u16_matches_tcp_layout() {
        let frame = encode_frame(&sample(3)).unwrap();
        let body = sample(3).to_bytes().unwrap();
        assert_eq!(frame[..2], (body.len() as u16).to_be_bytes());
        assert_eq!(frame[2..], body[..]);
    }

    #[test]
    fn partial_header_waits() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0x00]);
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.buffered(), 1);
    }
}
