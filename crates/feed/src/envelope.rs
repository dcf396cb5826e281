//! The one framing under every binary state format: feed `DOF1` frames,
//! pub/sub `DOP1` frames, sketchwire `SKW1` records and the store's `DOSF`
//! segment footer.
//!
//! ```text
//! magic [4] | version u8 | len u32 LE | payload (len octets) | crc32 u32 LE
//! ```
//!
//! The CRC covers version, length and payload, so a flipped length or
//! version fails just like a flipped payload byte. Each format fixes its
//! magic, version and largest payload in one [`Format`] constant.
//!
//! Writing is in place: [`Format::write`] reserves the header, lets the
//! caller encode the payload straight into the output buffer, then patches
//! the length and appends the CRC. Reading is offset-based: [`Reader`]
//! hands out payloads borrowed from its buffer and compacts that buffer
//! only once the consumed prefix outweighs the unread tail, so decoding a
//! stream of any length is linear.
//!
//! Error semantics, shared by every format:
//!
//! * an incomplete envelope is `Ok(None)` on a stream and
//!   [`FeedError::Truncated`] on a complete buffer;
//! * a CRC mismatch consumes the envelope, so the stream stays aligned on
//!   the next header;
//! * a foreign magic or version, or a length above the format's maximum,
//!   means the header itself cannot be trusted and the stream can never
//!   realign: the reader repeats the error on every later call
//!   ([`FeedError::is_fatal`]), and the connection should be dropped.

use std::marker::PhantomData;

use crate::crc32::crc32;
use crate::error::FeedError;

/// Octets before the payload: magic, version, length.
pub const HEADER_LEN: usize = 9;
/// Octets after the payload: the CRC.
pub const TRAILER_LEN: usize = 4;

/// One format's envelope constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Leading magic, fixed per format.
    pub magic: [u8; 4],
    /// Format version; a reader accepts exactly this one.
    pub version: u8,
    /// Largest payload the format accepts; a longer declared length is
    /// corruption, not data.
    pub max_len: usize,
}

impl Format {
    /// Append one envelope to `out`; `payload` encodes the payload in
    /// place at the end of `out`.
    pub fn write(&self, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.push(self.version);
        out.extend_from_slice(&[0; 4]);
        payload(out);
        let len = out.len() - start - HEADER_LEN;
        debug_assert!(len <= self.max_len, "payload exceeds the format maximum");
        out[start + 5..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Validate the header at the front of `buf` and return the whole
    /// envelope's length, or `None` while fewer than [`HEADER_LEN`] octets
    /// are present. Errors here are the fatal ones.
    fn peek(&self, buf: &[u8]) -> Result<Option<usize>, FeedError> {
        let Some(header) = buf.get(..HEADER_LEN) else {
            return Ok(None);
        };
        let magic = [header[0], header[1], header[2], header[3]];
        if magic != self.magic {
            return Err(FeedError::BadMagic(magic));
        }
        if header[4] != self.version {
            return Err(FeedError::BadProtocolVersion {
                got: header[4],
                want: self.version,
            });
        }
        let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
        if len > self.max_len {
            return Err(FeedError::TooLarge {
                len,
                max: self.max_len,
            });
        }
        Ok(Some(HEADER_LEN + len + TRAILER_LEN))
    }

    /// Verify one envelope spanning exactly `frame` and return its payload.
    pub fn open<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], FeedError> {
        match self.peek(frame)? {
            Some(total) if total == frame.len() => {}
            Some(total) if total < frame.len() => {
                return Err(FeedError::TrailingBytes(frame.len() - total))
            }
            _ => return Err(FeedError::Truncated("envelope")),
        }
        let end = frame.len() - TRAILER_LEN;
        let expected =
            u32::from_le_bytes([frame[end], frame[end + 1], frame[end + 2], frame[end + 3]]);
        let computed = crc32(&frame[4..end]);
        if expected != computed {
            return Err(FeedError::Crc { expected, computed });
        }
        Ok(&frame[HEADER_LEN..end])
    }

    /// Decode every envelope of a complete buffer (a file or a segment's
    /// record region) with `decode`, strictly: a partial trailing envelope
    /// is [`FeedError::Truncated`], and the first error ends the read.
    pub fn decode_all<T>(
        &self,
        mut bytes: &[u8],
        mut decode: impl FnMut(&[u8]) -> Result<T, FeedError>,
    ) -> Result<Vec<T>, FeedError> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let total = self
                .peek(bytes)?
                .filter(|&total| total <= bytes.len())
                .ok_or(FeedError::Truncated("partial trailing envelope"))?;
            out.push(decode(self.open(&bytes[..total])?)?);
            bytes = &bytes[total..];
        }
        Ok(out)
    }
}

/// Incremental envelope reader over a byte stream: push arbitrary chunks,
/// pull borrowed payloads.
#[derive(Debug)]
pub struct Reader {
    format: Format,
    buf: Vec<u8>,
    /// Read offset into `buf`: everything before it is consumed.
    pos: usize,
    /// The fatal error that ended the stream, repeated on every call.
    poisoned: Option<FeedError>,
}

impl Reader {
    /// Fresh reader for `format`.
    pub fn new(format: Format) -> Reader {
        Reader {
            format,
            buf: Vec::new(),
            pos: 0,
            poisoned: None,
        }
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix is at least as long as the
        // unread tail: each compaction copies no more octets than were
        // consumed since the last one, so the cost is amortized O(1) per
        // octet however many envelopes one push delivers.
        let unread = self.buf.len() - self.pos;
        if self.pos > 0 && self.pos >= unread {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(unread);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Octets buffered towards an incomplete envelope.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete payload, `Ok(None)` when more bytes are needed.
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, FeedError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let start = self.pos;
        let total = match self.format.peek(&self.buf[start..]) {
            Ok(Some(total)) if total <= self.buf.len() - start => total,
            Ok(_) => return Ok(None),
            Err(e) => {
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        };
        self.pos += total;
        self.format.open(&self.buf[start..start + total]).map(Some)
    }
}

/// A message type carried in the envelopes of one [`Format`].
pub trait Framed: Sized {
    /// The format every message of this type travels in.
    const FORMAT: Format;

    /// Decode one verified payload. Implementations must consume every
    /// octet and return a typed error on anything malformed.
    fn decode_payload(payload: &[u8]) -> Result<Self, FeedError>;
}

/// Stream decoder for one [`Framed`] message type: push arbitrary chunks,
/// pull decoded messages. A payload that fails its CRC or its decode is
/// consumed and reported; the stream stays aligned on the next envelope.
#[derive(Debug)]
pub struct Decoder<M> {
    envelopes: Reader,
    decoded: u64,
    _message: PhantomData<fn() -> M>,
}

impl<M: Framed> Default for Decoder<M> {
    fn default() -> Self {
        Decoder {
            envelopes: Reader::new(M::FORMAT),
            decoded: 0,
            _message: PhantomData,
        }
    }
}

impl<M: Framed> Decoder<M> {
    /// Fresh decoder.
    pub fn new() -> Decoder<M> {
        Decoder::default()
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.envelopes.push(bytes);
    }

    /// Octets buffered towards an incomplete message.
    pub fn buffered(&self) -> usize {
        self.envelopes.buffered()
    }

    /// Messages decoded successfully over the decoder's lifetime.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Try to decode the next complete message; `Ok(None)` means more
    /// bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<M>, FeedError> {
        let Some(payload) = self.envelopes.next_payload()? else {
            return Ok(None);
        };
        let message = M::decode_payload(payload)?;
        self.decoded += 1;
        Ok(Some(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        magic: *b"TST1",
        version: 3,
        max_len: 64,
    };

    fn envelope(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        TEST.write(&mut out, |o| o.extend_from_slice(payload));
        out
    }

    #[test]
    fn layout_is_header_payload_crc() {
        let bytes = envelope(b"abc");
        assert_eq!(&bytes[..9], b"TST1\x03\x03\x00\x00\x00");
        assert_eq!(&bytes[9..12], b"abc");
        assert_eq!(bytes[12..], crc32(&bytes[4..12]).to_le_bytes());
    }

    #[test]
    fn reader_compacts_and_stays_linear() {
        let mut stream = Vec::new();
        for i in 0..1000u32 {
            TEST.write(&mut stream, |o| o.extend_from_slice(&i.to_le_bytes()));
        }
        let mut reader = Reader::new(TEST);
        let mut got = 0u32;
        for chunk in stream.chunks(7) {
            reader.push(chunk);
            while let Some(p) = reader.next_payload().unwrap() {
                assert_eq!(p, got.to_le_bytes());
                got += 1;
            }
            // Never more than one envelope plus one chunk held.
            assert!(reader.buf.len() <= 2 * (HEADER_LEN + 4 + TRAILER_LEN + 7));
        }
        assert_eq!(got, 1000);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn zero_length_frames_are_yielded_empty() {
        let mut stream = envelope(b"");
        stream.extend_from_slice(&envelope(b"x"));
        let mut reader = Reader::new(TEST);
        reader.push(&stream);
        assert_eq!(reader.next_payload().unwrap(), Some(&b""[..]));
        assert_eq!(reader.next_payload().unwrap(), Some(&b"x"[..]));
        assert_eq!(reader.next_payload().unwrap(), None);
    }

    #[test]
    fn open_needs_exactly_one_envelope() {
        let bytes = envelope(b"xy");
        assert_eq!(TEST.open(&bytes), Ok(&b"xy"[..]));
        assert_eq!(
            TEST.open(&bytes[..bytes.len() - 1]),
            Err(FeedError::Truncated("envelope"))
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(TEST.open(&long), Err(FeedError::TrailingBytes(1)));
    }
}
