//! Error type for feed framing and item decoding.

use std::fmt;

/// Errors produced while decoding feed frames and items.
///
/// Transport-level I/O errors stay with `std::io`; this type covers only
/// the byte-level protocol, so the codec is fully testable without
/// sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// An envelope declared a payload longer than its format's maximum.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The format's maximum.
        max: usize,
    },
    /// A frame payload ended before a complete field could be read.
    Truncated(&'static str),
    /// The frame checksum did not match its content.
    Crc {
        /// CRC carried in the frame trailer.
        expected: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// An envelope did not start with its format's magic.
    BadMagic([u8; 4]),
    /// An envelope carries an incompatible format version.
    BadProtocolVersion {
        /// Version in the envelope header.
        got: u8,
        /// Version this build implements.
        want: u8,
    },
    /// The peer encodes items with an incompatible codec revision.
    BadItemVersion {
        /// Item-codec version in the HELLO frame.
        got: u8,
        /// Version this build implements.
        want: u8,
    },
    /// Unknown frame type octet.
    BadFrameType(u8),
    /// A decoded field was structurally invalid (bad enum code, malformed
    /// name, non-UTF-8 string, …).
    Invalid(&'static str),
    /// A frame decoded cleanly but left unconsumed bytes before the CRC.
    TrailingBytes(usize),
    /// A varint ran past 10 octets (would overflow 64 bits).
    VarintOverflow,
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::TooLarge { len, max } => {
                write!(f, "envelope declares {len} payload octets (maximum {max})")
            }
            FeedError::Truncated(what) => write!(f, "frame truncated while reading {what}"),
            FeedError::Crc { expected, computed } => {
                write!(
                    f,
                    "crc mismatch: frame says {expected:#010x}, computed {computed:#010x}"
                )
            }
            FeedError::BadMagic(m) => write!(f, "bad envelope magic {m:02x?}"),
            FeedError::BadProtocolVersion { got, want } => {
                write!(f, "protocol version {got} (this build speaks {want})")
            }
            FeedError::BadItemVersion { got, want } => {
                write!(f, "item codec version {got} (this build speaks {want})")
            }
            FeedError::BadFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            FeedError::Invalid(what) => write!(f, "invalid field: {what}"),
            FeedError::TrailingBytes(n) => write!(f, "{n} unconsumed bytes in frame"),
            FeedError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
        }
    }
}

impl std::error::Error for FeedError {}

impl FeedError {
    /// True when the envelope header itself was bad, so the stream can
    /// never realign: the reader repeats the error on every later call
    /// and the connection should be dropped.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FeedError::TooLarge { .. }
                | FeedError::BadMagic(_)
                | FeedError::BadProtocolVersion { .. }
        )
    }
}
