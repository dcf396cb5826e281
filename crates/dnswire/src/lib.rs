//! `dnswire` — DNS wire format and IP/UDP header codecs, from scratch.
//!
//! This crate implements the subset of the DNS protocol needed by a passive
//! DNS measurement platform in the spirit of smoltcp: simple, robust, and
//! extensively documented, with no `unsafe` and no complicated type tricks.
//!
//! # What is implemented
//!
//! * Domain names ([`Name`]): label storage, case-insensitive comparison and
//!   hashing, parsing with RFC 1035 compression pointers (loop- and
//!   bounds-safe), and building with compression.
//! * The 12-byte DNS header ([`Header`]) with all standard flags.
//! * Questions, resource records, and RDATA for the record types a resolver
//!   ↔ authoritative measurement pipeline encounters: A, AAAA, NS, CNAME,
//!   SOA, PTR, MX, TXT, SRV, DS, RRSIG, and OPT (EDNS0).
//! * Full messages ([`Message`]): parse from and serialize to wire bytes.
//! * EDNS0 ([`Edns`]): UDP payload size, extended RCODE, and the DO bit.
//! * IPv4, IPv6 and UDP header codecs ([`ip`]), plus hop-count inference
//!   from the received IP TTL ([`ip::infer_hops`]).
//!
//! # What is deliberately not implemented
//!
//! Name server logic, DNSSEC validation (we only *carry* RRSIG/DS
//! records, as the paper's pipeline does), and zone file parsing. TCP/53
//! *framing* — the paper's stated future work — is provided by [`tcp`];
//! socket handling stays with the caller.
//!
//! # Example
//!
//! ```
//! use dnswire::{Message, Name, RecordType, Rcode};
//!
//! let mut query = Message::query(0x1234, Name::from_ascii("www.example.com").unwrap(),
//!                                RecordType::A);
//! query.header.rd = true;
//! let wire = query.to_bytes().unwrap();
//! let parsed = Message::parse(&wire).unwrap();
//! assert_eq!(parsed.header.id, 0x1234);
//! assert_eq!(parsed.questions[0].qtype, RecordType::A);
//! assert_eq!(parsed.header.rcode, Rcode::NoError);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod header;
pub mod ip;
mod message;
mod name;
mod question;
mod rdata;
mod reader;
mod record;
pub mod tcp;
mod types;
mod writer;

pub use error::WireError;
pub use header::Header;
pub use message::{Edns, Message};
pub use name::{Label, Name, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use question::Question;
pub use rdata::{Ds, Mx, RData, Rrsig, Soa, SvcRecord};
pub use reader::WireReader;
pub use record::{Record, Section};
pub use types::{Opcode, Rcode, RecordClass, RecordType};
pub use writer::WireWriter;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, WireError>;
