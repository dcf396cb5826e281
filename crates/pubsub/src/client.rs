//! Blocking subscription client: a thin socket shell around
//! [`SubscriberCore`], shared by `dnsobs subscribe` and the end-to-end
//! tests.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use feed::FeedItem;
use sketchwire::WindowState;

use crate::codec::{encode_frame_vec, Frame, FrameReader, Topic};
use crate::subscriber::{feed_io_err, io_err, SubEvent, SubscriberCore};

/// A connected, handshaken subscriber.
pub struct SubscribeClient {
    stream: TcpStream,
    rd: FrameReader,
    core: SubscriberCore,
    done: bool,
}

impl SubscribeClient {
    /// Connect, send `Hello` + `Subscribe`, and return a client ready to
    /// pull events. An empty topic list subscribes to everything at full
    /// fidelity.
    pub fn connect(addr: impl ToSocketAddrs, topics: &[Topic]) -> std::io::Result<SubscribeClient> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&encode_frame_vec(&Frame::Hello {
            item_version: WindowState::ITEM_VERSION,
        }))?;
        stream.write_all(&encode_frame_vec(&Frame::Subscribe {
            topics: topics.to_vec(),
        }))?;
        Ok(SubscribeClient {
            stream,
            rd: FrameReader::new(),
            core: SubscriberCore::new(),
            done: false,
        })
    }

    /// The underlying sans-io subscriber (held windows, counters).
    pub fn core(&self) -> &SubscriberCore {
        &self.core
    }

    /// Pull the next event, blocking on the socket as needed. `Ok(None)`
    /// means the stream is over (after `End`/`Evicted`, or on EOF).
    /// Decode errors and protocol violations surface as
    /// `std::io::ErrorKind::InvalidData`.
    pub fn next_event(&mut self) -> std::io::Result<Option<SubEvent>> {
        if self.done {
            return Ok(None);
        }
        let mut buf = [0u8; 16384];
        loop {
            while let Some(frame) = self.rd.next_frame().map_err(feed_io_err)? {
                match self.core.on_frame(frame).map_err(io_err)? {
                    None => continue,
                    Some(ev @ (SubEvent::End | SubEvent::Evicted { .. })) => {
                        self.done = true;
                        return Ok(Some(ev));
                    }
                    Some(ev) => return Ok(Some(ev)),
                }
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            self.rd.push(&buf[..n]);
        }
    }

    /// Politely leave: send `Bye` and close. Subsequent `next_event`
    /// calls return `Ok(None)`.
    pub fn bye(mut self) -> std::io::Result<()> {
        self.stream.write_all(&encode_frame_vec(&Frame::Bye))?;
        self.stream.shutdown(Shutdown::Both)?;
        self.done = true;
        Ok(())
    }
}
