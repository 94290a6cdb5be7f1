//! The CaSync-RT transport fabric: one message-passing abstraction,
//! two transports.
//!
//! The runtime's node workers speak to each other through a
//! [`Link`] — a per-node endpoint with `send`/`recv` of one
//! application message type — and a [`Fabric`] hands each node its
//! link. Two fabrics implement the contract:
//!
//! * [`ChannelFabric`]: the original in-process transport,
//!   `std::sync::mpsc` channels moving messages by value. No
//!   serialization, no framing — what every threaded run is on.
//! * [`TcpLink`] (built by [`tcp::connect_mesh`]): a full mesh of
//!   loopback TCP streams between real OS processes. Messages
//!   serialize through the [`WireMsg`] codec into checksummed,
//!   versioned [`frame::Frame`]s, with the chaos envelope discipline
//!   (sequence numbers, ack/nack, bounded retransmission, heartbeats)
//!   running at the framing layer ([`rel`]).
//!
//! The split mirrors what CGX argues for: the compression stack and
//! task manager never learn which transport they are on, so swapping
//! channels for sockets (or a fault-injecting wrapper) is a
//! constructor choice, not a rewrite.

#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod recorder;
pub mod rel;
pub mod tcp;

mod channel;

pub use channel::{ChannelFabric, ChannelLink};
pub use codec::{DecodeError, Reader, Writer};
pub use recorder::{FlightEvent, FlightKind, FlightRecorder};
pub use rel::{LinkDead, LinkTuning, RelRx, RelTx, RxVerdict, Sealed};
pub use tcp::TcpLink;

use std::fmt;
use std::time::Duration;

/// A message type that can cross a serializing fabric: encodes into
/// and decodes from the fabric's byte codec. In-process fabrics move
/// values directly and never call these.
pub trait WireMsg: Sized + Send + 'static {
    /// Appends the message's wire form to `w`.
    fn encode(&self, w: &mut Writer);

    /// Parses one message.
    ///
    /// # Errors
    ///
    /// A structured [`DecodeError`] for any malformed input; never
    /// panics.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: the message as a standalone byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Convenience: parses a standalone byte vector, requiring full
    /// consumption.
    ///
    /// # Errors
    ///
    /// As [`WireMsg::decode`], plus [`DecodeError::TrailingBytes`].
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Traffic counters one link accumulates; the runtime folds them into
/// its report's fabric section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Data frames (or in-process messages) sent.
    pub frames: u64,
    /// Total bytes of encoded frames sent, headers included. Zero on
    /// the channel fabric, which never serializes.
    pub bytes_framed: u64,
    /// Bytes of application payload inside those frames. Zero on the
    /// channel fabric.
    pub bytes_payload: u64,
    /// Frame retransmissions (nack- or timer-driven).
    pub retransmits: u64,
}

impl LinkCounters {
    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: &LinkCounters) {
        self.frames += other.frames;
        self.bytes_framed += other.bytes_framed;
        self.bytes_payload += other.bytes_payload;
        self.retransmits += other.retransmits;
    }
}

/// A fabric failure, always naming the peer involved so callers can
/// build structured synchronization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A received payload failed to decode.
    Decode(DecodeError),
    /// The peer's stream closed or reset mid-protocol.
    PeerLost {
        /// The vanished peer's rank.
        peer: usize,
        /// Transport-level detail.
        detail: String,
    },
    /// A frame to `peer` exhausted its retry budget unacknowledged.
    DeadLink {
        /// The unresponsive peer's rank.
        peer: usize,
        /// The sequence number that gave up.
        seq: u64,
        /// Send attempts made.
        attempts: u32,
    },
    /// A transport I/O failure talking to `peer`.
    Io {
        /// The peer involved.
        peer: usize,
        /// The underlying I/O diagnostic.
        detail: String,
    },
    /// The fabric was shut down (every sender dropped).
    Closed,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Decode(e) => write!(f, "payload decode failed: {e}"),
            FabricError::PeerLost { peer, detail } => {
                write!(f, "peer node {peer} lost: {detail}")
            }
            FabricError::DeadLink {
                peer,
                seq,
                attempts,
            } => write!(
                f,
                "link to node {peer} dead: seq {seq} unacknowledged after {attempts} attempts"
            ),
            FabricError::Io { peer, detail } => write!(f, "i/o with node {peer}: {detail}"),
            FabricError::Closed => write!(f, "fabric closed"),
        }
    }
}

impl std::error::Error for FabricError {}

/// One node's endpoint on a fabric: send to any peer, receive from
/// all of them (merged into one inbox, like the engine's per-node
/// channel).
pub trait Link: Send {
    /// The application message the link moves.
    type Msg;

    /// This endpoint's rank.
    fn me(&self) -> usize;

    /// Total nodes on the fabric.
    fn nodes(&self) -> usize;

    /// Sends `msg` to `to`.
    ///
    /// # Errors
    ///
    /// [`FabricError`] on transport failure. A lost peer may also
    /// surface later on the receive side; callers that only care
    /// about protocol completion may ignore send errors and let the
    /// receive path name the failure.
    fn send(&mut self, to: usize, msg: Self::Msg) -> Result<(), FabricError>;

    /// Receives the next message without blocking; `Ok(None)` when
    /// the inbox is empty.
    ///
    /// # Errors
    ///
    /// [`FabricError`] on transport failure (a dead or lost peer, a
    /// payload that does not decode).
    fn try_recv(&mut self) -> Result<Option<Self::Msg>, FabricError>;

    /// Receives the next message, waiting up to `timeout`; `Ok(None)`
    /// on timeout. Serializing fabrics also use the wait to drive
    /// their retransmission and heartbeat timers.
    ///
    /// # Errors
    ///
    /// As [`Link::try_recv`].
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Self::Msg>, FabricError>;

    /// Traffic this endpoint has generated.
    fn counters(&self) -> LinkCounters;
}

/// A transport for one synchronization job: hands each rank its
/// [`Link`]. In-process fabrics mint all links up front; the process
/// fabric holds exactly the local rank's link.
pub trait Fabric {
    /// The application message the fabric moves.
    type Msg;
    /// The endpoint type.
    type Link: Link<Msg = Self::Msg>;

    /// Total nodes on the fabric.
    fn nodes(&self) -> usize;

    /// Takes rank `rank`'s endpoint; `None` once taken (or if the
    /// fabric never held it).
    fn link(&mut self, rank: usize) -> Option<Self::Link>;
}
