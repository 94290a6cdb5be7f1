//! The loopback TCP fabric: a full mesh of framed socket streams
//! between real OS processes (or threads, in tests).
//!
//! Every rank owns one [`TcpLink`] and joins each peer with two
//! connections, one per data direction: the one it dialed (`out`)
//! carries its data frames to the peer and the peer's acks back; the
//! one the peer dialed (`inbound`) carries the peer's data in and this
//! rank's acks out. The reliability layer ([`crate::rel`]) runs at the
//! framing layer — data frames are checksummed, acknowledged, nacked
//! when they arrive damaged, retransmitted with bounded exponential
//! backoff, and deduplicated on arrival. TCP alone already orders and
//! retransmits bytes; the frame discipline adds what TCP cannot:
//! end-to-end payload integrity above the transport, explicit
//! liveness (heartbeats, dead-link verdicts with a named peer), and a
//! protocol the chaos fabric can attack deterministically in tests.
//!
//! Each direction of each socket has exactly one writer thread, so no
//! write takes a lock. The owner — the thread holding the link —
//! writes `out`: data frames, timer retransmissions and pings. A data
//! reader per peer reads `inbound`, verifies, dedups and delivers into
//! one merged inbox, and writes each ack or nack back on `inbound`. A
//! reply reader per peer reads the acks and nacks on `out` and never
//! writes: it retires acknowledged seqs and hands a nack's
//! retransmission to the owner through the inbox, so a resend, like a
//! timer's, goes out only when the owner next calls into the link.
//! Deadlock freedom
//! follows: an owner's write waits only on the peer's data reader,
//! whose ack writes wait only on this rank's reply reader, which
//! waits only on the [`RelTx`] lock — held by no thread across I/O.
//! Batching (below) keeps it: an owner never blocks on its inbox
//! while holding queued frames, and a data reader never blocks on a
//! read while holding unwritten acks.
//!
//! Small frames travel in bulk, as §3.2's coordinator sends them. A
//! data frame of at most [`BATCH_MAX_TASK_BYTES`] joins its peer's
//! queue; the queue is written as one vectored write when it reaches
//! [`LINK_BATCH_BYTES`], when its oldest frame has waited
//! [`LINK_BATCH_TIMEOUT_NS`] at a link call, when a larger frame (never
//! held back) goes to that peer behind it, before the owner waits in
//! [`Link::recv_timeout`], on [`Link::flush`] and on drop. A frame
//! counts as sent — counters, ack timer, flight recorder — when it is
//! written, not when it is queued. The data reader collects the acks
//! for every frame its buffer already holds and writes them at once,
//! before its next read that could block. Frames, acks, seqs and
//! digests are byte for byte what unbatched sends would carry; only
//! the number of writes changes.
//!
//! A payload crosses this module without being copied. On send the
//! message is serialized once ([`WireMsg::to_bytes`]), digested once
//! ([`Frame::new`]), retained for retransmission by refcount
//! ([`RelTx::prepare`]) and handed to the kernel in one vectored
//! write per flush of head, payload and checksum of each frame
//! ([`crate::frame::write_frames`]). On receive the data reader —
//! behind a `BufReader`, so a run of small frames costs one `read` —
//! lands the payload directly in the buffer that travels through the
//! inbox to [`WireMsg::from_bytes`], digesting it once on the way.
//!
//! Mesh construction is rendezvous-ordered: every rank binds its
//! listener *before* any address is shared, then dials every peer and
//! accepts one connection from every peer. The first frame on a
//! connection is a [`FrameKind::Hello`] naming the dialer, so
//! construction cannot deadlock and needs no global lock step.

use crate::frame::{holds_frame, write_frames, Frame, FrameKind};
use crate::recorder::{FlightKind, FlightRecorder};
use crate::rel::{LinkTuning, RelRx, RelTx, RxVerdict, POLL_CEILING, POLL_FLOOR};
use crate::{FabricError, Link, LinkCounters, WireMsg};
use hipress_util::backoff::Backoff;
use hipress_util::bulk::{BATCH_MAX_TASK_BYTES, LINK_BATCH_BYTES, LINK_BATCH_TIMEOUT_NS};
use std::io::{BufReader, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long mesh construction waits for every peer to dial in.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a queued data frame may wait for the rest of its batch.
const BATCH_TIMEOUT: Duration = Duration::from_nanos(LINK_BATCH_TIMEOUT_NS);

/// What differs between one mesh endpoint and another: the recorder
/// it notes into and the membership epoch it belongs to. Timers are
/// the fabric's constants ([`crate::rel::HEARTBEAT`],
/// [`POLL_FLOOR`], [`POLL_CEILING`], [`LinkTuning::default`]).
#[derive(Debug, Clone, Default)]
pub struct MeshConfig {
    /// Flight recorder every protocol event is noted into (shared
    /// with the link's reader threads). `None` disables recording.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Membership epoch this mesh belongs to, carried in every Hello
    /// frame's sequence field. An elastic run rebuilds the mesh once
    /// per epoch; a dial whose Hello names a different epoch is a
    /// straggler from a membership that no longer exists (a zombie
    /// segment's reconnect) and is rejected at accept. Fixed runs
    /// leave this 0 on both sides and never reject.
    pub epoch: u64,
}

/// Notes one event into the optional recorder — a no-op when
/// recording is off, so call sites stay unconditional.
fn note(
    recorder: &Option<Arc<FlightRecorder>>,
    kind: FlightKind,
    peer: usize,
    seq: u64,
    bytes: u64,
) {
    if let Some(rec) = recorder {
        rec.record(kind, peer as u32, seq, bytes);
    }
}

/// What a reader thread reports into the merged inbox.
enum Event {
    /// An intact, first-delivery payload, in the buffer the data
    /// reader read it into.
    Deliver { payload: Arc<Vec<u8>> },
    /// A nack asked for `frame` again; the owner writes it, being the
    /// only writer of the connection it travels on.
    Resend { peer: usize, frame: Frame },
    /// `peer`'s stream closed or failed.
    PeerLost { peer: usize, detail: String },
    /// The send state for `peer` exhausted its retry budget.
    Dead {
        peer: usize,
        seq: u64,
        attempts: u32,
    },
}

/// Per-peer handles: the connection this rank dialed, which only the
/// owner writes; the one the peer dialed, which only the data reader
/// writes (held here to be shut down); the send-side reliability
/// state, shared with the reply reader; and the data frames the owner
/// holds back for one batched write.
struct PeerHandle {
    out: TcpStream,
    inbound: TcpStream,
    tx: Arc<Mutex<RelTx>>,
    queue: SendQueue,
}

/// Prepared data frames for one peer that have not been written yet
/// (§3.2's per-link batch).
#[derive(Default)]
struct SendQueue {
    frames: Vec<Frame>,
    /// Their bytes on the stream.
    bytes: u64,
    /// When the oldest of them was queued.
    since: Option<Instant>,
}

impl SendQueue {
    /// Whether the batch has waited [`BATCH_TIMEOUT`] at `now`.
    fn aged(&self, now: Instant) -> bool {
        self.since
            .is_some_and(|t| now.saturating_duration_since(t) >= BATCH_TIMEOUT)
    }
}

/// Counts `frames` and writes them, vectored, in one write. A single
/// counter update covers everything they add: framed bytes, and for
/// each data frame either its first send or a retransmission.
fn write_counted(
    mut stream: &TcpStream,
    counters: &Mutex<LinkCounters>,
    frames: &[Frame],
) -> std::io::Result<()> {
    {
        let mut c = counters.lock().expect("counter lock poisoned");
        for frame in frames {
            c.bytes_framed += frame.wire_len() as u64;
            if frame.kind == FrameKind::Data {
                if frame.attempt == 0 {
                    c.frames += 1;
                    c.bytes_payload += frame.payload.len() as u64;
                } else {
                    c.retransmits += 1;
                }
            }
        }
    }
    write_frames(&mut stream, frames)
}

/// One rank's endpoint on the TCP mesh. Build with [`connect_mesh`].
pub struct TcpLink<M> {
    me: usize,
    nodes: usize,
    peers: Vec<Option<PeerHandle>>,
    inbox: Receiver<Event>,
    config: MeshConfig,
    counters: Arc<Mutex<LinkCounters>>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: WireMsg> TcpLink<M> {
    /// Drives the protocol timers: timer-due retransmissions and
    /// idle-link heartbeats ([`RelTx::heartbeat`]), for every peer.
    fn tick(&self) -> Result<(), FabricError> {
        let now = Instant::now();
        for (peer, handle) in self.peers.iter().enumerate() {
            let Some(h) = handle else { continue };
            let (resend, ping) = {
                let mut tx = h.tx.lock().expect("rel-tx lock poisoned");
                let resend = tx.due(now).map_err(|d| FabricError::DeadLink {
                    peer,
                    seq: d.seq,
                    attempts: d.attempts,
                })?;
                (resend, tx.heartbeat(now))
            };
            for f in &resend {
                self.retransmit(peer, f);
            }
            if let Some(p) = ping {
                note(&self.config.recorder, FlightKind::HeartbeatSent, peer, 0, 0);
                let _ = write_counted(&h.out, &self.counters, &[p]);
            }
        }
        Ok(())
    }

    /// Writes a retransmission of `frame` to `peer`. Best effort, like
    /// every timer-driven write: a broken stream surfaces as the data
    /// reader's `PeerLost`.
    fn retransmit(&self, peer: usize, frame: &Frame) {
        let Some(h) = &self.peers[peer] else { return };
        note(
            &self.config.recorder,
            FlightKind::Retransmit,
            peer,
            frame.seq,
            frame.payload.len() as u64,
        );
        let _ = write_counted(&h.out, &self.counters, std::slice::from_ref(frame));
    }

    /// Acts on one inbox event: a delivery decodes into a message, a
    /// nack's resend is written, a loss is an error.
    fn accept_event(&self, ev: Event) -> Result<Option<M>, FabricError> {
        match ev {
            Event::Deliver { payload } => M::from_bytes(&payload)
                .map(Some)
                .map_err(FabricError::Decode),
            Event::Resend { peer, frame } => {
                self.retransmit(peer, &frame);
                Ok(None)
            }
            Event::PeerLost { peer, detail } => Err(FabricError::PeerLost { peer, detail }),
            Event::Dead {
                peer,
                seq,
                attempts,
            } => Err(FabricError::DeadLink {
                peer,
                seq,
                attempts,
            }),
        }
    }
}

impl<M> TcpLink<M> {
    /// Writes `peer`'s queued data frames, if any, as one vectored
    /// write. Each frame is noted as sent, counted, and has its ack
    /// timer restarted only now that it is on the wire.
    fn flush_peer(&mut self, peer: usize) -> Result<(), FabricError> {
        let Some(h) = self.peers[peer].as_mut() else {
            return Ok(());
        };
        if h.queue.frames.is_empty() {
            return Ok(());
        }
        let mut frames = std::mem::take(&mut h.queue.frames);
        for f in &frames {
            let bytes = f.payload.len() as u64;
            note(
                &self.config.recorder,
                FlightKind::SendData,
                peer,
                f.seq,
                bytes,
            );
        }
        let written = write_counted(&h.out, &self.counters, &frames);
        // No ack can have been due before the bytes were out: time
        // each wait from here, not from `prepare`.
        let now = Instant::now();
        {
            let mut tx = h.tx.lock().expect("rel-tx lock poisoned");
            for f in &frames {
                tx.sent(f.seq, now);
            }
        }
        frames.clear();
        h.queue = SendQueue {
            frames,
            bytes: 0,
            since: None,
        };
        written.map_err(|e| io_err(peer, e))
    }

    /// Flushes every peer's queue; reports the first failure after
    /// trying them all.
    fn flush_all(&mut self) -> Result<(), FabricError> {
        (0..self.peers.len()).fold(Ok(()), |first, p| {
            let flushed = self.flush_peer(p);
            first.and(flushed)
        })
    }

    /// Flushes every queue whose oldest frame has waited
    /// [`BATCH_TIMEOUT`]. Best effort, like every timer-driven write:
    /// a broken stream surfaces as the data reader's `PeerLost`.
    fn flush_aged(&mut self) {
        let now = Instant::now();
        for p in 0..self.peers.len() {
            if self.peers[p].as_ref().is_some_and(|h| h.queue.aged(now)) {
                let _ = self.flush_peer(p);
            }
        }
    }
}

impl<M> Drop for TcpLink<M> {
    /// Writes out what is still queued (best effort: every frame the
    /// owner sent leaves, as it would have unbatched), then shuts the
    /// sockets down (not merely drops them): reader threads — ours
    /// and the peers' — hold cloned descriptors, so only an explicit
    /// shutdown reliably propagates end-of-stream and lets every side
    /// unwind.
    fn drop(&mut self) {
        let _ = self.flush_all();
        for h in self.peers.iter().flatten() {
            let _ = h.out.shutdown(std::net::Shutdown::Both);
            let _ = h.inbound.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl<M: WireMsg> Link for TcpLink<M> {
    type Msg = M;

    fn me(&self) -> usize {
        self.me
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    /// Prepares the frame (its one digest, its seq) at once and queues
    /// it for `to`. The queue is written when it reaches
    /// [`LINK_BATCH_BYTES`], when a frame larger than
    /// [`BATCH_MAX_TASK_BYTES`] joins it (that one is never held
    /// back), when its oldest frame has waited [`BATCH_TIMEOUT`] at a
    /// link call, before the owner blocks in `recv_timeout`, on
    /// [`Link::flush`] and on drop.
    fn send(&mut self, to: usize, msg: M) -> Result<(), FabricError> {
        self.flush_aged();
        let Some(h) = self.peers.get_mut(to).and_then(Option::as_mut) else {
            return Err(FabricError::Io {
                peer: to,
                detail: "no stream to that rank".into(),
            });
        };
        let payload = msg.to_bytes();
        let now = Instant::now();
        let frame =
            h.tx.lock()
                .expect("rel-tx lock poisoned")
                .prepare(payload, now);
        let large = frame.payload.len() as u64 > BATCH_MAX_TASK_BYTES;
        let q = &mut h.queue;
        q.bytes += frame.wire_len() as u64;
        q.since.get_or_insert(now);
        q.frames.push(frame);
        if large || q.bytes >= LINK_BATCH_BYTES {
            self.flush_peer(to)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FabricError> {
        self.flush_all()
    }

    fn try_recv(&mut self) -> Result<Option<M>, FabricError> {
        // Before the timers: a frame written now has its ack timer
        // restarted before any retransmission test looks at it.
        self.flush_aged();
        self.tick()?;
        loop {
            match self.inbox.try_recv() {
                Ok(ev) => {
                    if let Some(msg) = self.accept_event(ev)? {
                        return Ok(Some(msg));
                    }
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(FabricError::Closed),
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<M>, FabricError> {
        // The owner never waits on its inbox while holding frames a
        // peer may be waiting on. Best effort: a broken stream
        // surfaces as the data reader's `PeerLost`.
        let _ = self.flush_all();
        let deadline = Instant::now() + timeout;
        loop {
            self.tick()?;
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let slice = (deadline - now).min(POLL_CEILING).max(POLL_FLOOR);
            match self.inbox.recv_timeout(slice) {
                Ok(ev) => {
                    if let Some(msg) = self.accept_event(ev)? {
                        return Ok(Some(msg));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(FabricError::Closed),
            }
        }
    }

    fn counters(&self) -> LinkCounters {
        *self.counters.lock().expect("counter lock poisoned")
    }
}

/// The data reader for one peer: reads the connection the peer
/// dialed, runs the receive-side reliability verdicts, answers each
/// data frame with an ack or nack on that same connection, and feeds
/// intact first deliveries into the merged inbox. The answers to a run
/// of frames that arrived together leave in one write, made before
/// any read that could block. It is the only thread that reports the
/// peer lost, so the loss arrives after the peer's last delivered
/// frame.
fn data_loop(
    peer: usize,
    me: usize,
    stream: TcpStream,
    counters: Arc<Mutex<LinkCounters>>,
    events: Sender<Event>,
    recorder: Option<Arc<FlightRecorder>>,
) {
    let mut rx = RelRx::new();
    let mut reader = BufReader::new(&stream);
    let mut replies = Vec::new();
    let detail = loop {
        if !replies.is_empty() && !holds_frame(reader.buffer()) {
            // Best effort: a broken stream ends the read below.
            counters.lock().expect("counter lock poisoned").bytes_framed += replies.len() as u64;
            let _ = (&stream).write_all(&replies);
            replies.clear();
        }
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break "stream closed".to_string(),
            Err(e) => break e.to_string(),
        };
        match frame.kind {
            FrameKind::Data => {
                let verdict = rx.accept(&frame);
                let (seen, reply) = match verdict {
                    RxVerdict::Deliver => (FlightKind::RecvData, FrameKind::Ack),
                    RxVerdict::Duplicate => (FlightKind::DupData, FrameKind::Ack),
                    RxVerdict::Corrupt => (FlightKind::CorruptData, FrameKind::Nack),
                };
                let (bytes, sent) = match verdict {
                    RxVerdict::Deliver => (frame.payload.len() as u64, FlightKind::AckSent),
                    RxVerdict::Duplicate => (0, FlightKind::AckSent),
                    RxVerdict::Corrupt => (0, FlightKind::NackSent),
                };
                note(&recorder, seen, peer, frame.seq, bytes);
                note(&recorder, sent, peer, frame.seq, 0);
                Frame::control(reply, me as u32, frame.seq)
                    .write_to(&mut replies)
                    .expect("writing to a Vec cannot fail");
                if verdict == RxVerdict::Deliver
                    && events
                        .send(Event::Deliver {
                            payload: frame.payload,
                        })
                        .is_err()
                {
                    return;
                }
            }
            FrameKind::Ping => note(&recorder, FlightKind::HeartbeatRecv, peer, 0, 0),
            // Acks and nacks travel on the connection this rank
            // dialed; the mesh never sends the rest after the
            // handshake (the drain and abort kinds belong to the
            // channel link).
            FrameKind::Ack
            | FrameKind::Nack
            | FrameKind::Hello
            | FrameKind::Done
            | FrameKind::Abort => {}
        }
    };
    note(&recorder, FlightKind::PeerLost, peer, 0, 0);
    let _ = events.send(Event::PeerLost { peer, detail });
}

/// The reply reader for one peer: reads the acks and nacks the peer's
/// data reader writes back on the connection this rank dialed, and
/// never writes. Like the fault-tolerant channel link, it acts only on
/// replies whose checksum verifies: a damaged ack could retire the
/// wrong seq. However the loop ends — a closed or failed stream, a
/// malformed frame, a dead-link verdict or a dropped owner — the
/// reader keeps draining the stream until it closes, so the peer's ack
/// writes never stall on it; the data reader reports the loss.
fn reply_loop(
    peer: usize,
    stream: impl Read,
    tx: &Mutex<RelTx>,
    events: &Sender<Event>,
    recorder: &Option<Arc<FlightRecorder>>,
) {
    let mut stream = BufReader::new(stream);
    while let Ok(Some(frame)) = Frame::read_from(&mut stream) {
        match frame.kind {
            FrameKind::Ack if frame.verify() => {
                note(recorder, FlightKind::AckRecv, peer, frame.seq, 0);
                tx.lock().expect("rel-tx lock poisoned").on_ack(frame.seq);
            }
            FrameKind::Nack if frame.verify() => {
                note(recorder, FlightKind::NackRecv, peer, frame.seq, 0);
                let resend = tx
                    .lock()
                    .expect("rel-tx lock poisoned")
                    .on_nack(frame.seq, Instant::now());
                let event = match resend {
                    Ok(Some(frame)) => Event::Resend { peer, frame },
                    Ok(None) => continue,
                    Err(d) => Event::Dead {
                        peer,
                        seq: d.seq,
                        attempts: d.attempts,
                    },
                };
                let dead = matches!(event, Event::Dead { .. });
                if events.send(event).is_err() || dead {
                    break;
                }
            }
            _ => {}
        }
    }
    let _ = std::io::copy(&mut stream, &mut std::io::sink());
}

fn io_err(peer: usize, e: impl std::fmt::Display) -> FabricError {
    FabricError::Io {
        peer,
        detail: e.to_string(),
    }
}

/// Dials `addr` until it answers or `deadline` passes. The peer's
/// listener is bound before its address is shared, so a refused dial
/// means the peer is gone and fails at once; any other error is
/// retried.
fn dial(addr: SocketAddr, deadline: Instant, peer: usize) -> Result<TcpStream, FabricError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if e.kind() == std::io::ErrorKind::ConnectionRefused || Instant::now() >= deadline {
                    return Err(io_err(peer, format!("connect {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Whether the peer has closed or reset `stream`, looked at without
/// blocking. A peer writes nothing on a stream it has not yet
/// accepted, so end-of-stream or an error means it is gone.
fn closed(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let peeked = stream.peek(&mut [0u8]);
    let restored = stream.set_nonblocking(false).is_ok();
    !restored
        || match peeked {
            Ok(n) => n == 0,
            Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
        }
}

/// Starts one of the link's reader threads.
fn spawn(
    name: String,
    peer: usize,
    body: impl FnOnce() + Send + 'static,
) -> Result<(), FabricError> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map(drop)
        .map_err(|e| io_err(peer, e))
}

/// Builds rank `rank`'s endpoint of an `nodes`-way mesh: dials every
/// peer at `peers[p]`, accepts one connection from every peer on
/// `listener`, identifies each accepted stream by its Hello frame,
/// then spawns each peer's data reader and reply reader.
///
/// # Errors
///
/// [`FabricError`] when a peer cannot be dialed or does not dial in
/// within the 10 s connect timeout, or on any handshake I/O
/// failure.
pub fn connect_mesh<M: WireMsg>(
    rank: usize,
    nodes: usize,
    listener: TcpListener,
    peers: &[SocketAddr],
    config: &MeshConfig,
) -> Result<TcpLink<M>, FabricError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut outs: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
    let mut inbounds: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();

    // Dial every peer, introducing ourselves with a Hello. The peer's
    // listener is bound before its address was shared, so the dial
    // completes in its backlog whether or not it is accepting yet.
    for (p, &addr) in peers.iter().enumerate().filter(|&(p, _)| p != rank) {
        let stream = dial(addr, deadline, p)?;
        stream.set_nodelay(true).map_err(|e| io_err(p, e))?;
        let hello = Frame::control(FrameKind::Hello, rank as u32, config.epoch);
        hello.write_to(&mut &stream).map_err(|e| io_err(p, e))?;
        note(&config.recorder, FlightKind::Hello, p, 0, 0);
        outs[p] = Some(stream);
    }

    // Accept every peer's dial; the Hello frame names the dialer.
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(rank, e))?;
    let mut accepted = 0;
    let mut wait = Backoff::new(Duration::from_millis(2));
    while accepted < nodes - 1 {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| io_err(rank, e))?;
                stream.set_nodelay(true).map_err(|e| io_err(rank, e))?;
                let hello = Frame::read_from(&mut &stream)
                    .map_err(|e| io_err(rank, e))?
                    .ok_or_else(|| io_err(rank, "stream closed before Hello"))?;
                if hello.kind != FrameKind::Hello {
                    return Err(io_err(rank, "first frame was not a Hello"));
                }
                if hello.seq != config.epoch {
                    // A dialer from another membership epoch: a zombie
                    // segment's late reconnect must never splice into
                    // the rebuilt mesh.
                    return Err(io_err(
                        rank,
                        format!(
                            "stale Hello from rank {}: epoch {} != {}",
                            hello.src, hello.seq, config.epoch
                        ),
                    ));
                }
                let p = hello.src as usize;
                if p == rank || p >= nodes || inbounds[p].is_some() {
                    return Err(io_err(rank, format!("Hello from unexpected rank {p}")));
                }
                note(&config.recorder, FlightKind::Hello, p, 0, 0);
                inbounds[p] = Some(stream);
                accepted += 1;
                wait = Backoff::new(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // A dial that beat the peer's failed setup sat in its
                // backlog; the peer's listener is gone now.
                if let Some(p) = (0..nodes).find(|&p| outs[p].as_ref().is_some_and(closed)) {
                    return Err(io_err(
                        p,
                        "peer closed its listener before joining the mesh",
                    ));
                }
                if Instant::now() >= deadline {
                    return Err(io_err(
                        rank,
                        format!("timed out with {accepted} of {} peers accepted", nodes - 1),
                    ));
                }
                wait.sleep();
            }
            Err(e) => return Err(io_err(rank, e)),
        }
    }

    // Wire up per-peer reliability state and the two reader threads.
    let counters = Arc::new(Mutex::new(LinkCounters::default()));
    let (events_tx, events_rx) = mpsc::channel();
    let mut handles: Vec<Option<PeerHandle>> = (0..nodes).map(|_| None).collect();
    for (p, pair) in outs.into_iter().zip(inbounds).enumerate() {
        let (Some(out), Some(inbound)) = pair else {
            continue;
        };
        let tx = Arc::new(Mutex::new(RelTx::new(
            rank as u32,
            LinkTuning::default(),
            Instant::now(),
        )));
        let data = inbound.try_clone().map_err(|e| io_err(p, e))?;
        let counters = Arc::clone(&counters);
        let (events, recorder) = (events_tx.clone(), config.recorder.clone());
        spawn(format!("fabric-rx-{rank}-{p}"), p, move || {
            data_loop(p, rank, data, counters, events, recorder)
        })?;
        let replies = out.try_clone().map_err(|e| io_err(p, e))?;
        let reply_tx = Arc::clone(&tx);
        let (events, recorder) = (events_tx.clone(), config.recorder.clone());
        spawn(format!("fabric-ack-{rank}-{p}"), p, move || {
            reply_loop(p, replies, &reply_tx, &events, &recorder)
        })?;
        handles[p] = Some(PeerHandle {
            out,
            inbound,
            tx,
            queue: SendQueue::default(),
        });
    }

    Ok(TcpLink {
        me: rank,
        nodes,
        peers: handles,
        inbox: events_rx,
        config: config.clone(),
        counters,
        _msg: PhantomData,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    hipress_util::record! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Probe {
            rank: u64,
            body: Vec<u8>,
        }
    }

    fn probe(rank: usize, body: Vec<u8>) -> Probe {
        Probe {
            rank: rank as u64,
            body,
        }
    }

    fn local_listener() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap();
        (l, a)
    }

    /// A peer whose listener is gone refuses the dial, and the dial
    /// fails at once instead of retrying until the deadline.
    #[test]
    fn a_dial_to_a_dropped_listener_fails_well_inside_the_deadline() {
        let (listener, addr) = local_listener();
        drop(listener);
        let started = Instant::now();
        let err = dial(addr, started + CONNECT_TIMEOUT, 3).unwrap_err();
        assert!(
            started.elapsed() < CONNECT_TIMEOUT / 10,
            "refused dial took {:?}",
            started.elapsed()
        );
        let FabricError::Io { peer: 3, detail } = err else {
            panic!("{err:?}");
        };
        assert!(detail.contains(&format!("connect {addr}")), "{detail}");
    }

    /// A dial the peer never accepted reads as open while its listener
    /// lives, and as closed once the listener is dropped.
    #[test]
    fn a_dial_left_in_a_dropped_backlog_reads_as_closed() {
        let (listener, addr) = local_listener();
        let stream = TcpStream::connect(addr).unwrap();
        assert!(!closed(&stream));
        drop(listener);
        let started = Instant::now();
        while !closed(&stream) {
            assert!(started.elapsed() < Duration::from_secs(1), "still open");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The stream of replies a peer's data reader would write.
    fn replies(frames: &[Frame]) -> std::io::Cursor<Vec<u8>> {
        let mut bytes = Vec::new();
        for f in frames {
            f.write_to(&mut bytes).unwrap();
        }
        std::io::Cursor::new(bytes)
    }

    /// A reply to `seq` from rank 1, its checksum broken if `damaged`.
    fn reply(kind: FrameKind, seq: u64, damaged: bool) -> Frame {
        let mut f = Frame::control(kind, 1, seq);
        if damaged {
            f.checksum ^= 1;
        }
        f
    }

    #[test]
    fn a_damaged_ack_retires_nothing() {
        let tx = Mutex::new(RelTx::new(0, LinkTuning::default(), Instant::now()));
        let seq = tx
            .lock()
            .unwrap()
            .prepare(vec![1, 2, 3], Instant::now())
            .seq;
        let (events, _inbox) = mpsc::channel();
        reply_loop(
            1,
            replies(&[reply(FrameKind::Ack, seq, true)]),
            &tx,
            &events,
            &None,
        );
        assert!(
            tx.lock().unwrap().get(seq).is_some(),
            "a damaged ack retired"
        );
        reply_loop(
            1,
            replies(&[reply(FrameKind::Ack, seq, false)]),
            &tx,
            &events,
            &None,
        );
        assert!(tx.lock().unwrap().idle(), "an intact ack left the seq");
    }

    #[test]
    fn a_damaged_nack_resends_nothing() {
        let tx = Mutex::new(RelTx::new(0, LinkTuning::default(), Instant::now()));
        let seq = tx
            .lock()
            .unwrap()
            .prepare(vec![1, 2, 3], Instant::now())
            .seq;
        let (events, inbox) = mpsc::channel();
        reply_loop(
            1,
            replies(&[reply(FrameKind::Nack, seq, true)]),
            &tx,
            &events,
            &None,
        );
        assert!(inbox.try_recv().is_err(), "a damaged nack resent");
        assert_eq!(tx.lock().unwrap().get(seq).unwrap().attempt, 0);
        reply_loop(
            1,
            replies(&[reply(FrameKind::Nack, seq, false)]),
            &tx,
            &events,
            &None,
        );
        let Ok(Event::Resend { peer: 1, frame }) = inbox.try_recv() else {
            panic!("an intact nack did not reach the owner as a resend");
        };
        assert_eq!((frame.seq, frame.attempt), (seq, 1));
    }

    /// A malformed frame ends the loop, but the reader still drains the
    /// stream to its end, so a peer writing acks behind it never stalls.
    #[test]
    fn a_malformed_reply_ends_the_loop_and_drains_the_stream() {
        let tx = Mutex::new(RelTx::new(0, LinkTuning::default(), Instant::now()));
        let seq = tx
            .lock()
            .unwrap()
            .prepare(vec![1, 2, 3], Instant::now())
            .seq;
        let mut bytes = 1u32.to_le_bytes().to_vec(); // shorter than any frame
        bytes.extend(replies(&[reply(FrameKind::Ack, seq, false)]).into_inner());
        bytes.resize(bytes.len() + (64 << 10), 0); // past any read buffer
        let mut stream = std::io::Cursor::new(bytes);
        let (events, _inbox) = mpsc::channel();
        reply_loop(1, &mut stream, &tx, &events, &None);
        assert!(
            tx.lock().unwrap().get(seq).is_some(),
            "an ack after a malformed frame was acted on"
        );
        assert_eq!(stream.position() as usize, stream.get_ref().len());
    }

    /// A 2-rank mesh inside this thread.
    fn pair() -> (TcpLink<Probe>, TcpLink<Probe>) {
        let (l0, a0) = local_listener();
        let (l1, a1) = local_listener();
        let addrs = [a0, a1];
        let config = MeshConfig::default();
        std::thread::scope(|s| {
            let dialer = s.spawn(|| connect_mesh(1, 2, l1, &addrs, &config).unwrap());
            let a = connect_mesh(0, 2, l0, &addrs, &config).unwrap();
            (a, dialer.join().unwrap())
        })
    }

    /// The next message `link` receives within 5 s.
    fn next(link: &mut TcpLink<Probe>) -> Probe {
        link.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("no message within 5 s")
    }

    /// Waits until every frame `link` sent to `peer` is acknowledged.
    fn await_idle(link: &TcpLink<Probe>, peer: usize) {
        let tx = &link.peers[peer].as_ref().unwrap().tx;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !tx.lock().unwrap().idle() {
            assert!(Instant::now() < deadline, "frames left unacknowledged");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_burst_of_small_sends_arrives_whole_and_in_order() {
        let (mut a, mut b) = pair();
        for i in 0..200 {
            a.send(1, probe(i, vec![i as u8; 100])).unwrap();
        }
        assert!(!a.peers[1].as_ref().unwrap().queue.frames.is_empty());
        // Waiting on its own inbox, the owner first writes its queue.
        assert!(a.recv_timeout(Duration::from_millis(1)).unwrap().is_none());
        for i in 0..200 {
            assert_eq!(next(&mut b), probe(i, vec![i as u8; 100]));
        }
        await_idle(&a, 1);
        let c = a.counters();
        assert_eq!((c.frames, c.retransmits), (200, 0));
        assert_eq!(
            c.bytes_payload,
            200 * probe(0, vec![0; 100]).to_bytes().len() as u64
        );
    }

    #[test]
    fn flush_and_drop_write_out_what_is_queued() {
        let (mut a, mut b) = pair();
        a.send(1, probe(1, vec![1])).unwrap();
        // Queued: no call on `a` has written it yet.
        assert!(b.recv_timeout(Duration::from_millis(20)).unwrap().is_none());
        a.flush().unwrap();
        assert_eq!(next(&mut b).rank, 1);
        a.send(1, probe(2, vec![2])).unwrap();
        drop(a);
        assert_eq!(next(&mut b).rank, 2);
    }

    #[test]
    fn a_large_frame_keeps_seq_order_with_the_small_ones_around_it() {
        let (mut a, mut b) = pair();
        let large = vec![7; BATCH_MAX_TASK_BYTES as usize + 1];
        a.send(1, probe(0, vec![0; 8])).unwrap();
        a.send(1, probe(1, large.clone())).unwrap();
        assert!(a.peers[1].as_ref().unwrap().queue.frames.is_empty());
        a.send(1, probe(2, vec![2; 8])).unwrap();
        a.flush().unwrap();
        assert_eq!(next(&mut b), probe(0, vec![0; 8]));
        assert_eq!(next(&mut b), probe(1, large));
        assert_eq!(next(&mut b), probe(2, vec![2; 8]));
        await_idle(&a, 1);
    }

    #[test]
    fn a_queued_frame_leaves_at_the_first_link_call_past_the_timeout() {
        let (mut a, mut b) = pair();
        a.send(1, probe(5, vec![5])).unwrap();
        std::thread::sleep(BATCH_TIMEOUT);
        assert!(a.try_recv().unwrap().is_none());
        assert_eq!(next(&mut b).rank, 5);
    }

    /// A batch is the concatenation of its frames' encodings: the
    /// stream carries the bytes unbatched sends would have, in the
    /// same order, whatever the number of writes.
    #[test]
    fn a_raw_peer_reads_exactly_the_encoded_frames() {
        let (l0, a0) = local_listener();
        let (l1, a1) = local_listener();
        let mesh = std::thread::spawn(move || {
            connect_mesh::<Probe>(0, 2, l0, &[a0, a1], &MeshConfig::default()).unwrap()
        });
        let (mut from0, _) = l1.accept().unwrap();
        let hello = Frame::read_from(&mut from0).unwrap().unwrap();
        assert_eq!((hello.kind, hello.src), (FrameKind::Hello, 0));
        let to0 = TcpStream::connect(a0).unwrap();
        Frame::control(FrameKind::Hello, 1, 0)
            .write_to(&mut &to0)
            .unwrap();
        let mut link = mesh.join().unwrap();
        let sizes = [0, 1, 150, 4096, BATCH_MAX_TASK_BYTES as usize + 8, 3, 150];
        let mut want = Vec::new();
        for (seq, &n) in sizes.iter().enumerate() {
            let msg = probe(seq, vec![seq as u8; n]);
            want.extend(Frame::new(FrameKind::Data, 0, seq as u64, msg.to_bytes()).encode());
            link.send(1, msg).unwrap();
        }
        link.flush().unwrap();
        let mut got = vec![0; want.len()];
        from0.read_exact(&mut got).unwrap();
        assert!(got == want, "the stream differs from the encoded frames");
    }

    #[test]
    fn three_way_mesh_exchanges_messages() {
        let nodes = 3;
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| local_listener()).unzip();
        let config = MeshConfig::default();
        // Dropping a link sends FIN, and peers surface that promptly
        // as PeerLost — so, exactly like the runtime's Shutdown
        // handshake, nobody drops their link until every rank is done.
        let done = std::sync::Arc::new(std::sync::Barrier::new(nodes));
        let mut joins = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let config = config.clone();
            let done = std::sync::Arc::clone(&done);
            joins.push(std::thread::spawn(move || {
                let mut link: TcpLink<Probe> =
                    connect_mesh(rank, nodes, listener, &addrs, &config).unwrap();
                // Everyone sends a tagged probe to everyone else...
                for p in 0..nodes {
                    if p != rank {
                        link.send(p, probe(rank, vec![rank as u8; 100])).unwrap();
                    }
                }
                // ...and collects one from each peer.
                let mut got = Vec::new();
                while got.len() < nodes - 1 {
                    if let Some(m) = link.recv_timeout(Duration::from_secs(5)).unwrap() {
                        got.push(m.rank);
                    } else {
                        panic!("rank {rank}: timed out waiting for probes");
                    }
                }
                got.sort_unstable();
                let want: Vec<u64> = (0..nodes as u64).filter(|&p| p != rank as u64).collect();
                assert_eq!(got, want);
                let c = link.counters();
                assert_eq!(c.frames, (nodes - 1) as u64);
                assert!(c.bytes_framed > c.bytes_payload);
                assert_eq!(c.retransmits, 0);
                done.wait();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn flight_recorder_captures_the_exchange() {
        use crate::recorder::{FlightKind, FlightRecorder};
        let nodes = 2;
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| local_listener()).unzip();
        let recorders: Vec<_> = (0..nodes)
            .map(|_| Arc::new(FlightRecorder::new(Instant::now())))
            .collect();
        let done = std::sync::Arc::new(std::sync::Barrier::new(nodes));
        let mut joins = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let config = MeshConfig {
                recorder: Some(Arc::clone(&recorders[rank])),
                ..MeshConfig::default()
            };
            let done = std::sync::Arc::clone(&done);
            let rec = Arc::clone(&recorders[rank]);
            joins.push(std::thread::spawn(move || {
                let mut link: TcpLink<Probe> =
                    connect_mesh(rank, nodes, listener, &addrs, &config).unwrap();
                link.send(1 - rank, probe(rank, vec![0; 32])).unwrap();
                let got = link.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
                assert_eq!(got.rank, (1 - rank) as u64);
                // The ack for our own send races the probe delivery;
                // hold the link open until it lands in the ring.
                let deadline = Instant::now() + Duration::from_secs(5);
                while !rec
                    .dump()
                    .iter()
                    .any(|e| e.kind == crate::recorder::FlightKind::AckRecv)
                {
                    assert!(Instant::now() < deadline, "ack never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.wait();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for rec in &recorders {
            let kinds: Vec<FlightKind> = rec.dump().iter().map(|e| e.kind).collect();
            // Every rank said hello, sent one data frame, delivered
            // one, and acked in both directions.
            assert!(kinds.contains(&FlightKind::Hello));
            assert!(kinds.contains(&FlightKind::SendData));
            assert!(kinds.contains(&FlightKind::RecvData));
            assert!(kinds.contains(&FlightKind::AckSent));
            assert!(kinds.contains(&FlightKind::AckRecv));
        }
    }

    #[test]
    fn dead_peer_is_reported_with_its_rank() {
        let nodes = 2;
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| local_listener()).unzip();
        let config = MeshConfig::default();
        let mut it = listeners.into_iter();
        let l0 = it.next().unwrap();
        let l1 = it.next().unwrap();
        let addrs1 = addrs.clone();
        let config1 = config.clone();
        let survivor = std::thread::spawn(move || {
            let mut link: TcpLink<Probe> = connect_mesh(0, nodes, l0, &addrs, &config).unwrap();
            // The peer vanishes without a word; the receive path must
            // name it rather than hang.
            match link.recv_timeout(Duration::from_secs(5)) {
                Err(FabricError::PeerLost { peer, .. }) => assert_eq!(peer, 1),
                other => panic!("expected PeerLost, got {other:?}"),
            }
        });
        let vanisher = std::thread::spawn(move || {
            let link: TcpLink<Probe> = connect_mesh(1, nodes, l1, &addrs1, &config1).unwrap();
            drop(link); // Streams close; rank 0 sees EOF.
        });
        vanisher.join().unwrap();
        survivor.join().unwrap();
    }

    #[test]
    fn stale_epoch_dial_is_rejected_at_accept() {
        let nodes = 2;
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| local_listener()).unzip();
        let mut it = listeners.into_iter();
        let l0 = it.next().unwrap();
        let l1 = it.next().unwrap();
        // Rank 0 accepts at epoch 1; rank 1 dials with a Hello still
        // stamped epoch 0 — a zombie segment's late reconnect.
        let addrs1 = addrs.clone();
        let acceptor = std::thread::spawn(move || {
            let config = MeshConfig {
                epoch: 1,
                ..MeshConfig::default()
            };
            let got: Result<TcpLink<Probe>, FabricError> =
                connect_mesh(0, nodes, l0, &addrs, &config);
            match got {
                Err(FabricError::Io { detail, .. }) => {
                    assert!(detail.contains("stale Hello"), "detail: {detail}");
                    assert!(detail.contains("epoch 0 != 1"), "detail: {detail}");
                }
                Err(other) => panic!("expected a stale-Hello rejection, got {other:?}"),
                Ok(_) => panic!("stale dial was accepted"),
            }
        });
        let stale = std::thread::spawn(move || {
            let config = MeshConfig::default(); // epoch 0
            let _ = connect_mesh::<Probe>(1, nodes, l1, &addrs1, &config);
        });
        acceptor.join().unwrap();
        stale.join().unwrap();
    }

    #[test]
    fn matching_epochs_connect() {
        let nodes = 2;
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..nodes).map(|_| local_listener()).unzip();
        let done = std::sync::Arc::new(std::sync::Barrier::new(nodes));
        let mut joins = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let done = std::sync::Arc::clone(&done);
            joins.push(std::thread::spawn(move || {
                let config = MeshConfig {
                    epoch: 7,
                    ..MeshConfig::default()
                };
                let mut link: TcpLink<Probe> =
                    connect_mesh(rank, nodes, listener, &addrs, &config).unwrap();
                link.send(1 - rank, probe(rank, vec![0; 16])).unwrap();
                let got = link.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
                assert_eq!(got.rank, (1 - rank) as u64);
                done.wait();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
